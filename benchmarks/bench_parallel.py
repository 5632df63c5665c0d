#!/usr/bin/env python
"""Wall-clock benchmark: serial vs parallel campaign execution.

Runs the same (reduced) Fig. 5 grid twice — ``workers=1`` and
``workers=N`` — from cold caches, verifies the JSONL records are
byte-identical after key-sorting, and writes a timing record to
``benchmarks/output/BENCH_parallel.json``:

```json
{"grid": "fig5", "scale": "small", "n_scenarios": 48, "workers": 4,
 "serial_s": 26.1, "parallel_s": 7.9, "speedup": 3.3,
 "identical_records": true, "cpu_count": 4, "cpu_limited": false}
```

On a runner with fewer CPUs than workers the speedup is not measured:
``"speedup": null`` plus ``"speedup_unmeasured": "<cpus> CPUs < <workers>
workers"``.

Usage (CI runs this and uploads the JSON as an artifact):

    python benchmarks/bench_parallel.py --workers 4
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_utils import append_history  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.experiments.campaign import fig5_scenarios, run_campaign  # noqa: E402
from repro.experiments.scenarios import SCALES  # noqa: E402

OUTPUT_DIR = Path(__file__).resolve().parent / "output"


def _timed_campaign(grid, path, workers: int) -> float:
    runner.clear_caches()
    t0 = time.perf_counter()
    run_campaign(grid, path, workers=workers)
    return time.perf_counter() - t0


def _normalized(path: Path) -> list:
    """Records with the wall-clock ``elapsed_s`` field dropped, key-sorted.

    Everything else in a campaign record is deterministic; ``elapsed_s``
    is the per-run wall time and legitimately differs between the serial
    and parallel executions being compared.
    """
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        rec.pop("elapsed_s", None)
    return sorted(records, key=lambda r: json.dumps(r, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--scale", choices=sorted(SCALES), default="small")
    ap.add_argument("--mixes", nargs="+", type=float, default=[0.25, 0.75])
    ap.add_argument("--memory-levels", nargs="+", type=int,
                    default=[37, 50, 75, 100])
    ap.add_argument("--overestimations", nargs="+", type=float,
                    default=[0.0, 0.6])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=str(OUTPUT_DIR / "BENCH_parallel.json"))
    args = ap.parse_args(argv)

    grid = fig5_scenarios(
        scale=SCALES[args.scale],
        mixes=tuple(args.mixes),
        memory_levels=tuple(args.memory_levels),
        overestimations=tuple(args.overestimations),
        seed=args.seed,
    )
    print(f"benchmarking {len(grid)} fig5 scenarios at scale {args.scale}: "
          f"serial vs {args.workers} workers")

    with tempfile.TemporaryDirectory() as tmp:
        serial_path = Path(tmp) / "serial.jsonl"
        parallel_path = Path(tmp) / "parallel.jsonl"
        serial_s = _timed_campaign(grid, serial_path, workers=1)
        print(f"serial:   {serial_s:8.2f} s")
        parallel_s = _timed_campaign(grid, parallel_path, workers=args.workers)
        print(f"parallel: {parallel_s:8.2f} s  ({args.workers} workers)")
        identical = _normalized(serial_path) == _normalized(parallel_path)

    cpu_count = os.cpu_count() or 1
    # A runner with fewer CPUs than workers cannot measure a speedup:
    # record why instead of a figure that would read as a regression.
    cpu_limited = cpu_count < args.workers
    record = {
        "grid": "fig5",
        "scale": args.scale,
        "n_scenarios": len(grid),
        "workers": args.workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": (round(serial_s / parallel_s, 3)
                    if parallel_s > 0 and not cpu_limited else None),
        "identical_records": identical,
        "cpu_count": cpu_count,
        "cpu_limited": cpu_limited,
    }
    if cpu_limited:
        record["speedup_unmeasured"] = (
            f"{cpu_count} CPUs < {args.workers} workers"
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    append_history(
        f"parallel[{args.scale},s{len(grid)},w{args.workers}]",
        "parallel_s", parallel_s, record,
    )
    speedup = (f"unmeasured ({record['speedup_unmeasured']})"
               if cpu_limited else f"{record['speedup']}x")
    print(f"speedup:  {speedup}  "
          f"(records identical: {identical}); wrote {out}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
