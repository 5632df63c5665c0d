#!/usr/bin/env python3
"""Benchmark of the disaggregated-memory scheduling simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dyn1024 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload

It imports the simulator from the checkout's ``src/`` (nothing to
build), runs one workload (see ``workloads.py`` and ``README.md``), and
prints a table of what it measured.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The exit code is 0 only when every operation passed its
check.  ``--record-digests`` stores the run's output digests as the
reference for its seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dyn1024", "static16k", "dyn16k_obs", "whatif1024")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's output digests as the reference")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_simulator() -> None:
    """Put the checkout's sources first on the path and import them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: simulator sources not found under {SRC}")
    # Set-up is timed cold: no on-disk trace cache.
    os.environ.pop("REPRO_TRACE_CACHE", None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_layer_table(outcome) -> None:
    """Spans summed over the traced units, by self time, with each
    row's share of ``Engine.run``."""
    import spans

    run_total = outcome.spans.get(spans.ENGINE_RUN, [0, 0.0, 0.0])[1]
    rows = sorted(outcome.spans.items(), key=lambda kv: -kv[1][2])
    print(f"{'span (raw host seconds)':40s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s} "
          f"{'of run':>7s}")
    for name, (calls, total, self_s) in rows:
        share = f"{self_s / run_total:7.1%}" if run_total else "      -"
        print(f"{name:40s} {calls:9d} {self_s:10.4f} {total:10.4f} {share}")


def run_one(args) -> int:
    import workloads

    outcome = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), ROOT)
    for error in outcome.errors:
        print(f"failed: {error}", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.attempted > 0
    if args.trace:
        import spans

        values = outcome.per_layer()
        units = {name: unit for name, unit, _ in spans.per_layer_metrics()}
        print_layer_table(outcome)
        print(f"trace.coverage {fmt(values['trace.coverage'])}  "
              f"trace.overhead_frac {fmt(values['trace.overhead_frac'])}")
    else:
        values = outcome.end_to_end(peak_rss_mb())
        units = workloads.END_TO_END
    print(f"{args.workload} seed={args.seed} attempted={outcome.attempted} "
          f"failed={outcome.failed} fail_frac={outcome.failed / max(outcome.attempted, 1):g}")
    if not args.trace:
        print("  ".join(f"{name}={fmt(values[name])} {units[name]}" for name in units))
        print(f"(calibrated; measured sim_s={fmt(statistics.median(outcome.probe.raw('sim')))} s"
              f" at host speed {fmt(outcome.probe.speed())} of nominal)")
    if args.record_digests:
        record_digests(args.workload, args.seed, outcome, correct)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def record_digests(workload: str, seed: int, outcome, correct: bool) -> None:
    import workloads

    if not correct:
        raise SystemExit("error: not recording digests of a failed run")
    path = workloads.DIGESTS_PATH
    recorded = json.loads(path.read_text())
    recorded[workload] = {"seed": seed, "digests": outcome.digests}
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines() or [""]
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            rows.append((name, json.loads(lines[-1])))
        except json.JSONDecodeError:
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
    if not args.trace:
        import workloads

        names = list(workloads.END_TO_END)
        print(f"{'workload':12s} " + " ".join(
            f"{n + ' (' + workloads.END_TO_END[n] + ')':>18s}" for n in names)
            + f" {'fail_frac':>10s}")
        for name, res in rows:
            cells = " ".join(f"{fmt(res['metrics'][n]['value']):>18s}" for n in names)
            print(f"{name:12s} {cells} {res['failed'] / res['attempted']:10g}")
    print(json.dumps({
        "correct": all(res["correct"] for _, res in rows) and len(rows) == len(WORKLOAD_NAMES),
        "attempted": sum(res["attempted"] for _, res in rows),
        "failed": sum(res["failed"] for _, res in rows),
        "metrics": {f"{name}.{metric}": value for name, res in rows
                    for metric, value in res["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    import_simulator()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
