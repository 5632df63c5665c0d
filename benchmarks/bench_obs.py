#!/usr/bin/env python
"""Observability benchmark: telemetry overhead + the layer table.

Four measurements over the same synthetic workload, each the best of
``--repeats`` wall times (the four take turns within each repeat):

1. **Baseline** — ``simulate()`` with telemetry disabled (the
   ``NULL_TELEMETRY`` no-op path).
2. **Observed** — the same run with a full :class:`repro.obs.Telemetry`
   attached (metrics, sampled series, provenance, the wall-clock layer
   table); asserts the metrics dumps are byte-identical across repeats
   and that the Prometheus export parses.  The last observed run's
   layer table is printed and recorded as ``profile``.
3. **Layer table off** — full telemetry with ``trace_spans=False``; the
   delta to the observed run is the layer table's cost.
4. **Provenance off** — full telemetry with the causal provenance graph
   disabled; the disabled-vs-enabled delta is the provenance cost.

Writes ``benchmarks/output/BENCH_obs.json`` (and appends the headline
``observed_s`` to ``BENCH_history.jsonl`` for ``make bench-check``):

```json
{"n_jobs": 200, "n_nodes": 96, "baseline_s": 1.91, "observed_s": 2.02,
 "overhead_frac": 0.056, "spans_off_s": 1.95, "span_overhead_frac": 0.036,
 "prov_disabled_s": 1.98, "prov_enabled_s": 2.02,
 "prov_overhead_frac": 0.02, "identical_dumps": true,
 "prometheus_ok": true, "profile": {...}}
```

Usage (``make obs-smoke`` runs the 20-job variant; CI uploads the JSON):

    python benchmarks/bench_obs.py [--jobs 200] [--nodes 96]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_utils import append_history  # noqa: E402
from repro.core.config import SystemConfig  # noqa: E402
from repro.obs.export import (  # noqa: E402
    metrics_jsonl,
    parse_prometheus_text,
    prometheus_text,
)
from repro.obs.telemetry import Telemetry  # noqa: E402
from repro.scheduler.simulator import simulate  # noqa: E402
from repro.traces.pipeline import synthetic_workload  # noqa: E402

OUTPUT_DIR = Path(__file__).resolve().parent / "output"


def _run(wl, config, policy: str, telemetry=None):
    return simulate(wl.fresh_jobs(), config, policy=policy,
                    profiles=wl.profiles, telemetry=telemetry)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=200)
    ap.add_argument("--nodes", type=int, default=96)
    ap.add_argument("--policy", default="dynamic",
                    choices=("baseline", "static", "dynamic"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=str(OUTPUT_DIR / "BENCH_obs.json"))
    args = ap.parse_args(argv)

    wl = synthetic_workload(n_jobs=args.jobs, n_system_nodes=args.nodes,
                            seed=args.seed)
    config = SystemConfig.from_memory_level(100, n_nodes=args.nodes)
    print(f"benchmarking telemetry overhead: {args.jobs} jobs, "
          f"{args.nodes} nodes, {args.policy} policy, "
          f"best of {args.repeats}")

    # The four modes take turns within each repeat, so a slow spell of a
    # shared host hits all of them alike; one untimed run warms up first.
    modes = {
        "baseline": lambda: None,
        "observed": Telemetry,
        "spans_off": lambda: Telemetry(trace_spans=False),
        "prov_off": lambda: Telemetry(provenance=False),
    }
    best = dict.fromkeys(modes, float("inf"))
    dumps = set()
    _run(wl, config, args.policy)
    for _ in range(args.repeats):
        for mode, make in modes.items():
            tel = make()
            best[mode] = min(best[mode],
                             _timed(_run, wl, config, args.policy, tel))
            if mode == "observed":
                telemetry = tel
                dumps.add(metrics_jsonl(tel.registry))
    identical = len(dumps) == 1
    baseline_s, observed_s = best["baseline"], best["observed"]
    spans_off_s, prov_off_s = best["spans_off"], best["prov_off"]
    span_overhead = ((observed_s - spans_off_s) / spans_off_s
                     if spans_off_s else None)
    # The delta vs ``observed_s`` is the provenance cost; the delta vs
    # ``baseline_s`` should be the pre-provenance overhead.
    prov_overhead = ((observed_s - prov_off_s) / prov_off_s
                     if prov_off_s else None)
    print(f"baseline (telemetry off): {baseline_s:8.3f} s")
    print(f"observed (full telemetry): {observed_s:8.3f} s")
    print(f"layer table off          : {spans_off_s:8.3f} s   "
          f"on: {observed_s:8.3f} s   overhead: {span_overhead:+.1%}")
    print(f"provenance disabled      : {prov_off_s:8.3f} s   "
          f"enabled: {observed_s:8.3f} s   "
          f"overhead: {prov_overhead:+.1%}")

    prom = prometheus_text(telemetry.registry)
    try:
        samples = parse_prometheus_text(prom)
        prometheus_ok = len(samples) > 0
    except ValueError as exc:
        print(f"prometheus dump FAILED to parse: {exc}")
        prometheus_ok = False

    profile = {
        row["name"]: {key: row[key] if key == "calls" else round(row[key], 6)
                      for key in ("calls", "total_s", "self_s", "max_s")}
        for row in telemetry.tracer.table()
    }
    print()
    print(f"{'layer':<32} {'calls':>7} {'total s':>9} {'self s':>9} "
          f"{'max ms':>9}")
    for name, row in profile.items():
        print(f"{name:<32} {row['calls']:>7} {row['total_s']:>9.4f} "
              f"{row['self_s']:>9.4f} {row['max_s'] * 1e3:>9.3f}")

    overhead = (observed_s - baseline_s) / baseline_s if baseline_s else None
    record = {
        "n_jobs": args.jobs,
        "n_nodes": args.nodes,
        "policy": args.policy,
        "repeats": args.repeats,
        "baseline_s": round(baseline_s, 4),
        "observed_s": round(observed_s, 4),
        "overhead_frac": round(overhead, 4) if overhead is not None else None,
        "spans_off_s": round(spans_off_s, 4),
        "span_overhead_frac": round(span_overhead, 4)
        if span_overhead is not None else None,
        "prov_disabled_s": round(prov_off_s, 4),
        "prov_enabled_s": round(observed_s, 4),
        "prov_overhead_frac": round(prov_overhead, 4)
        if prov_overhead is not None else None,
        "identical_dumps": identical,
        "prometheus_ok": prometheus_ok,
        "prometheus_samples": len(samples) if prometheus_ok else 0,
        "profile": profile,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    append_history(f"obs[j{args.jobs},n{args.nodes},{args.policy}]",
                   "observed_s", observed_s, record)
    print()
    print(f"telemetry overhead: {overhead:+.1%}  "
          f"(dumps identical: {identical}, prometheus ok: {prometheus_ok}); "
          f"wrote {out}")
    return 0 if (identical and prometheus_ok) else 1


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.exit(main())
