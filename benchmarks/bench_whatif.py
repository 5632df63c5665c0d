#!/usr/bin/env python
"""Wall-clock benchmark: what-if forks vs fresh simulations.

Two measurements, written to ``benchmarks/output/BENCH_whatif.json``
(and appended to ``BENCH_history.jsonl`` for ``make bench-check``):

1. **Query latency** — median what-if query time (fork + suffix replay)
   over late fork points against the median fresh end-to-end simulation
   answering the same counterfactual.  Acceptance: >= 10x.
2. **COW efficiency** — bytes copied by a 100-node perturbation forked
   off a 16384-node scenario, as a fraction of the full columnar copy.
   Acceptance: < 10%.

Usage (CI runs ``--smoke``; the full run is the recorded figure):

    python benchmarks/bench_whatif.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_utils import append_history  # noqa: E402
from repro.core.config import SystemConfig  # noqa: E402
from repro.jobs.job import Job  # noqa: E402
from repro.jobs.usage import UsageTrace  # noqa: E402
from repro.scheduler.simulator import simulate  # noqa: E402
from repro.traces.pipeline import synthetic_workload  # noqa: E402
from repro.whatif import SubmitJob, WhatIf  # noqa: E402

OUTPUT_DIR = Path(__file__).resolve().parent / "output"


# ----------------------------------------------------------------------
# 1. Query latency: fork + replay vs fresh end-to-end
# ----------------------------------------------------------------------
def _fresh_query(wl, config, at, pert: SubmitJob) -> float:
    """Answer one counterfactual the pre-fork way: simulate everything."""
    jobs = wl.fresh_jobs()
    jid = max(j.jid for j in jobs) + 1
    jobs.append(Job(
        jid=jid, submit_time=at, n_nodes=pert.n_nodes,
        base_runtime=pert.base_runtime,
        walltime_limit=pert.base_runtime * 1.5,
        mem_request_mb=pert.mem_request_mb,
        usage=UsageTrace.constant(pert.mem_request_mb),
    ))
    t0 = time.perf_counter()
    simulate(jobs, config, policy="dynamic", profiles=wl.profiles)
    return time.perf_counter() - t0


def bench_query_latency(n_nodes, n_jobs, n_sessions, queries_per_session,
                        fresh_repeats, seed=0) -> dict:
    wl = synthetic_workload(n_jobs=n_jobs, n_system_nodes=n_nodes, seed=seed)
    config = SystemConfig.from_memory_level(50, n_nodes=n_nodes)
    base = simulate(wl.fresh_jobs(), config, policy="dynamic",
                    profiles=wl.profiles)

    # Fork points spread over the issue's 0.85..0.99 late-query band.
    lo, hi = 0.85, 0.99
    fracs = [lo + (hi - lo) * i / max(1, n_sessions - 1)
             for i in range(n_sessions)]
    query_times = []
    for frac in fracs:
        at = frac * base.makespan
        session = WhatIf(wl.fresh_jobs(), config, policy="dynamic", at=at,
                         profiles=wl.profiles)
        for q in range(queries_per_session):
            pert = SubmitJob(n_nodes=4 + q, base_runtime=1800.0 + 60.0 * q,
                             mem_request_mb=32768)
            t0 = time.perf_counter()
            session.query(pert, use_cache=False)
            query_times.append(time.perf_counter() - t0)

    fresh_times = [
        _fresh_query(wl, config, fracs[i % len(fracs)] * base.makespan,
                     SubmitJob(n_nodes=4, base_runtime=1800.0,
                               mem_request_mb=32768))
        for i in range(fresh_repeats)
    ]
    whatif_median = statistics.median(query_times)
    fresh_median = statistics.median(fresh_times)
    return {
        "n_nodes": n_nodes,
        "n_jobs": n_jobs,
        "n_queries": len(query_times),
        "fork_points": [round(f, 3) for f in fracs],
        "whatif_median_s": round(whatif_median, 4),
        "fresh_median_s": round(fresh_median, 4),
        "speedup": round(fresh_median / whatif_median, 2),
    }


# ----------------------------------------------------------------------
# 2. COW efficiency at scale
# ----------------------------------------------------------------------
def bench_cow_efficiency(n_nodes, n_jobs, pert_nodes=100, seed=0) -> dict:
    wl = synthetic_workload(n_jobs=n_jobs, n_system_nodes=n_nodes, seed=seed)
    config = SystemConfig.from_memory_level(100, n_nodes=n_nodes)
    base = simulate(wl.fresh_jobs(), config, policy="dynamic",
                    profiles=wl.profiles)
    session = WhatIf(wl.fresh_jobs(), config, policy="dynamic",
                     at=0.9 * base.makespan, profiles=wl.profiles)
    session.query(SubmitJob(n_nodes=pert_nodes, base_runtime=3600.0,
                            mem_request_mb=65536))
    store = session.handle.cluster._cow
    full = store.full_copy_bytes()
    return {
        "n_nodes": n_nodes,
        "n_jobs": n_jobs,
        "pert_nodes": pert_nodes,
        "bytes_copied": store.bytes_copied,
        "full_copy_bytes": full,
        "copy_fraction": round(store.bytes_copied / full, 4),
        "pages_copied": store.pages_copied,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes for CI (numbers not comparable "
                         "to the recorded full run)")
    ap.add_argument("--out", default=str(OUTPUT_DIR / "BENCH_whatif.json"))
    args = ap.parse_args(argv)

    if args.smoke:
        q = dict(n_nodes=256, n_jobs=200, n_sessions=3,
                 queries_per_session=3, fresh_repeats=2)
        c = dict(n_nodes=2048, n_jobs=100)
    else:
        q = dict(n_nodes=1024, n_jobs=1000, n_sessions=10,
                 queries_per_session=10, fresh_repeats=5)
        c = dict(n_nodes=16384, n_jobs=300)

    print(f"query latency: {q['n_nodes']}x{q['n_jobs']} dynamic, "
          f"{q['n_sessions'] * q['queries_per_session']} queries ...")
    latency = bench_query_latency(**q)
    print(f"  whatif {latency['whatif_median_s']:.3f} s vs fresh "
          f"{latency['fresh_median_s']:.3f} s -> "
          f"{latency['speedup']}x")

    print(f"cow efficiency: {c['n_nodes']} nodes, 100-node fork ...")
    cow = bench_cow_efficiency(**c)
    print(f"  {cow['bytes_copied']} / {cow['full_copy_bytes']} bytes "
          f"copied ({cow['copy_fraction']:.1%} of a full copy, "
          f"{cow['pages_copied']} pages)")

    record = {
        "smoke": args.smoke,
        "query_latency": latency,
        "cow_efficiency": cow,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    size = "smoke" if args.smoke else "full"
    append_history(
        f"whatif[{size},n{q['n_nodes']},j{q['n_jobs']}]",
        "whatif_median_s", latency["whatif_median_s"], record,
    )
    print(f"wrote {out}")

    ok = latency["speedup"] >= 10.0 and cow["copy_fraction"] < 0.10
    if args.smoke:
        # Smoke sizes only sanity-check that forks beat fresh runs.
        ok = latency["speedup"] > 1.0 and cow["copy_fraction"] < 0.10
    if not ok:
        print("acceptance thresholds NOT met")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
