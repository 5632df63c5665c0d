#!/usr/bin/env python
"""Deep-dive schedule analysis for one contended scenario.

Goes beyond the paper's headline metrics: runs the three policies on an
underprovisioned, overestimated workload and reports

* a side-by-side policy table (throughput, waits, bounded slowdown,
  memory held, OOM kills);
* who pays for contention: response times split by memory class;
* the runtime dilation distribution (the remote-memory slowdown);
* the wasted-work bound of Fail/Restart;
* a lifecycle excerpt tracing the most-delayed job's life.

Run:  python examples/schedule_analysis.py
"""

import argparse

from repro import SystemConfig, simulate, synthetic_workload
from repro.experiments.report import render_table
from repro.obs import Telemetry, lifecycle_rows
from repro.metrics.analysis import (
    COMPARE_HEADERS,
    compare_policies,
    per_memory_class,
    restart_summary,
    runtime_dilation_stats,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=300)
    parser.add_argument("--nodes", type=int, default=96)
    parser.add_argument("--memory-level", type=int, default=50)
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args()

    workload = synthetic_workload(
        n_jobs=args.jobs, frac_large=0.75, overestimation=0.6,
        n_system_nodes=args.nodes, seed=args.seed,
    )
    config = SystemConfig.from_memory_level(args.memory_level,
                                            n_nodes=args.nodes)

    results = {}
    telemetry = Telemetry()
    for policy in ("baseline", "static", "dynamic"):
        results[policy] = simulate(
            workload.fresh_jobs(), config, policy=policy,
            profiles=workload.profiles,
            telemetry=telemetry if policy == "dynamic" else None,
        )

    print(render_table(COMPARE_HEADERS, compare_policies(results),
                       title="Policy comparison (75% large jobs, +60% "
                             "overestimation, 50% memory)"))

    # Who pays: per-memory-class response times under static vs dynamic.
    print()
    rows = []
    for policy in ("static", "dynamic"):
        split = per_memory_class(results[policy])
        for klass in ("normal", "large"):
            s = split[klass]
            rows.append([policy, klass, s["median"], s["q95"]])
    print(render_table(
        ["policy", "class", "median resp (s)", "q95 resp (s)"], rows,
        title="Response time by memory class",
    ))

    # Runtime dilation under the contention model.
    print()
    rows = []
    for policy in ("static", "dynamic"):
        d = runtime_dilation_stats(results[policy])
        rows.append([policy, d["median"], d["q95"], d["max"]])
    print(render_table(
        ["policy", "median dilation", "q95", "max"], rows,
        title="Remote-memory runtime dilation (actual/base runtime)",
    ))

    # F/R waste bound.
    waste = restart_summary(results["dynamic"])
    print(
        f"\nFail/Restart cost bound: {waste['total_restarts']:.0f} restarts, "
        f"<= {waste['wasted_fraction_bound']:.2%} of completed work wasted."
    )

    # Trace the slowest job through the lifecycle view of the run's
    # provenance record.
    slowest = max(results["dynamic"].completed(),
                  key=lambda r: r.response_time)
    print(f"\nLife of the most-delayed job ({slowest.jid}, "
          f"{slowest.response_time:.0f}s response):")
    life = [row for row in lifecycle_rows(telemetry.provenance)
            if row["jid"] == slowest.jid]
    for row in life[:12]:
        print(f"  [{row['t']:12.1f}s] {row['event']:<10} "
              f"{row.get('detail', '')}")


if __name__ == "__main__":
    main()
