"""Command-line interface.

``python -m repro`` exposes the library's main workflows:

* ``generate`` — build a synthetic or Grizzly-like workload and save it
  (JSON, optionally gzipped; SWF export for external Slurm tooling);
* ``simulate`` — run one policy on a system configuration over a saved
  or freshly generated workload;
* ``whatif`` — fork a simulation mid-run (copy-on-write snapshot) and
  compare a counterfactual future — an extra job, a policy switch,
  late-provisioned memory nodes — against the recorded one;
* ``figure`` / ``table`` — regenerate any of the paper's figures/tables
  and print the report;
* ``inspect`` — characterise a saved workload (Table 2/3 style);
* ``trace`` — summarise a telemetry directory written by
  ``simulate --telemetry`` / ``campaign --telemetry`` (top-N layers of
  the wall-clock layer table, metric catalogue, ``--job N`` lifecycle,
  ``--perfetto`` trace-event export, ``--strict`` truncation gate);
* ``explain`` — causal "why" report for one job: wait-time blame
  decomposition plus the provenance why-chain;
* ``diff`` — bisect two telemetry directories to their first divergent
  event (exit 0 when the deterministic streams are identical);
* ``lint`` — run the AST-based simulation-correctness linter
  (see ``docs/STATIC_ANALYSIS.md``).

Every command is deterministic given ``--seed``.  ``-q``/``--quiet``
silences status lines (results and tables always print);
``-v``/``--verbose`` adds diagnostics.  Both are accepted before or
after the subcommand.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter
from typing import List, Optional

from .core.config import MEMORY_LEVELS, SystemConfig
from .obs.console import NORMAL, QUIET, VERBOSE, console
from .experiments import figures as _figures
from .experiments import tables as _tables
from .experiments.report import (
    render_figure5,
    render_figure6,
    render_figure7,
    render_figure9,
    render_heatmap,
    render_table,
    render_table2,
    render_table3,
)
from .experiments.scenarios import SCALES
from .scheduler.simulator import simulate as _simulate
from .traces.io import (
    load_workload,
    result_records_csv,
    save_result,
    save_workload,
)
from .traces.pipeline import grizzly_workload, synthetic_workload


def _verbosity_parser() -> argparse.ArgumentParser:
    """Shared ``-v``/``-q`` flags, usable before or after the subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_mutually_exclusive_group()
    # SUPPRESS keeps an absent flag out of the subparser's namespace, so
    # the subcommand's defaults never clobber a ``repro -q <cmd>`` given
    # before the subcommand (argparse subparsers re-apply defaults).
    group.add_argument("-v", "--verbose", action="store_true",
                       default=argparse.SUPPRESS,
                       help="show extra diagnostics")
    group.add_argument("-q", "--quiet", action="store_true",
                       default=argparse.SUPPRESS,
                       help="silence status lines (results still print)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _verbosity_parser()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic memory provisioning on disaggregated HPC "
        "systems (SC-W 2023) - reproduction toolkit",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ------------------------------------------------------------------
    gen = sub.add_parser("generate", help="generate a workload trace",
                         parents=[common])
    gen.add_argument("--kind", choices=("synthetic", "grizzly"),
                     default="synthetic")
    gen.add_argument("--jobs", type=int, default=1000)
    gen.add_argument("--nodes", type=int, default=1024,
                     help="system size the trace targets")
    gen.add_argument("--frac-large", type=float, default=0.25,
                     help="fraction of large-memory jobs (synthetic only)")
    gen.add_argument("--overestimation", type=float, default=0.0)
    gen.add_argument("--utilization", type=float, default=0.80)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True,
                     help="output path (.json or .json.gz)")
    gen.add_argument("--swf", help="also export to this SWF path")

    # ------------------------------------------------------------------
    sim = sub.add_parser("simulate", help="run one scheduling simulation",
                         parents=[common])
    sim.add_argument("--workload", help="saved workload (from 'generate')")
    sim.add_argument("--jobs", type=int, default=500,
                     help="jobs to generate when no workload file is given")
    sim.add_argument("--frac-large", type=float, default=0.25)
    sim.add_argument("--overestimation", type=float, default=0.0)
    sim.add_argument("--policy", choices=("baseline", "static", "dynamic"),
                     default="dynamic")
    sim.add_argument("--nodes", type=int, default=256)
    sim.add_argument("--memory-level", type=int, default=100,
                     choices=sorted(MEMORY_LEVELS))
    sim.add_argument("--update-interval", type=float, default=300.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", help="write the result JSON here")
    sim.add_argument("--csv", help="write per-job records CSV here")
    sim.add_argument("--timeline", action="store_true",
                     help="render an ASCII occupancy strip and Gantt chart")
    sim.add_argument("--telemetry", metavar="DIR",
                     help="observe the run and export metrics, layer "
                          "table and events to this directory (read back "
                          "with 'repro trace')")

    # ------------------------------------------------------------------
    wi = sub.add_parser(
        "whatif",
        help="fork a simulation at a point in time and compare the "
             "perturbed future against the recorded one",
        parents=[common],
    )
    wi.add_argument("--workload", help="saved workload (from 'generate')")
    wi.add_argument("--jobs", type=int, default=500,
                    help="jobs to generate when no workload file is given")
    wi.add_argument("--frac-large", type=float, default=0.25)
    wi.add_argument("--overestimation", type=float, default=0.0)
    wi.add_argument("--policy", choices=("baseline", "static", "dynamic"),
                    default="dynamic")
    wi.add_argument("--nodes", type=int, default=256)
    wi.add_argument("--memory-level", type=int, default=100,
                    choices=sorted(MEMORY_LEVELS))
    wi.add_argument("--update-interval", type=float, default=300.0)
    wi.add_argument("--seed", type=int, default=0)
    wi.add_argument("--at", type=float, default=0.0, metavar="TIME",
                    help="fork time in simulated seconds (default 0)")
    what = wi.add_mutually_exclusive_group(required=True)
    what.add_argument("--submit", metavar="NODES:RUNTIME:MEM_MB[:WALL]",
                      help="inject one extra job at the fork time")
    what.add_argument("--swap-policy", metavar="POLICY",
                      choices=("baseline", "static", "dynamic"),
                      help="switch allocation policy from the fork time on")
    what.add_argument("--add-memnodes", type=int, metavar="N",
                      help="grow memory capacity on N idle nodes")
    wi.add_argument("--extra-mb", type=int, default=65536,
                    help="extra MB per node for --add-memnodes "
                         "(default 65536)")

    # ------------------------------------------------------------------
    fig = sub.add_parser("figure", help="regenerate a paper figure",
                         parents=[common])
    fig.add_argument("number", type=int, choices=(2, 4, 5, 6, 7, 8, 9))
    fig.add_argument("--scale", choices=sorted(SCALES), default="small")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--plot", action="store_true",
                     help="also render an ASCII plot of the figure")
    fig.add_argument("--csv", metavar="PATH",
                     help="also write the figure data as tidy CSV")
    fig.add_argument("--workers", type=int, default=1,
                     help="process-pool size for figures 5/8 (1 = serial)")

    tab = sub.add_parser("table", help="regenerate a paper table",
                         parents=[common])
    tab.add_argument("number", type=int, choices=(1, 2, 3))
    tab.add_argument("--seed", type=int, default=0)

    # ------------------------------------------------------------------
    ins = sub.add_parser("inspect", help="characterise a saved workload",
                         parents=[common])
    ins.add_argument("workload")

    val = sub.add_parser(
        "validate",
        help="check a saved workload against the paper's statistics",
        parents=[common],
    )
    val.add_argument("workload")
    val.add_argument("--tolerance", type=float, default=0.35,
                     help="allowed relative deviation of Table 3 quartiles")

    sw = sub.add_parser("sweep", help="run an ad-hoc scenario sweep",
                        parents=[common])
    sw.add_argument("--policy", nargs="+",
                    default=["static", "dynamic"],
                    choices=("baseline", "static", "dynamic"))
    sw.add_argument("--memory-level", nargs="+", type=int,
                    default=[50, 75, 100], choices=sorted(MEMORY_LEVELS))
    sw.add_argument("--frac-large", nargs="+", type=float, default=[0.5])
    sw.add_argument("--overestimation", nargs="+", type=float, default=[0.6])
    sw.add_argument("--nodes", type=int, default=96)
    sw.add_argument("--jobs", type=int, default=250)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--workers", type=int, default=1,
                    help="process-pool size (1 = serial)")

    camp = sub.add_parser(
        "campaign",
        help="run a resumable full-grid campaign (JSONL checkpointing)",
        parents=[common],
    )
    camp.add_argument("grid", choices=("fig5", "fig8"))
    camp.add_argument("--out", required=True, help="JSONL checkpoint path")
    camp.add_argument("--scale", choices=sorted(SCALES), default="medium")
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--workers", type=int, default=1,
                      help="process-pool size (1 = serial); records are "
                           "identical, file order follows completion")
    camp.add_argument("--mixes", nargs="+", type=float, metavar="FRAC",
                      help="subset of large-job fractions (fig5 panels; "
                           "for fig8 a single value overrides the 0.5 mix)")
    camp.add_argument("--memory-levels", nargs="+", type=int,
                      choices=sorted(MEMORY_LEVELS), metavar="PCT",
                      help="subset of provisioning levels to run")
    camp.add_argument("--overestimations", nargs="+", type=float,
                      metavar="FRAC", help="subset of overestimation factors")
    camp.add_argument("--telemetry", metavar="DIR",
                      help="collect per-scenario metric dumps under DIR and "
                           "merge them (deterministically) into "
                           "DIR/metrics.{jsonl,csv,prom}")
    camp.add_argument("--trace-cache", metavar="DIR",
                      help="share generated workload traces across runs and "
                           "pool workers through this on-disk cache "
                           "directory")

    # ------------------------------------------------------------------
    tr = sub.add_parser(
        "trace",
        help="summarise a telemetry directory "
             "(from 'simulate --telemetry' / 'campaign --telemetry')",
        parents=[common],
    )
    tr.add_argument("directory", help="telemetry directory to read")
    tr.add_argument("--top", type=int, default=10,
                    help="layers to show, by self time (default 10)")
    tr.add_argument("--job", type=int, metavar="JID",
                    help="explain one job: reconstruct its lifecycle "
                         "from the exported events.jsonl")
    tr.add_argument("--series", action="store_true",
                    help="also render the sampled time series as ASCII "
                         "strip charts")
    tr.add_argument("--strict", action="store_true",
                    help="exit nonzero when the export's ring buffer "
                         "evicted events (the history is incomplete)")
    tr.add_argument("--perfetto", metavar="OUT",
                    help="also export a Chrome/Perfetto trace-event JSON "
                         "to OUT (open at https://ui.perfetto.dev)")

    exp = sub.add_parser(
        "explain",
        help="explain one job causally: wait-time blame + provenance "
             "why-chain (from 'simulate --telemetry')",
        parents=[common],
    )
    exp.add_argument("directory", help="telemetry directory to read")
    exp.add_argument("job", type=int, help="job id to explain")
    exp.add_argument("--chain", type=int, default=20, metavar="N",
                     help="max why-chain ancestors to show (default 20)")

    df = sub.add_parser(
        "diff",
        help="bisect two telemetry directories to the first divergent "
             "event (exit 0 iff identical)",
        parents=[common],
    )
    df.add_argument("run_a", help="first telemetry directory")
    df.add_argument("run_b", help="second telemetry directory")
    df.add_argument("--context", type=int, default=3,
                    help="context lines around the divergence (default 3)")

    lint = sub.add_parser(
        "lint",
        help="run the simulation-correctness linter (docs/STATIC_ANALYSIS.md)",
        parents=[common],
    )
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(lint)

    return parser


# ----------------------------------------------------------------------
def _cmd_generate(args) -> int:
    if args.kind == "grizzly":
        wl = grizzly_workload(
            overestimation=args.overestimation,
            n_system_nodes=args.nodes,
            scale_jobs=args.jobs,
            seed=args.seed,
        )
    else:
        wl = synthetic_workload(
            n_jobs=args.jobs,
            frac_large=args.frac_large,
            overestimation=args.overestimation,
            target_utilization=args.utilization,
            n_system_nodes=args.nodes,
            seed=args.seed,
        )
    save_workload(wl, args.out)
    console.status(f"wrote {len(wl)} jobs to {args.out} "
                   f"({wl.frac_large_memory():.0%} large-memory)")
    for key, value in wl.meta.items():
        console.detail(f"  {key}: {value}")
    if args.swf:
        wl.to_swf().write(args.swf)
        console.status(f"wrote SWF trace to {args.swf}")
    return 0


def _cmd_simulate(args) -> int:
    if args.workload:
        wl = load_workload(args.workload)
        jobs = wl.fresh_jobs()
        profiles = wl.profiles
    else:
        wl = synthetic_workload(
            n_jobs=args.jobs,
            frac_large=args.frac_large,
            overestimation=args.overestimation,
            n_system_nodes=args.nodes,
            seed=args.seed,
        )
        jobs = wl.jobs
        profiles = wl.profiles
    config = SystemConfig.from_memory_level(
        args.memory_level, n_nodes=args.nodes,
        update_interval=args.update_interval,
    )
    telemetry = None
    if args.telemetry:
        from .obs.telemetry import Telemetry

        telemetry = Telemetry()
    console.detail(f"simulating {len(jobs)} jobs on {args.nodes} nodes "
                   f"({args.policy}, {args.memory_level}% memory, "
                   f"update interval {args.update_interval:g}s)")
    result = _simulate(
        jobs, config, policy=args.policy, profiles=profiles,
        sample_interval=300.0 if args.timeline else None,
        telemetry=telemetry,
    )
    rows = [[k, v] for k, v in result.summary().items()]
    console.result(
        render_table(["metric", "value"], rows,
                     title=f"{args.policy} on {args.memory_level}% memory, "
                           f"{args.nodes} nodes"))
    if args.timeline:
        from .experiments.timeline import render_run

        console.result()
        console.result(render_run(result))
    if args.out:
        save_result(result, args.out)
        console.status(f"wrote result to {args.out}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(result_records_csv(result))
        console.status(f"wrote per-job CSV to {args.csv}")
    if telemetry is not None:
        from .obs.provenance import lifecycle_rows

        telemetry.export(args.telemetry)
        tracer = telemetry.tracer
        n_layers = len(tracer.table()) if tracer is not None else 0
        n_events = len(lifecycle_rows(telemetry.provenance))
        console.status(
            f"wrote telemetry to {args.telemetry} "
            f"({len(telemetry.registry.counters)} counters, "
            f"{n_layers} timed layers, {n_events} events); "
            f"inspect with: repro trace {args.telemetry}")
    return 0


def _cmd_whatif(args) -> int:
    from .whatif import AddMemNodes, SubmitJob, SwapPolicy, WhatIf

    if args.workload:
        wl = load_workload(args.workload)
        jobs = wl.fresh_jobs()
        profiles = wl.profiles
    else:
        wl = synthetic_workload(
            n_jobs=args.jobs,
            frac_large=args.frac_large,
            overestimation=args.overestimation,
            n_system_nodes=args.nodes,
            seed=args.seed,
        )
        jobs = wl.jobs
        profiles = wl.profiles
    config = SystemConfig.from_memory_level(
        args.memory_level, n_nodes=args.nodes,
        update_interval=args.update_interval,
    )
    if args.submit:
        parts = args.submit.split(":")
        if len(parts) not in (3, 4):
            raise SystemExit(
                "--submit expects NODES:RUNTIME:MEM_MB[:WALLTIME], got "
                f"{args.submit!r}")
        perturbation = SubmitJob(
            n_nodes=int(parts[0]),
            base_runtime=float(parts[1]),
            mem_request_mb=int(parts[2]),
            walltime_limit=float(parts[3]) if len(parts) == 4 else None,
        )
    elif args.swap_policy:
        perturbation = SwapPolicy(args.swap_policy)
    else:
        perturbation = AddMemNodes(args.add_memnodes, args.extra_mb)
    console.detail(
        f"forking {len(jobs)} jobs on {args.nodes} nodes "
        f"({args.policy}, {args.memory_level}% memory) at t={args.at:g}s")
    session = WhatIf(
        jobs, config, policy=args.policy, at=args.at, profiles=profiles,
    )
    report = session.query(perturbation)
    console.result(report.render())
    stats = session.stats()
    console.detail(
        f"replayed {report.events_replayed} events; restored "
        f"{report.pages_restored} COW pages "
        f"({stats['cow_bytes_copied']} bytes copied since fork)")
    return 0


def _cmd_figure(args) -> int:
    from .experiments.plots import ascii_bars, ascii_ecdf, ascii_scatter

    scale = SCALES[args.scale]
    n = args.number

    def maybe_csv(text: str) -> None:
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(text)
            console.status(f"wrote CSV to {args.csv}")
    if n == 2:
        data = _figures.figure2_week_sampling(
            n_nodes=scale.grizzly_nodes, seed=args.seed
        )
        selected = set(int(i) for i in data["selected"])
        rows = [
            [w, float(data["utilization"][w]),
             float(data["max_node_hours_norm"][w]),
             float(data["max_memory_norm"][w]),
             "selected" if w in selected else ""]
            for w in range(len(data["utilization"]))
        ]
        console.result(render_table(
            ["week", "cpu util", "max nh", "max mem", ""], rows,
            title="Fig. 2: week sampling"))
        if args.plot:
            hl = [w in selected for w in range(len(data["utilization"]))]
            console.result()
            console.result(ascii_scatter(
                data["utilization"], data["max_memory_norm"], highlight=hl,
                title="Fig. 2 (right): max memory vs CPU utilisation",
                xlabel="CPU utilisation",
            ))
    elif n == 4:
        from .experiments.export import heatmap_csv

        data = _figures.figure4_memory_heatmap(seed=args.seed)
        console.result(render_heatmap(data["avg"], "Fig. 4a: average memory usage"))
        console.result()
        console.result(render_heatmap(data["max"], "Fig. 4b: maximum memory usage"))
        maybe_csv(heatmap_csv(data["avg"], "avg") + heatmap_csv(data["max"], "max"))
    elif n in (5, 8):
        from .experiments.export import figure5_csv

        if n == 5:
            data = _figures.figure5_throughput(scale=scale, seed=args.seed,
                                               workers=args.workers)
        else:
            data = _figures.figure8_overestimation(scale=scale, seed=args.seed,
                                                   workers=args.workers)
        console.result(render_figure5(data))
        maybe_csv(figure5_csv(data))
        if args.plot:
            # Plot the most telling panel: highest overestimation row of
            # the 50%-large panel.
            panel = data.get("large=50%") or next(iter(data.values()))
            ovr = max(panel)
            levels = sorted(panel[ovr])
            series = {
                policy: [panel[ovr][lvl].get(policy) for lvl in levels]
                for policy in ("baseline", "static", "dynamic")
            }
            console.result()
            console.result(ascii_bars(
                levels, series, vmax=1.0,
                title=f"normalised throughput at +{int(ovr*100)}% "
                      "overestimation (50% large jobs)",
            ))
    elif n == 6:
        from .experiments.export import figure6_csv

        data = _figures.figure6_response_ecdf(scale=scale, seed=args.seed)
        console.result(render_figure6(_figures.figure6_median_reductions(data)))
        maybe_csv(figure6_csv(data))
        if args.plot:
            curves = data["underprovisioned"][max(
                data["underprovisioned"])]
            console.result()
            console.result(ascii_ecdf(
                curves,
                title="Fig. 6 (bottom right): response-time ECDF, "
                      "underprovisioned, +60%",
            ))
    elif n == 7:
        from .experiments.export import figure7_csv

        data = _figures.figure7_cost_benefit(scale=scale, seed=args.seed)
        console.result(render_figure7(data))
        maybe_csv(figure7_csv(data))
    elif n == 9:
        from .experiments.export import figure9_csv

        data = _figures.figure9_min_memory(scale=scale, seed=args.seed)
        console.result(render_figure9(data))
        maybe_csv(figure9_csv(data))
        if args.plot:
            overs = sorted(data["static"])
            series = {
                policy: [data[policy][o] for o in overs]
                for policy in ("static", "dynamic")
            }
            console.result()
            console.result(ascii_bars(
                [f"+{int(o*100)}%" for o in overs], series,
                title="Fig. 9: min memory % for the 95% throughput SLO",
            ))
    return 0


def _cmd_table(args) -> int:
    n = args.number
    if n == 1:
        rows = _tables.table1_trace_summary()
        headers = list(rows[0].keys())
        console.result(render_table(headers, [[r[h] for h in headers] for r in rows],
                           title="Table 1"))
    elif n == 2:
        console.result(render_table2(_tables.table2_memory_distribution(seed=args.seed)))
    elif n == 3:
        console.result(render_table3(_tables.table3_job_characteristics(seed=args.seed)))
    return 0


def _cmd_inspect(args) -> int:
    wl = load_workload(args.workload)
    console.result(f"{len(wl)} jobs; {wl.frac_large_memory():.1%} "
                   "large-memory")
    for key, value in wl.meta.items():
        console.result(f"  {key}: {value}")
    console.result()
    console.result(render_table3(wl.memory_class_stats()))
    console.result()
    console.result(render_heatmap(wl.memory_heatmap("max"),
                         "Maximum memory usage (% of jobs)"))
    return 0


def _cmd_validate(args) -> int:
    from .experiments.validate import validate_workload

    wl = load_workload(args.workload)
    report = validate_workload(wl, quartile_tolerance=args.tolerance)
    console.result(report.render())
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    from .experiments.scenarios import Scenario
    from .experiments.sweep import sweep, sweep_table

    base = Scenario(n_nodes=args.nodes, n_jobs=args.jobs, seed=args.seed)
    records = sweep(
        base,
        workers=args.workers,
        policy=args.policy,
        memory_level=args.memory_level,
        frac_large=args.frac_large,
        overestimation=args.overestimation,
    )
    headers, rows = sweep_table(records)
    console.result(render_table(headers, rows, title="Scenario sweep"))
    return 0


def _cmd_campaign(args) -> int:
    from .experiments.campaign import (
        fig5_scenarios,
        fig8_scenarios,
        run_campaign,
    )

    if args.trace_cache:
        import os

        from .traces.cache import TRACE_CACHE_ENV

        # Environment, not a parameter: pool workers inherit it.
        os.environ[TRACE_CACHE_ENV] = args.trace_cache
        console.status(f"sharing generated traces via {args.trace_cache}")
    scale = SCALES[args.scale]
    kw = {}
    if args.memory_levels:
        kw["memory_levels"] = tuple(args.memory_levels)
    if args.overestimations:
        kw["overestimations"] = tuple(args.overestimations)
    if args.grid == "fig5":
        if args.mixes:
            kw["mixes"] = tuple(args.mixes)
        grid = fig5_scenarios(scale=scale, seed=args.seed, **kw)
    else:
        if args.mixes:
            kw["mix"] = args.mixes[0]
        grid = fig8_scenarios(scale=scale, seed=args.seed, **kw)
    console.status(
        f"{args.grid}: {len(grid)} scenarios at scale {args.scale} "
        f"({args.workers} worker(s)); checkpointing to {args.out}")
    if args.telemetry:
        console.status(f"collecting telemetry under {args.telemetry}")

    t0 = perf_counter()

    def progress(i, n, sc):
        elapsed = perf_counter() - t0
        eta = elapsed / i * (n - i)
        console.status(
            f"[{i}/{n}] {sc.policy} mem={sc.memory_level}% "
            f"large={sc.frac_large:.0%} ovr=+{sc.overestimation:.0%}  "
            f"({_hms(elapsed)} elapsed, ETA {_hms(eta)})")

    run_campaign(grid, args.out, progress=progress, workers=args.workers,
                 telemetry_dir=args.telemetry)
    console.status(f"campaign complete ({_hms(perf_counter() - t0)})")
    if args.telemetry:
        console.status(
            f"merged campaign metrics: {args.telemetry}/metrics.jsonl "
            f"(.csv, .prom); inspect with: repro trace {args.telemetry}")
    return 0


def _hms(seconds: float) -> str:
    """Compact duration: ``83.4`` -> ``1m23s``."""
    seconds = max(0, int(round(seconds)))
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    if h:
        return f"{h}h{m:02d}m{s:02d}s"
    if m:
        return f"{m}m{s:02d}s"
    return f"{s}s"


def _cmd_trace(args) -> int:
    from .obs.report import (
        load_meta,
        load_metrics_records,
        render_job_trace,
        render_trace_summary,
        samples_by_name,
    )

    status = 0
    if args.strict:
        dropped = int(load_meta(args.directory).get("provenance_dropped", 0) or 0)
        if dropped:
            console.status(
                f"strict: {dropped} events were evicted from the ring "
                "buffer; the history below is incomplete")
            status = 1
    if args.job is not None:
        console.result(render_job_trace(args.directory, args.job))
    else:
        console.result(render_trace_summary(args.directory, top=args.top))
        if args.series:
            from .experiments.timeline import series_strips

            samples = samples_by_name(load_metrics_records(args.directory))
            console.result()
            if samples:
                console.result(series_strips(
                    samples, title="sampled series (per-row normalised)"))
            else:
                console.result("no sampled series in this directory")
    if args.perfetto:
        from .obs.perfetto import write_perfetto

        path = write_perfetto(args.directory, args.perfetto)
        console.status(f"wrote Perfetto trace to {path} "
                       "(open at https://ui.perfetto.dev)")
    return status


def _cmd_explain(args) -> int:
    from .obs.report import render_explain

    console.result(
        render_explain(args.directory, args.job, chain_limit=args.chain)
    )
    return 0


def _cmd_diff(args) -> int:
    from .obs.diff import diff_runs, render_diff

    divergence = diff_runs(args.run_a, args.run_b)
    console.result(
        render_diff(args.run_a, args.run_b, divergence, context=args.context)
    )
    return 0 if divergence is None else 1


def _cmd_lint(args) -> int:
    from .analysis.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "whatif": _cmd_whatif,
    "figure": _cmd_figure,
    "table": _cmd_table,
    "inspect": _cmd_inspect,
    "validate": _cmd_validate,
    "sweep": _cmd_sweep,
    "campaign": _cmd_campaign,
    "trace": _cmd_trace,
    "explain": _cmd_explain,
    "diff": _cmd_diff,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "quiet", False):
        console.set_verbosity(QUIET)
    elif getattr(args, "verbose", False):
        console.set_verbosity(VERBOSE)
    else:
        console.set_verbosity(NORMAL)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
