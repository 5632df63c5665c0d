"""Evaluation harness: scenarios, runner, figure/table producers, reports."""

from .figures import (
    FIG6_REGIMES,
    figure2_week_sampling,
    figure4_memory_heatmap,
    figure5_throughput,
    figure6_median_reductions,
    figure6_response_ecdf,
    figure7_cost_benefit,
    figure8_overestimation,
    figure9_min_memory,
)
from . import export
from .campaign import fig5_scenarios, fig8_scenarios, run_campaign, scenario_key
from .commons import CommonsOutcome, commons_table, tragedy_of_the_commons
from .parallel import run_grid
from .plots import ascii_bars, ascii_ecdf, ascii_scatter
from .sweep import sweep, sweep_table
from .timeline import gantt, occupancy_strip, render_run
from .runner import (
    base_workload,
    clear_caches,
    normalized,
    normalized_mean,
    reference,
    reference_scenario,
    repeat_scenarios,
    repeat_seed,
    run,
)
from .validate import ValidationReport, validate_workload
from .scenarios import (
    FIG5_JOB_MIXES,
    FIG5_MEMORY_LEVELS,
    FIG7_SYSTEMS,
    FIG8_OVERESTIMATIONS,
    POLICY_NAMES,
    SCALES,
    Scale,
    Scenario,
    scenario_for_scale,
)
from .tables import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    table1_trace_summary,
    table2_memory_distribution,
    table3_job_characteristics,
)

__all__ = [
    "FIG5_JOB_MIXES",
    "FIG5_MEMORY_LEVELS",
    "FIG6_REGIMES",
    "FIG7_SYSTEMS",
    "FIG8_OVERESTIMATIONS",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "POLICY_NAMES",
    "SCALES",
    "Scale",
    "Scenario",
    "CommonsOutcome",
    "ValidationReport",
    "ascii_bars",
    "ascii_ecdf",
    "ascii_scatter",
    "base_workload",
    "clear_caches",
    "figure2_week_sampling",
    "figure4_memory_heatmap",
    "figure5_throughput",
    "figure6_median_reductions",
    "figure6_response_ecdf",
    "figure7_cost_benefit",
    "figure8_overestimation",
    "fig5_scenarios",
    "fig8_scenarios",
    "figure9_min_memory",
    "gantt",
    "run_campaign",
    "run_grid",
    "normalized",
    "normalized_mean",
    "occupancy_strip",
    "render_run",
    "reference",
    "reference_scenario",
    "repeat_scenarios",
    "repeat_seed",
    "run",
    "scenario_for_scale",
    "scenario_key",
    "table1_trace_summary",
    "commons_table",
    "export",
    "sweep",
    "sweep_table",
    "table2_memory_distribution",
    "table3_job_characteristics",
    "tragedy_of_the_commons",
    "validate_workload",
]
