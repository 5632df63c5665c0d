"""Metrics: job records, throughput, response time, utilisation, cost."""

from .analysis import (
    COMPARE_HEADERS,
    bounded_slowdown,
    bounded_slowdown_stats,
    compare_policies,
    per_memory_class,
    response_time_stats,
    restart_summary,
    runtime_dilation_stats,
    wait_time_stats,
)
from .cost import cluster_cost_usd, cost_benefit_gain, throughput_per_dollar
from .records import JobRecord, SimulationResult
from .response import ecdf, median_reduction, quantile, quantile_gap
from .throughput import normalized_throughput, relative_gain, throughput_table

__all__ = [
    "COMPARE_HEADERS",
    "JobRecord",
    "SimulationResult",
    "bounded_slowdown",
    "bounded_slowdown_stats",
    "compare_policies",
    "per_memory_class",
    "response_time_stats",
    "restart_summary",
    "runtime_dilation_stats",
    "wait_time_stats",
    "cluster_cost_usd",
    "cost_benefit_gain",
    "ecdf",
    "median_reduction",
    "normalized_throughput",
    "quantile",
    "quantile_gap",
    "relative_gain",
    "throughput_per_dollar",
    "throughput_table",
]
