"""repro — Dynamic Memory Provisioning on Disaggregated HPC Systems.

A from-scratch Python reproduction of Zacarias, Carpenter & Petrucci
(SC-W 2023): a trace-driven discrete-event simulator of a Slurm-managed
HPC cluster with disaggregated memory, three allocation policies
(baseline / static / dynamic), the public-trace-based workload
generation methodology, and the full evaluation harness (Figs. 2, 4–9,
Tables 1–3).

Quickstart
----------
>>> from repro import SystemConfig, simulate, synthetic_workload
>>> wl = synthetic_workload(n_jobs=200, frac_large=0.5,
...                         overestimation=0.6, n_system_nodes=128, seed=1)
>>> cfg = SystemConfig.from_memory_level(50, n_nodes=128)
>>> static = simulate(wl.fresh_jobs(), cfg, policy="static")
>>> dynamic = simulate(wl.fresh_jobs(), cfg, policy="dynamic")
"""

from .cluster import Cluster, JobAllocation, MemoryPool, Torus
from .core import (
    Engine,
    EventKind,
    LARGE_NODE_FRACTIONS,
    MEMORY_LEVELS,
    ReproError,
    SystemConfig,
)
from .jobs import Job, JobState, UsageTrace
from .metrics import (
    JobRecord,
    SimulationResult,
    ecdf,
    normalized_throughput,
    throughput_per_dollar,
)
from .policies import (
    BaselinePolicy,
    DynamicDisaggregatedPolicy,
    POLICIES,
    StaticDisaggregatedPolicy,
    make_policy,
)
from .scheduler import simulate
from .slowdown import AppProfile, ContentionModel, profile_pool
from .traces import (
    SWFTrace,
    Workload,
    grizzly_workload,
    synthetic_workload,
)

__version__ = "1.0.0"

__all__ = [
    "AppProfile",
    "BaselinePolicy",
    "Cluster",
    "ContentionModel",
    "DynamicDisaggregatedPolicy",
    "Engine",
    "EventKind",
    "Job",
    "JobAllocation",
    "JobRecord",
    "JobState",
    "LARGE_NODE_FRACTIONS",
    "MEMORY_LEVELS",
    "MemoryPool",
    "POLICIES",
    "ReproError",
    "SWFTrace",
    "SimulationResult",
    "StaticDisaggregatedPolicy",
    "SystemConfig",
    "Torus",
    "UsageTrace",
    "Workload",
    "ecdf",
    "grizzly_workload",
    "make_policy",
    "normalized_throughput",
    "profile_pool",
    "simulate",
    "synthetic_workload",
    "throughput_per_dollar",
]
