"""Allocation-policy interface.

A policy answers two questions for the scheduler:

* :meth:`~AllocationPolicy.can_ever_run` — could this job start on an
  *empty* system?  Jobs failing this are marked ``UNRUNNABLE`` (the
  "missing bars" in the paper's figures).
* :meth:`~AllocationPolicy.plan` — can the job start *now*, and with what
  memory layout?  The returned plan is committed by the controller via
  :meth:`repro.cluster.Cluster.apply`.

The dynamic policy additionally implements :meth:`update`, invoked by the
Decider on each monitoring window.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

from ..cluster.allocation import JobAllocation
from ..cluster.cluster import Cluster
from ..cluster.memorypool import MemoryPool
from ..core.state import ForkState
from ..jobs.job import Job
from ..obs.telemetry import NULL_TELEMETRY


@dataclass(frozen=True)
class UpdateOutcome:
    """Result of one dynamic-policy update for one job (immutable)."""

    resized: bool = False
    freed_mb: int = 0
    grown_mb: int = 0
    oom: bool = False
    touched_nodes: Tuple[int, ...] = ()


#: The outcome of every update that changed nothing: one shared value,
#: so an idle update allocates nothing and callers can skip it by identity.
NO_CHANGE = UpdateOutcome()


class AllocationPolicy(ABC):
    """Base class for the three evaluated policies."""

    #: Short name used in reports/figures.
    name: str = "abstract"
    #: Whether the policy may borrow remote memory.
    uses_disaggregation: bool = False
    #: Whether the policy resizes allocations while jobs run.
    is_dynamic: bool = False
    #: Telemetry sink whose provenance log the dynamic Decider writes
    #: to; the controller replaces this (per instance) when a run is
    #: observed.
    obs = NULL_TELEMETRY

    #: the controller sets ``obs`` (per instance) while wiring the run
    fork_state = ForkState(objects=("pool",), fixed=("cluster", "obs"))

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.pool = MemoryPool(cluster)

    # ------------------------------------------------------------------
    @abstractmethod
    def can_ever_run(self, job: Job) -> bool:
        """Whether the job could start on an empty system."""

    @abstractmethod
    def plan(self, job: Job) -> Optional[JobAllocation]:
        """Plan an allocation for ``job`` right now, or ``None``."""

    # ------------------------------------------------------------------
    def update(self, job: Job, progress: float, window: float) -> UpdateOutcome:
        """Dynamic-policy hook; static policies never resize."""
        return NO_CHANGE

    def on_finish(self, job: Job) -> None:
        """Hook for per-job policy state cleanup."""
