"""Simulation output records and aggregate metrics.

The controller appends one :class:`JobRecord` per finished job and
integrates resource usage over time; :class:`SimulationResult` exposes the
aggregate metrics that the paper's figures plot (throughput in jobs/s,
response times, utilisation, kill counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.state import ForkState
from ..jobs.states import JobState


@dataclass(frozen=True)
class JobRecord:
    """Immutable record of one job's fate."""

    jid: int
    n_nodes: int
    submit_time: float
    start_time: Optional[float]
    finish_time: Optional[float]
    base_runtime: float
    actual_runtime: Optional[float]
    mem_request_mb: int
    peak_usage_mb: int
    restarts: int
    state: JobState
    user: int = 0

    @property
    def response_time(self) -> Optional[float]:
        """Submission-to-completion latency (waiting + running, paper §4.2)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def wait_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def slowdown_experienced(self) -> Optional[float]:
        if self.actual_runtime is None or self.base_runtime <= 0:
            return None
        return self.actual_runtime / self.base_runtime


@dataclass
class SimulationResult:
    """Everything measured from one simulation run."""

    policy: str
    records: List[JobRecord] = field(default_factory=list)
    unrunnable: List[int] = field(default_factory=list)
    oom_kills: int = 0
    timeouts: int = 0
    makespan: float = 0.0
    first_submit: float = 0.0
    #: time integrals for utilisation metrics
    node_busy_seconds: float = 0.0
    mem_allocated_mb_seconds: float = 0.0
    mem_remote_mb_seconds: float = 0.0
    total_nodes: int = 0
    total_capacity_mb: int = 0
    events_processed: int = 0
    meta: Dict[str, object] = field(default_factory=dict)

    #: ``policy`` is a value: a what-if policy swap renames the result
    fork_state = ForkState(
        values=(
            "policy", "oom_kills", "timeouts", "makespan", "first_submit",
            "node_busy_seconds", "mem_allocated_mb_seconds",
            "mem_remote_mb_seconds", "events_processed",
        ),
        copies=("records", "unrunnable", "meta"),
        fixed=("total_nodes", "total_capacity_mb"),
    )

    # ------------------------------------------------------------------
    def completed(self) -> List[JobRecord]:
        return [r for r in self.records if r.state is JobState.COMPLETED]

    @property
    def n_completed(self) -> int:
        return len(self.completed())

    @property
    def n_unrunnable(self) -> int:
        return len(self.unrunnable)

    def all_jobs_ran(self) -> bool:
        """True when no job was unrunnable (paper omits bars otherwise)."""
        return not self.unrunnable

    def span(self) -> float:
        """Wall-clock span from first submission to last completion."""
        return max(self.makespan - self.first_submit, 0.0)

    def throughput(self) -> float:
        """System throughput in completed jobs per second (paper §4.1)."""
        span = self.span()
        if span <= 0:
            return 0.0
        return self.n_completed / span

    def response_times(self) -> np.ndarray:
        """Response times of completed jobs, seconds."""
        return np.array(
            [r.response_time for r in self.completed()], dtype=np.float64
        )

    def median_response_time(self) -> float:
        rt = self.response_times()
        return float(np.median(rt)) if len(rt) else float("nan")

    def wait_times(self) -> np.ndarray:
        return np.array([r.wait_time for r in self.completed()], dtype=np.float64)

    # ------------------------------------------------------------------
    def cpu_utilization(self) -> float:
        """Mean fraction of nodes busy over the run."""
        denom = self.total_nodes * self.span()
        return self.node_busy_seconds / denom if denom > 0 else 0.0

    def memory_utilization(self) -> float:
        """Mean fraction of provisioned memory allocated over the run."""
        denom = self.total_capacity_mb * self.span()
        return self.mem_allocated_mb_seconds / denom if denom > 0 else 0.0

    def remote_memory_fraction(self) -> float:
        """Time-averaged fraction of allocated memory served remotely.

        The §2.2 objective is to maximise the local-to-remote ratio;
        this is the complementary remote share (0 = all local).
        """
        if self.mem_allocated_mb_seconds <= 0:
            return 0.0
        return self.mem_remote_mb_seconds / self.mem_allocated_mb_seconds

    def oom_kill_fraction(self) -> float:
        """Fraction of jobs that suffered at least one OOM kill."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.restarts > 0) / len(self.records)

    def summary(self) -> Dict[str, float]:
        """Flat metric dict for reports."""
        return {
            "policy_jobs_completed": float(self.n_completed),
            "throughput_jobs_per_s": self.throughput(),
            "median_response_s": self.median_response_time(),
            "cpu_utilization": self.cpu_utilization(),
            "memory_utilization": self.memory_utilization(),
            "remote_memory_fraction": self.remote_memory_fraction(),
            "oom_kills": float(self.oom_kills),
            "timeouts": float(self.timeouts),
            "unrunnable": float(self.n_unrunnable),
            "makespan_s": self.span(),
        }
