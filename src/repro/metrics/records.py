"""Simulation output records and aggregate metrics.

The controller appends one :class:`JobRecord` per finished job and
integrates resource usage over time; :class:`SimulationResult` exposes the
aggregate metrics that the paper's figures plot (throughput in jobs/s,
response times, utilisation, kill counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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


def _per_second(n: int, span: float) -> float:
    return 0.0 if span <= 0 else n / span


def completed_of(records: Sequence[JobRecord]) -> List[JobRecord]:
    """The records of ``records`` that completed, in record order."""
    # A local: each read of an Enum member through its class costs
    # more than the rest of one filter step.
    done = JobState.COMPLETED
    return [r for r in records if r.state is done]


def response_times_of(done: Sequence[JobRecord]) -> np.ndarray:
    return np.array([r.response_time for r in done], dtype=np.float64)


def wait_times_of(done: Sequence[JobRecord]) -> np.ndarray:
    return np.array([r.wait_time for r in done], dtype=np.float64)


def slowdowns_of(done: Sequence[JobRecord]) -> np.ndarray:
    """The experienced slowdowns of ``done`` that are defined."""
    return np.array([s for s in (r.slowdown_experienced for r in done)
                     if s is not None], dtype=np.float64)


def median_or_nan(values: np.ndarray) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def mean_or_nan(values: np.ndarray) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


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
        return completed_of(self.records)

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
        return _per_second(self.n_completed, self.span())

    def response_times(self) -> np.ndarray:
        """Response times of completed jobs, seconds."""
        return response_times_of(self.completed())

    def median_response_time(self) -> float:
        return median_or_nan(self.response_times())

    def wait_times(self) -> np.ndarray:
        return wait_times_of(self.completed())

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
        done = self.completed()
        return self._summary(len(done), response_times_of(done))

    def _summary(self, n_completed: int,
                 response_times: np.ndarray) -> Dict[str, float]:
        """:meth:`summary` from the completed count and the completed
        records' response times, built by the caller."""
        return {
            "policy_jobs_completed": float(n_completed),
            "throughput_jobs_per_s": _per_second(n_completed, self.span()),
            "median_response_s": median_or_nan(response_times),
            "cpu_utilization": self.cpu_utilization(),
            "memory_utilization": self.memory_utilization(),
            "remote_memory_fraction": self.remote_memory_fraction(),
            "oom_kills": float(self.oom_kills),
            "timeouts": float(self.timeouts),
            "unrunnable": float(self.n_unrunnable),
            "makespan_s": self.span(),
        }
