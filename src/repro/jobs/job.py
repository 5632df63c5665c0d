"""The Job record: static description plus runtime bookkeeping.

A job is described by its submission-time fields (what the user and the
trace know) and carries mutable scheduling state while simulated.  Jobs
advance in *work seconds*: a job with ``base_runtime`` work finishes once
its accumulated progress reaches that figure; running with slowdown ``s``
converts wall time to progress at rate ``1/s`` (see
:mod:`repro.slowdown.model`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

from ..core.errors import TraceError
from ..core.state import ForkState
from .states import TERMINAL, JobState, check_transition
from .usage import UsageTrace

#: Job ids share an int64 column with -1, the idle-node mark
#: (``Cluster.job_on_node``).
_MAX_JID = 2**63 - 1


def _is_int(value) -> bool:
    """An integer that is not a bool; NumPy integers count.  A plain
    ``int`` skips the ``numbers.Integral`` check, an ABC lookup that
    costs several times the rest of the test."""
    return type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral))


@dataclass
class Job:
    """One batch job.

    Static fields
    -------------
    jid:
        Unique id (stable across restarts).
    submit_time:
        Original submission time (s).
    n_nodes:
        Number of (exclusive) nodes requested.
    base_runtime:
        Execution time in seconds at zero slowdown (all-local memory,
        no contention).
    walltime_limit:
        User-supplied wall-clock limit used by backfill reservations.
    mem_request_mb:
        Per-node memory request in the submission script.  With
        overestimation factor ``o``, this is ``peak_usage * (1 + o)``.
    usage:
        Per-node memory usage versus progress (the reference curve; the
        heaviest node follows it exactly).
    profile:
        Index into the application-profile pool driving the slowdown
        model (evaluation-only input, paper §2.1).
    node_scale:
        Optional per-rank multipliers on the usage curve, one per node,
        each in (0, 1] with at least one equal to 1.0.  Models the
        per-node footprint imbalance LDMS observes on real jobs; the
        memory *request* stays uniform per node (Slurm's
        ``--mem-per-node`` semantics), so imbalance is pure reclaim
        opportunity for the dynamic policy.
    """

    jid: int
    submit_time: float
    n_nodes: int
    base_runtime: float
    walltime_limit: float
    mem_request_mb: int
    usage: UsageTrace
    profile: int = 0
    node_scale: Optional[tuple] = None
    #: submitting user (CIRNE models per-user streams; used by the
    #: tragedy-of-the-commons experiment and SWF export)
    user: int = 0

    # -- runtime bookkeeping (mutated by the simulator) -----------------
    state: JobState = JobState.PENDING
    queue_time: float = 0.0  # submit time of the *current* attempt
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    first_start_time: Optional[float] = None
    work_done: float = 0.0
    slowdown: float = 1.0
    restarts: int = 0
    checkpointed_work: float = 0.0
    #: wall time at which ``work_done`` was last brought up to date
    last_progress_time: float = 0.0

    #: a fork rolls back the runtime bookkeeping; the description is
    #: fixed.  Only pending and running jobs are written (by the
    #: controller and :meth:`reset_for_restart`), so a rollback skips the
    #: jobs that had ended at capture.
    fork_state = ForkState(
        values=(
            "state", "queue_time", "start_time", "finish_time",
            "first_start_time", "work_done", "slowdown", "restarts",
            "checkpointed_work", "last_progress_time",
        ),
        fixed=(
            "jid", "submit_time", "n_nodes", "base_runtime",
            "walltime_limit", "mem_request_mb", "usage", "profile",
            "node_scale", "user",
        ),
        final=lambda job: job.state in TERMINAL,
    )

    def __post_init__(self) -> None:
        jid = self.jid
        if not (_is_int(jid) and 0 <= jid <= _MAX_JID):
            raise TraceError(
                f"job {jid!r}: field 'jid' = {jid!r} is not a job id (a "
                "non-negative 64-bit integer)"
            )
        n_nodes = self.n_nodes
        if not _is_int(n_nodes):
            raise TraceError(
                f"job {self.jid}: field 'n_nodes' = {n_nodes!r} is not "
                "a node count"
            )
        for name in ("submit_time", "base_runtime", "walltime_limit"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except TypeError:  # not a number at all
                finite = False
            if not finite:
                raise TraceError(
                    f"job {self.jid}: field {name!r} = {value!r} is not a "
                    "finite number of seconds"
                )
        if self.submit_time < 0:
            # The engine's clock starts at 0: no event can precede it.
            raise TraceError(
                f"job {self.jid}: field 'submit_time' = "
                f"{self.submit_time!r} is negative"
            )
        request = self.mem_request_mb
        if not (isinstance(request, numbers.Integral)
                or isinstance(request, float) and request.is_integer()):
            raise TraceError(
                f"job {self.jid}: field 'mem_request_mb' = {request!r} is "
                "not a whole number of MB"
            )
        if self.n_nodes <= 0:
            raise TraceError(f"job {self.jid}: n_nodes must be positive")
        if self.base_runtime <= 0:
            raise TraceError(f"job {self.jid}: base_runtime must be positive")
        if self.mem_request_mb < 0:
            raise TraceError(
                f"job {self.jid}: field 'mem_request_mb' = {request!r} is "
                "a negative memory request"
            )
        profile = self.profile
        if not _is_int(profile):
            # Looked up only once the job borrows remote memory, so a
            # bad index would surface mid-run.
            raise TraceError(
                f"job {self.jid}: field 'profile' = {profile!r} is not a "
                "profile index"
            )
        if profile < 0:
            raise TraceError(
                f"job {self.jid}: negative profile index {profile} in "
                "field 'profile'"
            )
        if not _is_int(self.user):
            raise TraceError(
                f"job {self.jid}: field 'user' = {self.user!r} is not a "
                "user id"
            )
        if self.walltime_limit < self.base_runtime:
            # Users may under-estimate in reality, but the simulator kills
            # jobs at their wall limit; traces must be self-consistent.
            self.walltime_limit = self.base_runtime
        if self.node_scale is not None:
            if len(self.node_scale) != self.n_nodes:
                raise TraceError(
                    f"job {self.jid}: node_scale has {len(self.node_scale)} "
                    f"entries for {self.n_nodes} nodes"
                )
            try:
                in_range = all(0.0 < s <= 1.0 for s in self.node_scale)
            except TypeError:  # an entry that is not a number
                in_range = False
            if not in_range:
                raise TraceError(f"job {self.jid}: node_scale outside (0, 1]")
            if max(self.node_scale) < 1.0 - 1e-9:
                raise TraceError(
                    f"job {self.jid}: no node follows the reference curve "
                    "(max(node_scale) must be 1.0)"
                )
        self.queue_time = self.submit_time

    # ------------------------------------------------------------------
    def set_state(self, new: JobState) -> None:
        check_transition(self.state, new)
        self.state = new

    @property
    def remaining_work(self) -> float:
        return max(self.base_runtime - self.work_done, 0.0)

    @property
    def peak_usage_mb(self) -> int:
        return self.usage.peak()

    def rank_scale(self, rank: int) -> float:
        """Usage multiplier for the job's ``rank``-th node."""
        if self.node_scale is None:
            return 1.0
        return float(self.node_scale[rank % len(self.node_scale)])

    def mean_usage_mb(self) -> float:
        return self.usage.mean(self.base_runtime)

    def is_large_memory(self, normal_capacity_mb: int) -> bool:
        """True if the request does not fit a normal-capacity node.

        This is the paper's job-size-class: "a job [is] large if it
        requires a large capacity node to run with the baseline policy"
        (§3.4).
        """
        return self.mem_request_mb > normal_capacity_mb

    def node_seconds(self) -> float:
        return self.n_nodes * self.base_runtime

    # ------------------------------------------------------------------
    def reset_for_restart(
        self,
        now: float,
        keep_checkpoint: bool = False,
        keep_priority: bool = False,
        checkpoint_quantum: Optional[float] = None,
    ) -> None:
        """Requeue after an OOM kill (F/R, or C/R when ``keep_checkpoint``).

        ``keep_priority`` implements the paper's fairness mitigation of
        *increasing the job's priority after failures* (§2.2): the job
        keeps its original queue position instead of re-queuing at the
        tail.  With C/R, ``checkpoint_quantum`` models *periodic*
        checkpointing: the job resumes from the last completed
        checkpoint rather than the exact kill point.
        """
        check_transition(self.state, JobState.PENDING)
        if keep_checkpoint:
            work = self.work_done
            if checkpoint_quantum is not None and checkpoint_quantum > 0:
                work = (work // checkpoint_quantum) * checkpoint_quantum
            self.checkpointed_work = work
        else:
            self.checkpointed_work = 0.0
        self.work_done = self.checkpointed_work
        self.state = JobState.PENDING
        if not keep_priority:
            self.queue_time = now
        self.start_time = None
        self.slowdown = 1.0
        self.restarts += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Job({self.jid}, n={self.n_nodes}, rt={self.base_runtime:.0f}s, "
            f"req={self.mem_request_mb}MB, {self.state.value})"
        )
