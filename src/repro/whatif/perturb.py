"""What-if perturbations: the divergence applied at a fork point.

Each perturbation is a small frozen description of one counterfactual
edit — *what if this job had been submitted now*, *what if the policy
had been X from here on*, *what if N more memory nodes had been
provisioned* — plus the :meth:`apply` that injects it into a live
(snapshot-restored) simulation.  ``apply`` must leave the simulation in
a state a fresh run could also have reached, so forked suffixes stay
comparable to end-to-end runs.

Every perturbation has a stable :meth:`key`: a session memoizes its
reports by it (every query of a session forks from the same snapshot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..core.errors import SimulationError
from ..core.events import EventKind
from ..jobs.job import Job
from ..jobs.usage import UsageTrace
from ..policies import make_policy

__all__ = ["AddMemNodes", "Perturbation", "SubmitJob", "SwapPolicy"]


class Perturbation:
    """Base class; subclasses implement :meth:`apply` and :meth:`key`."""

    def apply(self, handle) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def key(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class SubmitJob(Perturbation):
    """Inject one extra job at the fork time.

    The job submits at the snapshot's ``now`` (event-queue tie-breaking
    is by push order, so for byte-parity with a fresh run the fork time
    should not collide with an existing submit time — the parity suite
    picks unique times).  ``jid=None`` takes the next free id.
    """

    n_nodes: int
    base_runtime: float
    mem_request_mb: int
    walltime_limit: Optional[float] = None
    jid: Optional[int] = None
    profile: int = 0

    def apply(self, handle) -> None:
        controller = handle.controller
        now = handle.engine.now
        jid = self.jid
        if jid is None:
            jid = max(controller.jobs, default=0) + 1
        elif jid in controller.jobs:
            raise SimulationError(f"what-if job id {jid} already exists")
        job = Job(
            jid=jid,
            submit_time=now,
            n_nodes=self.n_nodes,
            base_runtime=self.base_runtime,
            walltime_limit=(
                self.walltime_limit
                if self.walltime_limit is not None
                else self.base_runtime * 1.5
            ),
            mem_request_mb=self.mem_request_mb,
            usage=UsageTrace.constant(self.mem_request_mb),
            profile=self.profile,
        )
        controller.jobs[jid] = job
        handle.engine.at(now, EventKind.JOB_SUBMIT, job)

    def key(self) -> str:
        return (
            f"submit:{self.jid}:{self.n_nodes}:{self.base_runtime!r}:"
            f"{self.mem_request_mb}:{self.walltime_limit!r}:{self.profile}"
        )


@dataclass(frozen=True)
class SwapPolicy(Perturbation):
    """Switch the allocation policy for the remainder of the run.

    Builds a fresh policy over the *same* cluster, so the new policy
    sees the live ledgers.  At a ``t=0`` fork (nothing processed yet)
    the swapped simulation is byte-identical to one freshly built with
    the new policy.
    """

    name: str
    kwargs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        # dicts are unhashable; freeze for use inside cache keys/sets.
        object.__setattr__(self, "kwargs", dict(self.kwargs))

    def apply(self, handle) -> None:
        controller = handle.controller
        pol = make_policy(self.name, handle.cluster, **self.kwargs)
        controller.policy = pol
        pol.obs = controller.telemetry
        pool = getattr(pol, "pool", None)
        if pool is not None and controller.prov.enabled:
            pool.provenance = controller.prov
        controller.result.policy = pol.name
        # A *cold* swap — nothing processed, nothing queued or running —
        # must behave exactly like fresh construction with the new
        # policy: no scheduling kick (the submit handlers request the
        # first pass, as they would in a fresh run).  This is what makes
        # t=0 policy forks byte-identical to per-policy runs.
        cold = (
            handle.engine.events_processed == 0
            and not controller.running
            and not controller.pending
        )
        if cold:
            return
        now = handle.engine.now
        if controller.running and pol.is_dynamic:
            # Mid-run swap to a dynamic policy: restart the MAPE loop.
            controller._schedule_mem_update(now)
        controller._dirty = True
        controller._request_sched(now)

    def key(self) -> str:
        kw = ",".join(f"{k}={self.kwargs[k]!r}" for k in sorted(self.kwargs))
        return f"policy:{self.name}:{kw}"


@dataclass(frozen=True)
class AddMemNodes(Perturbation):
    """Grow the memory capacity of ``n_nodes`` currently-idle nodes.

    Models late provisioning of bigger-DIMM nodes: the first ``n_nodes``
    idle nodes (lowest ids — deterministic) each gain
    ``extra_mb_per_node`` of lendable local capacity.
    """

    n_nodes: int
    extra_mb_per_node: int

    def apply(self, handle) -> None:
        cluster = handle.cluster
        idle = np.flatnonzero(~cluster.columns.busy)[: self.n_nodes]
        if len(idle) < self.n_nodes:
            raise SimulationError(
                f"what-if add-memnodes wants {self.n_nodes} idle nodes, "
                f"only {len(idle)} are idle at t={handle.engine.now:.0f}s"
            )
        cluster.expand_capacity(idle, self.extra_mb_per_node)
        controller = handle.controller
        controller._dirty = True
        controller._request_sched(handle.engine.now)

    def key(self) -> str:
        return f"memnodes:{self.n_nodes}:{self.extra_mb_per_node}"
