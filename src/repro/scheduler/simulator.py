"""Top-level simulation entry point.

:func:`simulate` wires a workload, a system configuration and a policy
into the event engine and runs the trace to completion — the Python
equivalent of one Slurm-simulator run (paper Fig. 1b).

:func:`build_simulation` is the two-phase variant behind the what-if
engine (:mod:`repro.whatif`): it performs all the wiring and workload
loading but does not run the engine, returning a
:class:`SimulationHandle` whose :meth:`~SimulationHandle.run_until` /
:meth:`~SimulationHandle.finish` split lets a caller pause the
simulation at an arbitrary time, snapshot it, and resume (or replay a
perturbed suffix).  ``simulate`` is exactly ``build_simulation`` +
``finish``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ..cluster.cluster import Cluster
from ..core.config import SystemConfig
from ..core.engine import Engine
from ..core.state import ForkState
from ..core.errors import SimulationError
from ..jobs.job import Job
from ..metrics.records import SimulationResult
from ..obs.telemetry import Telemetry
from ..policies import make_policy
from ..policies.base import AllocationPolicy
from ..slowdown.model import ContentionModel
from ..slowdown.profiles import AppProfile, profile_pool
from .controller import Controller


@dataclass
class SimulationHandle:
    """A wired, loaded, not-yet-finished simulation.

    Produced by :func:`build_simulation`.  The handle owns no state of
    its own — it is a named bundle of the engine/controller object graph
    plus the run-completion logic that :func:`simulate` used to inline.
    Its fork state is the controller's (:mod:`repro.core.state`).
    """

    engine: Engine
    cluster: Cluster
    model: ContentionModel
    config: SystemConfig
    controller: Controller
    telemetry: Optional[Telemetry]
    max_events: int

    fork_state = ForkState(
        objects=("controller",),
        fixed=("engine", "cluster", "model", "config", "telemetry",
               "max_events"),
    )

    @property
    def policy(self) -> AllocationPolicy:
        """The policy running the simulation (a what-if fork may swap it)."""
        return self.controller.policy

    @property
    def observed(self) -> bool:
        return self.telemetry is not None and self.telemetry.enabled

    def run_until(self, until: float, inclusive: bool = True) -> float:
        """Advance the simulation to time ``until``.

        Events stamped exactly ``until`` are processed unless
        ``inclusive=False`` (the fork boundary: the what-if engine
        leaves them for the replayed suffix).  The clock is left at
        ``until`` (or earlier if the queue drained).  Returns the
        engine clock.
        """
        return self._run(until=until, inclusive=inclusive)

    def _run(self, **kw) -> float:
        """One engine run, timed layer by layer when the telemetry traces
        (the one place a :class:`~repro.obs.layers.LayerTimer` attaches)."""
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        if tracer is None:
            return self.engine.run(max_events=self.max_events, **kw)
        with tracer.attached(self.engine):
            return self.engine.run(max_events=self.max_events, **kw)

    def finish(self) -> SimulationResult:
        """Drain the engine and close the books.

        Replicates the tail of :func:`simulate` exactly (livelock check,
        invariant check, finalize, meta stamping, telemetry finish) so a
        paused-and-resumed run produces a byte-identical result to a
        straight ``simulate`` call.  May be called again after a
        what-if rollback re-ran the suffix.
        """
        self._run()
        controller = self.controller
        if controller.running or controller.pending:
            raise SimulationError(
                f"simulation drained with {len(controller.running)} running "
                f"and {len(controller.pending)} pending jobs "
                "(scheduling livelock?)"
            )
        self.cluster.check_invariants()
        result = controller.finalize()
        result.meta["config"] = self.config
        if self.observed:
            telemetry = self.telemetry
            # controller.policy (not a captured local): a what-if policy
            # swap must stamp the policy that actually ran the suffix.
            telemetry.meta.setdefault("policy", controller.policy.name)
            telemetry.meta.setdefault("n_nodes", self.cluster.n_nodes)
            telemetry.meta.setdefault(
                "total_capacity_mb", self.cluster.total_capacity_mb()
            )
            telemetry.finish(result)
            if telemetry.blame is not None:
                # Blame decomposition in the result too, so callers (and
                # the property tests) need not round-trip via export().
                result.meta["blame"] = telemetry.blame.to_dict()
        return result


def build_simulation(
    jobs: Iterable[Job],
    config: SystemConfig,
    policy: Union[str, AllocationPolicy] = "dynamic",
    profiles: Optional[Sequence[AppProfile]] = None,
    model: Optional[ContentionModel] = None,
    sample_interval: Optional[float] = None,
    max_events: int = 50_000_000,
    telemetry: Optional[Telemetry] = None,
    **policy_kwargs,
) -> SimulationHandle:
    """Wire one simulation and load its workload without running it.

    Same parameters as :func:`simulate`.  ``max_events`` bounds each
    subsequent engine run (``run_until``/``finish``) rather than the
    whole lifetime.
    """
    engine = Engine()
    if isinstance(policy, str):
        cluster = Cluster(config)
        pol = make_policy(policy, cluster, **policy_kwargs)
    else:
        # A ready-made policy brings its own cluster; it must match config.
        pol = policy
        cluster = pol.cluster
        if cluster.config != config:
            raise SimulationError(
                "policy instance's cluster config differs from the config "
                "passed to simulate()"
            )
    if model is None:
        model = ContentionModel(
            profiles if profiles is not None else profile_pool(),
            node_bw_gbps=config.node_bw_gbps,
        )
    controller = Controller(
        engine, cluster, pol, model, config,
        sample_interval=sample_interval, telemetry=telemetry,
    )
    controller.load(jobs)
    return SimulationHandle(
        engine=engine,
        cluster=cluster,
        model=model,
        config=config,
        controller=controller,
        telemetry=telemetry,
        max_events=max_events,
    )


def simulate(
    jobs: Iterable[Job],
    config: SystemConfig,
    policy: Union[str, AllocationPolicy] = "dynamic",
    profiles: Optional[Sequence[AppProfile]] = None,
    model: Optional[ContentionModel] = None,
    sample_interval: Optional[float] = None,
    max_events: int = 50_000_000,
    telemetry: Optional[Telemetry] = None,
    **policy_kwargs,
) -> SimulationResult:
    """Run one scheduling simulation and return its metrics.

    Parameters
    ----------
    jobs:
        The workload (fresh :class:`~repro.jobs.Job` objects; they are
        mutated during the run, so pass a newly generated trace or use
        :meth:`repro.traces.Workload.fresh_jobs`).
    config:
        System description (node counts, memory classes, intervals).
    policy:
        ``"baseline"``, ``"static"``, ``"dynamic"``, or a ready-made
        policy instance bound to a cluster of your own making.
    profiles / model:
        Slowdown-model inputs; defaults to the built-in profile pool.
    sample_interval:
        If set, record a utilisation timeline sample every so many
        simulated seconds.
    telemetry:
        A :class:`repro.obs.Telemetry` instance to observe the run —
        metric counters/gauges sampled on its simulated-time cadence and
        a wall-clock table of the simulator's layers.  When the
        telemetry carries provenance (the default), the run also records
        the causal event graph, whose job-lifecycle view is the run's
        event log (:func:`repro.obs.provenance.lifecycle_rows`), and
        per-job wait blame (``result.meta["blame"]``, ``repro
        explain``).  ``None`` (default) keeps every hook a no-op.
    """
    handle = build_simulation(
        jobs, config, policy=policy, profiles=profiles, model=model,
        sample_interval=sample_interval, max_events=max_events,
        telemetry=telemetry, **policy_kwargs,
    )
    return handle.finish()
