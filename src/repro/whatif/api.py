"""The ``repro whatif`` API: fork a paused simulation and measure deltas.

A :class:`WhatIf` session runs one *base* simulation to a fork time,
captures a :class:`~repro.whatif.snapshot.SimSnapshot`, finishes the
base timeline, and then answers counterfactual queries — each
:meth:`~WhatIf.query` rewinds to the fork point in O(changed pages),
applies one :class:`~repro.whatif.perturb.Perturbation`, and replays
only the divergent suffix.  Reports carry the base/variant metric pairs
and their deltas; repeated queries of the same perturbation against the
same state come from the fork cache without replaying anything.

::

    wi = WhatIf(workload.fresh_jobs(), config, policy="dynamic", at=4 * 3600)
    rep = wi.query(SubmitJob(n_nodes=64, base_runtime=1800.0,
                             mem_request_mb=131072))
    print(rep.deltas["makespan_s"], rep.deltas["mean_wait_s"])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

from ..core.config import SystemConfig
from ..jobs.job import Job
from ..metrics.records import SimulationResult
from ..obs.export import metrics_jsonl
from ..obs.provenance import lifecycle_jsonl
from ..scheduler.simulator import SimulationHandle, build_simulation
from .cache import ForkCache
from .perturb import Perturbation
from .snapshot import SimSnapshot

__all__ = ["WhatIf", "WhatIfReport", "fork"]

#: Metrics reported beyond ``SimulationResult.summary()``.
_EXTRA_METRICS = ("mean_wait_s", "p50_wait_s", "mean_slowdown")


def _metrics(result: SimulationResult) -> Dict[str, float]:
    """The summary dict plus wait/slowdown aggregates, all read from one
    list of the completed records."""
    done = result.completed()
    m = result._summary(done)
    waits = np.array([r.wait_time for r in done], dtype=np.float64)
    m["mean_wait_s"] = float(np.mean(waits)) if len(waits) else float("nan")
    m["p50_wait_s"] = float(np.median(waits)) if len(waits) else float("nan")
    slowdowns = [s for s in (r.slowdown_experienced for r in done)
                 if s is not None]
    m["mean_slowdown"] = float(np.mean(slowdowns)) if slowdowns else float("nan")
    return m


def _detach_result(result: SimulationResult) -> SimulationResult:
    """A copy that survives the snapshot rollback.

    The live result object is rewound by :meth:`SimSnapshot.restore`, so
    reports keep an independent copy.  Records are frozen dataclasses —
    sharing them is safe; the meta container is copied.  Live
    observability state (telemetry) is rolled back with the simulation;
    use ``WhatIf(capture_observability=True)`` for serialized dumps.
    """
    return SimulationResult(
        policy=result.policy,
        records=list(result.records),
        unrunnable=list(result.unrunnable),
        oom_kills=result.oom_kills,
        timeouts=result.timeouts,
        makespan=result.makespan,
        first_submit=result.first_submit,
        node_busy_seconds=result.node_busy_seconds,
        mem_allocated_mb_seconds=result.mem_allocated_mb_seconds,
        mem_remote_mb_seconds=result.mem_remote_mb_seconds,
        total_nodes=result.total_nodes,
        total_capacity_mb=result.total_capacity_mb,
        events_processed=result.events_processed,
        meta=dict(result.meta),
    )


@dataclass
class WhatIfReport:
    """One answered counterfactual."""

    #: stable perturbation key (``"base"`` for the base report)
    perturbation: str
    #: fork time (simulated seconds)
    at: float
    #: metrics of the unperturbed timeline
    base: Dict[str, float]
    #: metrics of the perturbed timeline
    variant: Dict[str, float]
    #: ``variant - base`` per metric (NaNs propagate)
    deltas: Dict[str, float]
    #: detached result of the perturbed run
    result: Optional[SimulationResult] = None
    #: serialized observability dumps (``capture_observability=True``)
    observability: Optional[Dict[str, object]] = None
    #: answered from the fork cache (no replay)
    cached: bool = False
    #: columnar pages rolled back to reach the fork point
    pages_restored: int = 0
    #: events replayed in the perturbed suffix
    events_replayed: int = 0

    def render(self) -> str:
        """Human-oriented multi-line delta table."""
        lines = [f"what-if @ t={self.at:.0f}s  [{self.perturbation}]"]
        for name in sorted(self.deltas):
            b, v, d = self.base[name], self.variant[name], self.deltas[name]
            lines.append(f"  {name:<24} {b:>14.4f} -> {v:>14.4f}  ({d:+.4f})")
        if self.cached:
            lines.append("  (from fork cache)")
        return "\n".join(lines)


def fork(snapshot: SimSnapshot,
         perturbation: Optional[Perturbation] = None) -> SimulationHandle:
    """Rewind to ``snapshot`` and apply ``perturbation`` (low-level).

    Returns the snapshot's handle positioned at the fork point with the
    perturbation injected, ready for ``run_until``/``finish``.  The
    rollback touches only the pages/fields the previous suffix dirtied —
    O(changed), never O(cluster).
    """
    snapshot.restore()
    if perturbation is not None:
        perturbation.apply(snapshot.handle)
    return snapshot.handle


class WhatIf:
    """An interactive what-if session over one workload + system config.

    Parameters mirror :func:`repro.scheduler.simulate` plus:

    at:
        Fork time in simulated seconds.  The base run is paused there —
        events stamped exactly ``at`` belong to the replayed *suffix*,
        so a perturbation injected at ``at`` interleaves with them in
        within-tick rank order exactly as a fresh run would — the
        snapshot captured, and the base timeline finished.
    cache_size:
        Fork-cache capacity (reports memoized by state + perturbation).
    capture_observability:
        Serialize the metrics/provenance/events/blame dumps into each
        report (requires an enabled ``telemetry=``).
    """

    def __init__(
        self,
        jobs: Iterable[Job],
        config: SystemConfig,
        policy: str = "dynamic",
        at: float = 0.0,
        cache_size: int = 32,
        capture_observability: bool = False,
        **sim_kwargs,
    ):
        if at < 0:
            raise ValueError(f"fork time must be >= 0, got {at}")
        self.handle = build_simulation(jobs, config, policy=policy,
                                       **sim_kwargs)
        self.capture_observability = capture_observability
        self.cache = ForkCache(capacity=cache_size)
        self.queries = 0
        self.replays = 0

        self.handle.run_until(at, inclusive=False)
        self.snapshot = SimSnapshot.capture(self.handle)
        base_result = self.handle.finish()
        self.base_metrics = _metrics(base_result)
        self.base_report = WhatIfReport(
            perturbation="base",
            at=self.snapshot.now,
            base=self.base_metrics,
            variant=self.base_metrics,
            deltas={k: 0.0 for k in self.base_metrics},
            result=_detach_result(base_result),
            observability=(
                self._capture_observability()
                if capture_observability else None
            ),
            events_replayed=base_result.events_processed,
        )
        self.snapshot.restore()

    # ------------------------------------------------------------------
    def query(self, perturbation: Perturbation,
              use_cache: bool = True) -> WhatIfReport:
        """Answer one counterfactual: fork, replay the suffix, diff."""
        self.queries += 1
        key = (self.snapshot.content_key, perturbation.key())
        if use_cache:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        self.replays += 1
        pages = self.snapshot.restore()
        perturbation.apply(self.handle)
        result = self.handle.finish()
        variant = _metrics(result)
        report = WhatIfReport(
            perturbation=perturbation.key(),
            at=self.snapshot.now,
            base=self.base_metrics,
            variant=variant,
            deltas={k: variant[k] - self.base_metrics[k] for k in variant},
            result=_detach_result(result),
            observability=(
                self._capture_observability()
                if self.capture_observability else None
            ),
            pages_restored=pages,
            events_replayed=result.events_processed,
        )
        # Leave the simulation parked at the fork point so the session
        # stays reusable (and the next query's rollback is near-free).
        self.snapshot.restore()
        if use_cache:
            self.cache.put(key, report)
        return report

    # ------------------------------------------------------------------
    def _capture_observability(self) -> Dict[str, object]:
        obs: Dict[str, object] = {}
        telemetry = self.handle.controller.telemetry
        if telemetry.enabled:
            obs["metrics_jsonl"] = metrics_jsonl(telemetry.registry)
            if telemetry.provenance.enabled:
                obs["provenance_jsonl"] = telemetry.provenance.to_jsonl()
                obs["events_jsonl"] = lifecycle_jsonl(telemetry.provenance)
            if telemetry.blame is not None:
                obs["blame"] = telemetry.blame.to_dict()
        return obs

    def stats(self) -> Dict[str, object]:
        """Session counters (queries, replays, cache, COW copy volume)."""
        cow = self.handle.cluster._cow
        return {
            "at": self.snapshot.now,
            "queries": self.queries,
            "replays": self.replays,
            "cache": self.cache.stats(),
            "cow_pages_copied": cow.pages_copied if cow is not None else 0,
            "cow_bytes_copied": cow.bytes_copied if cow is not None else 0,
        }
