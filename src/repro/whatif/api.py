"""The ``repro whatif`` API: fork a paused simulation and measure deltas.

A :class:`WhatIf` session runs one *base* simulation to a fork time,
captures a :class:`~repro.whatif.snapshot.SimSnapshot`, finishes the
base timeline, rewinds, and then answers counterfactual queries — each
:meth:`~WhatIf.query` applies one
:class:`~repro.whatif.perturb.Perturbation` at the fork point, replays
only the divergent suffix, and rewinds in O(changed pages).  Reports
carry the base/variant metric pairs and their deltas; a repeated query
of the same perturbation comes from the session's fork cache without
replaying anything.

::

    wi = WhatIf(workload.fresh_jobs(), config, policy="dynamic", at=4 * 3600)
    rep = wi.query(SubmitJob(n_nodes=64, base_runtime=1800.0,
                             mem_request_mb=131072))
    print(rep.deltas["makespan_s"], rep.deltas["mean_wait_s"])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.config import SystemConfig
from ..core.errors import SimulationError
from ..core.lru import LRUCache
from ..jobs.job import Job
from ..metrics.records import (
    JobRecord,
    SimulationResult,
    completed_of,
    mean_or_nan,
    median_or_nan,
    response_times_of,
    slowdowns_of,
    wait_times_of,
)
from ..obs.export import metrics_jsonl
from ..obs.provenance import lifecycle_jsonl
from ..scheduler.simulator import build_simulation
from .perturb import Perturbation
from .snapshot import SimSnapshot

__all__ = ["WhatIf", "WhatIfReport"]

#: Reports a session memoizes, by perturbation key (LRU-evicted: each
#: report holds a detached result copy).
FORK_CACHE_SIZE = 32


class _PrefixColumns:
    """The report columns of the records a run had written by the fork.

    Every run forked from one snapshot keeps the records of its prefix,
    in order, and appends its own.  So the response, wait and slowdown
    columns of the prefix's completed records are built once, at
    capture; a report builds them for the records after the prefix only
    and concatenates, before the same reductions: every float equals
    the one computed over the whole record list.
    """

    def __init__(self, records: List[JobRecord]):
        self.n_records = len(records)
        #: the prefix's last record, checked by identity in each report
        self.boundary = records[-1] if records else None
        self.columns = self._columns(completed_of(records))

    @staticmethod
    def _columns(done: List[JobRecord]) -> Tuple[np.ndarray, ...]:
        return (response_times_of(done), wait_times_of(done),
                slowdowns_of(done))

    def metrics(self, result: SimulationResult) -> Dict[str, float]:
        """The summary dict plus wait/slowdown aggregates of ``result``."""
        records = result.records
        k = self.n_records
        if len(records) < k or (k and records[k - 1] is not self.boundary):
            raise SimulationError(
                f"the run's records do not start with the {k} records "
                "written by the fork point"
            )
        suffix = self._columns(completed_of(records[k:]))
        responses, waits, slowdowns = (
            np.concatenate(pair) for pair in zip(self.columns, suffix))
        m = result._summary(len(responses), responses)
        m["mean_wait_s"] = mean_or_nan(waits)
        m["p50_wait_s"] = median_or_nan(waits)
        m["mean_slowdown"] = mean_or_nan(slowdowns)
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
    #: columnar pages rolled back to park the session at the fork
    #: point again after the replay
    pages_restored: int = 0
    #: events the perturbed run processed, counted from t=0 (prefix
    #: included); the suffix replayed the part after
    #: ``SimSnapshot.events_processed``
    events_replayed: int = 0

    def render(self) -> str:
        """Human-oriented multi-line delta table."""
        lines = [f"what-if @ t={self.at:.0f}s  [{self.perturbation}]"]
        for name in sorted(self.deltas):
            b, v, d = self.base[name], self.variant[name], self.deltas[name]
            lines.append(f"  {name:<24} {b:>14.4f} -> {v:>14.4f}  ({d:+.4f})")
        return "\n".join(lines)


class WhatIf:
    """An interactive what-if session over one workload + system config.

    Parameters mirror :func:`repro.scheduler.simulate` plus:

    at:
        Fork time in simulated seconds.  The base run is paused there —
        events stamped exactly ``at`` belong to the replayed *suffix*,
        so a perturbation injected at ``at`` interleaves with them in
        within-tick rank order exactly as a fresh run would — the
        snapshot captured, and the base timeline finished.
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
        capture_observability: bool = False,
        **sim_kwargs,
    ):
        if at < 0:
            raise ValueError(f"fork time must be >= 0, got {at}")
        self.handle = build_simulation(jobs, config, policy=policy,
                                       **sim_kwargs)
        self.capture_observability = capture_observability
        #: reports by perturbation key: every entry forks from
        #: :attr:`snapshot`, the session's one capture
        self.cache = LRUCache(FORK_CACHE_SIZE)
        self.queries = 0
        self.replays = 0

        self.handle.run_until(at, inclusive=False)
        self.snapshot = SimSnapshot.capture(self.handle)
        self._prefix = _PrefixColumns(self.handle.controller.result.records)
        base_result = self.handle.finish()
        self.base_metrics = self._prefix.metrics(base_result)
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
        """Answer one counterfactual: replay the suffix, diff, rewind.

        The session is parked at the fork point between queries, so the
        perturbation applies straight away; one rollback afterwards,
        also when the perturbation or the replay raises, parks it again.
        """
        self.queries += 1
        key = perturbation.key()
        if use_cache:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        self.replays += 1
        try:
            perturbation.apply(self.handle)
            result = self.handle.finish()
            variant = self._prefix.metrics(result)
            report = WhatIfReport(
                perturbation=key,
                at=self.snapshot.now,
                base=self.base_metrics,
                variant=variant,
                deltas={k: variant[k] - self.base_metrics[k] for k in variant},
                result=_detach_result(result),
                observability=(
                    self._capture_observability()
                    if self.capture_observability else None
                ),
                events_replayed=result.events_processed,
            )
        finally:
            pages = self.snapshot.restore()
        report.pages_restored = pages
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
