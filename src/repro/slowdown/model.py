"""Remote-memory contention model (Zacarias et al. [45, 47]).

The model prices the performance of a job under disaggregated memory from
two effects:

1. **Remote placement** — a fraction ``rf`` of the job's memory lives on
   lender nodes; accesses pay remote latency/bandwidth.  The per-app
   *remote sensitivity* converts ``rf`` into a base slowdown.
2. **Bandwidth contention** — borrowers sharing a lender compete for that
   node's injection bandwidth.  Each borrowing job directs
   ``bw_demand × rf`` of traffic, split across its lenders pro rata to the
   MB borrowed.  A lender whose aggregate demand exceeds its link
   bandwidth is *oversubscribed*; its borrowers are further slowed in
   proportion to the per-app *contention sensitivity*.

``slowdown = 1 + remote_sensitivity·rf·(1 + contention_sensitivity·C)``

where ``C`` is the MB-weighted mean oversubscription over the job's
lenders.  The model matches the published one in structure (sensitivity
curve × contentiousness on remote bandwidth; remote accesses bypass local
caches so only remote bandwidth is modelled, paper §2.1) with synthetic
coefficients from :mod:`repro.slowdown.profiles`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set

import numpy as np

from ..cluster.allocation import JobAllocation
from ..cluster.cluster import Cluster
from ..core.state import ForkState
from ..jobs.job import Job
from .profiles import AppProfile

#: Hard cap keeping pathological configurations finite.
MAX_SLOWDOWN = 4.0


class LenderShares(NamedTuple):
    """One pricing walk's per-lender arrays, kept for :func:`lender_rows`.

    ``ids``/``mb`` are the job's lenders in :meth:`JobAllocation.lenders`
    order, ``osub`` their oversubscriptions; ``scale`` is ``base_remote ·
    contention_sensitivity`` and ``total_mb`` the job's borrowed total.
    """

    ids: np.ndarray
    mb: np.ndarray
    osub: np.ndarray
    scale: float
    total_mb: int


#: The shares of a job that borrows nothing.
_NO_SHARES = LenderShares(np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=np.int64), np.zeros(0), 0.0, 0)


def lender_rows(shares: LenderShares) -> List[Dict[str, object]]:
    """The per-lender rows of a breakdown: ``lender``, ``mb``,
    ``oversubscription`` and ``contribution = base_remote · cs ·
    (mb/total_mb) · oversubscription``, each lender's MB-weighted share of
    the contention term (multiplied left to right, as a scalar would)."""
    if not len(shares.ids):
        return []
    contribution = shares.scale * (shares.mb / shares.total_mb) * shares.osub
    return [
        {"lender": lender, "mb": mb, "oversubscription": osub,
         "contribution": part}
        for lender, mb, osub, part in zip(
            shares.ids.tolist(), shares.mb.tolist(), shares.osub.tolist(),
            contribution.tolist())
    ]


class ContentionModel:
    """Computes per-job slowdown from the current memory layout.

    ``distance_penalty`` (default 0 = the paper's distance-free model)
    scales the remote term by how far the job's borrowed pages sit on the
    torus relative to the machine's mean hop distance — the extension
    that pairs with the pool's ``nearest`` lender strategy.

    Lender demand is kept as a column over the attached cluster's nodes
    with a stale mask (:meth:`attach`).  A fork captures both with the
    cluster, so a restore needs no invalidation; the hit/miss counters
    are diagnostics that keep counting across forks.
    """

    fork_state = ForkState(
        copies=("_demand", "_stale"),
        fixed=("profiles", "node_bw_gbps", "distance_penalty",
               "_demand_cluster"),
        survive=("demand_hits", "demand_misses"),
    )

    def __init__(
        self,
        profiles: Sequence[AppProfile],
        node_bw_gbps: float = 100.0,
        distance_penalty: float = 0.0,
    ):
        if node_bw_gbps <= 0:
            raise ValueError(f"node bandwidth must be positive, got {node_bw_gbps}")
        if distance_penalty < 0:
            raise ValueError(f"negative distance_penalty {distance_penalty}")
        self.profiles = list(profiles)
        self.node_bw_gbps = node_bw_gbps
        self.distance_penalty = distance_penalty
        #: incremental per-lender demand ledger (see :meth:`attach`)
        self._demand_cluster: Optional[Cluster] = None
        self._demand = np.zeros(0)
        self._stale = np.ones(0, dtype=bool)
        #: diagnostics: ledger effectiveness within repricing batches
        self.demand_hits = 0
        self.demand_misses = 0

    # ------------------------------------------------------------------
    # Incremental lender-demand ledger
    # ------------------------------------------------------------------
    def attach(self, cluster: Cluster) -> None:
        """Maintain a per-lender demand column against ``cluster``.

        ``_demand[lender]`` holds the lender's demand unless
        ``_stale[lender]`` is set.  The cluster's mutators report which
        lenders' borrow layouts (or borrower totals — ``remote_fraction``
        depends on a job's *total* allocation, so local grow/shrink
        dirties its lenders too) changed; those entries are marked stale
        and recomputed lazily on the next read.  The recomputation runs
        the exact brute-force expression over borrowers in ledger order,
        so column entries are bit-identical to the unledgered path.
        """
        if self._demand_cluster is cluster:
            return
        self.detach()
        self._demand_cluster = cluster
        self._demand = np.zeros(cluster.n_nodes)
        self._stale = np.ones(cluster.n_nodes, dtype=bool)
        cluster.add_demand_listener(self._on_demand_change)

    def detach(self) -> None:
        """Stop maintaining the demand ledger (drops the column)."""
        if self._demand_cluster is not None:
            self._demand_cluster.remove_demand_listener(self._on_demand_change)
        self._demand_cluster = None
        self._demand = np.zeros(0)
        self._stale = np.ones(0, dtype=bool)

    def _on_demand_change(self, cluster: Cluster, lenders: Sequence[int]) -> None:
        self._stale[lenders] = True

    def _demand_of(
        self, cluster: Cluster, jobs: Dict[int, Job], ids: np.ndarray
    ) -> np.ndarray:
        """Demand of each lender in ``ids`` (unique), as a fresh array.

        Attached: only the stale entries are recomputed, and each read
        counts as a hit or a miss.  Otherwise every entry is recomputed.
        """
        brute = self._lender_demand_brute
        if cluster is not self._demand_cluster:
            return np.array([brute(cluster, jobs, lender)
                             for lender in ids.tolist()], dtype=np.float64)
        stale = ids[self._stale[ids]]
        if len(stale):
            self._demand[stale] = [brute(cluster, jobs, lender)
                                   for lender in stale.tolist()]
            self._stale[stale] = False
        self.demand_misses += len(stale)
        self.demand_hits += len(ids) - len(stale)
        return self._demand[ids]

    # ------------------------------------------------------------------
    def _distance_factor(self, cluster: Cluster, alloc: JobAllocation) -> float:
        """MB-weighted relative hop distance of the job's remote pages.

        1.0 at the machine's mean hop distance; <1 for near lenders.
        Scaled by ``distance_penalty`` into a multiplicative factor on
        the remote term, floored at 0.5 (even adjacent memory is remote).
        """
        if math.isclose(self.distance_penalty, 0.0, abs_tol=1e-12):
            return 1.0
        total_mb = 0
        weighted = 0.0
        for node, lender_map in alloc.remote_mb.items():
            row = cluster.distance_row(node)
            for lender, mb in lender_map.items():
                weighted += mb * row[lender]
                total_mb += mb
        if total_mb == 0:
            return 1.0
        mean_hops = cluster.torus.mean_hop_distance()
        if mean_hops <= 0:
            return 1.0
        relative = (weighted / total_mb) / mean_hops
        return max(1.0 + self.distance_penalty * (relative - 1.0), 0.5)

    # ------------------------------------------------------------------
    def remote_bw_demand(self, job: Job, alloc: JobAllocation) -> float:
        """Remote traffic (GB/s) this job directs at the pool in total."""
        prof = self.profiles[job.profile]
        return prof.bw_demand_gbps * alloc.remote_fraction() * job.n_nodes

    def lender_demand(
        self, cluster: Cluster, jobs: Dict[int, Job], lender: int
    ) -> float:
        """Aggregate remote-traffic demand (GB/s) on one lender node.

        Served from the incremental ledger when :meth:`attach` bound this
        model to ``cluster``; otherwise recomputed from all borrowers.
        """
        ids = np.array([lender], dtype=np.int64)
        return float(self._demand_of(cluster, jobs, ids)[0])

    def _lender_demand_brute(
        self, cluster: Cluster, jobs: Dict[int, Job], lender: int
    ) -> float:
        """Uncached recomputation: the cache-miss path of
        :meth:`lender_demand`, and the parity tests' reference."""
        demand = 0.0
        for jid, mb in cluster.borrowers_of(lender).items():
            job = jobs.get(jid)
            alloc = cluster.allocations.get(jid)
            if job is None or alloc is None:
                continue
            total_remote = alloc.total_remote()
            if total_remote <= 0:
                continue
            demand += self.remote_bw_demand(job, alloc) * (mb / total_remote)
        return demand

    # ------------------------------------------------------------------
    def slowdown(
        self,
        job: Job,
        cluster: Cluster,
        jobs: Dict[int, Job],
        breakdown: Optional[Dict[str, object]] = None,
    ) -> float:
        """Current slowdown factor (>= 1) for a running job.

        One pass over the job's cached lender arrays reads each lender's
        demand once.  When ``breakdown`` is given, the same pass fills it
        with the decomposition ``slowdown - 1 = base_remote + Σ lender
        contributions`` (before the ``MAX_SLOWDOWN`` cap):
        ``base_remote = rs·rf·d`` is the remote-placement term, and
        ``lenders`` holds the pass's :class:`LenderShares`, which
        :func:`lender_rows` turns into each lender's share of the
        contention term.  ``breakdown`` stays empty when the job has no
        allocation.
        """
        alloc = cluster.allocations.get(job.jid)
        if alloc is None:
            return 1.0
        rf = alloc.remote_fraction()
        if rf <= 0.0:
            if breakdown is not None:
                breakdown.update(slowdown=1.0, rf=0.0, base_remote=0.0,
                                 contention=0.0, lenders=_NO_SHARES)
            return 1.0
        prof = self.profiles[job.profile]
        ids, mb = alloc.lender_arrays()
        # How far beyond its link bandwidth each lender is driven (>= 0),
        # and the MB-weighted mean over the job's lenders; the cumulative
        # sum adds the terms left to right, as a scalar loop would.
        osub = np.maximum(
            self._demand_of(cluster, jobs, ids) / self.node_bw_gbps - 1.0, 0.0
        )
        total_mb = alloc.total_remote()
        contention = float(np.cumsum(mb * osub)[-1]) / total_mb
        rs = prof.remote_sensitivity
        cs = prof.contention_sensitivity
        d = self._distance_factor(cluster, alloc)
        s = 1.0 + rs * rf * (1.0 + cs * contention) * d
        if breakdown is not None:
            # The breakdown groups ``rs·rf·d`` first, which may differ
            # from ``s`` in the last bit; each keeps its own expression.
            base = rs * rf * d
            uncapped = 1.0 + base * (1.0 + cs * contention)
            breakdown.update(
                slowdown=min(uncapped, MAX_SLOWDOWN),
                uncapped=uncapped,
                rf=rf,
                distance_factor=d,
                contention=contention,
                base_remote=base,
                lenders=LenderShares(ids, mb, osub, base * cs, total_mb),
            )
        return min(s, MAX_SLOWDOWN)

    # ------------------------------------------------------------------
    def affected_jobs(
        self, cluster: Cluster, touched_nodes: Iterable[int]
    ) -> Set[int]:
        """Job ids whose slowdown may change when ``touched_nodes`` change.

        These are the borrowers of every touched lender, plus the jobs
        running on the touched nodes themselves.  The running-job part is
        one gather over the ``job_on_node`` column; only nodes with an
        actual borrower record cost a per-node set update.
        """
        nodes = list(touched_nodes)
        if not nodes:
            return set()
        arr = np.asarray(nodes, dtype=np.int64)
        jids = cluster.job_on_node[arr]
        out: Set[int] = set(jids[jids >= 0].tolist())
        lender_jobs = cluster.lender_jobs
        for node in nodes:
            rec = lender_jobs[node]
            if rec:
                out.update(rec)
        return out


class NullContentionModel(ContentionModel):
    """Ablation: remote memory is free (slowdown always 1)."""

    def __init__(self) -> None:  # no profiles needed
        super().__init__(profiles=[], node_bw_gbps=1.0)

    def attach(self, cluster) -> None:
        """No ledger to maintain (demand is never read)."""

    def slowdown(self, job, cluster, jobs, breakdown=None) -> float:
        return 1.0  # nothing is priced, so ``breakdown`` stays empty

    def affected_jobs(self, cluster, touched_nodes):
        return set()
