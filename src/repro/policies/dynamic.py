"""Dynamic disaggregated-memory policy (paper §2.2–2.3).

The initial allocation equals the submission-time request, exactly as in
the static policy.  Once the job runs, the Monitor reports its usage and
the Decider compares usage against the current allocation every update
window (~5 simulated minutes):

* usage **below** allocation → the Actuator deallocates the surplus,
  *remote memory first, then local*;
* usage **above** allocation → the Actuator allocates the deficit,
  *locally if possible, then remotely*, maximising the local-to-remote
  ratio;
* deficit unsatisfiable (the pool is exhausted) → **out of memory**: the
  job is terminated, its resources released, and it is resubmitted
  (Fail/Restart by default, Checkpoint/Restart optionally).

Fairness mitigation (paper §2.2): after ``max_oom_failures`` kills a job
is started with a *static, guaranteed* allocation and is no longer
resized.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..cluster.allocation import JobAllocation
from ..cluster.cluster import Cluster
from ..core.rng import ensure_rng
from ..jobs.job import Job
from .base import UpdateOutcome
from .static import StaticDisaggregatedPolicy


class DynamicDisaggregatedPolicy(StaticDisaggregatedPolicy):
    """Usage-tracking reallocation on top of the static admission rule."""

    name = "dynamic"
    uses_disaggregation = True
    is_dynamic = True

    #: the rank-scale cache holds arrays that are never written, so a
    #: dict copy captures it
    fork_state = StaticDisaggregatedPolicy.fork_state.extend(
        copies=("_pinned", "_observed_peak", "_readings", "_rank_scale_cache"),
        objects=("_monitor_rng",),
        fixed=(
            "headroom_mb", "max_oom_failures", "checkpoint_restart",
            "monitor_noise", "oom_priority_boost", "checkpoint_interval",
        ),
    )

    def __init__(
        self,
        cluster: Cluster,
        headroom_mb: int = 0,
        max_oom_failures: int = 3,
        checkpoint_restart: bool = False,
        monitor_noise: float = 0.0,
        monitor_seed: int = 0,
        oom_priority_boost: bool = False,
        checkpoint_interval: Optional[float] = None,
    ):
        super().__init__(cluster)
        if headroom_mb < 0:
            raise ValueError(f"negative headroom {headroom_mb}")
        if max_oom_failures < 0:
            raise ValueError(f"negative max_oom_failures {max_oom_failures}")
        if monitor_noise < 0:
            raise ValueError(f"negative monitor_noise {monitor_noise}")
        self.headroom_mb = headroom_mb
        self.max_oom_failures = max_oom_failures
        self.checkpoint_restart = checkpoint_restart
        #: relative std-dev of the Monitor's usage readings (0 = perfect;
        #: real LDMS-style telemetry is sampled and noisy — ablation knob)
        self.monitor_noise = monitor_noise
        self._monitor_rng = ensure_rng(monitor_seed)
        #: paper §2.2 fairness mitigation: restarted jobs keep their
        #: original queue priority instead of re-queuing at the tail
        self.oom_priority_boost = oom_priority_boost
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        #: with C/R: work seconds between periodic checkpoints (None =
        #: an idealised checkpoint exactly at the kill point)
        self.checkpoint_interval = checkpoint_interval
        #: jobs pinned to a static guaranteed allocation after repeated OOMs
        self._pinned: Set[int] = set()
        #: highest per-node demand seen before each job's OOM kills
        self._observed_peak: dict[int, int] = {}
        #: per job, the last noiseless Monitor reading and the progress
        #: ranges ``[lo0, hi0)``, ``[lo1, hi1)`` of the trace segments
        #: holding its window's start and end (see :meth:`update`)
        self._readings: Dict[int, Tuple[int, float, float, float, float]] = {}
        #: per-job rank-scale vector aligned with ``alloc.nodes`` (a
        #: job's node_scale never changes, so this is computed once)
        self._rank_scale_cache: Dict[int, Optional[np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _request_of(self, job: Job) -> int:
        """Pinned jobs are admitted with the demand that killed them, so
        the guaranteed allocation actually covers the observed usage."""
        if job.jid in self._pinned:
            return max(job.mem_request_mb, self._observed_peak.get(job.jid, 0))
        return job.mem_request_mb

    def plan(self, job: Job) -> Optional[JobAllocation]:
        if job.restarts >= self.max_oom_failures:
            self._pinned.add(job.jid)
        return super().plan(job)

    def is_pinned(self, job: Job) -> bool:
        return job.jid in self._pinned

    def on_finish(self, job: Job) -> None:
        self._pinned.discard(job.jid)
        self._observed_peak.pop(job.jid, None)
        self._readings.pop(job.jid, None)
        self._rank_scale_cache.pop(job.jid, None)

    # ------------------------------------------------------------------
    def update(self, job: Job, progress: float, window: float) -> UpdateOutcome:
        """One Monitor → Decider → Actuator step for a running job.

        ``progress`` is the job's current work position and ``window`` the
        progress span until the next update; the enforced demand is the
        maximum usage in that span (paper §2.3).  The three phases are
        the methods ``_monitor``, ``_decide`` and ``_actuate``, so an
        observed run times each of them from outside
        (:mod:`repro.obs.layers`).

        A reading equal to the one the allocation was last sized to
        (``alloc.sized_for_mb``) finds every node at its demand already,
        so Decider and Actuator are skipped.  A noiseless reading depends
        only on the trace segments holding the window's two ends, so
        while both ends stay inside the segments of the recorded reading
        and that reading is the mark, the Monitor is skipped as well: it
        would return the same reading, and ``_observed_peak`` holds it
        already.  With ``monitor_noise > 0`` nothing is recorded and the
        Monitor runs on every update, so its RNG draws once per update.
        """
        out = UpdateOutcome()
        jid = job.jid
        if jid in self._pinned:
            return out
        alloc = self.cluster.allocations.get(jid)
        if alloc is None:
            return out
        end = progress + window
        seen = self._readings.get(jid)
        if (seen is not None and seen[0] == alloc.sized_for_mb
                and seen[1] <= progress < seen[2] and seen[3] <= end < seen[4]):
            return out
        reference = self._monitor(job, progress, end)
        if reference == alloc.sized_for_mb:
            return out
        nodes, deltas = self._decide(job, alloc, reference)
        prov = self.obs.provenance
        if len(deltas) and prov.enabled:
            # Decider verdict, parented on the job's last lifecycle event;
            # the resulting pool/cluster events hang off it causally.
            prov.scope = prov.emit(
                "decide",
                jid=jid,
                reference_mb=int(reference),
                n_deltas=len(deltas),
                grow_mb=int(deltas[deltas > 0].sum()),
                shrink_mb=int(-deltas[deltas < 0].sum()),
            )
        self._actuate(jid, alloc, nodes, deltas, out)
        if not out.oom:
            out.resized = out.freed_mb > 0 or out.grown_mb > 0
            alloc.sized_for_mb = reference
        else:
            # The kill releases the allocation without ``on_finish``.
            alloc.sized_for_mb = None
            self._readings.pop(jid, None)
        return out

    def _monitor(self, job: Job, progress: float, end: float) -> int:
        """Monitor: the usage reading the Decider will act on."""
        peak, *ranges = job.usage.max_in_ranges(progress, end)
        if self.monitor_noise > 0.0:
            # Noisy telemetry: the Decider sees a perturbed reading, but
            # never below the memory resident right now (the Monitor
            # cannot report less than what is mapped).
            noise = 1.0 + self._monitor_rng.normal(0.0, self.monitor_noise)
            observed = int(round(peak * max(noise, 0.0)))
            reference = max(observed, job.usage.usage_at(progress))
            reference += self.headroom_mb
        else:
            reference = peak + self.headroom_mb
            self._readings[job.jid] = (reference, *ranges)
        prev = self._observed_peak.get(job.jid, 0)
        if reference > prev:
            self._observed_peak[job.jid] = reference
        return reference

    def _rank_scales(self, job: Job, n_ranks: int) -> Optional[np.ndarray]:
        """Rank-scale vector for ``job`` (``None`` = uniform 1.0)."""
        try:
            return self._rank_scale_cache[job.jid]
        except KeyError:
            pass
        if job.node_scale is None:
            scales = None
        else:
            base = np.asarray(job.node_scale, dtype=np.float64)
            scales = base[np.arange(n_ranks) % len(base)]
        self._rank_scale_cache[job.jid] = scales
        return scales

    def _decide(self, job: Job, alloc: JobAllocation,
                reference: int) -> Tuple[np.ndarray, np.ndarray]:
        """Decider: the nodes to resize and their deltas (MB, non-zero),
        in ``alloc.nodes`` order.

        Pure read of the job's own allocation — actuating one node never
        changes another node's ``total_on``, so deciding everything
        up-front is equivalent to the interleaved decide/act loop.

        Vectorised over the columnar store: a job's per-node totals are
        exactly ``local_used_mb + remote_held_mb`` on its (CPU-exclusive)
        nodes, and ``np.rint`` rounds half-to-even like ``round``, so the
        demands are bit-identical to the former per-rank loop.
        """
        nodes = alloc.nodes_array()
        scales = self._rank_scales(job, len(nodes))
        if scales is None:
            demands = np.full(len(nodes), reference, dtype=np.int64)
        else:
            # Per-node demand: the Monitor reports each node separately
            # (paper Fig. 1a); ranks may have imbalanced footprints.
            demands = np.rint(reference * scales).astype(np.int64)
        c = self.cluster
        delta_arr = demands - (c.local_used_mb[nodes] + c.remote_held_mb[nodes])
        changed = delta_arr != 0
        return nodes[changed], delta_arr[changed]

    def _actuate(self, jid: int, alloc: JobAllocation, nodes: np.ndarray,
                 deltas: np.ndarray, out: UpdateOutcome) -> None:
        """Actuator: plan the decided resizes in node order, then commit
        them in one :meth:`Cluster.resize`.

        A local-only resize — every shrink on a node that holds no remote
        memory, every grow within its node's free DRAM — touches no node
        but its own and needs no plan.  Any other resize is planned
        against one scratch copy of the free column, which each node's
        plan debits or credits as committing it would: a borrow plan
        depends on the free DRAM that earlier nodes of the same resize
        left.  A shrink reads only the job's own maps for its node, which
        no earlier node of the resize changes.  A borrow that cannot be
        planned is an OOM: what was planned up to it, that node's local
        take included, is committed, as a node-by-node Actuator would
        have left it.

        The whole window runs under ``defer_demand`` so the resize's
        demand notification joins one flush — the contention model
        reprices after the update returns, so nothing reads lender
        demand mid-window.
        """
        if not len(deltas):
            return
        c = self.cluster
        grow = deltas > 0
        with c.defer_demand():
            if np.where(grow, deltas <= c.free_local()[nodes],
                        c.remote_held_mb[nodes] == 0).all():
                c.resize(jid, nodes, deltas, alloc=alloc)
                out.grown_mb += int(deltas[grow].sum())
                out.freed_mb -= int(deltas[~grow].sum())
                out.touched_nodes.extend(nodes.tolist())
                return
            free = c.free_local().copy()
            free_total = c.free_local_total
            local_nodes, local_deltas = [], []
            borrows = []
            touched = out.touched_nodes
            for node, delta in zip(nodes.tolist(), deltas.tolist()):
                if delta < 0:
                    excess = -delta
                    remote_map = alloc.remote_mb.get(node)
                    if remote_map:
                        # Most-loaded lenders first (ties in map order),
                        # so memory nodes recover their ability to start
                        # jobs sooner.
                        for lender in sorted(remote_map, reverse=True,
                                             key=remote_map.__getitem__):
                            if excess <= 0:
                                break
                            give = min(remote_map[lender], excess)
                            borrows.append((node, lender, -give))
                            free[lender] += give
                            free_total += give
                            out.freed_mb += give
                            touched.append(lender)
                            excess -= give
                    give = min(alloc.local_mb.get(node, 0), excess)
                    if give > 0:
                        local_nodes.append(node)
                        local_deltas.append(-give)
                        free[node] += give
                        free_total += give
                        out.freed_mb += give
                        touched.append(node)
                    continue
                take = min(int(free[node]), delta)
                if take > 0:
                    local_nodes.append(node)
                    local_deltas.append(take)
                    free[node] -= take
                    free_total -= take
                    out.grown_mb += take
                    touched.append(node)
                deficit = delta - take
                if not deficit:
                    continue
                # Any node but this one may lend — including the job's own.
                plan = self.pool.plan_borrow(deficit, exclude=[node], near=node,
                                             free=free, free_total=free_total)
                if plan is None:
                    out.oom = True
                    break
                free_total -= deficit
                for lender, mb in plan:
                    borrows.append((node, lender, mb))
                    out.grown_mb += mb
                    touched.append(lender)
            c.resize(jid, local_nodes, local_deltas, borrows, alloc=alloc)
