"""Google Borg 2019-like trace generator (paper §3.1.3, [40, 42]).

The paper consumes the public 2019 Borg trace of cell *b* as a donor of
per-job **memory-usage shapes**: jobs are filtered down to best-effort
batch work that finished normally, memory (normalised to the largest
machine) is denormalised assuming 12 TB, and each 5-minute window's
maximum usage defines the usage level for that period.

We cannot ship the trace, so this module generates records with the same
schema and statistics that matter downstream: priority tiers, scheduling
classes, task counts, end statuses, runtimes, and phase-structured
memory-usage windows (5-minute average + maximum, normalised to [0, 1]).
The filtering/denormalisation pipeline then operates exactly as described
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Sequence

import numpy as np

from ..core.errors import TraceError
from ..core.rng import SeedLike, ensure_rng
from ..core.units import HOUR, MB_PER_GB
from ..jobs.usage import TraceBatch, UsageTrace, segment_offsets
from .shapes import draw_phases, phased_curves

#: Window length of the Borg usage table (paper: 5-minute windows).
WINDOW_S = 300.0

#: Assumed capacity of the largest machine, used for denormalisation
#: (paper: "the maximum capacity of a system in operation at the time was
#: 12 TB, so we used this figure").
DENORM_CAPACITY_MB = 12 * 1024 * MB_PER_GB


class Tier(Enum):
    """Borg priority tiers (coarse 2019-trace grouping)."""

    FREE = "free"
    BEST_EFFORT_BATCH = "best-effort-batch"
    MID = "mid"
    PRODUCTION = "production"
    MONITORING = "monitoring"


class EndStatus(Enum):
    FINISH = "finish"
    KILL = "kill"
    FAIL = "fail"
    EVICT = "evict"


@dataclass
class GoogleJob:
    """One Borg-like job with its windowed memory-usage table."""

    job_id: int
    tier: Tier
    scheduling_class: int
    n_tasks: int
    runtime: float
    end_status: EndStatus
    #: per 5-minute window, normalised to the largest machine [0, 1]
    avg_usage: np.ndarray = field(repr=False, default=None)
    max_usage: np.ndarray = field(repr=False, default=None)

    @property
    def peak_memory_mb(self) -> int:
        """Denormalised peak memory (MB) across all windows."""
        if self.max_usage is None or len(self.max_usage) == 0:
            return 0
        return int(round(float(self.max_usage.max()) * DENORM_CAPACITY_MB))

    def usage_trace(self) -> UsageTrace:
        """Denormalised usage curve: each window's **maximum** defines the
        usage level for that period (paper §3.2.2)."""
        return usage_traces([self])[0]


def usage_traces(jobs: Sequence[GoogleJob]) -> TraceBatch:
    """:meth:`GoogleJob.usage_trace` of every job, in one pass: window
    ``k`` starts at ``k * WINDOW_S``, and equal consecutive windows merge
    for compactness."""
    for j in jobs:
        if j.max_usage is None or len(j.max_usage) == 0:
            raise TraceError(f"google job {j.job_id} has no usage windows")
    n_windows = [len(j.max_usage) for j in jobs]
    offsets = segment_offsets(n_windows)
    window = np.arange(offsets[-1]) - np.repeat(offsets[:-1], n_windows)
    maxima = np.concatenate([j.max_usage for j in jobs] or [np.empty(0)])
    mem = np.round(maxima * DENORM_CAPACITY_MB).astype(np.int64)
    keep = np.ones(len(mem), dtype=bool)
    keep[1:] = np.diff(mem) != 0
    keep[offsets[:-1]] = True
    batch = TraceBatch(offsets, window * WINDOW_S, mem, [j.job_id for j in jobs])
    return batch.select(keep)


_TIER_WEIGHTS = {
    Tier.FREE: 0.10,
    Tier.BEST_EFFORT_BATCH: 0.55,  # cell b: largest batch proportion [40]
    Tier.MID: 0.10,
    Tier.PRODUCTION: 0.20,
    Tier.MONITORING: 0.05,
}

_END_WEIGHTS = {
    EndStatus.FINISH: 0.70,
    EndStatus.KILL: 0.20,
    EndStatus.FAIL: 0.08,
    EndStatus.EVICT: 0.02,
}


def generate(
    n_jobs: int,
    seed: SeedLike = None,
    median_runtime_s: float = 2 * HOUR,
    runtime_sigma: float = 1.3,
    median_peak_gb: float = 8.0,
    peak_sigma: float = 1.6,
    max_tasks: int = 512,
) -> List[GoogleJob]:
    """Generate a Borg-like job population with usage windows.

    One loop makes each job's random draws in a fixed order; everything
    else is one array pass over all jobs.  Tier and end status are
    ``Generator.choice(p=...)`` spelled out: one uniform draw, looked up
    in the normalised CDF.
    """
    if n_jobs <= 0:
        raise TraceError(f"n_jobs must be positive, got {n_jobs}")
    rng = ensure_rng(seed)
    mu_runtime = np.log(median_runtime_s)
    mu_tasks = np.log(8)
    mu_peak = np.log(median_peak_gb * MB_PER_GB)
    draws = []
    phases = []
    for _ in range(n_jobs):
        draws.append((
            rng.random(),  # tier
            rng.random(),  # end status
            rng.integers(0, 4),  # scheduling class
            rng.lognormal(mu_runtime, runtime_sigma),
            rng.lognormal(mu_tasks, 1.2),  # task count
            rng.lognormal(mu_peak, peak_sigma),  # peak MB
        ))
        phases.append(draw_phases(rng))
    u_tier, u_end, sched, runtime, n_tasks, peak = np.array(draws).T
    runtime = np.clip(runtime, WINDOW_S, 14 * 24 * HOUR)
    n_tasks = np.clip(np.round(n_tasks), 1, max_tasks).astype(np.int64)
    peak_mb = np.clip(peak, 64, 130 * MB_PER_GB).astype(np.int64)
    curves = phased_curves(phases, peak_mb, runtime, ids=range(n_jobs))

    # Window k of job i covers [k, k + 1) * WINDOW_S, cut at the runtime.
    n_windows = np.maximum(np.ceil(runtime / WINDOW_S).astype(np.int64), 1)
    offsets = segment_offsets(n_windows)
    owner = np.repeat(np.arange(n_jobs), n_windows)
    t0 = (np.arange(offsets[-1]) - offsets[owner]) * WINDOW_S
    t1 = np.minimum(t0 + WINDOW_S, runtime[owner])
    maxima = curves.window_max(owner, t0, t1).astype(np.float64)
    # Window averages: sample the curve mid-window (cheap, adequate).
    avgs = np.minimum(
        curves.usage_at_many(owner, (t0 + t1) / 2).astype(np.float64), maxima
    )
    avg_usage = avgs / DENORM_CAPACITY_MB
    max_usage = maxima / DENORM_CAPACITY_MB

    tiers = list(_TIER_WEIGHTS)
    ends = list(_END_WEIGHTS)
    tier = _cdf(_TIER_WEIGHTS).searchsorted(u_tier, side="right").tolist()
    end = _cdf(_END_WEIGHTS).searchsorted(u_end, side="right").tolist()
    bounds = offsets.tolist()
    return [
        GoogleJob(
            job_id=jid,
            tier=tiers[tier[jid]],
            scheduling_class=c,
            n_tasks=tasks,
            runtime=rt,
            end_status=ends[end[jid]],
            avg_usage=avg_usage[bounds[jid]:bounds[jid + 1]],
            max_usage=max_usage[bounds[jid]:bounds[jid + 1]],
        )
        for jid, (c, tasks, rt) in enumerate(zip(
            sched.astype(np.int64).tolist(), n_tasks.tolist(), runtime.tolist()
        ))
    ]


def _cdf(weights: dict) -> np.ndarray:
    """The normalised CDF ``Generator.choice`` searches for ``p=weights``."""
    cdf = np.array(list(weights.values())).cumsum()
    cdf /= cdf[-1]
    return cdf


def filter_batch(jobs: Sequence[GoogleJob]) -> List[GoogleJob]:
    """The paper's donor filter: best-effort batch, latency-insensitive,
    finished normally at least once (§3.2.2)."""
    return [
        j
        for j in jobs
        if j.tier is Tier.BEST_EFFORT_BATCH
        and j.scheduling_class <= 1
        and j.end_status is EndStatus.FINISH
    ]
