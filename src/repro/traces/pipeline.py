"""End-to-end trace generation (paper Fig. 3, §3.2).

Two workload builders feed the simulator:

* :func:`synthetic_workload` — the paper's nine-step pipeline: CIRNE
  geometry (step 1), application-profile matching (steps 2–4), memory
  requests from the ARCHER/Table 3 distributions (step 5), Google donor
  usage curves matched on (size, runtime, memory) and rescaled (step 6),
  memory-mix filtering (step 7), and simulator-ready jobs (steps 8–9).
* :func:`grizzly_workload` — §3.2.1: a (synthetic) Grizzly week, reduced
  with RDP, augmented with CIRNE submission times and profile matching,
  swept over the overestimation factor.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.errors import TraceError
from ..core.rng import SeedLike, ensure_rng, spawn
from ..jobs.job import Job
from ..jobs.usage import TraceBatch
from ..slowdown.profiles import AppProfile, match_profiles, profile_pool
from . import cirne, google
from .archer import sample_large_memory_peak, sample_normal_memory_peak
from .grizzly import GrizzlyWeek, generate_dataset
from .matching import log_features, match_nearest
from .workload import Workload

#: RDP tolerance as a fraction of the job's peak usage.
RDP_EPSILON_FRAC = 0.02


def _with_peak(usage: TraceBatch, peaks_mb: np.ndarray) -> TraceBatch:
    """Rescale each trace's memory axis so its maximum is ``peaks_mb[i]``;
    a trace that peaks at zero becomes flat at ``peaks_mb[i]``."""
    old = usage.peaks()
    flat = old <= 0
    scaled = usage.scaled_mem(peaks_mb / np.where(flat, 1, old))
    # Rounding can knock the maximum off by a few MB; pin it exactly.
    mem = scaled.mem_mb.copy()
    mem[scaled.peak_points()] = peaks_mb
    keep = ~np.repeat(flat, np.diff(usage.offsets))
    keep[usage.offsets[:-1]] = True
    return TraceBatch(usage.offsets, scaled.times, mem, usage.ids).select(keep)


def _graft_usage(
    donors: Sequence[google.GoogleJob],
    donor_idx: np.ndarray,
    runtimes: np.ndarray,
    peaks_mb: np.ndarray,
) -> TraceBatch:
    """Adapt donor ``donor_idx[i]``'s curve for job ``i``: stretch to the
    job's runtime, RDP-compress, then pin the peak (paper §3.2.2).
    Pinning last keeps the trace's maximum exactly equal to the sampled
    peak (Fig. 4b note: max usage equals the request at 0%
    overestimation).  Each distinct donor's curve is built once."""
    used, donor_of_job = np.unique(donor_idx, return_inverse=True)
    curves = google.usage_traces([donors[d] for d in used.tolist()])
    donor_runtimes = np.array([donors[d].runtime for d in used.tolist()])
    t = curves.take(donor_of_job, ids=range(len(donor_idx))).rescaled(
        donor_runtimes[donor_of_job], runtimes
    )
    t = t.compressed(np.maximum(RDP_EPSILON_FRAC * t.peaks(), 1.0))
    return _with_peak(t, peaks_mb)


def _sample_memory_peaks(
    rng: np.random.Generator, n: int, frac_large: float
) -> np.ndarray:
    """Step 5/7: per-node peak memory with a controlled large-memory mix.

    Jobs are drawn from the two Table 3 class distributions "in the
    appropriate proportions" (§3.3.1).
    """
    if not (0.0 <= frac_large <= 1.0):
        raise TraceError(f"frac_large must be in [0,1], got {frac_large}")
    large_mask = rng.random(n) < frac_large
    peaks = np.zeros(n, dtype=np.int64)
    n_large = int(large_mask.sum())
    if n_large:
        peaks[large_mask] = sample_large_memory_peak(rng, n_large)
    if n - n_large:
        peaks[~large_mask] = sample_normal_memory_peak(rng, n - n_large)
    return peaks


def synthetic_workload(
    n_jobs: int,
    frac_large: float = 0.25,
    overestimation: float = 0.0,
    target_utilization: float = 0.80,
    n_system_nodes: int = 1024,
    max_job_nodes: Optional[int] = None,
    google_pool: Optional[Sequence[google.GoogleJob]] = None,
    google_pool_size: int = 1500,
    profiles: Optional[List[AppProfile]] = None,
    node_imbalance: float = 0.0,
    seed: SeedLike = None,
) -> Workload:
    """Build a simulator-ready synthetic workload (Fig. 3 steps 1–9).

    ``node_imbalance`` > 0 gives each multi-node job per-rank usage
    multipliers (std-dev of the shortfall below the heaviest rank),
    modelling the per-node footprint imbalance real LDMS data shows.
    The default 0 reproduces the paper's uniform-per-node accounting.
    """
    if node_imbalance < 0:
        raise TraceError(f"negative node_imbalance {node_imbalance}")
    if n_jobs <= 0:
        raise TraceError(f"n_jobs must be positive, got {n_jobs}")
    if max_job_nodes is None:
        # The paper's synthetic trace caps job width at 1/8 of the system
        # (128 of 1024 nodes); keep the same ratio at any scale.
        max_job_nodes = max(n_system_nodes // 8, 1)
    rng = ensure_rng(seed)
    r_cirne, r_google, r_mem, r_misc = spawn(rng, 4)

    # Step 1: CIRNE geometry (arrivals, sizes, runtimes, estimates).
    geometry = cirne.generate(
        n_jobs,
        n_system_nodes,
        target_utilization=target_utilization,
        params=cirne.CirneParams(max_nodes=min(max_job_nodes, n_system_nodes)),
        seed=r_cirne,
    )

    # Steps 2-4: match each job to a profiled application.
    pool = profiles if profiles is not None else profile_pool()
    sizes = [g.n_nodes for g in geometry]
    runtimes = np.array([g.runtime for g in geometry])
    prof_idx = match_profiles(pool, sizes, runtimes).tolist()

    # Steps 5 & 7: memory peaks with the scenario's large-memory mix.
    peaks = _sample_memory_peaks(r_mem, n_jobs, frac_large)

    # Step 6: match each job to a Google donor on (size, runtime, memory)
    # and graft the donor's usage shape.
    donors = list(google_pool) if google_pool is not None else google.filter_batch(
        google.generate(google_pool_size, seed=r_google)
    )
    if not donors:
        raise TraceError("google donor pool is empty after filtering")
    donor_features = log_features(
        [d.n_tasks for d in donors],
        [d.runtime for d in donors],
        [max(d.peak_memory_mb, 1) for d in donors],
    )
    query_features = log_features(sizes, runtimes, peaks)
    donor_idx = match_nearest(donor_features, query_features)
    usage = _graft_usage(donors, donor_idx, runtimes, peaks).traces()

    # Steps 8-9: emit simulator jobs.
    jobs: List[Job] = []
    for i, g in enumerate(geometry):
        request = int(round(int(peaks[i]) * (1.0 + overestimation)))
        node_scale = None
        if node_imbalance > 0 and g.n_nodes > 1:
            shortfall = np.abs(r_misc.normal(0.0, node_imbalance, g.n_nodes))
            scales = np.clip(1.0 - shortfall, 0.25, 1.0)
            scales[int(r_misc.integers(0, g.n_nodes))] = 1.0
            node_scale = tuple(float(s) for s in scales)
        jobs.append(
            Job(
                jid=i,
                submit_time=g.arrival,
                n_nodes=g.n_nodes,
                base_runtime=g.runtime,
                walltime_limit=g.estimate,
                mem_request_mb=request,
                usage=usage[i],
                profile=prof_idx[i],
                node_scale=node_scale,
                user=g.user,
            )
        )
    return Workload(
        jobs=jobs,
        profiles=list(pool),
        meta={
            "kind": "synthetic",
            "n_jobs": n_jobs,
            "frac_large": frac_large,
            "overestimation": overestimation,
            "target_utilization": target_utilization,
            "n_system_nodes": n_system_nodes,
        },
    )


def grizzly_workload(
    week: Optional[GrizzlyWeek] = None,
    overestimation: float = 0.0,
    n_system_nodes: int = 1490,
    scale_jobs: Optional[int] = None,
    profiles: Optional[List[AppProfile]] = None,
    seed: SeedLike = None,
) -> Workload:
    """Adapt a Grizzly week into a simulator workload (paper §3.2.1).

    When ``week`` is omitted a one-week dataset is generated on the fly.
    ``scale_jobs`` optionally subsamples the week to a given job count
    (with proportional load), the reduced-scale knob used by fast runs.
    """
    rng = ensure_rng(seed)
    r_week, r_arr, r_est = spawn(rng, 3)
    if week is None:
        dataset = generate_dataset(n_weeks=1, n_nodes=n_system_nodes, seed=r_week)
        week = dataset.weeks[0]
    gjobs = list(week.jobs)
    if scale_jobs is not None and scale_jobs < len(gjobs):
        idx = r_week.choice(len(gjobs), size=scale_jobs, replace=False)
        gjobs = [gjobs[i] for i in sorted(idx)]
    if not gjobs:
        raise TraceError("grizzly week has no jobs")

    # Submission times from the CIRNE arrival process, sized so offered
    # load matches the week's own utilisation.
    util = max(min(week.cpu_utilization(), 0.95), 0.05)
    total_work = sum(j.n_nodes * j.duration for j in gjobs)
    span = total_work / (n_system_nodes * util)
    arrivals = cirne._sample_arrivals(
        r_arr, len(gjobs), span, cirne.CirneParams()
    )
    # Preserve the week's temporal structure: earliest original start
    # gets the earliest generated arrival.
    order = np.argsort([j.start_offset for j in gjobs], kind="stable")

    pool = profiles if profiles is not None else profile_pool()
    factors = np.clip(r_est.lognormal(np.log(2.0), 0.6, len(gjobs)), 1.0, 20.0)
    ranked = [gjobs[int(gi)] for gi in order]
    usage = TraceBatch.of([gj.usage for gj in ranked], ids=range(len(ranked)))
    usage = usage.compressed(np.maximum(RDP_EPSILON_FRAC * usage.peaks(), 1.0))
    peaks = usage.peaks().tolist()
    prof_idx = match_profiles(
        pool, [gj.n_nodes for gj in ranked], [gj.duration for gj in ranked]
    ).tolist()
    traces = usage.traces()
    jobs: List[Job] = []
    for rank, gj in enumerate(ranked):
        # The request derives from the trace the simulator will monitor.
        request = int(round(peaks[rank] * (1.0 + overestimation)))
        jobs.append(
            Job(
                jid=rank,
                submit_time=float(arrivals[rank]),
                n_nodes=min(gj.n_nodes, n_system_nodes),
                base_runtime=gj.duration,
                walltime_limit=gj.duration * float(factors[rank]),
                mem_request_mb=request,
                usage=traces[rank],
                profile=prof_idx[rank],
            )
        )
    jobs.sort(key=lambda j: j.submit_time)
    return Workload(
        jobs=jobs,
        profiles=list(pool),
        meta={
            "kind": "grizzly",
            "week": week.index,
            "overestimation": overestimation,
            "n_system_nodes": n_system_nodes,
            "week_utilization": util,
        },
    )
