"""Application profiles for the contention/slowdown model.

The paper characterises each application by a *sensitivity curve*
(performance versus memory-bandwidth contention) and a *contentiousness*
figure (memory bandwidth consumed at full performance) — Zacarias et al.
[45, 47].  These profiles are measured on real hardware in the original
work; here we provide a synthetic pool spanning the realistic range from
compute-bound (insensitive, low bandwidth) to memory-bandwidth-bound
(highly sensitive, high bandwidth) codes.  The pool also records typical
job geometry (nodes, runtime) used by the trace pipeline's
Euclidean-distance matching (paper Fig. 3, step 3).

Profiling is an **evaluation-only** input: the allocation policies never
read these profiles (paper §2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class AppProfile:
    """Slowdown characteristics of one profiled application.

    Attributes
    ----------
    name:
        Human-readable label.
    bw_demand_gbps:
        Contentiousness: memory bandwidth drawn at full performance.
    remote_sensitivity:
        Slope of the slowdown versus remote-memory fraction (latency and
        uncontended-bandwidth penalty of remote placement).
    contention_sensitivity:
        Extra slope applied when lender links are oversubscribed.
    read_write_ratio:
        Reads per write (documentation of the profiled workload).
    typical_nodes / typical_runtime:
        Centroid of the profiled runs, used for job matching.
    """

    name: str
    bw_demand_gbps: float
    remote_sensitivity: float
    contention_sensitivity: float
    read_write_ratio: float
    typical_nodes: int
    typical_runtime: float


#: A hand-curated pool patterned after common HPC benchmark behaviours,
#: from compute-bound ("ep", "mc") to bandwidth-bound ("stream", "cg").
DEFAULT_PROFILES: List[AppProfile] = [
    AppProfile("ep-montecarlo", 2.0, 0.04, 0.10, 3.0, 8, 1800.0),
    AppProfile("md-smallcell", 5.0, 0.08, 0.15, 4.0, 16, 7200.0),
    AppProfile("qcd-lattice", 12.0, 0.15, 0.30, 2.5, 64, 14400.0),
    AppProfile("cfd-implicit", 18.0, 0.20, 0.40, 2.0, 32, 10800.0),
    AppProfile("fft-spectral", 25.0, 0.28, 0.55, 1.5, 128, 5400.0),
    AppProfile("cg-sparse", 35.0, 0.40, 0.80, 5.0, 32, 3600.0),
    AppProfile("stream-like", 60.0, 0.55, 1.00, 1.0, 4, 900.0),
    AppProfile("graph-bfs", 30.0, 0.45, 0.70, 8.0, 64, 2700.0),
    AppProfile("amr-hydro", 22.0, 0.25, 0.50, 2.2, 256, 21600.0),
    AppProfile("climate-atm", 15.0, 0.18, 0.35, 2.8, 512, 43200.0),
    AppProfile("seismic-rtm", 40.0, 0.35, 0.65, 1.8, 128, 28800.0),
    AppProfile("bio-seq", 8.0, 0.10, 0.20, 6.0, 2, 3600.0),
    AppProfile("ml-train", 28.0, 0.30, 0.60, 1.2, 16, 36000.0),
    AppProfile("fem-assembly", 20.0, 0.22, 0.45, 3.5, 48, 9000.0),
    AppProfile("nbody-tree", 10.0, 0.12, 0.25, 4.5, 96, 12600.0),
    AppProfile("lbm-stencil", 45.0, 0.50, 0.90, 1.1, 24, 4500.0),
]


def profile_pool(
    n: int = len(DEFAULT_PROFILES), seed: SeedLike = None
) -> List[AppProfile]:
    """Return ``n`` profiles: the defaults, extended by jittered variants.

    Extending preserves the default pool's coverage while giving the
    matcher a denser set of centroids for large workloads.
    """
    if n <= len(DEFAULT_PROFILES):
        return DEFAULT_PROFILES[:n]
    rng = ensure_rng(seed)
    pool = list(DEFAULT_PROFILES)
    while len(pool) < n:
        base = pool[len(pool) % len(DEFAULT_PROFILES)]
        jitter = rng.uniform(0.7, 1.3, size=4)
        pool.append(
            AppProfile(
                name=f"{base.name}-v{len(pool)}",
                bw_demand_gbps=base.bw_demand_gbps * jitter[0],
                remote_sensitivity=min(base.remote_sensitivity * jitter[1], 0.9),
                contention_sensitivity=base.contention_sensitivity * jitter[2],
                read_write_ratio=base.read_write_ratio,
                typical_nodes=max(int(base.typical_nodes * jitter[3]), 1),
                typical_runtime=base.typical_runtime * jitter[3],
            )
        )
    return pool


def match_profiles(
    profiles: Sequence[AppProfile], n_nodes: Sequence[int], runtimes: Sequence[float]
) -> np.ndarray:
    """Index of the profile nearest to each job in (log-size, log-runtime)
    distance, for job ``k`` of ``n_nodes[k]`` nodes running ``runtimes[k]``
    seconds.

    The paper matches jobs to profiled applications "by minimizing the
    Euclidean distance of the size and runtime" (§3.2.1).  Log-space
    normalisation keeps the two axes comparable across orders of
    magnitude.  One ``argmin`` over the (jobs x profiles) distances; ties
    go to the first profile.
    """
    sizes = np.log2([max(p.typical_nodes, 1) for p in profiles])
    typical = np.log10([max(p.typical_runtime, 1.0) for p in profiles])
    ds = sizes - np.log2(np.maximum(np.asarray(n_nodes), 1))[:, None]
    dr = typical - np.log10(np.maximum(np.asarray(runtimes, dtype=np.float64), 1.0))[:, None]
    return np.argmin(ds * ds + dr * dr, axis=1)


def match_profile(
    profiles: Sequence[AppProfile], n_nodes: int, runtime: float
) -> int:
    """:func:`match_profiles` for one job."""
    return int(match_profiles(profiles, [n_nodes], [runtime])[0])
