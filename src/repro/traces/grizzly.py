"""Grizzly-like LDMS memory-usage dataset generator (paper §3.1.1, [5, 28]).

LANL's 2019 release covers the Grizzly cluster: 1490 nodes × 128 GB,
~70k jobs sampled every 10 s by LDMS, no scheduler information (no
submission times, no memory requests).  We reproduce the dataset's
*statistical* content — which is all the paper's methodology consumes:

* per-week job populations with node counts, durations and per-node
  memory-usage curves whose peak distribution matches the Grizzly column
  of Table 2 (average node-level memory utilisation ~18% [28]);
* week-level statistics (CPU utilisation, max job node-hours, max job
  memory) driving the Fig. 2 week-sampling procedure (simulate a random
  subset of the ≥70%-utilisation weeks);
* an LDMS-style 10-second sample series per job, materialised on demand
  and RDP-compressible exactly as the paper reduces the original 53 GB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..core.errors import TraceError
from ..core.rng import SeedLike, ensure_rng
from ..core.units import DAY, HOUR, MB_PER_GB, WEEK
from ..jobs.usage import UsageTrace
from .archer import DISTRIBUTIONS
from .shapes import draw_phases, phased_curves

#: LDMS sampling period on Grizzly (paper: every ten seconds).
LDMS_INTERVAL_S = 10.0

GRIZZLY_NODES = 1490
GRIZZLY_NODE_MEM_GB = 128


@dataclass
class GrizzlyJob:
    """One job observed in the (synthetic) LDMS dataset."""

    job_id: int
    n_nodes: int
    duration: float
    start_offset: float  # within the week
    usage: UsageTrace  # per-node memory over job progress

    @property
    def node_hours(self) -> float:
        return self.n_nodes * self.duration / HOUR

    @property
    def peak_memory_mb(self) -> int:
        return self.usage.peak()

    def ldms_series(self, interval: float = LDMS_INTERVAL_S) -> np.ndarray:
        """Materialise the 10-second LDMS sample series (times, MB).

        Returns an (n, 2) array suitable for RDP compression; this is the
        raw form whose volume the paper reduces with RDP.
        """
        n = max(int(np.ceil(self.duration / interval)), 1)
        times = np.arange(n, dtype=np.float64) * interval
        mem = self.usage.usage_at_many(times).astype(np.float64)
        return np.column_stack([times, mem])


@dataclass
class GrizzlyWeek:
    """One calendar week of the dataset."""

    index: int
    jobs: List[GrizzlyJob]
    n_nodes: int = GRIZZLY_NODES

    def cpu_utilization(self) -> float:
        """Total job node-hours over the week's node-hours (Fig. 2 x-axis)."""
        total = sum(j.n_nodes * j.duration for j in self.jobs)
        return total / (self.n_nodes * WEEK)

    def max_node_hours(self) -> float:
        return max((j.node_hours for j in self.jobs), default=0.0)

    def max_memory_mb(self) -> int:
        return max((j.peak_memory_mb for j in self.jobs), default=0)


@dataclass
class GrizzlyDataset:
    """The full multi-week dataset."""

    weeks: List[GrizzlyWeek] = field(default_factory=list)

    def utilizations(self) -> np.ndarray:
        return np.array([w.cpu_utilization() for w in self.weeks])

    def sample_weeks(
        self,
        k: int = 7,
        utilization_threshold: float = 0.70,
        seed: SeedLike = None,
    ) -> List[GrizzlyWeek]:
        """Random sample of high-utilisation weeks (paper §3.2.1).

        "We took a random sampling of the weeks with the utilization of
        70% or more ... then randomly chose seven periods to simulate."
        """
        rng = ensure_rng(seed)
        eligible = [
            w for w in self.weeks if w.cpu_utilization() >= utilization_threshold
        ]
        if not eligible:
            raise TraceError(
                f"no weeks at >= {utilization_threshold:.0%} utilisation"
            )
        k = min(k, len(eligible))
        idx = rng.choice(len(eligible), size=k, replace=False)
        return [eligible[i] for i in sorted(idx)]

    def week_statistics(self) -> np.ndarray:
        """(n_weeks, 3) array: CPU utilisation, max node-hours, max memory.

        The raw data behind Fig. 2's scatter plots.
        """
        return np.array(
            [
                [w.cpu_utilization(), w.max_node_hours(), w.max_memory_mb()]
                for w in self.weeks
            ]
        )


def _sample_job_sizes(rng: np.random.Generator, n: int, max_nodes: int) -> np.ndarray:
    """Grizzly-like size mix: mostly small, a tail of very wide jobs."""
    logs = rng.uniform(0.0, np.log2(max(max_nodes, 2)), size=n)
    sizes = np.floor(2 ** (logs * rng.beta(1.0, 2.2, size=n) * 1.6)).astype(np.int64)
    return np.clip(sizes, 1, max_nodes)


def generate_dataset(
    n_weeks: int = 26,
    n_nodes: int = GRIZZLY_NODES,
    node_mem_gb: int = GRIZZLY_NODE_MEM_GB,
    seed: SeedLike = None,
    utilization_range: Tuple[float, float] = (0.25, 0.95),
) -> GrizzlyDataset:
    """Generate a Grizzly-like dataset of ``n_weeks`` weeks.

    Each week draws a target CPU utilisation from ``utilization_range``
    (the published system-wide average is 78% with wide weekly spread) and
    fills the week with jobs until the target node-hours are reached.
    """
    if n_weeks <= 0:
        raise TraceError(f"n_weeks must be positive, got {n_weeks}")
    rng = ensure_rng(seed)
    node_mem_mb = node_mem_gb * MB_PER_GB
    small_dist = DISTRIBUTIONS[("grizzly", "small")]
    large_dist = DISTRIBUTIONS[("grizzly", "large")]
    weeks: List[GrizzlyWeek] = []
    jid = 0
    for w in range(n_weeks):
        # Bias the utilisation mix upward: the machine mostly runs hot.
        util = float(
            utilization_range[0]
            + (utilization_range[1] - utilization_range[0])
            * rng.beta(2.2, 1.2)
        )
        target_node_seconds = util * n_nodes * WEEK
        # (size, duration, peak, phase draws, start) per job, drawn in
        # order; the usage curves are built once the week is full.
        drawn: List[tuple] = []
        acc = 0.0
        while acc < target_node_seconds:
            size = int(_sample_job_sizes(rng, 1, min(n_nodes, 1024))[0])
            duration = float(
                np.clip(rng.lognormal(np.log(2 * HOUR), 1.2), 120.0, 3 * DAY)
            )
            dist = small_dist if size <= 32 else large_dist
            peak = int(min(dist.sample_mb(rng, 1)[0], node_mem_mb))
            phases = draw_phases(rng) if peak > 0 else None
            drawn.append((size, duration, peak, phases, float(rng.uniform(0.0, WEEK))))
            acc += size * duration
        usage = phased_curves(
            [d[3] for d in drawn], [d[2] for d in drawn], [d[1] for d in drawn],
            ids=range(jid, jid + len(drawn)),
        ).traces()
        jobs = [
            GrizzlyJob(job_id=jid + i, n_nodes=size, duration=duration,
                       start_offset=start, usage=usage[i])
            for i, (size, duration, _, _, start) in enumerate(drawn)
        ]
        jid += len(drawn)
        weeks.append(GrizzlyWeek(index=w, jobs=jobs, n_nodes=n_nodes))
    return weeks_to_dataset(weeks)


def weeks_to_dataset(weeks: Sequence[GrizzlyWeek]) -> GrizzlyDataset:
    return GrizzlyDataset(weeks=list(weeks))
