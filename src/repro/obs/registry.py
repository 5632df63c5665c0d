"""Deterministic metrics registry.

Three metric kinds, all plain picklable dataclass-style objects so
process-pool workers can ship a registry (or its :meth:`~MetricsRegistry.
to_dict` dump) back to the parent, which merges child registries
deterministically:

* :class:`Counter` — monotonically increasing integer;
* :class:`Gauge` — last-written value, stamped with the simulated time
  of the write so merges are order-independent;
* :class:`Histogram` — fixed, explicit bucket boundaries (no dynamic
  rebucketing: two histograms merge only if their bounds are identical).

Time series come from :meth:`MetricsRegistry.sample`: each call appends
one ``(t, name, value)`` row per counter and gauge, in sorted-name
order, so a registry's serialisation is a pure function of the simulated
run — never of wall-clock, host, or worker placement.  Wall-clock data
belongs in :mod:`repro.obs.layers`, which is exported separately and
excluded from determinism comparisons.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.state import ForkState

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("name", "value")

    fork_state = ForkState(values=("value",), fixed=("name",))

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = int(value)

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += int(n)


class Gauge:
    """Last-value metric, stamped with the simulated time of the write.

    The stamp makes merging deterministic: the sample with the greater
    ``last_t`` wins regardless of merge order (ties: greater value).
    """

    __slots__ = ("name", "value", "last_t")

    fork_state = ForkState(values=("value", "last_t"), fixed=("name",))

    def __init__(self, name: str, value: float = 0.0, last_t: float = float("-inf")):
        self.name = name
        self.value = value
        self.last_t = last_t

    def set(self, value: float, t: float = 0.0) -> None:
        self.value = value
        self.last_t = t


class Histogram:
    """Fixed-boundary histogram.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything above the last edge.  An
    observation ``v`` lands in the first bucket with ``v <= edge``
    (Prometheus ``le`` semantics).
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    fork_state = ForkState(
        values=("total", "count"), copies=("counts",), fixed=("name", "bounds"),
    )

    def __init__(self, name: str, bounds: Sequence[float]):
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ValueError(f"histogram {name}: empty bucket bounds")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name}: bounds must be strictly increasing, got {edges}"
            )
        self.name = name
        self.bounds: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # First edge >= value is the bucket (le semantics); past the last
        # edge, bisect returns len(bounds) == the overflow slot.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += float(value)
        self.count += 1

    def bucket_items(self) -> List[Tuple[str, int]]:
        """(upper-edge label, count) pairs including the +Inf bucket."""
        labels = [repr(edge) for edge in self.bounds] + ["+Inf"]
        return list(zip(labels, self.counts))


class MetricsRegistry:
    """Named metrics plus the sampled time series.

    Deterministic by construction: iteration and serialisation are
    always in sorted-name order, values derive from simulated state
    only, and :meth:`merge` is order-independent.
    """

    fork_state = ForkState(
        copies=("series",),
        object_maps=("counters", "gauges", "histograms"),
    )

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: sampled rows, in append order: (sim time, metric name, value)
        self.series: List[Tuple[float, str, float]] = []

    # ------------------------------------------------------------------
    # Metric accessors (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            if bounds is None:
                raise ValueError(f"histogram {name} does not exist; pass bounds")
            h = self.histograms[name] = Histogram(name, bounds)
        elif bounds is not None and tuple(float(b) for b in bounds) != h.bounds:
            raise ValueError(
                f"histogram {name} already registered with bounds {h.bounds}"
            )
        return h

    # Convenience wrappers used on the instrumentation sites.
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float, t: float = 0.0) -> None:
        self.gauge(name).set(value, t)

    def observe(self, name: str, value: float,
                bounds: Optional[Sequence[float]] = None) -> None:
        self.histogram(name, bounds).observe(value)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, t: float) -> None:
        """Append one time-series row per counter and gauge at time ``t``."""
        for name in sorted(self.counters):
            self.series.append((t, name, float(self.counters[name].value)))
        for name in sorted(self.gauges):
            self.series.append((t, name, self.gauges[name].value))

    # ------------------------------------------------------------------
    # Serialisation (plain dicts; stable key order)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "counters": {n: self.counters[n].value for n in sorted(self.counters)},
            "gauges": {
                n: [self.gauges[n].value, self.gauges[n].last_t]
                for n in sorted(self.gauges)
            },
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for n, h in sorted(self.histograms.items())
            },
            "series": [list(row) for row in self.series],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "MetricsRegistry":
        reg = cls()
        for name, value in data.get("counters", {}).items():
            reg.counters[name] = Counter(name, value)
        for name, (value, last_t) in data.get("gauges", {}).items():
            reg.gauges[name] = Gauge(name, value, last_t)
        for name, h in data.get("histograms", {}).items():
            hist = Histogram(name, h["bounds"])
            hist.counts = [int(c) for c in h["counts"]]
            hist.total = float(h["sum"])
            hist.count = int(h["count"])
            reg.histograms[name] = hist
        reg.series = [(float(t), str(n), float(v)) for t, n, v in data.get("series", [])]
        return reg

    # ------------------------------------------------------------------
    # Merging (parallel workers -> parent)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry", prefix: str = "") -> None:
        """Fold ``other`` into this registry.

        Counters and histograms add; gauges keep the later-stamped
        sample (ties: the greater value); series rows concatenate and
        re-sort by ``(t, name)``.  With ``prefix`` every incoming metric
        name is namespaced (campaigns prefix per-scenario registries so
        scenarios never collide and the merged dump is independent of
        completion order).
        """
        for name, c in other.counters.items():
            self.counter(prefix + name).inc(c.value)
        for name, g in other.gauges.items():
            mine = self.gauge(prefix + name)
            if (g.last_t, g.value) >= (mine.last_t, mine.value):
                mine.set(g.value, g.last_t)
        for name, h in other.histograms.items():
            mine = self.histogram(prefix + name, h.bounds)
            for i, c in enumerate(h.counts):
                mine.counts[i] += c
            mine.total += h.total
            mine.count += h.count
        self.series.extend((t, prefix + n, v) for t, n, v in other.series)
        self.series.sort(key=lambda row: (row[0], row[1]))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)
