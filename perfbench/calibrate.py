"""Host-speed calibration of the benchmark's timings.

The machines this benchmark runs on share their cores with other
tenants, and their speed drifts by up to 2x over seconds to minutes: the
same simulation, repeated, takes anywhere from 1.5 to 3 s.  A median of
samples within one run cannot remove a drift that outlasts the run.

So the benchmark runs a fixed reference kernel between its operations
and scales each timed sample by how fast the host was around it::

    calibrated = measured * REFERENCE_S / reference kernel time

The reference time of a sample is the mean of the probes just before and
just after it.  The kernel is plain Python and NumPy written here, not
simulator code, so a change to the simulator never moves it.  At the
speed where the kernel takes :data:`REFERENCE_S`, calibrated seconds are
measured seconds.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

#: Kernel seconds at the nominal host speed (the fastest probe seen on
#: the 2-vCPU Xeon the benchmark was written on).
REFERENCE_S = 0.03

_ARRAY = np.arange(4096, dtype=np.int64)


def reference_kernel() -> int:
    """Fixed work mixing what the simulator does: dict updates, small
    list sorts, attribute-free arithmetic and small NumPy calls."""
    state = 12345
    table: dict = {}
    acc = 0
    for i in range(40_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state & 1023
        table[key] = table.get(key, 0) + 1
        if i % 32 == 0:
            acc += int(np.searchsorted(_ARRAY, state & 4095))
            acc += len(sorted(table.values())[:8])
    return acc


class SpeedProbe:
    """Reference-kernel probes on a timeline, and samples scaled by them."""

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        #: (end time, kernel seconds) of each probe, in time order
        self._ends: List[float] = []
        self._secs: List[float] = []
        #: segments [(start, end), ...] of each timed sample, by kind
        self._samples: Dict[str, List[List[Tuple[float, float]]]] = {}

    def probe(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self._ends.append(t1)
        self._secs.append(t1 - t0)

    def last_probe_end(self) -> float:
        return self._ends[-1] if self._ends else float("-inf")

    def maybe_probe(self) -> None:
        """Probe when the last probe is at least ``every_s`` old."""
        if time.perf_counter() - self.last_probe_end() >= self.every_s:
            self.probe()

    def sample(self, kind: str) -> "Sample":
        """Time one sample of ``kind``: ``with probe.sample("sim") as t:``."""
        return Sample(self, kind)

    def record(self, kind: str, segments: List[Tuple[float, float]]) -> None:
        self._samples.setdefault(kind, []).append(segments)

    def speed(self) -> float:
        """Median host speed over the run, as a share of nominal."""
        return REFERENCE_S / statistics.median(self._secs)

    def raw(self, kind: str) -> List[float]:
        return [sum(t1 - t0 for t0, t1 in segments)
                for segments in self._samples.get(kind, [])]

    def calibrated(self, kind: str) -> List[float]:
        """Samples of ``kind`` in seconds at the nominal host speed.

        Each segment is scaled by the probes around it.  Call after a
        final :meth:`probe`, so every segment has a probe on both sides.
        """
        return [
            sum((t1 - t0) * REFERENCE_S / self.reference(t0, t1)
                for t0, t1 in segments)
            for segments in self._samples.get(kind, [])
        ]

    def reference(self, t0: float, t1: float) -> float:
        """Mean kernel time of the last probe before ``t0`` and the first
        after ``t1``."""
        before = bisect.bisect_right(self._ends, t0) - 1
        after = bisect.bisect_left(self._ends, t1 + 1e-12)
        points: Tuple[float, ...] = tuple(
            self._secs[k] for k in (before, after) if 0 <= k < len(self._secs)
        )
        if not points:
            raise RuntimeError("no speed probe around a sample")
        return sum(points) / len(points)


class Sample:
    """One timed sample, split into segments at the probes taken inside it.

    A long operation calls :meth:`checkpoint` at points where it may
    pause; when a probe is due, the running segment closes, the probe
    runs (untimed), and a new segment opens.  So drift during a long
    sample is tracked at :attr:`SpeedProbe.every_s` resolution.
    """

    def __init__(self, probe: SpeedProbe, kind: str):
        self.probe = probe
        self.kind = kind
        self.segments: List[Tuple[float, float]] = []
        self._t0 = 0.0

    def __enter__(self) -> "Sample":
        self.probe.maybe_probe()
        self._t0 = time.perf_counter()
        return self

    def checkpoint(self) -> None:
        t = time.perf_counter()
        if t - self.probe.last_probe_end() >= self.probe.every_s:
            self.segments.append((self._t0, t))
            self.probe.probe()
            self._t0 = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.segments.append((self._t0, time.perf_counter()))
            self.probe.record(self.kind, self.segments)
        return False
