"""Per-job memory-usage traces.

A :class:`UsageTrace` is a piecewise-constant function of *job progress*
(work seconds, not wall seconds): ``mem_mb[i]`` holds on
``[times[i], times[i+1])`` and the last value holds to the end of the job.
This matches the paper's simulator extension (§2.3): the memory demand for
a window is *the maximum usage in the trace between the current progress
and the next update*.

Traces can be compressed with the Ramer–Douglas–Peucker algorithm
(:mod:`repro.traces.rdp`), as the paper does for the Grizzly and Google
traces.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from ..core.errors import TraceError
from ..core.state import ForkState


class UsageTrace:
    """Piecewise-constant per-node memory usage versus job progress."""

    __slots__ = ("times", "mem_mb")

    fork_state = ForkState(fixed=__slots__)

    def __init__(self, times: Sequence[float], mem_mb: Sequence[float]):
        t = np.asarray(times, dtype=np.float64)
        m = np.asarray(mem_mb, dtype=np.int64)
        if t.ndim != 1 or m.ndim != 1 or len(t) != len(m) or len(t) == 0:
            raise TraceError("times and mem_mb must be equal-length 1-D, non-empty")
        if not np.isfinite(t).all():
            raise TraceError("trace times must be finite")
        if t[0] != 0.0:
            raise TraceError(f"trace must start at progress 0, got {t[0]}")
        if (np.diff(t) <= 0).any():
            raise TraceError("trace times must be strictly increasing")
        if (m < 0).any():
            raise TraceError("memory usage cannot be negative")
        self.times = t
        self.mem_mb = m

    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, mem_mb: int) -> "UsageTrace":
        """A flat trace using ``mem_mb`` for the whole job."""
        return cls([0.0], [mem_mb])

    @classmethod
    def from_points(cls, points: Iterable[Tuple[float, float]]) -> "UsageTrace":
        pts = sorted(points)
        return cls([p[0] for p in pts], [p[1] for p in pts])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def usage_at(self, progress: float) -> int:
        """Memory in use at job progress ``progress`` (clamped to ends)."""
        idx = int(self.times.searchsorted(progress, side="right")) - 1
        return int(self.mem_mb[idx if idx > 0 else 0])

    def usage_at_many(self, progress) -> np.ndarray:
        """:meth:`usage_at` of every entry of ``progress`` (int64 array)."""
        idx = self.times.searchsorted(progress, side="right") - 1
        return self.mem_mb[np.maximum(idx, 0)]

    def max_in(self, p0: float, p1: float) -> int:
        """Maximum usage over progress window ``[p0, p1]``.

        This is the demand the Decider enforces for the window (§2.3).
        """
        return self.max_in_ranges(p0, p1)[0]

    def max_in_ranges(
        self, p0: float, p1: float
    ) -> Tuple[int, float, float, float, float]:
        """:meth:`max_in` plus the half-open progress ranges ``[lo0, hi0)``
        and ``[lo1, hi1)`` of the segments holding ``p0`` and ``p1``.

        The maximum depends only on those two segments, so every window
        whose ends stay inside them has the same maximum.  A window inside
        one segment (the common case: traces are short) costs one search.
        """
        if p1 < p0:
            raise TraceError(f"empty window [{p0}, {p1}]")
        times = self.times
        last = len(times) - 1
        i0 = int(times.searchsorted(p0, side="right")) - 1
        if i0 < 0:
            i0 = 0
        lo0 = float(times[i0]) if i0 else -np.inf
        hi0 = float(times[i0 + 1]) if i0 < last else np.inf
        if p1 < hi0:
            return int(self.mem_mb[i0]), lo0, hi0, lo0, hi0
        i1 = int(times.searchsorted(p1, side="right")) - 1
        hi1 = float(times[i1 + 1]) if i1 < last else np.inf
        return (int(self.mem_mb[i0 : i1 + 1].max()), lo0, hi0,
                float(times[i1]), hi1)

    def window_max(self, p0, p1) -> np.ndarray:
        """:meth:`max_in` of every window ``[p0[k], p1[k]]`` of two 1-D
        arrays, as an int64 array.

        One search per window end, then one segmented max: window ``k``
        reduces ``mem_mb[start[k]:end[k]]``, read off interleaved bounds
        by ``np.maximum.reduceat``.  A sentinel entry makes an end bound
        of ``len(mem_mb)`` legal; the gap slices between windows are
        discarded.
        """
        p0 = np.asarray(p0, dtype=np.float64)
        p1 = np.asarray(p1, dtype=np.float64)
        if p0.shape != p1.shape or p0.ndim != 1:
            raise TraceError("window ends must be 1-D arrays of equal length")
        if (p1 < p0).any():
            raise TraceError("empty window: an end precedes its start")
        if not len(p0):
            return np.empty(0, dtype=np.int64)
        times = self.times
        bounds = np.empty(2 * len(p0), dtype=np.intp)
        bounds[0::2] = np.maximum(times.searchsorted(p0, side="right") - 1, 0)
        # p1 >= p0, so each end bound lies past its start bound
        bounds[1::2] = np.maximum(times.searchsorted(p1, side="right"), 1)
        padded = np.append(self.mem_mb, 0)
        return np.maximum.reduceat(padded, bounds)[0::2]

    def peak(self) -> int:
        """Maximum usage over the whole job."""
        return int(self.mem_mb.max())

    def mean(self, duration: float) -> float:
        """Time-weighted average usage over ``[0, duration]``."""
        if duration <= 0:
            raise TraceError(f"duration must be positive, got {duration}")
        t = np.minimum(self.times, duration)
        widths = np.diff(np.append(t, duration))
        mean = float((self.mem_mb * widths).sum() / duration)
        # Clamp float round-off: the mean can never exceed the peak.
        return min(mean, float(self.peak()))

    # ------------------------------------------------------------------
    def rescaled(self, old_duration: float, new_duration: float) -> "UsageTrace":
        """Rescale the time axis from a job of ``old_duration`` to one of
        ``new_duration`` seconds.

        Used when grafting a donor (Google) usage curve onto a job with a
        different wallclock length (paper §3.2.2: "we scaled the runtime of
        the memory trace to match the wallclock duration of the job").
        """
        if old_duration <= 0 or new_duration <= 0:
            raise TraceError("durations must be positive")
        if float(self.times[-1]) > old_duration:
            raise TraceError(
                f"trace spans {self.times[-1]}s beyond duration {old_duration}s"
            )
        factor = new_duration / old_duration
        return UsageTrace(self.times * factor, self.mem_mb.copy())

    def scaled_mem(self, factor: float) -> "UsageTrace":
        """Scale the memory axis by ``factor`` (e.g. to match a target peak)."""
        if factor < 0:
            raise TraceError(f"negative memory scale {factor}")
        return UsageTrace(
            self.times.copy(), np.round(self.mem_mb * factor).astype(np.int64)
        )

    def compressed(self, epsilon_mb: float) -> "UsageTrace":
        """RDP-compress the trace with a vertical tolerance ``epsilon_mb``.

        Uses the vertical-distance RDP variant: time (seconds) and memory
        (MB) are incommensurable axes, and the tolerance is in MB.
        """
        from ..traces.rdp import VERTICAL, rdp_indices

        if len(self.times) <= 2:
            return UsageTrace(self.times.copy(), self.mem_mb.copy())
        pts = np.column_stack([self.times, self.mem_mb.astype(np.float64)])
        keep = rdp_indices(pts, epsilon_mb, metric=VERTICAL)
        return UsageTrace(self.times[keep], self.mem_mb[keep])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"UsageTrace({len(self.times)} points, peak={self.peak()}MB, "
            f"span={self.times[-1]:.0f}s)"
        )
