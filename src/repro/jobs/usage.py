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

    def max_in(self, p0: float, p1: float) -> int:
        """Maximum usage over progress window ``[p0, p1]``.

        This is the demand the Decider enforces for the window (§2.3).
        Queried per running job on every update tick, so it calls the
        array's own ``searchsorted`` and answers a window that lies inside
        one segment (the common case: traces are short) without a second
        search or a slice.
        """
        if p1 < p0:
            raise TraceError(f"empty window [{p0}, {p1}]")
        times = self.times
        i0 = int(times.searchsorted(p0, side="right")) - 1
        if i0 < 0:
            i0 = 0
        if i0 + 1 == len(times) or p1 < times[i0 + 1]:
            return int(self.mem_mb[i0])
        i1 = int(times.searchsorted(p1, side="right")) - 1
        return int(self.mem_mb[i0 : i1 + 1].max())

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
