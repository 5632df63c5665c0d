"""Per-job memory-usage traces.

A :class:`UsageTrace` is a piecewise-constant function of *job progress*
(work seconds, not wall seconds): ``mem_mb[i]`` holds on
``[times[i], times[i+1])`` and the last value holds to the end of the job.
This matches the paper's simulator extension (§2.3): the memory demand for
a window is *the maximum usage in the trace between the current progress
and the next update*.

Trace generation builds many traces at once.  A :class:`TraceBatch` holds
them in one ragged layout (offsets plus values), and each generation step
is one array pass over it; a lone trace's steps are the batch-of-one case.

Traces can be compressed with the Ramer–Douglas–Peucker algorithm
(:mod:`repro.traces.rdp`), as the paper does for the Grizzly and Google
traces.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import TraceError
from ..core.state import ForkState

_MALFORMED = "times and mem_mb must be equal-length 1-D, non-empty"


def segment_offsets(lengths) -> np.ndarray:
    """Offsets of consecutive segments of the given lengths: segment
    ``i`` is ``[offsets[i], offsets[i + 1])``."""
    out = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=out[1:])
    return out


def _raise_first(checks, ids) -> None:
    """Raise for the first trace that fails a check, with the first check
    it fails.  ``checks`` is a sequence of (per-trace bad mask, message
    of trace ``i``) pairs in check order; ``ids[i]`` names trace ``i``'s
    job (no name when ``ids`` is None)."""
    bad = np.array([mask for mask, _ in checks])
    failing = np.flatnonzero(bad.any(axis=0))
    if not len(failing):
        return
    i = int(failing[0])
    msg = checks[int(np.flatnonzero(bad[:, i])[0])][1](i)
    raise TraceError(msg if ids is None else f"job {ids[i]}: {msg}")


def _check_traces(t: np.ndarray, m: np.ndarray, offsets=None, ids=None) -> None:
    """Raise :class:`TraceError` unless every trace of a ragged layout is
    a valid usage trace.

    Trace ``i`` is ``t[offsets[i]:offsets[i + 1]]`` with the matching
    slice of ``m`` (``offsets`` None: one trace spanning both).  A valid
    trace is non-empty, its times are finite, start at 0 and strictly
    increase, and its memory is non-negative.  The error names the first
    bad trace and the first check it fails, in that order.
    """
    if t.ndim != 1 or m.ndim != 1 or len(t) != len(m):
        raise TraceError(_MALFORMED)
    if offsets is None:
        offsets = np.array([0, len(t)])
    lens = np.diff(offsets)
    if (not len(offsets) or offsets[0] != 0 or offsets[-1] != len(t)
            or (lens < 0).any()):
        raise TraceError(_MALFORMED)
    starts = offsets[:-1]
    finite = np.isfinite(t)
    if (lens > 0).all() and finite.all():
        steps = np.diff(t)
        steps[offsets[1:-1] - 1] = np.inf  # pairs straddling two traces
        if not t[starts].any() and (steps > 0).all() and (m >= 0).all():
            return
    owner = np.repeat(np.arange(len(lens)), lens)

    def hit(mask, owners):
        out = np.zeros(len(lens), dtype=bool)
        out[owners[mask]] = True
        return out

    nonempty = lens > 0
    bad_start = np.zeros(len(lens), dtype=bool)
    bad_start[nonempty] = t[starts[nonempty]] != 0.0
    with np.errstate(invalid="ignore"):  # inf - inf; such traces fail first
        falling = np.diff(t) <= 0
    _raise_first(
        (
            (~nonempty, lambda i: _MALFORMED),
            (hit(~finite, owner), lambda i: "trace times must be finite"),
            (bad_start,
             lambda i: f"trace must start at progress 0, got {t[starts[i]]}"),
            (hit(falling & (owner[1:] == owner[:-1]), owner[:-1]),
             lambda i: "trace times must be strictly increasing"),
            (hit(m < 0, owner), lambda i: "memory usage cannot be negative"),
        ),
        ids,
    )


class UsageTrace:
    """Piecewise-constant per-node memory usage versus job progress."""

    __slots__ = ("times", "mem_mb")

    fork_state = ForkState(fixed=__slots__)

    def __init__(self, times: Sequence[float], mem_mb: Sequence[float]):
        t = np.asarray(times, dtype=np.float64)
        m = np.asarray(mem_mb, dtype=np.int64)
        _check_traces(t, m)
        self.times = t
        self.mem_mb = m

    @classmethod
    def _view(cls, times: np.ndarray, mem_mb: np.ndarray) -> "UsageTrace":
        """A trace over arrays already checked as one valid trace."""
        trace = object.__new__(cls)
        trace.times = times
        trace.mem_mb = mem_mb
        return trace

    def _batch(self) -> "TraceBatch":
        return TraceBatch._checked(
            np.array([0, len(self.times)], dtype=np.intp),
            self.times, self.mem_mb, None,
        )

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
        x = np.asarray(progress, dtype=np.float64)
        flat = x.ravel()
        owner = np.zeros(len(flat), dtype=np.intp)
        return self._batch().usage_at_many(owner, flat).reshape(x.shape)

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
        arrays, as an int64 array (:meth:`TraceBatch.window_max`)."""
        p0 = np.asarray(p0, dtype=np.float64)
        owner = np.zeros(p0.shape[:1], dtype=np.intp)
        return self._batch().window_max(owner, p0, p1)

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
        ``new_duration`` seconds (:meth:`TraceBatch.rescaled`)."""
        return self._batch().rescaled([old_duration], [new_duration])[0]

    def scaled_mem(self, factor: float) -> "UsageTrace":
        """Scale the memory axis by ``factor`` (e.g. to match a target peak)."""
        return self._batch().scaled_mem([factor])[0]

    def compressed(self, epsilon_mb: float) -> "UsageTrace":
        """RDP-compress the trace with a vertical tolerance ``epsilon_mb``
        (:meth:`TraceBatch.compressed`)."""
        return self._batch().compressed([epsilon_mb])[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"UsageTrace({len(self.times)} points, peak={self.peak()}MB, "
            f"span={self.times[-1]:.0f}s)"
        )


class TraceBatch:
    """The usage traces of many jobs in one ragged layout.

    Trace ``i`` is ``times[offsets[i]:offsets[i + 1]]`` with the matching
    slice of ``mem_mb``; ``ids[i]`` names its job in error messages (no
    name when ``ids`` is None).  Construction checks every trace in one
    pass, with :class:`UsageTrace`'s checks.  Each step below is one
    array pass that returns a new batch; :meth:`traces` hands out
    :class:`UsageTrace` views of the batch's arrays.
    """

    __slots__ = ("offsets", "times", "mem_mb", "ids")

    def __init__(self, offsets, times, mem_mb, ids: Optional[Sequence] = None):
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.times = np.asarray(times, dtype=np.float64)
        self.mem_mb = np.asarray(mem_mb, dtype=np.int64)
        self.ids = ids
        _check_traces(self.times, self.mem_mb, self.offsets, ids)

    @classmethod
    def _checked(cls, offsets, times, mem_mb, ids) -> "TraceBatch":
        """A batch over arrays already checked as valid traces."""
        batch = object.__new__(cls)
        batch.offsets, batch.times, batch.mem_mb, batch.ids = (
            offsets, times, mem_mb, ids)
        return batch

    @classmethod
    def of(cls, traces: Sequence[UsageTrace], ids=None) -> "TraceBatch":
        """The batch of built traces, in order (their points are copied)."""
        empty = [np.empty(0)]
        return cls._checked(
            segment_offsets([len(tr.times) for tr in traces]),
            np.concatenate([tr.times for tr in traces] or empty, dtype=np.float64),
            np.concatenate([tr.mem_mb for tr in traces] or empty, dtype=np.int64),
            ids,
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> UsageTrace:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return UsageTrace._view(self.times[lo:hi], self.mem_mb[lo:hi])

    def traces(self) -> List[UsageTrace]:
        """Every trace, as views of the batch's arrays."""
        bounds = self.offsets.tolist()
        return [
            UsageTrace._view(self.times[lo:hi], self.mem_mb[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def _lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def _per_point(self, values) -> np.ndarray:
        """A per-trace array repeated onto the trace's points."""
        return np.repeat(values, self._lengths())

    def select(self, keep: np.ndarray) -> "TraceBatch":
        """The traces with only the points where ``keep`` holds."""
        offsets = segment_offsets(keep)[self.offsets]
        return TraceBatch(offsets, self.times[keep], self.mem_mb[keep], self.ids)

    # ------------------------------------------------------------------
    def take(self, index, ids=None) -> "TraceBatch":
        """The batch of traces ``index[k]`` (repeats allowed), in order."""
        index = np.asarray(index, dtype=np.intp)
        lengths = self._lengths()[index]
        offsets = segment_offsets(lengths)
        points = np.arange(offsets[-1]) + np.repeat(
            self.offsets[index] - offsets[:-1], lengths)
        return TraceBatch._checked(
            offsets, self.times[points], self.mem_mb[points], ids)

    def peaks(self) -> np.ndarray:
        """Every trace's maximum usage (int64)."""
        if not len(self):
            return np.empty(0, dtype=np.int64)
        return np.maximum.reduceat(self.mem_mb, self.offsets[:-1])

    def peak_points(self) -> np.ndarray:
        """Index, into the batch's arrays, of every trace's first maximum."""
        hits = np.flatnonzero(self.mem_mb == self._per_point(self.peaks()))
        return hits[hits.searchsorted(self.offsets[:-1])]

    def _search(self, owner: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Per query ``x[k]`` on trace ``owner[k]``: the index just past
        that trace's last point at or before ``x[k]`` (a per-trace
        ``searchsorted(side="right")``).

        Points and queries are keyed ``trace + 1j * value``; numpy orders
        complex numbers lexicographically, so one search serves every
        trace.  A NaN query searches as +inf, as it does on a lone trace.
        """
        keys = np.empty(len(self.times), dtype=np.complex128)
        keys.real = self._per_point(np.arange(len(self)))
        keys.imag = self.times
        queries = np.empty(len(x), dtype=np.complex128)
        queries.real = owner
        queries.imag = x
        queries.imag[np.isnan(x)] = np.inf
        return keys.searchsorted(queries, side="right")

    def usage_at_many(self, owner, progress) -> np.ndarray:
        """:meth:`UsageTrace.usage_at` of progress ``progress[k]`` on trace
        ``owner[k]``, as an int64 array."""
        owner = np.asarray(owner, dtype=np.intp)
        x = np.asarray(progress, dtype=np.float64)
        return self.mem_mb[np.maximum(self._search(owner, x) - 1,
                                      self.offsets[owner])]

    def window_max(self, owner, p0, p1) -> np.ndarray:
        """:meth:`UsageTrace.max_in` of window ``[p0[k], p1[k]]`` on trace
        ``owner[k]``, as an int64 array.

        One search per window end, then one segmented max: window ``k``
        reduces ``mem_mb[start[k]:end[k]]``, read off interleaved bounds
        by ``np.maximum.reduceat``.  A sentinel entry makes an end bound
        of ``len(mem_mb)`` legal; the gap slices between windows are
        discarded.
        """
        owner = np.asarray(owner, dtype=np.intp)
        p0 = np.asarray(p0, dtype=np.float64)
        p1 = np.asarray(p1, dtype=np.float64)
        if p0.shape != p1.shape or p0.ndim != 1 or owner.shape != p0.shape:
            raise TraceError("window ends must be 1-D arrays of equal length")
        if (p1 < p0).any():
            raise TraceError("empty window: an end precedes its start")
        if not len(p0):
            return np.empty(0, dtype=np.int64)
        first = self.offsets[owner]
        bounds = np.empty(2 * len(p0), dtype=np.intp)
        bounds[0::2] = np.maximum(self._search(owner, p0) - 1, first)
        # p1 >= p0, so each end bound lies past its start bound
        bounds[1::2] = np.maximum(self._search(owner, p1), first + 1)
        padded = np.append(self.mem_mb, 0)
        return np.maximum.reduceat(padded, bounds)[0::2]

    # ------------------------------------------------------------------
    def rescaled(self, old_durations, new_durations) -> "TraceBatch":
        """Trace ``i``'s time axis rescaled from a job of
        ``old_durations[i]`` to one of ``new_durations[i]`` seconds.

        Used when grafting a donor (Google) usage curve onto a job with a
        different wallclock length (paper §3.2.2: "we scaled the runtime of
        the memory trace to match the wallclock duration of the job").
        """
        old = np.asarray(old_durations, dtype=np.float64)
        new = np.asarray(new_durations, dtype=np.float64)
        last = self.times[self.offsets[1:] - 1]
        _raise_first(
            (
                ((old <= 0) | (new <= 0), lambda i: "durations must be positive"),
                (last > old, lambda i: (
                    f"trace spans {last[i]}s beyond duration {old[i]}s")),
            ),
            self.ids,
        )
        return TraceBatch(self.offsets, self.times * self._per_point(new / old),
                          self.mem_mb, self.ids)

    def scaled_mem(self, factors) -> "TraceBatch":
        """Trace ``i``'s memory axis scaled by ``factors[i]``."""
        factors = np.asarray(factors, dtype=np.float64)
        _raise_first(
            ((factors < 0, lambda i: f"negative memory scale {factors[i]}"),),
            self.ids,
        )
        mem = np.round(self.mem_mb * self._per_point(factors)).astype(np.int64)
        return TraceBatch(self.offsets, self.times, mem, self.ids)

    def compressed(self, epsilons_mb) -> "TraceBatch":
        """Trace ``i`` RDP-compressed with vertical tolerance
        ``epsilons_mb[i]``.

        Uses the vertical-distance RDP variant: time (seconds) and memory
        (MB) are incommensurable axes, and the tolerance is in MB.
        """
        from ..traces.rdp import VERTICAL, rdp_mask

        keep = rdp_mask(self.offsets, self.times, self.mem_mb.astype(np.float64),
                        epsilons_mb, metric=VERTICAL)
        return self.select(keep)
