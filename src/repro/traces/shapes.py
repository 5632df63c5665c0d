"""Synthetic memory-usage curve shapes.

Both trace generators (Google-like and Grizzly-like) need per-job memory
usage curves whose *peak* is controlled and whose *average* sits well
below the peak — the gap the dynamic policy exploits (paper §3.3.1:
"the average usage is much lower than the maximum usage, which opens up
room for improvements").

A curve is a sequence of plateaus (allocation phases) with one plateau at
the peak; phase levels are Beta-distributed fractions of the peak and
phase widths are Dirichlet-distributed, which yields average/peak ratios
around 0.4–0.6 — consistent with the heatmap pair in Fig. 4.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..jobs.usage import TraceBatch, UsageTrace, segment_offsets

#: One curve's random draws: phase levels, the length of the prefix
#: sorted ascending (0: none), the peak phase, and the Dirichlet phase
#: width fractions.
PhaseDraws = Tuple[np.ndarray, int, int, np.ndarray]


def draw_phases(
    rng: np.random.Generator,
    min_phases: int = 2,
    max_phases: int = 8,
    level_alpha: float = 2.0,
    level_beta: float = 3.0,
) -> PhaseDraws:
    """The random draws of one :func:`phased_usage` curve, in its order.

    A generator that builds many curves makes these draws in its own
    loop, interleaved with its other draws, and builds every curve at
    once with :func:`phased_curves`.
    """
    k = int(rng.integers(min_phases, max_phases + 1))
    levels = rng.beta(level_alpha, level_beta, size=k)
    # Bias towards growth: sort a random prefix ascending.
    split = int(rng.integers(1, k + 1)) if rng.random() < 0.6 else 0
    # Pin the peak phase; prefer a late phase (strong-scaling ramps).
    peak_idx = int(min(k - 1, rng.integers(k // 2, k))) if k > 1 else 0
    widths = rng.dirichlet(np.full(k, 2.0))
    return levels, split, peak_idx, widths


def phased_curves(
    draws: Sequence[Optional[PhaseDraws]],
    peaks_mb: Sequence[int],
    durations: Sequence[float],
    ids: Optional[Sequence] = None,
) -> TraceBatch:
    """Every phased curve of a batch, built from its draws in one pass.

    Curve ``i`` spans ``[0, durations[i])`` with maximum ``peaks_mb[i]``;
    ``draws[i]`` is :func:`draw_phases`' result, or None for a curve with
    a non-positive peak, which draws nothing and stays flat at
    ``max(peak, 0)``.  Durations of drawn curves must be positive.  The
    phases sit in a padded (curves x phases) matrix: a row-wise cumsum is
    the per-curve cumsum bit for bit, and the padding is masked out.
    """
    peaks = np.asarray(peaks_mb, dtype=np.int64)
    drawn = np.array([d is not None for d in draws], dtype=bool)
    rows = [d for d in draws if d is not None]
    n_phases = np.ones(len(draws), dtype=np.intp)
    n_phases[drawn] = [len(d[0]) for d in rows]
    width = int(n_phases.max(initial=1))
    col = np.arange(width)
    in_curve = col < n_phases[:, None]
    levels = np.zeros((len(draws), width))
    fracs = np.zeros((len(draws), width))
    if rows:
        cells = in_curve & drawn[:, None]
        levels[cells] = np.concatenate([d[0] for d in rows])
        fracs[cells] = np.concatenate([d[3] for d in rows])
        split = np.zeros(len(draws), dtype=np.intp)
        split[drawn] = [d[1] for d in rows]
        prefix = col < split[:, None]
        levels = np.where(
            prefix, np.sort(np.where(prefix, levels, np.inf), axis=1), levels
        )
        levels[np.flatnonzero(drawn), [d[2] for d in rows]] = 1.0
    widths = fracs * np.asarray(durations, dtype=np.float64)[:, None]
    times = np.zeros_like(widths)
    times[:, 1:] = np.cumsum(widths, axis=1)[:, :-1]
    mem = np.maximum(np.round(levels * peaks[:, None]), 1).astype(np.int64)
    mem[~drawn, 0] = np.maximum(peaks[~drawn], 0)
    # Merge zero-width segments defensively (Dirichlet can emit tiny ones).
    keep = in_curve.copy()
    keep[:, 1:] &= np.diff(times, axis=1) > 1e-9
    offsets = segment_offsets(keep.sum(axis=1))
    return TraceBatch(offsets, times[keep], mem[keep], ids)


def phased_usage(
    rng: np.random.Generator,
    peak_mb: int,
    duration: float,
    min_phases: int = 2,
    max_phases: int = 8,
    level_alpha: float = 2.0,
    level_beta: float = 3.0,
) -> UsageTrace:
    """A phased usage curve over ``[0, duration)`` with maximum ``peak_mb``.

    One phase is pinned to the peak; ramp-style growth is more likely than
    decay (allocation tends to grow over a job's life).
    """
    draws = None
    if peak_mb > 0:
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        draws = draw_phases(rng, min_phases, max_phases, level_alpha, level_beta)
    return phased_curves([draws], [peak_mb], [duration])[0]


def flat_usage(peak_mb: int) -> UsageTrace:
    """Degenerate shape: constant usage at the peak (no reclaim possible)."""
    return UsageTrace.constant(peak_mb)


def spike_usage(
    rng: np.random.Generator, peak_mb: int, duration: float, base_frac: float = 0.3
) -> UsageTrace:
    """A mostly-flat curve with one short spike to the peak.

    The most favourable shape for dynamic provisioning; used by tests and
    ablations to bound the policy's best case.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    base = max(int(peak_mb * base_frac), 1)
    spike_start = float(rng.uniform(0.3, 0.8)) * duration
    spike_len = max(duration * 0.05, 1.0)
    spike_end = min(spike_start + spike_len, duration * 0.99)
    return UsageTrace(
        [0.0, spike_start, spike_end], [base, peak_mb, base]
    )
