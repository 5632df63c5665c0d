"""Ramer–Douglas–Peucker polyline simplification [13, 32].

The paper compresses the per-job memory-usage traces (560 M Grizzly
records; long Google 5-minute series) with RDP before feeding them to the
simulator.  :func:`rdp_mask` compresses every trace of a ragged layout at
once: the chords of all traces are split level by level, one array pass
per level, with no recursion limit.  :func:`rdp_indices` is the
one-polyline case.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import TraceError
from ..jobs.usage import segment_offsets


#: Distance metrics: classic perpendicular RDP, or the vertical-distance
#: variant used for time series where the tolerance is in y-units (MB).
PERPENDICULAR = "perpendicular"
VERTICAL = "vertical"


def _distances(
    metric: str, x: np.ndarray, y: np.ndarray, i0: np.ndarray, i1: np.ndarray,
    idx: np.ndarray,
) -> np.ndarray:
    """Distance of point ``idx[k]`` from the chord ``i0[k] → i1[k]``.

    The vertical metric, ``|y - chord(x)|``, is the right one when x is
    time and the tolerance is in y-units: memory traces mix seconds with
    tens of thousands of MB, and the perpendicular metric would let steep
    segments hide tall spikes.  A zero-length chord measures the distance
    from its start point.
    """
    x0, y0 = x[i0], y[i0]
    px, py = x[idx], y[idx]
    if metric == VERTICAL:
        dx = x[i1] - x0
        flat = dx == 0.0
        slope = (y[i1] - y0) / np.where(flat, 1.0, dx)
        return np.where(flat, np.abs(py - y0), np.abs(py - (y0 + slope * (px - x0))))
    sx, sy = x[i1] - x0, y[i1] - y0
    ix, iy = px - x0, py - y0
    norm = np.hypot(sx, sy)
    flat = norm == 0.0
    return np.where(
        flat, np.hypot(ix, iy), np.abs(ix * sy - iy * sx) / np.where(flat, 1.0, norm)
    )


def rdp_mask(
    offsets, x, y, epsilon, metric: str = PERPENDICULAR
) -> np.ndarray:
    """Boolean mask of the points RDP keeps on every polyline of a ragged
    layout.

    Polyline ``i`` is points ``offsets[i]:offsets[i + 1]`` of ``(x, y)``,
    simplified with tolerance ``epsilon[i]``; its first and last points
    are always kept.  Which point splits a chord depends only on the
    chord, so splitting all open chords of all polylines at once, level
    by level, keeps exactly what one polyline at a time keeps.
    """
    if metric not in (PERPENDICULAR, VERTICAL):
        raise TraceError(f"unknown RDP metric {metric!r}")
    offsets = np.asarray(offsets, dtype=np.intp)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    tol = np.asarray(epsilon, dtype=np.float64)
    lengths = np.diff(offsets)
    keep = np.zeros(len(x), dtype=bool)
    keep[offsets[:-1][lengths > 0]] = True
    keep[offsets[1:][lengths > 0] - 1] = True
    open_ = lengths > 2
    if (tol[open_] < 0).any():
        raise TraceError(f"epsilon must be non-negative, got {tol[open_].min()}")
    i0, i1, tol = offsets[:-1][open_], offsets[1:][open_] - 1, tol[open_]
    while len(i0):
        inner = i1 - i0 - 1
        first = segment_offsets(inner)
        idx = np.arange(first[-1]) + np.repeat(i0 + 1 - first[:-1], inner)
        first = first[:-1]
        d = _distances(metric, x, y, np.repeat(i0, inner), np.repeat(i1, inner), idx)
        dmax = np.maximum.reduceat(d, first)
        split = dmax > tol
        # the first farthest point of each chord that splits
        hits = np.flatnonzero(d == np.repeat(dmax, inner))
        at = idx[hits[hits.searchsorted(first[split])]]
        keep[at] = True
        i0 = np.concatenate([i0[split], at])
        i1 = np.concatenate([at, i1[split]])
        tol = np.concatenate([tol[split], tol[split]])
        wide = i1 - i0 >= 2
        i0, i1, tol = i0[wide], i1[wide], tol[wide]
    return keep


def rdp_indices(
    points: np.ndarray, epsilon: float, metric: str = PERPENDICULAR
) -> np.ndarray:
    """Indices of the points kept by RDP with tolerance ``epsilon``.

    ``points`` is an (n, 2) array; the first and last points are always
    kept.  Returns a sorted integer index array.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise TraceError(f"points must be (n, 2), got {pts.shape}")
    if epsilon < 0:
        raise TraceError(f"epsilon must be non-negative, got {epsilon}")
    offsets = np.array([0, len(pts)])
    return np.flatnonzero(rdp_mask(offsets, pts[:, 0], pts[:, 1], [epsilon], metric))


def rdp(
    points: np.ndarray, epsilon: float, metric: str = PERPENDICULAR
) -> np.ndarray:
    """RDP-simplified copy of ``points`` (an (n, 2) array).

    Collinear interior points vanish:

    >>> rdp([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], epsilon=0.1).tolist()
    [[0.0, 0.0], [2.0, 2.0]]
    """
    pts = np.asarray(points, dtype=np.float64)
    return pts[rdp_indices(pts, epsilon, metric=metric)]
