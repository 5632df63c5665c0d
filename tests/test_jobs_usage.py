"""UsageTrace: piecewise-constant usage semantics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import TraceError
from repro.jobs.usage import TraceBatch, UsageTrace


@pytest.fixture
def trace():
    # 0-100s: 1000 MB, 100-200s: 4000 MB, 200s+: 2000 MB
    return UsageTrace([0.0, 100.0, 200.0], [1000, 4000, 2000])


def test_usage_at_segments(trace):
    assert trace.usage_at(0.0) == 1000
    assert trace.usage_at(99.9) == 1000
    assert trace.usage_at(100.0) == 4000
    assert trace.usage_at(150.0) == 4000
    assert trace.usage_at(200.0) == 2000
    assert trace.usage_at(10_000.0) == 2000  # last value holds


def test_usage_at_before_start_clamps(trace):
    assert trace.usage_at(-5.0) == 1000


def test_max_in_window(trace):
    assert trace.max_in(0.0, 50.0) == 1000
    assert trace.max_in(50.0, 150.0) == 4000
    assert trace.max_in(150.0, 250.0) == 4000
    assert trace.max_in(210.0, 500.0) == 2000
    assert trace.max_in(150.0, 150.0) == 4000  # point window


def test_max_in_rejects_reversed_window(trace):
    with pytest.raises(TraceError):
        trace.max_in(10.0, 5.0)
    with pytest.raises(TraceError):
        trace.window_max([0.0, 10.0], [5.0, 5.0])
    with pytest.raises(TraceError):
        trace.window_max([0.0], [5.0, 6.0])  # unequal lengths


def test_peak_and_mean(trace):
    assert trace.peak() == 4000
    # Over 300 s: (1000*100 + 4000*100 + 2000*100)/300
    assert trace.mean(300.0) == pytest.approx(7000 / 3)


def test_mean_truncates_to_duration(trace):
    assert trace.mean(100.0) == pytest.approx(1000.0)


def test_mean_requires_positive_duration(trace):
    with pytest.raises(TraceError):
        trace.mean(0.0)


def test_constant_trace():
    t = UsageTrace.constant(512)
    assert t.peak() == 512
    assert t.usage_at(1e9) == 512
    assert t.mean(100.0) == 512


def test_from_points_sorts():
    t = UsageTrace.from_points([(100.0, 5), (0.0, 1)])
    assert t.usage_at(0) == 1 and t.usage_at(150) == 5


def test_validation():
    with pytest.raises(TraceError):
        UsageTrace([], [])
    with pytest.raises(TraceError):
        UsageTrace([1.0], [100])  # must start at 0
    with pytest.raises(TraceError):
        UsageTrace([0.0, 0.0], [1, 2])  # strictly increasing
    with pytest.raises(TraceError):
        UsageTrace([0.0], [-1])  # non-negative
    # NaN slips past a plain `diff <= 0` check (NaN <= 0 is false); a
    # NaN breakpoint made max_in(0, 10) miss the 2 and peak() report a
    # level no window reaches.
    for times in ([0.0, float("nan")], [0.0, 5.0, float("nan")],
                  [0.0, float("inf")], [float("nan")], [0.0, -float("inf")]):
        with pytest.raises(TraceError):
            UsageTrace(times, list(range(1, len(times) + 1)))


def test_rescaled_stretches_time(trace):
    t2 = trace.rescaled(300.0, 600.0)
    assert t2.usage_at(150.0) == 1000  # old 75 s point
    assert t2.usage_at(250.0) == 4000
    assert t2.peak() == trace.peak()


def test_rescaled_validates(trace):
    with pytest.raises(TraceError):
        trace.rescaled(100.0, 200.0)  # trace extends past old duration
    with pytest.raises(TraceError):
        trace.rescaled(300.0, 0.0)


def test_scaled_mem(trace):
    t2 = trace.scaled_mem(2.0)
    assert t2.peak() == 8000
    assert t2.usage_at(0) == 2000


def test_compressed_preserves_peak():
    rng = np.random.default_rng(0)
    times = np.arange(0, 1000, 10, dtype=float)
    mem = 1000 + (rng.random(len(times)) * 20).astype(int)
    mem[50] = 5000
    t = UsageTrace(times, mem)
    c = t.compressed(epsilon_mb=50)
    assert len(c) < len(t)
    assert c.peak() == t.peak()


def test_compressed_never_underestimates_window_demand():
    """What the Decider consumes is ``max_in`` over update windows; RDP
    keeps every spike taller than epsilon, so compression may shift
    plateau edges but never hides demand by more than ~epsilon."""
    rng = np.random.default_rng(3)
    times = np.arange(0, 1000, 5, dtype=float)
    levels = np.repeat([1000, 3000, 1500, 2500], 50)
    mem = levels + rng.integers(-30, 30, size=len(levels))
    t = UsageTrace(times, mem)
    eps = 100
    c = t.compressed(epsilon_mb=eps)
    assert len(c) < len(t) // 4  # strong reduction
    for w0 in range(0, 950, 25):
        true_demand = t.max_in(w0, w0 + 50.0)
        est_demand = c.max_in(w0, w0 + 50.0)
        assert est_demand >= true_demand - 2 * eps


# ----------------------------------------------------------------------
# Window queries vs the plain searchsorted-and-slice reference
# ----------------------------------------------------------------------
def _ref_usage_at(trace, progress):
    idx = int(np.searchsorted(trace.times, progress, side="right")) - 1
    return int(trace.mem_mb[max(idx, 0)])


def _ref_max_in(trace, p0, p1):
    i0 = max(int(np.searchsorted(trace.times, p0, side="right")) - 1, 0)
    i1 = max(int(np.searchsorted(trace.times, p1, side="right")) - 1, i0)
    return int(trace.mem_mb[i0 : i1 + 1].max())


_gaps = st.lists(st.floats(0.5, 500.0), min_size=0, max_size=6)


@st.composite
def _trace_and_window(draw):
    gaps = draw(_gaps)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    mem = draw(st.lists(st.integers(0, 100_000), min_size=len(times),
                        max_size=len(times)))
    # Window ends: random points, breakpoints, negatives, past the end.
    end = float(times[-1])
    point = st.one_of(
        st.floats(-100.0, end + 200.0),
        st.sampled_from([float(t) for t in times]),
        st.just(-1.0),
        st.just(end + 1e6),
    )
    a, b = draw(point), draw(point)
    if draw(st.booleans()):
        b = a  # point window
    # A batch of further windows drawn from the same points.
    batch = [tuple(sorted((draw(point), draw(point))))
             for _ in range(draw(st.integers(0, 8)))]
    return UsageTrace(times, mem), min(a, b), max(a, b), batch


@given(_trace_and_window())
# Batch windows: before 0 through three segments, a point, past the end.
@example((UsageTrace([0.0, 100.0, 200.0], [1, 9, 3]), 100.0, 200.0,
          [(-5.0, 250.0), (150.0, 150.0), (200.0, 1e9)]))
@example((UsageTrace([0.0, 100.0], [5, 2]), -10.0, -5.0, []))
@example((UsageTrace([0.0], [7]), 3.0, 3.0, [(-1.0, -1.0), (0.0, 5.0)]))
@settings(max_examples=300, deadline=None)
def test_window_queries_match_reference(case):
    trace, p0, p1, batch = case
    assert trace.max_in(p0, p1) == _ref_max_in(trace, p0, p1)
    assert trace.usage_at(p0) == _ref_usage_at(trace, p0)
    assert trace.usage_at(p1) == _ref_usage_at(trace, p1)
    # Batch forms: element for element the scalar answers, as int64
    # arrays; an empty batch answers empty, a reversed window raises.
    windows = [(p0, p1)] + batch
    starts, ends = np.array(windows).T
    maxima = trace.window_max(starts, ends)
    assert maxima.dtype == np.int64
    assert maxima.tolist() == [trace.max_in(a, b) for a, b in windows]
    points = np.concatenate([starts, ends])
    usage = trace.usage_at_many(points)
    assert usage.dtype == np.int64
    assert usage.tolist() == [trace.usage_at(p) for p in points]
    assert trace.window_max(starts[:0], ends[:0]).tolist() == []
    assert trace.usage_at_many(points[:0]).tolist() == []
    if p0 < p1:
        with pytest.raises(TraceError):
            trace.window_max(ends, starts)
    # max_in_ranges: the segment ranges hold the window's ends, are
    # bounded by breakpoints (or unbounded), and every window whose ends
    # stay inside them has the same maximum.
    mx, lo0, hi0, lo1, hi1 = trace.max_in_ranges(p0, p1)
    assert mx == trace.max_in(p0, p1)
    assert lo0 <= p0 < hi0 and lo1 <= p1 < hi1
    edges = set(trace.times.tolist()) | {-np.inf, np.inf}
    assert {lo0, hi0, lo1, hi1} <= edges
    firsts = [p0 if lo0 == -np.inf else lo0, np.nextafter(hi0, -np.inf)]
    lasts = [lo1, np.nextafter(hi1, -np.inf) if hi1 < np.inf else p1 + 1e6]
    for q0 in firsts:
        for q1 in lasts:
            if np.isfinite(q0) and q0 <= q1:
                assert trace.max_in(q0, q1) == mx



# ----------------------------------------------------------------------
# Ragged batches: one validation pass, steps equal to per-trace steps
# ----------------------------------------------------------------------
_time = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.5, -1.0, float("nan"),
                         float("inf"), -float("inf")])


@st.composite
def _segment(draw):
    """A (times, mem) pair: a valid trace, or points from a pool that
    breaks every check (empty, non-finite, late start, unsorted, < 0)."""
    if draw(st.booleans()):
        gaps = draw(st.lists(st.floats(0.5, 500.0), max_size=4))
        times = [0.0] + np.cumsum(gaps).tolist()
    else:
        times = draw(st.lists(_time, max_size=4))
    mem = draw(st.lists(st.integers(-1, 9), min_size=len(times),
                        max_size=len(times)))
    return times, mem


def _ragged(segments):
    offsets = np.cumsum([0] + [len(t) for t, _ in segments])
    times = np.array([x for t, _ in segments for x in t], dtype=np.float64)
    mem = np.array([x for _, m in segments for x in m], dtype=np.int64)
    return offsets, times, mem


@given(st.lists(_segment(), max_size=5))
@settings(max_examples=300, deadline=None)
def test_batch_rejects_exactly_when_a_trace_would(segments):
    """The batch check raises iff some segment fails ``UsageTrace``, with
    the first failing segment's message, prefixed by its job id."""
    ids = [100 + i for i in range(len(segments))]
    first_error = None
    for jid, (times, mem) in zip(ids, segments):
        try:
            UsageTrace(times, mem)
        except TraceError as exc:
            first_error = f"job {jid}: {exc}"
            break
    offsets, times, mem = _ragged(segments)
    if first_error is None:
        batch = TraceBatch(offsets, times, mem, ids)
        assert [(tr.times.tolist(), tr.mem_mb.tolist())
                for tr in batch.traces()] == [
            (np.asarray(t, dtype=float).tolist(), m) for t, m in segments]
    else:
        with pytest.raises(TraceError) as err:
            TraceBatch(offsets, times, mem, ids)
        assert str(err.value) == first_error


@st.composite
def _batch_and_queries(draw):
    traces = [draw(_trace_and_window())[0]
              for _ in range(draw(st.integers(1, 5)))]
    end = max(float(t.times[-1]) for t in traces)
    owner = draw(st.lists(st.integers(0, len(traces) - 1), max_size=12))
    point = st.floats(-100.0, end + 200.0)
    p0 = [draw(point) for _ in owner]
    p1 = [a + draw(st.floats(0.0, 300.0)) for a in p0]
    factors = [draw(st.floats(0.0, 3.0)) for _ in traces]
    epsilons = [draw(st.floats(0.0, 50_000.0)) for _ in traces]
    return traces, owner, p0, p1, factors, epsilons


def _same(a, b):
    return a.times.tolist() == b.times.tolist() and \
        a.mem_mb.tolist() == b.mem_mb.tolist()


@given(_batch_and_queries())
@settings(max_examples=200, deadline=None)
def test_batch_steps_match_each_trace_alone(case):
    """Every batch step answers, trace for trace, what the trace's own
    (batch-of-one) step answers: the ragged indexing loses nothing."""
    traces, owner, p0, p1, factors, epsilons = case
    batch = TraceBatch.of(traces, ids=range(len(traces)))
    assert batch.peaks().tolist() == [t.peak() for t in traces]
    assert batch.window_max(owner, p0, p1).tolist() == [
        traces[k].max_in(a, b) for k, a, b in zip(owner, p0, p1)]
    assert batch.usage_at_many(owner, p0).tolist() == [
        traces[k].usage_at(a) for k, a in zip(owner, p0)]
    spans = [float(t.times[-1]) + 1.0 for t in traces]
    pairs = [
        (batch.rescaled(spans, [2 * s for s in spans]),
         [t.rescaled(s, 2 * s) for t, s in zip(traces, spans)]),
        (batch.scaled_mem(factors),
         [t.scaled_mem(f) for t, f in zip(traces, factors)]),
        (batch.compressed(epsilons),
         [t.compressed(e) for t, e in zip(traces, epsilons)]),
        (batch.take([len(traces) - 1, 0, 0]),
         [traces[-1], traces[0], traces[0]]),
    ]
    for got, want in pairs:
        assert len(got) == len(want)
        assert all(_same(g, w) for g, w in zip(got.traces(), want))
