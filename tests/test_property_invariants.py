"""Property-based tests (hypothesis) on core data structures.

These drive random operation sequences through the memory ledgers, usage
traces, RDP, the event queue, and the ECDF, asserting the structural
invariants documented in DESIGN.md §5.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.core.config import SystemConfig
from repro.core.errors import AllocationError
from repro.core.events import EventKind, EventQueue
from repro.jobs.usage import UsageTrace
from repro.metrics.response import ecdf
from repro.traces.rdp import VERTICAL, rdp_indices

# ----------------------------------------------------------------------
# Cluster ledger invariants under random allocate/resize/release streams
# ----------------------------------------------------------------------
op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["apply", "release", "grow_l", "shrink_l",
                         "add_r", "rem_r"]),
        st.integers(0, 5),      # job id
        st.integers(0, 7),      # node selector
        st.integers(1, 40000),  # MB amount
    ),
    min_size=1,
    max_size=60,
)


@given(ops=op_strategy)
@settings(max_examples=60, deadline=None)
def test_ledger_invariants_hold_under_random_ops(ops):
    cluster = Cluster(
        SystemConfig(n_nodes=8, normal_mem_gb=64, large_mem_gb=128,
                     frac_large_nodes=0.25)
    )
    for op, jid, node, mb in ops:
        try:
            if op == "apply":
                alloc = JobAllocation(nodes=[node], local_mb={node: mb})
                cluster.apply(jid, alloc)
            elif op == "release":
                cluster.release(jid)
            elif op == "grow_l":
                cluster.grow_local(jid, node, mb)
            elif op == "shrink_l":
                cluster.shrink_local(jid, node, mb)
            elif op == "add_r":
                lender = (node + 1) % 8
                cluster.add_remote(jid, node, lender, mb)
            elif op == "rem_r":
                lender = (node + 1) % 8
                cluster.remove_remote(jid, node, lender, mb)
        except AllocationError:
            pass  # rejected ops must leave state untouched
        cluster.check_invariants()
    # Conservation: total lent equals total borrowed.
    borrowed = sum(a.total_remote() for a in cluster.allocations.values())
    assert borrowed == int(cluster.lent_mb.sum())
    # Releasing everything restores a pristine cluster.
    for jid in list(cluster.allocations):
        cluster.release(jid)
    assert cluster.total_allocated_mb() == 0
    assert not cluster.busy.any()


# ----------------------------------------------------------------------
# UsageTrace
# ----------------------------------------------------------------------
trace_strategy = st.lists(
    st.integers(0, 200_000), min_size=1, max_size=30
).map(lambda mems: UsageTrace(np.arange(len(mems), dtype=float) * 10.0, mems))


@given(trace=trace_strategy, p=st.floats(0, 400, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_usage_at_always_a_trace_value(trace, p):
    assert trace.usage_at(p) in set(trace.mem_mb.tolist())


@given(trace=trace_strategy,
       w=st.tuples(st.floats(0, 300), st.floats(0, 300)))
@settings(max_examples=100, deadline=None)
def test_max_in_bounds(trace, w):
    p0, p1 = min(w), max(w)
    m = trace.max_in(p0, p1)
    assert trace.usage_at(p0) <= m <= trace.peak()


@given(trace=trace_strategy, duration=st.floats(1.0, 1e4))
@settings(max_examples=100, deadline=None)
def test_mean_never_exceeds_peak(trace, duration):
    assert 0 <= trace.mean(duration) <= trace.peak()


@given(trace=trace_strategy, eps=st.floats(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_compression_bounds(trace, eps):
    c = trace.compressed(eps)
    assert len(c) <= len(trace)
    assert c.peak() <= trace.peak()
    assert c.peak() >= trace.peak() - eps  # vertical RDP guarantee


@given(trace=trace_strategy, factor=st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_scaled_mem_scales_peak(trace, factor):
    scaled = trace.scaled_mem(factor)
    assert scaled.peak() == int(round(trace.peak() * factor)) or (
        abs(scaled.peak() - trace.peak() * factor) <= 1
    )


# ----------------------------------------------------------------------
# RDP (vertical metric)
# ----------------------------------------------------------------------
@given(
    ys=st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=3, max_size=100),
    eps=st.floats(0, 1e5),
)
@settings(max_examples=80, deadline=None)
def test_rdp_vertical_keeps_endpoints_and_orders(ys, eps):
    pts = np.column_stack([np.arange(len(ys), dtype=float), ys])
    keep = rdp_indices(pts, eps, metric=VERTICAL)
    assert keep[0] == 0 and keep[-1] == len(ys) - 1
    assert (np.diff(keep) > 0).all()


@given(
    ys=st.lists(st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
                min_size=3, max_size=60),
    eps=st.floats(0.01, 1e3),
)
@settings(max_examples=60, deadline=None)
def test_rdp_vertical_error_bound(ys, eps):
    """Every dropped point is within eps (vertically) of the kept polyline."""
    pts = np.column_stack([np.arange(len(ys), dtype=float), ys])
    keep = rdp_indices(pts, eps, metric=VERTICAL)
    kept = pts[keep]
    xs = kept[:, 0]
    for x, y in pts:
        y_interp = np.interp(x, xs, kept[:, 1])
        assert abs(y - y_interp) <= eps + 1e-6


# ----------------------------------------------------------------------
# Event queue
# ----------------------------------------------------------------------
@given(times=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1,
                      max_size=100))
@settings(max_examples=60, deadline=None)
def test_event_queue_pops_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, EventKind.TELEMETRY, t)
    popped = [e.time for e in q.drain()]
    assert popped == sorted(popped)
    assert len(popped) == len(times)


# ----------------------------------------------------------------------
# ECDF
# ----------------------------------------------------------------------
@given(values=st.lists(st.floats(0, 1e9, allow_nan=False), min_size=1,
                       max_size=500))
@settings(max_examples=60, deadline=None)
def test_ecdf_properties(values):
    x, y = ecdf(np.array(values))
    assert (np.diff(x) >= 0).all()
    assert (np.diff(y) > 0).all()
    assert y[0] == pytest.approx(1 / len(values))
    assert y[-1] == pytest.approx(1.0)
