"""Parity tests for the incremental ledgers, lender selection and the
bulk resize write.

The simulator's hot paths read maintained state — cluster scalar
aggregates, the contention model's per-lender demand ledger — instead of
recomputing from the full ledgers per event, and select lender and node
prefixes from the live free column instead of sorting it.  These tests
drive random operation sequences and whole campaigns through both the
fast paths and the brute-force references (``reference_orders``) and
assert they agree exactly (bit-identical floats, identical plans,
byte-identical campaign records).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.cluster.memorypool import SPLIT_PREFIX, MemoryPool
from repro.core.config import SystemConfig
from repro.core.errors import AllocationError
from repro.jobs.job import Job
from repro.jobs.usage import UsageTrace
from repro.policies.static import StaticDisaggregatedPolicy
from repro.slowdown.model import ContentionModel
from repro.slowdown.profiles import AppProfile

import reference_orders as ref

N_NODES = 8


def _cluster() -> Cluster:
    return Cluster(
        SystemConfig(n_nodes=N_NODES, normal_mem_gb=64, large_mem_gb=128,
                     frac_large_nodes=0.25)
    )


def _profile() -> AppProfile:
    return AppProfile(name="test", bw_demand_gbps=8.0, remote_sensitivity=0.4,
                      contention_sensitivity=0.5, read_write_ratio=3.0,
                      typical_nodes=4, typical_runtime=1000.0)


def _job(jid: int, n_nodes: int = 1) -> Job:
    return Job(jid=jid, submit_time=0.0, n_nodes=n_nodes, base_runtime=100.0,
               walltime_limit=200.0, mem_request_mb=1024,
               usage=UsageTrace.constant(1024))


op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["apply", "apply_remote", "apply_wide", "release",
                         "grow_l", "shrink_l", "resize_l", "resize_r",
                         "add_r", "rem_r"]),
        st.integers(0, 5),       # job id
        st.integers(0, N_NODES - 1),  # node selector
        st.integers(1, 40000),   # MB amount
    ),
    min_size=1,
    max_size=50,
)


def _borrower(cluster: Cluster, jid: int, node: int):
    """The drawn job and node selectors aimed at a live allocation: the
    job among the allocated jobs, the node among that job's nodes (as
    drawn while nothing is allocated)."""
    if not cluster.allocations:
        return jid, node
    jids = list(cluster.allocations)
    jid = jids[jid % len(jids)]
    nodes = cluster.allocations[jid].nodes
    return jid, nodes[node % len(nodes)]


def _holder(cluster: Cluster, jid: int, node: int):
    """The drawn selectors aimed at a node of an allocated job that holds
    a borrow, so a return has something to hand back (aimed as
    :func:`_borrower` aims them while nothing is borrowed)."""
    held = [
        (j, n) for j, alloc in cluster.allocations.items()
        for n, lenders in alloc.remote_mb.items() if lenders
    ]
    if not held:
        return _borrower(cluster, jid, node)
    return held[(jid * N_NODES + node) % len(held)]


def _drive(cluster: Cluster, ops) -> None:
    """Apply one random op stream, ignoring rejected operations.  The
    borrow ops change the borrows of sealed records, so the stream is
    ``resize``'s random coverage of borrow writes."""
    for op, jid, node, mb in ops:
        if op in ("resize_r", "add_r"):
            jid, node = _borrower(cluster, jid, node)
        elif op == "rem_r":
            jid, node = _holder(cluster, jid, node)
        lender = (node + 1) % N_NODES
        try:
            if op == "apply":
                cluster.apply(jid, JobAllocation(nodes=[node],
                                                 local_mb={node: mb}))
            elif op == "apply_remote":
                cluster.apply(jid, JobAllocation(
                    nodes=[node], local_mb={node: min(mb, 1024)},
                    remote_mb={node: {lender: mb}},
                ))
            elif op == "apply_wide":
                # Multi-node allocation exercising the columnar bulk
                # mutators, including a borrow from the job's *own*
                # second node (a lender that is also a compute node).
                node2 = (node + 2) % N_NODES
                outside = (node + 4) % N_NODES
                cluster.apply(jid, JobAllocation(
                    nodes=sorted({node, node2}),
                    local_mb={node: min(mb, 2048), node2: min(mb, 1024)},
                    remote_mb={node: {node2: min(mb, 4096)},
                               node2: {outside: mb}},
                ))
            elif op == "release":
                cluster.release(jid)
            elif op == "grow_l":
                cluster.grow_local(jid, node, mb)
            elif op == "shrink_l":
                cluster.shrink_local(jid, node, mb)
            elif op == "resize_l":
                # One-pass local resize of the job's first two nodes:
                # grow one, shrink the other (which one by mb's parity).
                alloc = cluster.allocations.get(jid)
                nodes = alloc.nodes[:2] if alloc else [node]
                step, sign = mb % 2048 + 1, 1 if mb % 2 else -1
                deltas = [sign * step, -sign * (step // 2 + 1)]
                cluster.resize(jid, nodes, deltas[:len(nodes)])
            elif op == "resize_r":
                # One bulk borrow write on ``node``: borrow from
                # ``lender`` and hand part of it back, or return to
                # ``lender`` and borrow from the next node instead.
                if mb % 2:
                    borrows = [(node, lender, mb), (node, lender, -(mb // 2 + 1))]
                else:
                    borrows = [(node, lender, -mb),
                               (node, (lender + 1) % N_NODES, mb)]
                cluster.resize(jid, [], [], borrows)
            elif op == "add_r":
                cluster.add_remote(jid, node, lender, mb)
            elif op == "rem_r":
                # Return some or all of one of the node's borrows, if it
                # has any.  The smallest draw, where Hypothesis starts and
                # shrinks to, returns the whole borrow.
                alloc = cluster.allocations.get(jid)
                held = alloc.remote_mb.get(node) if alloc else None
                if held:
                    lender = list(held)[mb % len(held)]
                    mb = held[lender] - (mb - 1) % held[lender]
                cluster.remove_remote(jid, node, lender, mb)
        except AllocationError:
            pass  # rejected ops must leave state untouched


# ----------------------------------------------------------------------
# Aggregates under random op streams; selection == the full sorts
# ----------------------------------------------------------------------
#: The aggregate test's streams start with jobs 0 and 1 holding borrows
#: (job 0 one from its own second node), so a return drawn early in a
#: short stream has a borrow to hand back.
BORROWING_START = [("apply_wide", 0, 0, 6000), ("apply_remote", 1, 5, 3000)]


@given(ops=op_strategy)
@settings(max_examples=60, deadline=None)
def test_aggregates_and_indexes_track_brute_force(ops):
    cluster = _cluster()
    for op_chunk in BORROWING_START + ops:
        _drive(cluster, [op_chunk])
        # check_invariants cross-checks every scalar aggregate, the
        # maintained free vector, and the sealed allocation caches.
        cluster.check_invariants()
        brute = cluster.recompute_aggregates()
        for name, want in brute.items():
            assert getattr(cluster, name) == want
        assert cluster.free_local_total == int(
            np.asarray(cluster.free_local()).sum()
        )
    for mb in (512, 100_000):
        assert cluster.fitting_idle_count(mb) == int(
            ((~cluster.busy) & (cluster.capacity_mb >= mb)).sum()
        )


@given(ops=op_strategy, request_mb=st.integers(1, 200_000),
       exclude=st.sets(st.integers(0, N_NODES - 1), max_size=3))
@settings(max_examples=40, deadline=None)
def test_plan_borrow_matches_unindexed_plan(ops, request_mb, exclude):
    """plan_borrow by selection == the zero-and-argsort plan, on the live
    column and on a scratch copy, which the plan is debited from in place
    (its excluded entries kept)."""
    cluster = _cluster()
    pool = MemoryPool(cluster)
    _drive(cluster, ops)
    live = cluster.free_local().copy()
    want = ref.plan_borrow_ref(live, request_mb, tuple(exclude))
    assert pool.plan_borrow(request_mb, exclude=tuple(exclude)) == want
    scratch = live.copy()
    assert pool.plan_borrow(request_mb, exclude=tuple(exclude), free=scratch,
                            free_total=int(scratch.sum())) == want
    assert np.array_equal(cluster.free_local(), live)
    for lender, mb in want or ():
        live[lender] -= mb
    assert np.array_equal(scratch, live)


@given(ops=op_strategy, request_mb=st.integers(1, 140_000),
       n_nodes=st.integers(1, N_NODES))
@settings(max_examples=40, deadline=None)
def test_static_plan_matches_unindexed_selection(ops, request_mb, n_nodes):
    """The static policy's selected nodes == the per-job subset sorts."""
    cluster = _cluster()
    policy = StaticDisaggregatedPolicy(cluster)
    _drive(cluster, ops)
    job = _job(99, n_nodes=n_nodes)
    job.mem_request_mb = request_mb
    got = policy.plan(job)
    if cluster.startable_count < n_nodes:
        assert got is None
        return
    chosen = ref.best_fit_nodes(cluster.free_local(), cluster.startable(),
                                request_mb, n_nodes)
    if got is not None:
        assert got.nodes == [int(n) for n in chosen]


# ----------------------------------------------------------------------
# Columnar bulk-mutator edge transitions
# ----------------------------------------------------------------------
def test_release_of_job_whose_node_also_lends():
    """A compute node of one job may simultaneously lend to another.

    Releasing either job must restore exactly its own share of the
    node's columns — the bulk release path touches ``local_used`` and
    ``lent`` of the same node in one call.
    """
    cluster = _cluster()
    # job 0 computes on nodes 1 and 2; node 2 lends to job 1 on node 5
    cluster.apply(0, JobAllocation(nodes=[1, 2],
                                   local_mb={1: 1024, 2: 2048}))
    cluster.apply(1, JobAllocation(nodes=[5], local_mb={5: 512},
                                   remote_mb={5: {2: 8192}}))
    assert int(cluster.local_used_mb[2]) == 2048
    assert int(cluster.lent_mb[2]) == 8192
    cluster.check_invariants()
    cluster.release(0)
    # node 2 is idle again but still lends to job 1
    assert not cluster.busy[2]
    assert int(cluster.local_used_mb[2]) == 0
    assert int(cluster.lent_mb[2]) == 8192
    cluster.check_invariants()
    cluster.release(1)
    assert int(cluster.lent_mb[2]) == 0
    cluster.check_invariants()


def test_bulk_memnode_flip_updates_startable_aggregates():
    """One apply() pushing several lenders past half capacity must flip
    every memnode bit and the startable/memory-node aggregates in the
    same bulk call (and flip them back on release)."""
    cluster = _cluster()
    half = 64 * 1024 // 2  # normal node capacity is 64 GB
    alloc = JobAllocation(
        nodes=[2], local_mb={2: 1024},
        remote_mb={2: {5: half + 1, 6: half + 1, 7: half + 1}},
    )
    before_startable = cluster.startable_count
    cluster.apply(0, alloc)
    assert cluster.memory_node_count == 3
    # node 2 went busy (-1) and three lenders became memory nodes (-3)
    assert cluster.startable_count == before_startable - 4
    cluster.check_invariants()
    cluster.release(0)
    assert cluster.memory_node_count == 0
    assert cluster.startable_count == before_startable
    cluster.check_invariants()


def test_borrow_from_own_node_released_once():
    """A job borrowing from its own second node must not double-count
    that node on release (it appears in both the busy and lender sets)."""
    cluster = _cluster()
    cluster.apply(0, JobAllocation(
        nodes=[1, 2], local_mb={1: 1024, 2: 512},
        remote_mb={1: {2: 4096}},
    ))
    assert int(cluster.lent_mb[2]) == 4096
    assert int(cluster.remote_held_mb[1]) == 4096
    cluster.check_invariants()
    cluster.release(0)
    assert int(cluster.lent_mb[2]) == 0
    assert int(cluster.remote_held_mb[1]) == 0
    assert cluster.recompute_aggregates()["busy_count"] == 0
    cluster.check_invariants()


# ----------------------------------------------------------------------
# One bulk resize == the per-step reference writes, step by step
# ----------------------------------------------------------------------
_RESIZE_JID = 9


def _resize_cluster(ops):
    """A cluster with a wide job (it borrows, so it has lenders to
    dirty until the op stream returns the borrow) under a random history
    of other jobs, plus a listener log of
    the lender lists as sent.  Copy-on-write is armed with one node per
    page afterwards, so the dirty pages name exactly the nodes a resize
    writes."""
    cluster = _cluster()
    calls = []
    cluster.add_demand_listener(lambda c, lenders: calls.append(list(lenders)))
    cluster.apply(_RESIZE_JID, JobAllocation(
        nodes=[0, 2, 5], local_mb={0: 2048, 2: 1024, 5: 512},
        remote_mb={2: {7: 4096}},
    ))
    _drive(cluster, ops)
    cluster.arm_cow(page_nodes=1)
    del calls[:]
    return cluster, calls


def _union(calls):
    """The notifications one bulk resize must send for the per-step
    ``calls``: none, or their sorted union once."""
    dirty = sorted(set().union(*calls))
    return [dirty] if dirty else []


def _state(cluster):
    """Everything a resize may write, in comparable form: maps as item
    lists, so their insertion orders count too."""
    alloc = cluster.allocations.get(_RESIZE_JID)
    return {
        "columns": cluster.columns.content_hash(),
        "aggregates": {name: getattr(cluster, name)
                       for name in cluster.recompute_aggregates()},
        "local_mb": list(alloc.local_mb.items()),
        "remote_mb": [(n, list(m.items())) for n, m in alloc.remote_mb.items()],
        "sealed": (alloc._total_local, alloc._total_remote,
                   list(alloc._remote_on.items()),
                   list(alloc._lender_mb.items())),
        "lender_jobs": [list(rec.items()) for rec in cluster.lender_jobs],
        "dirty_pages": np.flatnonzero(cluster._cow._dirty).tolist(),
    }


@st.composite
def _local_resize(draw, cluster):
    """Valid deltas on a non-empty subset of the wide job's nodes."""
    alloc = cluster.allocations[_RESIZE_JID]
    nodes = draw(st.lists(st.sampled_from(alloc.nodes), min_size=1,
                          unique=True))
    deltas = []
    for node in nodes:
        free = int(cluster.free_local()[node])
        held = alloc.local_mb.get(node, 0)
        choices = []
        if free > 0:
            choices.append(st.integers(1, free))
        if held > 0:
            choices.append(st.integers(-held, -1))
        deltas.append(draw(st.one_of(choices)))
    return nodes, deltas


@given(ops=op_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_resize_local_matches_per_node_mutators(ops, data):
    one, one_calls = _resize_cluster(ops)
    two, two_calls = _resize_cluster(ops)
    assert _state(one) == _state(two)
    nodes, deltas = data.draw(_local_resize(one))
    one.resize(_RESIZE_JID, nodes, deltas)
    for node, delta in zip(nodes, deltas):
        if delta > 0:
            ref.grow_local(two, _RESIZE_JID, node, delta)
        else:
            ref.shrink_local(two, _RESIZE_JID, node, -delta)
    assert _state(one) == _state(two)
    # A local resize dirties exactly the job's lenders: node 7, plus what
    # the op stream borrowed for the job, less what it returned.  Each
    # per-node step notifies them, when there are any.
    lenders = sorted(one.allocations[_RESIZE_JID].lender_ids())
    assert len(two_calls) == (len(nodes) if lenders else 0)
    assert one_calls == _union(two_calls) == ([lenders] if lenders else [])
    for cluster in (one, two):
        cluster.allocations[_RESIZE_JID].check_seal()
        cluster.check_invariants()


@st.composite
def _resize_steps(draw, cluster):
    """A valid interleaving of local deltas (one per node at most) and
    borrow steps on the wide job: borrows from any other node, its own
    compute nodes included, and returns of what a pair holds, each
    valid at its step."""
    alloc = cluster.allocations[_RESIZE_JID]
    free = cluster.free_local().copy()
    local = dict(alloc.local_mb)
    pairs = {(n, lender): mb for n, m in alloc.remote_mb.items()
             for lender, mb in m.items()}
    steps = []
    resized = set()
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["local", "borrow", "return"]))
        node = draw(st.sampled_from(alloc.nodes))
        if kind == "local":
            if node in resized:
                continue
            choices = []
            if free[node] > 0:
                choices.append(st.integers(1, int(free[node])))
            if local.get(node, 0) > 0:
                choices.append(st.integers(-local[node], -1))
            if not choices:
                continue
            delta = draw(st.one_of(choices))
            resized.add(node)
            local[node] = local.get(node, 0) + delta
            free[node] -= delta
            steps.append(("local", node, delta))
            continue
        if kind == "borrow":
            lender = draw(st.sampled_from(
                [n for n in range(N_NODES) if n != node]))
            if free[lender] <= 0:
                continue
            mb = draw(st.integers(1, int(free[lender])))
        else:
            held = sorted(lender for (n, lender), mb in pairs.items()
                          if n == node and mb > 0)
            if not held:
                continue
            lender = draw(st.sampled_from(held))
            mb = -draw(st.integers(1, pairs[node, lender]))
        pairs[node, lender] = pairs.get((node, lender), 0) + mb
        free[lender] -= mb
        steps.append(("borrow", node, lender, mb))
    return steps


def _apply_steps(cluster, steps):
    """``steps`` through the per-step reference writes, one per step."""
    for step in steps:
        if step[0] == "local":
            _, node, delta = step
            if delta > 0:
                ref.grow_local(cluster, _RESIZE_JID, node, delta)
            else:
                ref.shrink_local(cluster, _RESIZE_JID, node, -delta)
        else:
            _, node, lender, mb = step
            if mb > 0:
                ref.add_remote(cluster, _RESIZE_JID, node, lender, mb)
            else:
                ref.remove_remote(cluster, _RESIZE_JID, node, lender, -mb)


def _resize_steps_bulk(cluster, steps):
    """``steps`` as one :meth:`Cluster.resize`."""
    local = [step[1:] for step in steps if step[0] == "local"]
    cluster.resize(_RESIZE_JID, [node for node, _ in local],
                   [delta for _, delta in local],
                   [step[1:] for step in steps if step[0] == "borrow"])


@given(ops=op_strategy, data=st.data())
@settings(max_examples=80, deadline=None)
def test_resize_matches_scalar_mutators_in_step_order(ops, data):
    """Local deltas and ordered borrows and returns in one resize ==
    the per-step reference writes one by one: columns, aggregates, every
    map with its insertion order, lender_jobs, the dirty COW pages, and
    one demand notification that is the sorted union of theirs."""
    one, one_calls = _resize_cluster(ops)
    two, two_calls = _resize_cluster(ops)
    steps = data.draw(_resize_steps(one))
    _resize_steps_bulk(one, steps)
    _apply_steps(two, steps)
    assert _state(one) == _state(two)
    assert one_calls == _union(two_calls)
    for cluster in (one, two):
        cluster.allocations[_RESIZE_JID].check_seal()
        cluster.check_invariants()


def test_resize_borrows_from_its_own_node_and_returns_in_order():
    """A return, a borrow from one of the job's own compute nodes and a
    borrow that re-creates an emptied pair, in one resize: every map
    keeps the order the per-step writes give it."""
    steps = [
        ("borrow", 2, 7, -4096),     # empties node 2's only pair
        ("borrow", 5, 0, 1024),      # lender 0 is a node of the job
        ("local", 0, -1024),
        ("borrow", 2, 6, 512),
        ("borrow", 2, 7, 256),       # pair (2, 7) comes back, at the end
        ("borrow", 5, 0, -24),
    ]
    one, one_calls = _resize_cluster([])
    two, two_calls = _resize_cluster([])
    _resize_steps_bulk(one, steps)
    _apply_steps(two, steps)
    assert _state(one) == _state(two)
    assert one_calls == _union(two_calls) == [[0, 6, 7]]
    assert len(two_calls) == len(steps)
    alloc = one.allocations[_RESIZE_JID]
    assert list(alloc.remote_mb) == [5, 2]
    assert list(alloc.remote_mb[2].items()) == [(6, 512), (7, 256)]
    assert list(alloc._lender_mb) == [0, 6, 7]
    one.check_invariants()


@pytest.mark.parametrize("lent_before", ["above", "below"])
def test_resize_lender_crosses_memnode_threshold_and_back(lent_before):
    """Within one resize a lender's lending crosses the memory-node
    threshold and comes back: node 2 returns to lender 6 and node 3
    borrows from it (or the other way round).  The bulk lending write
    sees only the net change, so the flag and the memory-node and
    startable counts must come out as the per-step writes leave them."""
    half = 64 * 1024 // 2  # node 6 is a normal 64 GB node

    def run(bulk):
        cluster = _cluster()
        start = half + 1 if lent_before == "above" else half - 1
        cluster.apply(0, JobAllocation(
            nodes=[2, 3], local_mb={2: 1024, 3: 1024},
            remote_mb={2: {6: start}}))
        memnode = bool(cluster.is_memory_node()[6])
        assert memnode == (lent_before == "above")
        if lent_before == "above":
            borrows = [(2, 6, -2), (3, 6, 2)]  # down, then back up
        else:
            borrows = [(3, 6, 2), (2, 6, -2)]  # up, then back down
        if bulk:
            cluster.resize(0, [], [], borrows)
        else:
            for node, lender, mb in borrows:
                if mb > 0:
                    ref.add_remote(cluster, 0, node, lender, mb)
                else:
                    ref.remove_remote(cluster, 0, node, lender, -mb)
        assert bool(cluster.is_memory_node()[6]) == memnode
        brute = cluster.recompute_aggregates()
        assert cluster.memory_node_count == brute["memory_node_count"]
        assert cluster.startable_count == brute["startable_count"]
        cluster.check_invariants()
        return (cluster.memory_node_count, cluster.startable_count,
                cluster.columns.content_hash())

    assert run(bulk=True) == run(bulk=False)


def test_resize_rejects_without_writing():
    cluster, calls = _resize_cluster([])
    free = cluster.free_local()
    free0, free2, free6 = int(free[0]), int(free[2]), int(free[6])
    before = _state(cluster)
    assert before["dirty_pages"] == []
    # Each bad call leads with a valid step, so a write-as-you-go
    # implementation would have changed state before raising.
    for nodes, deltas, borrows in [
        ([0, 2], [512, free2 + 1], []),    # grow beyond free DRAM
        ([0, 5], [512, -513], []),         # shrink beyond local held
        ([0, 3], [512, 1], []),            # node outside the job
        ([0, 0], [512, 1], []),            # repeated node
        ([0, 2], [512, 0], []),            # zero delta
        ([0, 2], [512], []),               # one delta per node
        # a return larger than the pair holds (4096 MB), at the start
        # of the call or after a borrow on the same pair
        ([], [], [(0, 3, 512), (2, 7, -4097)]),
        ([], [], [(0, 3, 512), (0, 3, -513)]),
        ([], [], [(0, 3, 512), (2, 2, 512)]),     # borrow from itself
        ([], [], [(0, 3, 512), (2, 6, free6 + 1)]),  # lender short
        ([], [], [(0, 6, free6), (2, 6, 1)]),     # short on the net
        ([0], [free0], [(2, 0, 1)]),              # local take + lending
        ([], [], [(0, 3, 512), (3, 4, 512)]),     # node outside the job
        ([], [], [(0, 3, 512), (2, 4, 0)]),       # zero borrow
    ]:
        with pytest.raises(AllocationError):
            cluster.resize(_RESIZE_JID, nodes, deltas, borrows)
        assert _state(cluster) == before
    with pytest.raises(AllocationError):
        cluster.resize(42, [0], [1])  # job not allocated
    assert calls == []
    cluster.check_invariants()


# ----------------------------------------------------------------------
# Selection: tie order and scratch isolation
# ----------------------------------------------------------------------
def test_repair_tie_order_with_duplicate_free_values():
    """Nodes with *equal* free DRAM are selected in node-id order, in the
    most-free and in the best-fit order, at every prefix length.

    The composite key (``±free·n + node``) makes ties impossible at the
    key level; this pins the behaviour on a column holding two groups of
    tied values, one of them made by allocations out of node-id order.
    """
    cluster = _cluster()
    for jid, node in enumerate((5, 7, 6)):
        cluster.apply(jid, JobAllocation(nodes=[node], local_mb={node: 4096}))
    free = cluster.free_local()
    assert free[5] == free[6] == free[7] and free[2] == free[3] == free[4]
    for select, full in ((MemoryPool.most_free_first, ref.most_free_order),
                         (MemoryPool.least_free_first, ref.best_fit_order)):
        want = full(free).tolist()
        for k in range(1, N_NODES + 2):
            assert select(free, k).tolist() == want[:k]
        trio = [int(x) for x in select(free, N_NODES) if int(x) in (5, 6, 7)]
        assert trio == [5, 6, 7]


def test_overrides_do_not_touch_the_live_index():
    """split_borrow orders and carves a scratch copy of the free column:
    the live column is unchanged, and the plan is the reference carve of
    the overridden order."""
    cluster = _cluster()
    pool = MemoryPool(cluster)
    cluster.apply(0, JobAllocation(nodes=[3], local_mb={3: 4096}))
    before = cluster.free_local().copy()
    demands = {0: 100_000, 2: 70_000}
    reduce_free = {0: 120_000, 2: 8192}
    got = pool.split_borrow(demands, reduce_free=reduce_free)
    assert got is not None
    assert got == ref.split_borrow_ref(before, demands, reduce_free)
    assert np.array_equal(cluster.free_local(), before)


# ----------------------------------------------------------------------
# Selection on a wide cluster: prefixes past SPLIT_PREFIX, many ties
# ----------------------------------------------------------------------
WIDE_NODES = 256
GB = 1024


def _wide_cluster(used, lent) -> Cluster:
    """A wide cluster whose free DRAM takes few distinct values.

    ``used[node]`` runs a one-node job holding that many 16 GB blocks
    (0 leaves the node idle); ``lent[node]`` lends that many 16 GB blocks
    where the node has them free, written through the bulk lending
    funnel with no borrower behind it, which makes memory nodes.
    """
    cluster = Cluster(SystemConfig(n_nodes=WIDE_NODES, normal_mem_gb=64,
                                   large_mem_gb=128, frac_large_nodes=0.25))
    for node, blocks in enumerate(used):
        if blocks:
            cluster.apply(node, JobAllocation(
                nodes=[node], local_mb={node: blocks * 16 * GB}))
    free = cluster.free_local()
    lends = {node: blocks * 16 * GB for node, blocks in lent.items()
             if int(free[node]) >= blocks * 16 * GB}
    cluster._touch_lent_many(np.array(list(lends), dtype=np.int64),
                             np.array(list(lends.values()), dtype=np.int64))
    return cluster


wide_state = st.tuples(
    st.lists(st.sampled_from([0, 0, 1, 2, 4]), min_size=WIDE_NODES,
             max_size=WIDE_NODES),
    st.dictionaries(st.integers(0, WIDE_NODES - 1), st.integers(1, 3),
                    max_size=32),
)


def _static_plan_ref(cluster, request_mb, n_nodes):
    """The static policy's allocation, as (nodes, local, remote) lists,
    built on the full-sort references; ``None`` if it cannot start."""
    free = cluster.free_local()
    if cluster.startable_count < n_nodes:
        return None
    nodes = ref.best_fit_nodes(free, cluster.startable(), request_mb, n_nodes)
    local = {int(n): min(int(free[n]), request_mb) for n in nodes}
    deficits = {n: request_mb - mb for n, mb in local.items()
                if mb < request_mb}
    plans = ref.split_borrow_ref(free, deficits, local) if deficits else {}
    if plans is None:
        return None
    return list(local), list(local.items()), [
        (n, list(plan)) for n, plan in plans.items()]


@given(state=wide_state, data=st.data())
@settings(max_examples=30, deadline=None)
def test_wide_selection_matches_full_sorts(state, data):
    """plan_borrow, split_borrow (with reduce_free) and the static plan
    on 256 nodes == the full-sort references.  Deficits reach past the
    first SPLIT_PREFIX lenders, so the walks extend their prefixes."""
    cluster = _wide_cluster(*state)
    pool = MemoryPool(cluster)
    free = cluster.free_local().copy()
    node_ids = st.integers(0, WIDE_NODES - 1)
    # Prefix sums of the most-free order: a deficit of ``top[r]`` MB
    # needs about ``r`` lenders, so drawing ``r`` past SPLIT_PREFIX makes
    # the walks run off their first prefix.
    top = np.concatenate(([0], np.cumsum(np.sort(free)[::-1])))
    reach = st.integers(1, 3 * SPLIT_PREFIX)
    jitter = st.integers(-GB, GB)

    exclude = data.draw(st.lists(node_ids, max_size=8), label="exclude")
    amount = max(1, int(top[data.draw(reach, label="reach")])
                 + data.draw(jitter))
    assert pool.plan_borrow(amount, exclude=exclude) == ref.plan_borrow_ref(
        free, amount, exclude)

    nodes = data.draw(st.lists(node_ids, min_size=1, max_size=48,
                               unique=True), label="compute nodes")
    share = int(top[data.draw(reach, label="split reach")]) // len(nodes)
    demands = {n: max(1, share + data.draw(jitter)) for n in nodes}
    reduce_free = {n: data.draw(st.integers(0, int(free[n]))) for n in nodes}
    assert pool.split_borrow(demands, reduce_free=reduce_free) == (
        ref.split_borrow_ref(free, demands, reduce_free))

    n_nodes = data.draw(st.integers(1, 96), label="job nodes")
    job = _job(WIDE_NODES, n_nodes=n_nodes)
    job.mem_request_mb = data.draw(st.integers(1, 160 * GB), label="request")
    got = StaticDisaggregatedPolicy(cluster).plan(job)
    want = _static_plan_ref(cluster, job.mem_request_mb, n_nodes)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.nodes, list(got.local_mb.items()), [
            (n, list(m.items())) for n, m in got.remote_mb.items()]) == want
    assert np.array_equal(cluster.free_local(), free)


def test_split_walk_continues_on_the_doubled_prefix(monkeypatch):
    """A split needing more than SPLIT_PREFIX lenders extends its prefix
    (64, 128, then 256) and still carves the reference plan."""
    cluster = _wide_cluster([0] * WIDE_NODES, {})
    pool = MemoryPool(cluster)
    widths = []
    select = MemoryPool.most_free_first

    def spy(free, k):
        widths.append(k)
        return select(free, k)

    monkeypatch.setattr(MemoryPool, "most_free_first", staticmethod(spy))
    free = cluster.free_local().copy()
    # Nodes 0-63 are the large ones; 90 x 64 GB more reaches node 153,
    # and node 10's walk resumes past the exhausted head.
    demands = {200: (64 * 128 + 90 * 64) * GB, 10: 5 * GB}
    got = pool.split_borrow(demands)
    assert widths == [SPLIT_PREFIX, 2 * SPLIT_PREFIX, 4 * SPLIT_PREFIX]
    assert got == ref.split_borrow_ref(free, demands)
    assert max(lender for lender, _ in got[200]) == 153
    assert got[10] == [(154, 5 * GB)]


# ----------------------------------------------------------------------
# Lender-demand ledger vs brute recomputation
# ----------------------------------------------------------------------
@given(ops=op_strategy)
@settings(max_examples=40, deadline=None)
def test_demand_ledger_bit_identical_to_brute_force(ops):
    cluster = _cluster()
    model = ContentionModel(profiles=[_profile()])
    model.attach(cluster)
    jobs = {jid: _job(jid) for jid in range(6)}
    for op_chunk in ops:
        _drive(cluster, [op_chunk])
        # Every entry the op left unmarked must still hold its demand.
        for lender in np.flatnonzero(~model._stale).tolist():
            brute = model._lender_demand_brute(cluster, jobs, lender)
            assert model._demand[lender] == brute
        for lender in range(N_NODES):
            cached = model.lender_demand(cluster, jobs, lender)
            brute = model._lender_demand_brute(cluster, jobs, lender)
            # Bit-identical, not approximately equal: the ledger must
            # not perturb campaign records.
            assert cached == brute
    assert model.demand_hits + model.demand_misses > 0


def test_demand_ledger_invalidated_by_local_resize():
    """grow/shrink_local changes remote_fraction, so lenders go dirty."""
    cluster = _cluster()
    model = ContentionModel(profiles=[_profile()])
    model.attach(cluster)
    jobs = {0: _job(0)}
    cluster.apply(0, JobAllocation(nodes=[0], local_mb={0: 1024},
                                   remote_mb={0: {2: 2048}}))
    before = model.lender_demand(cluster, jobs, 2)
    cluster.grow_local(0, 0, 4096)
    after = model.lender_demand(cluster, jobs, 2)
    assert after == model._lender_demand_brute(cluster, jobs, 2)
    assert after < before  # more local memory -> lower remote fraction


def test_detach_stops_ledger_maintenance():
    cluster = _cluster()
    model = ContentionModel(profiles=[_profile()])
    model.attach(cluster)
    assert len(model._demand) == len(model._stale) == N_NODES
    assert model._stale.all()
    model.detach()
    assert not cluster._demand_listeners
    assert len(model._demand) == len(model._stale) == 0


# ----------------------------------------------------------------------
# Whole-campaign byte-identity: incremental vs brute-forced paths
# ----------------------------------------------------------------------
def _campaign_records(tmp_path, monkeypatch, brute: bool):
    from repro.experiments import runner
    from repro.experiments.campaign import fig5_scenarios, run_campaign
    from repro.experiments.scenarios import SCALES

    if brute:
        # Select every lender and node prefix from a full stable argsort,
        # actuate node by node with the per-step reference writes and
        # recompute every demand read: the pre-optimisation behaviour.
        ref.patch_in(monkeypatch)
        monkeypatch.setattr(ContentionModel, "attach",
                            lambda self, cluster: None)
    resizes = []
    bulk = Cluster.resize

    def spy(self, jid, nodes, deltas, borrows=(), alloc=None):
        resizes.append(len(borrows))
        return bulk(self, jid, nodes, deltas, borrows, alloc)

    monkeypatch.setattr(Cluster, "resize", spy)
    runner.clear_caches()
    grid = fig5_scenarios(scale=SCALES["small"], mixes=(0.25,),
                          memory_levels=(50,), overestimations=(0.0,))
    name = "brute" if brute else "fast"
    out = tmp_path / f"{name}.jsonl"
    # Provenance records every resize decision and demand change, so it
    # sees a skipped demand notification that leaves the records equal.
    telemetry = tmp_path / f"{name}-telemetry"
    run_campaign(grid, out, workers=1, telemetry_dir=telemetry)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    for rec in records:
        rec.pop("elapsed_s", None)  # wall clock legitimately differs
    return records, (telemetry / "provenance.jsonl").read_bytes(), resizes


@pytest.mark.slow
def test_campaign_records_byte_identical_to_brute_path(tmp_path, monkeypatch):
    with monkeypatch.context() as mp:
        fast, fast_prov, resizes = _campaign_records(tmp_path, mp, brute=False)
    # The grid's dynamic run makes non-local resizes (about 140, with
    # some 400 borrow and return steps), so the bulk Actuator's planning
    # is compared, not only its local-only write.
    assert sum(1 for steps in resizes if steps) > 100
    with monkeypatch.context() as mp:
        brute, brute_prov, resizes = _campaign_records(tmp_path, mp, brute=True)
    assert resizes == []  # the reference Actuator never calls resize
    assert json.dumps(fast, sort_keys=True) == json.dumps(brute, sort_keys=True)
    assert fast_prov.count(b"\n") > 1000
    assert fast_prov == brute_prov
