"""Parity tests for the incremental ledgers and lender selection.

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
                         "grow_l", "shrink_l", "resize_l", "add_r", "rem_r"]),
        st.integers(0, 5),       # job id
        st.integers(0, N_NODES - 1),  # node selector
        st.integers(1, 40000),   # MB amount
    ),
    min_size=1,
    max_size=50,
)


def _drive(cluster: Cluster, ops) -> None:
    """Apply one random op stream, ignoring rejected operations."""
    for op, jid, node, mb in ops:
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
                cluster.resize_local(jid, nodes, deltas[:len(nodes)])
            elif op == "add_r":
                cluster.add_remote(jid, node, lender, mb)
            elif op == "rem_r":
                cluster.remove_remote(jid, node, lender, mb)
        except AllocationError:
            pass  # rejected ops must leave state untouched


# ----------------------------------------------------------------------
# Aggregates under random op streams; selection == the full sorts
# ----------------------------------------------------------------------
@given(ops=op_strategy)
@settings(max_examples=60, deadline=None)
def test_aggregates_and_indexes_track_brute_force(ops):
    cluster = _cluster()
    for op_chunk in ops:
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
        assert cluster.allocated_total == cluster.total_allocated_mb()
    for mb in (512, 100_000):
        assert cluster.fitting_idle_count(mb) == int(
            ((~cluster.busy) & (cluster.capacity_mb >= mb)).sum()
        )


@given(ops=op_strategy, request_mb=st.integers(1, 200_000),
       exclude=st.sets(st.integers(0, N_NODES - 1), max_size=3))
@settings(max_examples=40, deadline=None)
def test_plan_borrow_matches_unindexed_plan(ops, request_mb, exclude):
    """plan_borrow by selection == the zero-and-argsort plan."""
    cluster = _cluster()
    pool = MemoryPool(cluster)
    _drive(cluster, ops)
    got = pool.plan_borrow(request_mb, exclude=tuple(exclude))
    assert got == ref.plan_borrow_ref(cluster.free_local(), request_mb,
                                      tuple(exclude))


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
# One-pass local resize == per-node grow_local / shrink_local
# ----------------------------------------------------------------------
_RESIZE_JID = 9


def _resize_cluster(ops):
    """A cluster with a wide job (it borrows, so it has lenders to
    dirty) under a random history of other jobs, plus a listener log."""
    cluster = _cluster()
    calls = []
    cluster.add_demand_listener(lambda c, lenders: calls.append(sorted(lenders)))
    cluster.apply(_RESIZE_JID, JobAllocation(
        nodes=[0, 2, 5], local_mb={0: 2048, 2: 1024, 5: 512},
        remote_mb={2: {7: 4096}},
    ))
    _drive(cluster, ops)
    del calls[:]
    return cluster, calls


def _state(cluster):
    """Everything a resize may write, in comparable form."""
    alloc = cluster.allocations.get(_RESIZE_JID)
    return {
        "columns": cluster.columns.content_hash(),
        "aggregates": {name: getattr(cluster, name)
                       for name in cluster.recompute_aggregates()},
        "local_mb": list(alloc.local_mb.items()),
        "remote_mb": [(n, list(m.items())) for n, m in alloc.remote_mb.items()],
        "sealed": (alloc._total_local, alloc._total_remote,
                   dict(alloc._remote_on), dict(alloc._lender_mb)),
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
    with one.defer_demand():
        one.resize_local(_RESIZE_JID, nodes, deltas)
    with two.defer_demand():
        for node, delta in zip(nodes, deltas):
            if delta > 0:
                two.grow_local(_RESIZE_JID, node, delta)
            else:
                two.shrink_local(_RESIZE_JID, node, -delta)
    assert _state(one) == _state(two)
    assert one_calls == two_calls and len(one_calls) == 1
    for cluster in (one, two):
        cluster.allocations[_RESIZE_JID].check_seal()
        cluster.check_invariants()


def test_resize_local_rejects_without_writing():
    cluster, calls = _resize_cluster([])
    free2 = int(cluster.free_local()[2])
    before = _state(cluster)
    # Each bad call leads with a valid delta, so a write-as-you-go
    # implementation would have changed state before raising.
    for nodes, deltas in [
        ([0, 2], [512, free2 + 1]),        # grow beyond free DRAM
        ([0, 5], [512, -513]),             # shrink beyond local held
        ([0, 3], [512, 1]),                # node outside the job
        ([0, 0], [512, 1]),                # repeated node
        ([0, 2], [512, 0]),                # zero delta
        ([0, 2], [512]),                   # one delta per node
    ]:
        with pytest.raises(AllocationError):
            cluster.resize_local(_RESIZE_JID, nodes, deltas)
        assert _state(cluster) == before
    with pytest.raises(AllocationError):
        cluster.resize_local(42, [0], [1])  # job not allocated
    assert calls == []
    cluster.check_invariants()


# ----------------------------------------------------------------------
# Coalesced demand notifications (defer_demand)
# ----------------------------------------------------------------------
def test_defer_demand_coalesces_to_the_same_dirty_set():
    """Deferred notification == union of the per-mutation notifications,
    delivered once, after the window (never inside it)."""

    def run(deferred: bool):
        cluster = _cluster()
        calls = []
        cluster.add_demand_listener(
            lambda c, lenders: calls.append(sorted(lenders))
        )
        cluster.apply(0, JobAllocation(nodes=[0], local_mb={0: 1024},
                                       remote_mb={0: {3: 2048}}))
        del calls[:]  # only compare the resize window itself

        def mutate():
            cluster.add_remote(0, 0, 4, 512)
            cluster.grow_local(0, 0, 256)
            cluster.remove_remote(0, 0, 3, 2048)

        if deferred:
            with cluster.defer_demand():
                mutate()
                in_window = len(calls)
            return calls, in_window
        mutate()
        return calls, None

    immediate, _ = run(deferred=False)
    deferred, in_window = run(deferred=True)
    assert in_window == 0  # nothing fires inside the window
    assert len(deferred) == 1  # one coalesced flush
    union = sorted(set().union(*immediate))
    assert deferred[0] == union


def test_defer_demand_is_reentrant():
    cluster = _cluster()
    calls = []
    cluster.add_demand_listener(lambda c, lenders: calls.append(list(lenders)))
    cluster.apply(0, JobAllocation(nodes=[0], local_mb={0: 1024}))
    del calls[:]
    with cluster.defer_demand():
        with cluster.defer_demand():
            cluster.add_remote(0, 0, 2, 512)
        assert calls == []  # the inner exit defers to the outer flush
    assert len(calls) == 1


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
    through the standalone funnel, which makes memory nodes.
    """
    cluster = Cluster(SystemConfig(n_nodes=WIDE_NODES, normal_mem_gb=64,
                                   large_mem_gb=128, frac_large_nodes=0.25))
    for node, blocks in enumerate(used):
        if blocks:
            cluster.apply(node, JobAllocation(
                nodes=[node], local_mb={node: blocks * 16 * GB}))
    for node, blocks in lent.items():
        if int(cluster.free_local()[node]) >= blocks * 16 * GB:
            cluster.set_lent(node, blocks * 16 * GB)
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
    model.detach()
    assert not cluster._demand_listeners
    assert model._demand_cache == {}


# ----------------------------------------------------------------------
# Whole-campaign byte-identity: incremental vs brute-forced paths
# ----------------------------------------------------------------------
def _campaign_records(tmp_path, monkeypatch, brute: bool):
    from repro.experiments import runner
    from repro.experiments.campaign import fig5_scenarios, run_campaign
    from repro.experiments.scenarios import SCALES

    if brute:
        # Select every lender and node prefix from a full stable argsort
        # and recompute every demand read: the pre-optimisation behaviour.
        ref.patch_in(monkeypatch)
        monkeypatch.setattr(ContentionModel, "attach",
                            lambda self, cluster: None)
    runner.clear_caches()
    grid = fig5_scenarios(scale=SCALES["small"], mixes=(0.25,),
                          memory_levels=(50,), overestimations=(0.0,))
    out = tmp_path / ("brute.jsonl" if brute else "fast.jsonl")
    run_campaign(grid, out, workers=1)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    for rec in records:
        rec.pop("elapsed_s", None)  # wall clock legitimately differs
    return records


@pytest.mark.slow
def test_campaign_records_byte_identical_to_brute_path(tmp_path, monkeypatch):
    fast = _campaign_records(tmp_path, monkeypatch, brute=False)
    with monkeypatch.context() as mp:
        brute = _campaign_records(tmp_path, mp, brute=True)
    assert json.dumps(fast, sort_keys=True) == json.dumps(brute, sort_keys=True)
