"""Parity tests for the incremental ledgers and allocation indexes.

The simulator's hot paths read maintained state — cluster scalar
aggregates, the sorted-free node indexes, the contention model's
per-lender demand ledger — instead of recomputing from the full ledgers
per event.  These tests drive random operation sequences and whole
campaigns through both the incremental and the brute-force paths and
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
from repro.cluster.memorypool import MemoryPool, SortedFreeIndex
from repro.core.config import SystemConfig
from repro.core.errors import AllocationError
from repro.jobs.job import Job
from repro.jobs.usage import UsageTrace
from repro.policies.static import StaticDisaggregatedPolicy
from repro.slowdown.model import ContentionModel
from repro.slowdown.profiles import AppProfile

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
# Aggregates and sorted-free indexes under random op streams
# ----------------------------------------------------------------------
@given(ops=op_strategy)
@settings(max_examples=60, deadline=None)
def test_aggregates_and_indexes_track_brute_force(ops):
    cluster = _cluster()
    pool = MemoryPool(cluster)
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
        # Both index orders must equal a fresh stable argsort after the
        # lazy sync (exercises the repair and the rebuild paths).
        pool.free_index.check_consistent()
        pool.bestfit_index.check_consistent()
    for mb in (512, 100_000):
        assert cluster.fitting_idle_count(mb) == int(
            ((~cluster.busy) & (cluster.capacity_mb >= mb)).sum()
        )


@given(ops=op_strategy, request_mb=st.integers(1, 200_000),
       exclude=st.sets(st.integers(0, N_NODES - 1), max_size=3))
@settings(max_examples=40, deadline=None)
def test_plan_borrow_matches_unindexed_plan(ops, request_mb, exclude):
    """plan_borrow through the index == the original zero-and-argsort plan."""
    cluster = _cluster()
    pool = MemoryPool(cluster)
    _drive(cluster, ops)
    got = pool.plan_borrow(request_mb, exclude=tuple(exclude))
    free = np.asarray(cluster.free_local()).copy()
    if exclude:
        free[np.asarray(sorted(exclude), dtype=np.int64)] = 0
    if int(free.sum()) < request_mb:
        assert got is None
        return
    order = np.argsort(-free, kind="stable")
    want, remaining = [], request_mb
    for node in order:
        avail = int(free[node])
        if avail <= 0:
            continue
        take = min(avail, remaining)
        want.append((int(node), take))
        remaining -= take
        if remaining == 0:
            break
    assert got == want


@given(ops=op_strategy, request_mb=st.integers(1, 140_000),
       n_nodes=st.integers(1, N_NODES))
@settings(max_examples=40, deadline=None)
def test_static_plan_matches_unindexed_selection(ops, request_mb, n_nodes):
    """The static policy's index-backed node choice == the per-job sorts."""
    cluster = _cluster()
    policy = StaticDisaggregatedPolicy(cluster)
    _drive(cluster, ops)
    job = _job(99, n_nodes=n_nodes)
    job.mem_request_mb = request_mb
    got = policy.plan(job)
    # Reference: the original subset-argsort selection.
    startable = np.flatnonzero(cluster.startable())
    if len(startable) < n_nodes:
        assert got is None
        return
    free = np.asarray(cluster.free_local())[startable]
    fits = free >= request_mb
    if int(fits.sum()) >= n_nodes:
        cand = startable[fits]
        chosen = cand[np.argsort(free[fits], kind="stable")[:n_nodes]]
    else:
        chosen = startable[np.argsort(-free, kind="stable")[:n_nodes]]
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
        "generation": cluster.generation,
        "free_log": (cluster._free_log_base, list(cluster._free_log)),
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
# Delta-log overflow: counted, and stale consumers rebuild
# ----------------------------------------------------------------------
def test_free_log_overflow_counts_and_forces_rebuild():
    from repro.cluster.cluster import FREE_LOG_LIMIT

    cluster = _cluster()
    idx = SortedFreeIndex(cluster, descending=True)
    idx.nodes_in_order()
    assert cluster.free_log_overflows == 0
    stale_gen = cluster.generation
    cluster.apply(0, JobAllocation(nodes=[0], local_mb={0: 1024}))
    for _ in range(FREE_LOG_LIMIT):
        cluster.grow_local(0, 0, 1)
        cluster.shrink_local(0, 0, 1)
    assert cluster.free_log_overflows >= 1
    # the dropped prefix is gone: a consumer parked before the overflow
    # must be told to rebuild instead of silently missing deltas
    assert cluster.free_changes_since(stale_gen) is None
    rebuilds_before = idx.rebuilds
    idx.check_consistent()
    assert idx.rebuilds == rebuilds_before + 1


def test_bulk_log_append_keeps_generation_arithmetic():
    """`generation == _free_log_base + len(_free_log)` must hold across
    both the scalar and the bulk append paths."""
    cluster = _cluster()
    cluster.apply(0, JobAllocation(nodes=[0, 1, 2],
                                   local_mb={0: 1, 1: 2, 2: 3}))
    assert cluster.generation == cluster._free_log_base + len(cluster._free_log)
    gen = cluster.generation
    cluster.grow_local(0, 1, 64)
    assert cluster.free_changes_since(gen) == [1]
    assert cluster.generation == cluster._free_log_base + len(cluster._free_log)


# ----------------------------------------------------------------------
# SortedFreeIndex repair micro-behaviour
# ----------------------------------------------------------------------
def test_index_repairs_small_deltas_without_rebuilding():
    cluster = _cluster()
    idx = SortedFreeIndex(cluster, descending=True)
    idx.nodes_in_order()
    assert idx.rebuilds == 1
    cluster.apply(0, JobAllocation(nodes=[3], local_mb={3: 4096}))
    idx.check_consistent()
    assert idx.rebuilds == 1 and idx.repairs == 1


def test_index_rebuilds_when_delta_log_is_lost():
    cluster = _cluster()
    idx = SortedFreeIndex(cluster, descending=True)
    idx.nodes_in_order()
    for jid in range(4):
        cluster.apply(jid, JobAllocation(nodes=[jid], local_mb={jid: 1024}))
    cluster._free_log_base = cluster.generation  # simulate log loss
    cluster._free_log.clear()
    idx.check_consistent()
    assert idx.rebuilds == 2


def test_repair_tie_order_with_duplicate_free_values():
    """Repair must land nodes with *equal* free DRAM in node-id order,
    exactly where a fresh stable argsort would put them.

    The composite sort key (``free * n + node``) makes ties impossible
    at the key level; this regression pins the behaviour for deltas that
    create duplicates of existing free values on both index polarities.
    """
    cluster = _cluster()
    for desc in (True, False):
        idx = SortedFreeIndex(cluster, descending=desc)
        idx.nodes_in_order()
        # Drive several normal nodes to identical free values in
        # separate repair batches, interleaved with reads.
        cluster.apply(10 + (0 if desc else 1) * 10,
                      JobAllocation(nodes=[5], local_mb={5: 4096}))
        idx.check_consistent()
        cluster.apply(11 + (0 if desc else 1) * 10,
                      JobAllocation(nodes=[7], local_mb={7: 4096}))
        idx.check_consistent()  # nodes 5 and 7 now tie
        cluster.apply(12 + (0 if desc else 1) * 10,
                      JobAllocation(nodes=[6], local_mb={6: 4096}))
        idx.check_consistent()  # three-way tie, middle node repaired last
        free = np.asarray(cluster.free_local())
        n = cluster.n_nodes
        sign = -1 if desc else 1
        want = np.argsort(sign * free * n + np.arange(n), kind="stable")
        assert np.array_equal(idx.nodes_in_order(), want)
        # the tied trio must sit in node-id order, adjacent to each other
        order = [int(x) for x in idx.nodes_in_order()
                 if free[x] == free[5] and int(x) in (5, 6, 7)]
        assert order == [5, 6, 7]
        for jid in (10, 11, 12) if desc else (20, 21, 22):
            cluster.release(jid)
        idx.check_consistent()


def test_overrides_do_not_touch_the_live_index():
    cluster = _cluster()
    pool = MemoryPool(cluster)
    live_before = pool.free_index.nodes_in_order().copy()
    overridden = pool.free_index.nodes_with_overrides({0: 1})
    free = np.asarray(cluster.free_local()).copy()
    free[0] = 1
    n = cluster.n_nodes
    want = np.argsort(-free * n + np.arange(n), kind="stable")
    assert np.array_equal(overridden, want)
    assert np.array_equal(pool.free_index.nodes_in_order(), live_before)


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
        # Force every index sync to a fresh argsort and every demand
        # read to full recomputation: the pre-optimisation behaviour.
        monkeypatch.setattr(SortedFreeIndex, "_reinsert",
                            staticmethod(lambda *a, **k: None))
        monkeypatch.setattr(Cluster, "free_changes_since",
                            lambda self, generation: None)
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
