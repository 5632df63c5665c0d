"""Property-based tests on lender planning and backfill estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.cluster.memorypool import MOST_FREE, NEAREST, ROUND_ROBIN, MemoryPool
from repro.core.config import SystemConfig
from repro.scheduler.backfill import shadow_time

from conftest import make_job
import reference_orders as ref


def fresh_cluster():
    return Cluster(SystemConfig(n_nodes=12, normal_mem_gb=64,
                                large_mem_gb=128, frac_large_nodes=0.25))


def nearest_split_ref(cluster, free, demands):
    """The nearest strategy's split: each compute node walks its own
    distance order (most free first among equals) over the shared carve."""
    free = np.array(free)
    result = {}
    for node, need in demands.items():
        plan = []
        for lender in np.lexsort((-free, cluster.distance_row(node))):
            lender = int(lender)
            if need == 0:
                break
            if lender == node or free[lender] <= 0:
                continue
            take = min(int(free[lender]), need)
            free[lender] -= take
            need -= take
            plan.append((lender, take))
        if need > 0:
            return None
        result[node] = plan
    return result


@given(
    amount=st.integers(0, 12 * 128 * 1024),
    strategy=st.sampled_from([MOST_FREE, ROUND_ROBIN, NEAREST]),
    exclude=st.sets(st.integers(0, 11), max_size=4),
    near=st.one_of(st.none(), st.integers(0, 11)),
)
@settings(max_examples=120, deadline=None)
def test_plan_borrow_properties(amount, strategy, exclude, near):
    cluster = fresh_cluster()
    pool = MemoryPool(cluster, strategy=strategy)
    plan = pool.plan_borrow(amount, exclude=sorted(exclude), near=near)
    free = cluster.free_local()
    lendable = int(free.sum()) - int(sum(free[e] for e in exclude))
    if amount > lendable:
        assert plan is None
        return
    assert plan is not None
    # Exact amount, no excluded lenders, no lender over its free memory,
    # no duplicate lenders.
    assert sum(mb for _, mb in plan) == amount
    lenders = [l for l, _ in plan]
    assert len(set(lenders)) == len(lenders)
    for lender, mb in plan:
        assert lender not in exclude
        assert 0 < mb <= free[lender]


@given(
    demands=st.dictionaries(st.integers(0, 11), st.integers(1, 200_000),
                            min_size=1, max_size=5),
    strategy=st.sampled_from([MOST_FREE, NEAREST]),
)
@settings(max_examples=100, deadline=None)
def test_split_borrow_properties(demands, strategy):
    cluster = fresh_cluster()
    pool = MemoryPool(cluster, strategy=strategy)
    plans = pool.split_borrow(dict(demands))
    free = cluster.free_local()
    if strategy == MOST_FREE:
        want = ref.split_borrow_ref(free, demands)
    else:
        want = nearest_split_ref(cluster, free, demands)
    # A None is the greedy walk's answer, not proof that no split exists
    # (see test_split_borrow_greedy_misses_a_feasible_split).
    assert plans == want
    if plans is None:
        return
    granted = {}
    for node, plan in plans.items():
        assert sum(mb for _, mb in plan) == demands[node]
        for lender, mb in plan:
            assert lender != node
            granted[lender] = granted.get(lender, 0) + mb
    for lender, mb in granted.items():
        assert mb <= free[lender]


def test_split_borrow_greedy_misses_a_feasible_split():
    """The shared most-free carve is greedy and can fail where a split
    exists.  Free [10, 10, 10, 0] GB and demands {0: 12, 1: 12, 2: 6} GB
    have one: 2 <- 3 + 3 from nodes 0 and 1, 0 <- 7 + 5 from nodes 1
    and 2, 1 <- 7 + 5 from nodes 0 and 2.  The carve gives node 0 all of
    node 1, node 1 all of node 0, and leaves node 2 only itself.  This
    pins the known gap: changing the carve changes simulation outputs.
    """
    gb = 1024
    cluster = Cluster(SystemConfig(n_nodes=4, normal_mem_gb=10,
                                   large_mem_gb=10, frac_large_nodes=0.0))
    cluster.apply(0, JobAllocation(nodes=[3], local_mb={3: 10 * gb}))
    assert cluster.free_local().tolist() == [10 * gb] * 3 + [0]
    demands = {0: 12 * gb, 1: 12 * gb, 2: 6 * gb}
    split = {2: {0: 3 * gb, 1: 3 * gb}, 0: {1: 7 * gb, 2: 5 * gb},
             1: {0: 7 * gb, 2: 5 * gb}}
    for node, plan in split.items():
        assert sum(plan.values()) == demands[node] and node not in plan
    for lender in range(3):
        lent = sum(plan.get(lender, 0) for plan in split.values())
        assert lent <= cluster.free_local()[lender]
    assert MemoryPool(cluster).split_borrow(demands) is None
    assert ref.split_borrow_ref(cluster.free_local(), demands) is None


@given(
    n_running=st.integers(0, 6),
    blocked_nodes=st.integers(1, 12),
    blocked_mem=st.integers(1024, 200_000),
)
@settings(max_examples=80, deadline=None)
def test_shadow_time_monotone_in_demand(n_running, blocked_nodes, blocked_mem):
    """A strictly larger request never gets an earlier reservation."""
    cluster = fresh_cluster()
    running = []
    rng = np.random.default_rng(n_running)
    for i in range(n_running):
        node = i * 2
        if cluster.busy[node]:
            continue
        mb = int(rng.integers(1000, 60_000))
        alloc = JobAllocation(nodes=[node], local_mb={node: mb})
        cluster.apply(i, alloc)
        job = make_job(jid=i, n_nodes=1, runtime=500.0 + 100 * i,
                       walltime=1000.0 + 100 * i, request_mb=mb)
        job.start_time = 0.0
        running.append(job)
    small = make_job(jid=100, n_nodes=blocked_nodes, request_mb=blocked_mem)
    big = make_job(jid=101, n_nodes=blocked_nodes,
                   request_mb=blocked_mem * 2)
    t_small = shadow_time(small, cluster, running, now=10.0,
                          disaggregated=True)
    t_big = shadow_time(big, cluster, running, now=10.0, disaggregated=True)
    assert t_big >= t_small
