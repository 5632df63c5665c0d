"""Lender selection in the disaggregated memory pool."""

import pytest

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.cluster.memorypool import MOST_FREE, ROUND_ROBIN, MemoryPool
from repro.core.config import SystemConfig


@pytest.fixture
def cluster():
    return Cluster(SystemConfig(n_nodes=8, normal_mem_gb=64, large_mem_gb=128,
                                frac_large_nodes=0.25))


def test_unknown_strategy_rejected(cluster):
    with pytest.raises(ValueError):
        MemoryPool(cluster, strategy="magic")


def test_plan_borrow_prefers_most_free(cluster):
    pool = MemoryPool(cluster)
    plan = pool.plan_borrow(1000)
    assert plan is not None
    lender, mb = plan[0]
    # Large nodes (0, 1) have the most free memory.
    assert lender in (0, 1)
    assert mb == 1000


def test_plan_borrow_spans_lenders(cluster):
    pool = MemoryPool(cluster)
    large = 128 * 1024
    plan = pool.plan_borrow(large + 5000)
    assert plan is not None
    assert len(plan) == 2
    assert sum(mb for _, mb in plan) == large + 5000


def test_plan_borrow_excludes_nodes(cluster):
    pool = MemoryPool(cluster)
    plan = pool.plan_borrow(1000, exclude=[0, 1])
    assert all(lender not in (0, 1) for lender, _ in plan)


def test_plan_borrow_infeasible_returns_none(cluster):
    pool = MemoryPool(cluster)
    assert pool.plan_borrow(10**9) is None


def test_plan_borrow_zero_is_empty(cluster):
    assert MemoryPool(cluster).plan_borrow(0) == []


def test_plan_borrow_negative_rejected(cluster):
    with pytest.raises(ValueError):
        MemoryPool(cluster).plan_borrow(-5)


def test_round_robin_rotates(cluster):
    pool = MemoryPool(cluster, strategy=ROUND_ROBIN)
    first = pool.plan_borrow(100)[0][0]
    second = pool.plan_borrow(100)[0][0]
    assert first != second


def test_split_borrow_never_self_lends(cluster):
    pool = MemoryPool(cluster)
    plans = pool.split_borrow({2: 30000, 3: 30000})
    assert plans is not None
    for node, plan in plans.items():
        assert all(lender != node for lender, _ in plan)
        assert sum(mb for _, mb in plan) == 30000


def test_split_borrow_respects_reduce_free(cluster):
    pool = MemoryPool(cluster)
    cap = 64 * 1024
    # Every normal node's memory is reserved locally; only the two large
    # nodes can lend their surplus (64 GB each).
    reserved = {n: cap for n in range(8)}
    plans = pool.split_borrow({7: 100000}, reduce_free=reserved)
    assert plans is not None
    lenders = {lender for lender, _ in plans[7]}
    assert lenders <= {0, 1}


def test_split_borrow_infeasible(cluster):
    pool = MemoryPool(cluster)
    assert pool.split_borrow({0: 10**9}) is None


def test_split_borrow_shared_pool_not_double_promised(cluster):
    pool = MemoryPool(cluster)
    total_free = int(cluster.free_local().sum())
    # Two nodes together ask for slightly less than everything lendable.
    half = (total_free - 128 * 1024) // 2
    plans = pool.split_borrow({0: half, 1: half})
    assert plans is not None
    granted = {}
    for node, plan in plans.items():
        for lender, mb in plan:
            granted[lender] = granted.get(lender, 0) + mb
    free = cluster.free_local()
    for lender, mb in granted.items():
        assert mb <= free[lender]
