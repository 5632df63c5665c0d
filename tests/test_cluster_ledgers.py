"""Cluster memory ledgers: apply/release, resizing, invariants."""

import numpy as np
import pytest

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.core.config import SystemConfig
from repro.core.errors import AllocationError


@pytest.fixture
def cluster(small_config):
    return Cluster(small_config)


def simple_alloc(nodes, local, remote=None):
    alloc = JobAllocation(nodes=list(nodes))
    for n in nodes:
        alloc.local_mb[n] = local
    if remote:
        alloc.remote_mb.update(remote)
    return alloc


def test_layout_large_nodes_first(cluster, small_config):
    assert cluster.is_large[: small_config.n_large_nodes].all()
    assert not cluster.is_large[small_config.n_large_nodes :].any()
    assert cluster.capacity_mb[0] == small_config.large_mem_mb
    assert cluster.capacity_mb[-1] == small_config.normal_mem_mb


def test_apply_sets_busy_and_ledgers(cluster):
    cluster.apply(1, simple_alloc([10, 11], 4096))
    assert cluster.busy[10] and cluster.busy[11]
    assert cluster.job_on_node[10] == 1
    assert cluster.local_used_mb[10] == 4096
    cluster.check_invariants()


def test_apply_with_remote_updates_lender(cluster):
    alloc = simple_alloc([10], 65536, remote={10: {0: 8192}})
    cluster.apply(2, alloc)
    assert cluster.lent_mb[0] == 8192
    assert cluster.borrowers_of(0) == {2: 8192}
    assert not cluster.busy[0]  # lenders keep their CPUs
    cluster.check_invariants()


def test_release_restores_everything(cluster):
    before_free = cluster.free_local().copy()
    alloc = simple_alloc([10, 11], 30000, remote={10: {0: 5000}, 11: {1: 600}})
    cluster.apply(3, alloc)
    cluster.release(3)
    assert np.array_equal(cluster.free_local(), before_free)
    assert not cluster.busy.any()
    assert cluster.borrowers_of(0) == {}
    cluster.check_invariants()


def test_double_apply_rejected(cluster):
    cluster.apply(1, simple_alloc([5], 1000))
    with pytest.raises(AllocationError):
        cluster.apply(1, simple_alloc([6], 1000))


def test_apply_on_busy_node_rejected(cluster):
    cluster.apply(1, simple_alloc([5], 1000))
    with pytest.raises(AllocationError):
        cluster.apply(2, simple_alloc([5], 1000))


def test_apply_beyond_capacity_rejected(cluster, small_config):
    with pytest.raises(AllocationError):
        cluster.apply(1, simple_alloc([31], small_config.normal_mem_mb + 1))


def test_lender_capacity_enforced(cluster, small_config):
    big = small_config.normal_mem_mb
    # Node 31 can lend at most its capacity.
    alloc = simple_alloc([10], 1000, remote={10: {31: big + 1}})
    with pytest.raises(AllocationError):
        cluster.apply(1, alloc)


def test_self_lending_rejected(cluster):
    alloc = simple_alloc([10], 1000, remote={10: {10: 512}})
    with pytest.raises(AllocationError):
        cluster.apply(1, alloc)


def test_empty_borrow_map_rejected(cluster):
    """A node that borrows nothing has no remote map at all."""
    alloc = simple_alloc([10, 11], 1000, remote={10: {0: 512}, 11: {}})
    with pytest.raises(AllocationError, match="empty remote map on node 11"):
        cluster.apply(1, alloc)
    assert not cluster.busy.any() and not cluster.lent_mb.any()


def test_empty_borrow_map_fails_the_invariant_check(cluster):
    cluster.apply(1, simple_alloc([10, 11], 1000, remote={10: {0: 512}}))
    cluster.check_invariants()
    cluster.allocations[1].remote_mb[11] = {}
    with pytest.raises(AllocationError,
                       match="job 1: empty remote_mb map on node 11"):
        cluster.check_invariants()


def test_lending_from_own_other_node_allowed(cluster):
    """A job's big node may lend to its small node (cross-node access)."""
    alloc = JobAllocation(nodes=[0, 31])  # large + normal
    alloc.local_mb = {0: 65536, 31: 65536}
    alloc.remote_mb = {31: {0: 30000}}  # node 31 borrows from node 0
    cluster.apply(1, alloc)
    assert cluster.lent_mb[0] == 30000
    cluster.check_invariants()


def test_compute_node_lender_must_cover_local_plus_lent(cluster, small_config):
    cap = small_config.large_mem_mb
    alloc = JobAllocation(nodes=[0, 31])
    alloc.local_mb = {0: cap - 100, 31: 1000}
    alloc.remote_mb = {31: {0: 200}}  # only 100 MB lendable on node 0
    with pytest.raises(AllocationError):
        cluster.apply(1, alloc)


def test_release_unknown_job_rejected(cluster):
    with pytest.raises(AllocationError):
        cluster.release(99)


# ----------------------------------------------------------------------
# Incremental resizing (dynamic policy primitives)
# ----------------------------------------------------------------------
def test_grow_and_shrink_local(cluster):
    cluster.apply(1, simple_alloc([10], 1000))
    cluster.grow_local(1, 10, 500)
    assert cluster.local_used_mb[10] == 1500
    cluster.shrink_local(1, 10, 1500)
    assert cluster.local_used_mb[10] == 0
    cluster.check_invariants()


def test_grow_local_beyond_free_rejected(cluster, small_config):
    cluster.apply(1, simple_alloc([31], small_config.normal_mem_mb))
    with pytest.raises(AllocationError):
        cluster.grow_local(1, 31, 1)


def test_shrink_local_more_than_held_rejected(cluster):
    cluster.apply(1, simple_alloc([10], 1000))
    with pytest.raises(AllocationError):
        cluster.shrink_local(1, 10, 1001)


def test_add_remove_remote(cluster):
    cluster.apply(1, simple_alloc([10], 1000))
    cluster.add_remote(1, 10, 0, 2048)
    assert cluster.lent_mb[0] == 2048
    cluster.remove_remote(1, 10, 0, 2048)
    assert cluster.lent_mb[0] == 0
    assert cluster.allocations[1].remote_mb == {}
    cluster.check_invariants()


def test_add_remote_to_self_rejected(cluster):
    cluster.apply(1, simple_alloc([10], 1000))
    with pytest.raises(AllocationError):
        cluster.add_remote(1, 10, 10, 100)


def test_remove_remote_more_than_borrowed_rejected(cluster):
    cluster.apply(1, simple_alloc([10], 1000))
    cluster.add_remote(1, 10, 0, 100)
    with pytest.raises(AllocationError):
        cluster.remove_remote(1, 10, 0, 200)


def test_resize_on_foreign_node_rejected(cluster):
    cluster.apply(1, simple_alloc([10], 1000))
    with pytest.raises(AllocationError):
        cluster.grow_local(1, 11, 100)


# ----------------------------------------------------------------------
# Memory-node rule and masks
# ----------------------------------------------------------------------
def test_memory_node_rule(cluster, small_config):
    """Nodes lending more than half their capacity cannot start jobs."""
    cap = small_config.normal_mem_mb
    cluster.apply(1, simple_alloc([0], 1000, remote={0: {31: cap // 2 + 1}}))
    assert cluster.is_memory_node()[31]
    assert not cluster.startable()[31]
    # Exactly half is still startable.
    cluster.release(1)
    cluster.apply(2, simple_alloc([0], 1000, remote={0: {31: cap // 2}}))
    assert not cluster.is_memory_node()[31]
    assert cluster.startable()[31]


def test_utilization_metrics(cluster, small_config):
    assert cluster.busy_count == 0 and cluster.total_allocated_mb() == 0
    cluster.apply(1, simple_alloc([0, 1], 1024))
    assert cluster.busy_count == 2
    assert cluster.total_allocated_mb() == 2048
    assert cluster.free_local_total == cluster.total_capacity_mb() - 2048
