"""Node view over the cluster's columnar ledgers."""

import pytest

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.core.errors import AllocationError


@pytest.fixture
def cluster(small_config):
    return Cluster(small_config)


def test_capacity_by_class(cluster, small_config):
    assert cluster.node(0).capacity_mb == small_config.large_mem_mb
    assert cluster.node(0).is_large
    assert cluster.node(31).capacity_mb == small_config.normal_mem_mb
    assert not cluster.node(31).is_large


def test_idle_node_state(cluster):
    node = cluster.node(5)
    assert not node.busy
    assert node.running_job is None
    assert node.lent_mb == 0
    assert node.free_local_mb == node.capacity_mb
    assert not node.is_memory_node


def test_node_reflects_allocation(cluster):
    alloc = JobAllocation(nodes=[10], local_mb={10: 5000},
                          remote_mb={10: {0: 3000}})
    cluster.apply(7, alloc)
    compute = cluster.node(10)
    assert compute.busy
    assert compute.running_job == 7
    assert compute.local_used_mb == 5000
    lender = cluster.node(0)
    assert lender.lent_mb == 3000
    assert lender.free_local_mb == lender.capacity_mb - 3000
    assert not lender.busy


def test_memory_node_property(cluster, small_config):
    cap = small_config.normal_mem_mb
    alloc = JobAllocation(nodes=[0], local_mb={0: 100},
                          remote_mb={0: {31: cap // 2 + 1}})
    cluster.apply(1, alloc)
    assert cluster.node(31).is_memory_node
    cluster.release(1)
    assert not cluster.node(31).is_memory_node


def test_view_is_live_not_snapshot(cluster):
    node = cluster.node(3)
    before = node.free_local_mb
    cluster.apply(1, JobAllocation(nodes=[3], local_mb={3: 1234}))
    assert node.free_local_mb == before - 1234


# ----------------------------------------------------------------------
# Writes through the view land in the columns (and vice versa)
# ----------------------------------------------------------------------
def test_view_write_updates_columns_and_aggregates(cluster):
    node = cluster.node(4)
    node.local_used_mb = 2048
    assert int(cluster.local_used_mb[4]) == 2048
    assert int(cluster.columns.local_used_mb[4]) == 2048
    assert node.free_local_mb == node.capacity_mb - 2048
    assert cluster.local_used_total == 2048
    # derived columns stay coherent; the full allocation cross-check
    # only applies once the funnel write is reverted (no record backs it)
    cluster.columns.validate()
    node.local_used_mb = 0
    cluster.check_invariants()


def test_column_write_is_visible_through_view(cluster):
    node = cluster.node(4)
    cluster.set_local_used(4, 512)
    assert node.local_used_mb == 512
    cluster.set_local_used(4, 0)
    assert node.local_used_mb == 0


def test_view_lent_write_flips_memory_node(cluster, small_config):
    node = cluster.node(31)
    node.lent_mb = small_config.normal_mem_mb // 2 + 1
    assert node.is_memory_node
    assert cluster.memory_node_count == 1
    cluster.columns.validate()
    node.lent_mb = 0
    assert not node.is_memory_node
    assert cluster.memory_node_count == 0
    cluster.check_invariants()


def test_view_write_beyond_capacity_rejected(cluster, small_config):
    node = cluster.node(31)
    with pytest.raises(AllocationError):
        node.local_used_mb = small_config.normal_mem_mb + 1
    with pytest.raises(AllocationError):
        node.lent_mb = -1
    # rejected writes leave the columns untouched
    assert node.local_used_mb == 0 and node.lent_mb == 0
    cluster.check_invariants()


def test_view_identity_is_structural(cluster):
    assert cluster.node(3) == cluster.node(3)
    assert cluster.node(3) != cluster.node(4)
    assert hash(cluster.node(3)) == hash(cluster.node(3))
    with pytest.raises(AttributeError):
        cluster.node(3).index = 5
