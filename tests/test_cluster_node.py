"""Per-node state, read from the cluster's columns."""

import pytest

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster


@pytest.fixture
def cluster(small_config):
    return Cluster(small_config)


def test_capacity_by_class(cluster, small_config):
    assert cluster.capacity_mb[0] == small_config.large_mem_mb
    assert cluster.is_large[0]
    assert cluster.capacity_mb[31] == small_config.normal_mem_mb
    assert not cluster.is_large[31]


def test_idle_node_state(cluster):
    assert not cluster.busy[5]
    assert cluster.job_on_node[5] == -1
    assert cluster.lent_mb[5] == 0
    assert cluster.free_local()[5] == cluster.capacity_mb[5]
    assert not cluster.is_memory_node()[5]


def test_node_reflects_allocation(cluster):
    alloc = JobAllocation(nodes=[10], local_mb={10: 5000},
                          remote_mb={10: {0: 3000}})
    cluster.apply(7, alloc)
    assert cluster.busy[10]
    assert cluster.job_on_node[10] == 7
    assert cluster.local_used_mb[10] == 5000
    assert cluster.remote_held_mb[10] == 3000
    assert cluster.lent_mb[0] == 3000
    assert cluster.free_local()[0] == cluster.capacity_mb[0] - 3000
    assert not cluster.busy[0]


def test_memory_node_property(cluster, small_config):
    cap = small_config.normal_mem_mb
    alloc = JobAllocation(nodes=[0], local_mb={0: 100},
                          remote_mb={0: {31: cap // 2 + 1}})
    cluster.apply(1, alloc)
    assert cluster.is_memory_node()[31]
    cluster.release(1)
    assert not cluster.is_memory_node()[31]
