"""Unit tests for the struct-of-arrays node store (NodeColumns)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.cluster.columns import NodeColumns


@pytest.fixture
def cluster(small_config):
    return Cluster(small_config)


def test_cluster_attributes_alias_the_columns(cluster):
    c = cluster.columns
    assert cluster.capacity_mb is c.capacity_mb
    assert cluster.is_large is c.is_large
    assert cluster.local_used_mb is c.local_used_mb
    assert cluster.lent_mb is c.lent_mb
    assert cluster.remote_held_mb is c.remote_held_mb
    assert cluster.busy is c.busy
    assert cluster.job_on_node is c.job_on_node


def test_fresh_columns_are_idle(cluster):
    c = cluster.columns
    assert not c.busy.any()
    assert (c.job_on_node == -1).all()
    assert np.array_equal(c.free_local, c.capacity_mb)
    assert not c.memnode.any()
    c.validate()


def test_column_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        NodeColumns(np.zeros(4, dtype=np.int64), np.zeros(3, dtype=bool))


# ----------------------------------------------------------------------
# copy-on-write snapshot / rollback — the what-if fork primitive
# ----------------------------------------------------------------------
def test_snapshot_restore_round_trip(cluster):
    """Arm COW, apply and release allocations, roll back: the columns
    return to their state at arming, and only dirtied pages are written."""
    cluster.apply(1, JobAllocation(nodes=[2, 3], local_mb={2: 1024, 3: 512},
                                   remote_mb={2: {5: 2048}}))
    before = cluster.columns.content_hash()
    store = cluster.arm_cow(page_nodes=8)
    cluster.apply(2, JobAllocation(nodes=[17], local_mb={17: 4096}))
    cluster.release(1)
    assert cluster.columns.content_hash() != before
    # Nodes 2, 3 and 5 sit on page 0; node 17 on page 2.
    assert store.rollback() == 2
    assert cluster.columns.content_hash() == before
    cluster.columns.validate()


def _use_local(cluster, used):
    """Write ``{node: MB}`` to the local-used column through its funnel."""
    cluster._touch_local_many(np.array(list(used), dtype=np.int64),
                              np.array(list(used.values()), dtype=np.int64))


def test_snapshot_is_a_copy_not_a_view(cluster):
    """Saved pages are copies: a second fork over the same pages copies
    nothing new and still rolls back to the armed state."""
    before = cluster.columns.content_hash()
    store = cluster.arm_cow(page_nodes=8)
    _use_local(cluster, {0: 999})
    assert store.rollback() == 1
    copied = store.pages_copied
    _use_local(cluster, {0: 555, 1: 333})
    assert store.pages_copied == copied == 1
    assert store.rollback() == 1
    assert cluster.columns.content_hash() == before


def test_restore_writes_in_place_so_aliases_survive(cluster):
    local_alias = cluster.local_used_mb
    free_view = cluster.free_local()
    store = cluster.arm_cow()
    _use_local(cluster, {0: 777})
    assert int(free_view[0]) == int(cluster.capacity_mb[0]) - 777
    store.rollback()
    assert cluster.local_used_mb is local_alias
    assert local_alias is cluster.columns.local_used_mb
    assert int(local_alias[0]) == 0
    assert int(free_view[0]) == int(cluster.capacity_mb[0])


# ----------------------------------------------------------------------
# validate — derived-column drift detection
# ----------------------------------------------------------------------
def test_validate_catches_free_local_drift(cluster):
    cluster.columns.free_local[0] -= 1
    with pytest.raises(ValueError, match="free_local"):
        cluster.columns.validate()


def test_validate_catches_memnode_drift(cluster):
    cluster.columns.memnode[0] = True
    with pytest.raises(ValueError, match="memnode"):
        cluster.columns.validate()
