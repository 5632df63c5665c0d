"""Contention/slowdown model."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.core.config import SystemConfig
from repro.core.errors import AllocationError
from repro.slowdown.model import (
    MAX_SLOWDOWN,
    ContentionModel,
    NullContentionModel,
    lender_rows,
)
from repro.slowdown.profiles import AppProfile

import reference_orders as ref
from conftest import make_job

LOW_SENS = AppProfile("low", bw_demand_gbps=1.0, remote_sensitivity=0.05,
                      contention_sensitivity=0.1, read_write_ratio=1.0,
                      typical_nodes=1, typical_runtime=100.0)
HIGH_SENS = AppProfile("high", bw_demand_gbps=500.0, remote_sensitivity=0.6,
                       contention_sensitivity=1.0, read_write_ratio=1.0,
                       typical_nodes=1, typical_runtime=100.0)


@pytest.fixture
def cluster():
    return Cluster(SystemConfig(n_nodes=8, normal_mem_gb=64, frac_large_nodes=0.0))


def run_with_remote(cluster, jid, profile_idx, local, remote, node=0, lender=7):
    alloc = JobAllocation(nodes=[node], local_mb={node: local})
    if remote:
        alloc.remote_mb = {node: {lender: remote}}
    cluster.apply(jid, alloc)
    job = make_job(jid=jid, request_mb=local + remote, profile=profile_idx)
    return job


def test_all_local_is_unit_slowdown(cluster):
    model = ContentionModel([LOW_SENS, HIGH_SENS])
    job = run_with_remote(cluster, 1, 1, 10000, 0)
    assert model.slowdown(job, cluster, {1: job}) == 1.0


def test_unallocated_job_is_unit(cluster):
    model = ContentionModel([LOW_SENS])
    job = make_job(jid=9)
    assert model.slowdown(job, cluster, {}) == 1.0


MID_SENS = AppProfile("mid", bw_demand_gbps=10.0, remote_sensitivity=0.6,
                      contention_sensitivity=1.0, read_write_ratio=1.0,
                      typical_nodes=1, typical_runtime=100.0)


def test_remote_fraction_increases_slowdown(cluster):
    """Below lender-bandwidth saturation the slowdown is sens * rf."""
    model = ContentionModel([MID_SENS])
    job = run_with_remote(cluster, 1, 0, 30000, 10000)  # rf = 0.25
    jobs = {1: job}
    s = model.slowdown(job, cluster, jobs)
    # 10 GB/s * 0.25 = 2.5 GB/s on the lender: no oversubscription.
    assert s == pytest.approx(1.0 + 0.6 * 0.25)


def test_higher_sensitivity_slower(cluster):
    model = ContentionModel([LOW_SENS, HIGH_SENS])
    j_low = run_with_remote(cluster, 1, 0, 30000, 10000, node=0, lender=7)
    j_high = run_with_remote(cluster, 2, 1, 30000, 10000, node=1, lender=6)
    jobs = {1: j_low, 2: j_high}
    assert model.slowdown(j_high, cluster, jobs) > model.slowdown(j_low, cluster, jobs)


def test_contention_from_shared_lender(cluster):
    """Oversubscribing a lender's bandwidth adds a contention penalty."""
    model = ContentionModel([HIGH_SENS], node_bw_gbps=100.0)
    j1 = run_with_remote(cluster, 1, 0, 30000, 30000, node=0, lender=7)
    solo = model.slowdown(j1, cluster, {1: j1})
    j2 = run_with_remote(cluster, 2, 0, 30000, 30000, node=1, lender=7)
    shared = model.slowdown(j1, cluster, {1: j1, 2: j2})
    assert shared > solo


def test_slowdown_capped(cluster):
    crazy = AppProfile("crazy", 1e6, 10.0, 10.0, 1.0, 1, 1.0)
    model = ContentionModel([crazy], node_bw_gbps=1.0)
    job = run_with_remote(cluster, 1, 0, 1000, 60000)
    assert model.slowdown(job, cluster, {1: job}) == MAX_SLOWDOWN


def test_affected_jobs_covers_borrowers_and_hosts(cluster):
    model = ContentionModel([LOW_SENS])
    job = run_with_remote(cluster, 1, 0, 30000, 10000, node=0, lender=7)
    assert model.affected_jobs(cluster, [7]) == {1}
    assert model.affected_jobs(cluster, [0]) == {1}
    assert model.affected_jobs(cluster, [3]) == set()


N_LAYOUT_NODES = 16


@st.composite
def _borrow_layout(draw):
    """Up to five jobs on disjoint nodes of a 16-node torus, each
    borrowing from random lenders (other jobs' compute nodes included),
    priced with random profiles, a distance penalty, and a link
    bandwidth low enough that shared lenders are oversubscribed."""
    cluster = Cluster(SystemConfig(n_nodes=N_LAYOUT_NODES, normal_mem_gb=64,
                                   frac_large_nodes=0.0))
    profiles = [
        AppProfile(f"p{i}", bw_demand_gbps=draw(st.floats(0.5, 200.0)),
                   remote_sensitivity=draw(st.floats(0.01, 2.0)),
                   contention_sensitivity=draw(st.floats(0.01, 3.0)),
                   read_write_ratio=1.0, typical_nodes=1,
                   typical_runtime=100.0)
        for i in range(3)
    ]
    model = ContentionModel(
        profiles, node_bw_gbps=draw(st.floats(0.5, 20.0)),
        distance_penalty=draw(st.floats(0.01, 2.0)),
    )
    model.attach(cluster)
    order = draw(st.permutations(range(N_LAYOUT_NODES)))
    jobs = {}
    for jid in range(draw(st.integers(1, 5))):
        nodes = order[3 * jid:3 * jid + draw(st.integers(1, 3))]
        local = {node: draw(st.integers(1, 16384)) for node in nodes}
        remote = {}
        for node in nodes:
            lenders = draw(st.lists(
                st.sampled_from([n for n in range(N_LAYOUT_NODES)
                                 if n != node]),
                max_size=3, unique=True))
            if lenders:
                remote[node] = {lender: draw(st.integers(1, 8192))
                                for lender in lenders}
        try:
            cluster.apply(jid, JobAllocation(nodes=list(nodes),
                                             local_mb=local, remote_mb=remote))
        except AllocationError:
            continue
        jobs[jid] = make_job(jid=jid, n_nodes=len(nodes),
                             profile=draw(st.integers(0, 2)))
    return cluster, model, jobs


@given(layout=_borrow_layout())
@settings(max_examples=150, deadline=None)
def test_one_walk_matches_two_walk_reference_bit_for_bit(layout):
    """The slowdown and its breakdown from one lender walk equal the
    two separate walks of ``reference_orders`` in every bit: the
    slowdown multiplies ``rs·rf·(1+cs·C)·d`` left to right, the
    breakdown groups ``base = rs·rf·d`` first, and the two may differ
    in the last bit when ``d != 1`` and ``C > 0``.  The walk reads each
    lender's demand once."""
    cluster, model, jobs = layout
    for job in jobs.values():
        n_lenders = len(list(cluster.allocations[job.jid].lenders()))
        reads = model.demand_hits + model.demand_misses
        bd = {}
        s = model.slowdown(job, cluster, jobs, bd)
        assert model.demand_hits + model.demand_misses == reads + n_lenders
        assert s.hex() == ref.slowdown_ref(model, job, cluster, jobs).hex()
        assert model.slowdown(job, cluster, jobs).hex() == s.hex()
        want = ref.slowdown_breakdown_ref(model, job, cluster, jobs)
        bd["lenders"] = lender_rows(bd["lenders"])
        assert json.dumps(bd) == json.dumps(want)


def test_null_model(cluster):
    model = NullContentionModel()
    job = run_with_remote(cluster, 1, 0, 1000, 50000)
    bd = {}
    assert model.slowdown(job, cluster, {1: job}, bd) == 1.0
    assert bd == {}  # nothing is priced, so there is nothing to split
    assert model.affected_jobs(cluster, [7]) == set()


def test_invalid_bandwidth_rejected():
    with pytest.raises(ValueError):
        ContentionModel([LOW_SENS], node_bw_gbps=0.0)
