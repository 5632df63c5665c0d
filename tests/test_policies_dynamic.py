"""Dynamic disaggregated policy: Decider/Actuator resizing and OOM."""

import numpy as np
import pytest

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.core.config import SystemConfig
from repro.core.state import capture, restore
from repro.jobs.usage import UsageTrace
from repro.policies.base import UpdateOutcome
from repro.policies.dynamic import DynamicDisaggregatedPolicy

from conftest import make_job


@pytest.fixture
def cluster(small_config):
    return Cluster(small_config)


@pytest.fixture
def policy(cluster):
    return DynamicDisaggregatedPolicy(cluster)


def start(policy, cluster, job):
    alloc = policy.plan(job)
    assert alloc is not None
    cluster.apply(job.jid, alloc)
    return alloc


def varying_job(jid=1, lo=10_000, hi=40_000, request=40_000, n_nodes=1):
    job = make_job(jid=jid, n_nodes=n_nodes, runtime=1000.0, request_mb=request)
    job.usage = UsageTrace([0.0, 500.0], [lo, hi])
    return job


def test_initial_allocation_is_request(policy, cluster):
    job = varying_job()
    alloc = start(policy, cluster, job)
    assert alloc.total_on(alloc.nodes[0]) == 40_000


def test_shrink_to_window_demand(policy, cluster):
    job = varying_job()
    start(policy, cluster, job)
    out = policy.update(job, progress=0.0, window=100.0)
    assert out.resized and out.freed_mb == 30_000
    alloc = cluster.allocations[job.jid]
    assert alloc.total_on(alloc.nodes[0]) == 10_000
    cluster.check_invariants()


def test_window_spanning_peak_keeps_peak(policy, cluster):
    job = varying_job()
    start(policy, cluster, job)
    out = policy.update(job, progress=450.0, window=100.0)
    # Window [450, 550] includes the 40k phase: no shrink.
    assert out.freed_mb == 0


def test_grow_back_after_shrink(policy, cluster):
    job = varying_job()
    start(policy, cluster, job)
    policy.update(job, 0.0, 100.0)  # shrink to 10k
    out = policy.update(job, 450.0, 100.0)  # phase 2 demands 40k
    assert out.grown_mb == 30_000
    alloc = cluster.allocations[job.jid]
    assert alloc.total_on(alloc.nodes[0]) == 40_000
    cluster.check_invariants()


def test_shrink_releases_remote_before_local(policy, cluster):
    job = varying_job(lo=50_000, hi=150_000, request=150_000)
    start(policy, cluster, job)
    alloc = cluster.allocations[job.jid]
    assert alloc.total_remote() > 0
    policy.update(job, 0.0, 100.0)  # demand 50k fits locally
    assert alloc.total_remote() == 0
    assert alloc.total_local() == 50_000


def test_grow_prefers_local(policy, cluster):
    job = varying_job(lo=10_000, hi=60_000, request=60_000)
    start(policy, cluster, job)
    policy.update(job, 0.0, 100.0)
    policy.update(job, 450.0, 100.0)
    alloc = cluster.allocations[job.jid]
    # 60k fits entirely in the chosen node's local memory.
    assert alloc.total_remote() == 0


def test_headroom_keeps_margin(cluster):
    policy = DynamicDisaggregatedPolicy(cluster, headroom_mb=1024)
    job = varying_job()
    start(policy, cluster, job)
    policy.update(job, 0.0, 100.0)
    alloc = cluster.allocations[job.jid]
    assert alloc.total_on(alloc.nodes[0]) == 11_024


def test_oom_when_pool_exhausted(cluster):
    policy = DynamicDisaggregatedPolicy(cluster)
    total = cluster.total_capacity_mb()
    # Job A grows to hold almost everything.
    a = varying_job(jid=1, lo=1000, hi=total - 70_000, request=total - 70_000)
    start(policy, cluster, a)
    # Job B starts small then needs more than what remains (65 GB free).
    b = varying_job(jid=2, lo=1000, hi=75_000, request=5_000)
    start(policy, cluster, b)
    out = policy.update(b, 450.0, 100.0)
    assert out.oom


def test_pinned_jobs_not_resized(cluster):
    policy = DynamicDisaggregatedPolicy(cluster, max_oom_failures=2)
    job = varying_job()
    job.restarts = 2  # reached the failure cap
    start(policy, cluster, job)
    assert policy.is_pinned(job)
    out = policy.update(job, 0.0, 100.0)
    assert not out.resized and out.freed_mb == 0
    policy.on_finish(job)
    assert not policy.is_pinned(job)


def test_update_unallocated_job_noop(policy):
    out = policy.update(varying_job(), 0.0, 100.0)
    assert not out.resized and not out.oom


def test_constructor_validation(cluster):
    with pytest.raises(ValueError):
        DynamicDisaggregatedPolicy(cluster, headroom_mb=-1)
    with pytest.raises(ValueError):
        DynamicDisaggregatedPolicy(cluster, max_oom_failures=-1)


def test_multi_node_update_consistent(policy, cluster):
    job = varying_job(n_nodes=4)
    start(policy, cluster, job)
    policy.update(job, 0.0, 100.0)
    alloc = cluster.allocations[job.jid]
    for n in alloc.nodes:
        assert alloc.total_on(n) == 10_000
    cluster.check_invariants()


# ----------------------------------------------------------------------
# Resize mark: an unchanged Monitor reading skips Decider and Actuator
# ----------------------------------------------------------------------
def _marked_job(policy, cluster, mb, n_nodes=2):
    """A flat-usage job whose allocation has been sized to ``mb``."""
    job = make_job(jid=1, n_nodes=n_nodes, request_mb=mb)
    start(policy, cluster, job)
    policy.update(job, 0.0, 100.0)
    alloc = cluster.allocations[job.jid]
    assert alloc.sized_for_mb == mb
    return job, alloc


def _ledgers(cluster):
    return (cluster.local_used_mb.tolist(), cluster.lent_mb.tolist(),
            cluster.remote_held_mb.tolist(), cluster.generation)


def _spy_decide(policy, monkeypatch):
    calls = []
    real = policy._decide

    def spy(*args):
        calls.append(args[0].jid)
        return real(*args)

    monkeypatch.setattr(policy, "_decide", spy)
    return calls


def test_unchanged_reading_skips_decider(policy, cluster, monkeypatch):
    job = varying_job(n_nodes=2)
    start(policy, cluster, job)
    policy.update(job, 0.0, 100.0)  # shrink to 10k and mark
    alloc = cluster.allocations[job.jid]
    assert alloc.sized_for_mb == 10_000
    before = _ledgers(cluster)
    calls = _spy_decide(policy, monkeypatch)
    out = policy.update(job, 100.0, 100.0)  # still reads 10k
    assert calls == []
    assert out == UpdateOutcome()
    assert _ledgers(cluster) == before
    assert alloc.sized_for_mb == 10_000
    # A changed reading runs the Decider again.
    out = policy.update(job, 450.0, 100.0)
    assert calls == [job.jid] and out.grown_mb == 2 * 30_000
    assert alloc.sized_for_mb == 40_000


def test_skipped_update_still_runs_the_monitor(cluster, monkeypatch):
    # Noise too small to move a 10 GB reading: readings repeat, yet every
    # update must still draw from the Monitor's RNG.
    policy = DynamicDisaggregatedPolicy(cluster, monitor_noise=1e-9,
                                        monitor_seed=5)
    job, alloc = _marked_job(policy, cluster, 10_000)
    calls = _spy_decide(policy, monkeypatch)
    policy.update(job, 100.0, 100.0)
    assert calls == []
    reference = np.random.default_rng(5)
    for _ in range(2):
        reference.normal(0.0, 1e-9)
    assert policy._monitor_rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize(
    "mutation", ["grow_local", "shrink_local", "add_remote", "remove_remote"]
)
def test_direct_cluster_mutation_clears_mark(policy, cluster, mutation):
    # 150 GB per node exceeds every node's DRAM, so the job borrows.
    mb = 150_000 if mutation == "remove_remote" else 10_000
    job, alloc = _marked_job(policy, cluster, mb)
    node = alloc.nodes[0]
    if mutation == "remove_remote":
        lender = next(iter(alloc.remote_mb[node]))
        cluster.remove_remote(job.jid, node, lender, 512)
    elif mutation == "add_remote":
        lender = next(n for n in range(cluster.n_nodes) if not alloc.has_node(n))
        cluster.add_remote(job.jid, node, lender, 512)
    else:
        getattr(cluster, mutation)(job.jid, node, 512)
    assert alloc.sized_for_mb is None
    out = policy.update(job, 100.0, 100.0)  # same reading as before
    assert out.resized
    assert [alloc.total_on(n) for n in alloc.nodes] == [mb] * len(alloc.nodes)
    assert alloc.sized_for_mb == mb
    cluster.check_invariants()


def test_resize_local_clears_mark(policy, cluster):
    job, alloc = _marked_job(policy, cluster, 10_000)
    cluster.resize_local(job.jid, alloc.nodes, [512, -512])
    assert alloc.sized_for_mb is None
    policy.update(job, 100.0, 100.0)
    assert [alloc.total_on(n) for n in alloc.nodes] == [10_000, 10_000]


def test_oom_update_leaves_no_mark(cluster):
    policy = DynamicDisaggregatedPolicy(cluster)
    total = cluster.total_capacity_mb()
    a = varying_job(jid=1, lo=1000, hi=total - 70_000, request=total - 70_000)
    start(policy, cluster, a)
    b = varying_job(jid=2, lo=1000, hi=75_000, request=5_000)
    start(policy, cluster, b)
    policy.update(b, 0.0, 100.0)
    alloc = cluster.allocations[b.jid]
    assert alloc.sized_for_mb == 1000
    out = policy.update(b, 450.0, 100.0)
    assert out.oom
    assert alloc.sized_for_mb is None


def test_restored_allocation_keeps_its_mark_and_restarted_starts_unmarked(
    policy, cluster, monkeypatch
):
    job, alloc = _marked_job(policy, cluster, 10_000)
    # A fork rollback restores the record in place, mark and maps alike,
    # so the mark still describes what every node holds.
    cow = cluster.arm_cow()
    state = capture(cluster)
    cluster.resize_local(job.jid, alloc.nodes, [512, -512])
    assert alloc.sized_for_mb is None
    cow.rollback()
    restore(cluster, state)
    assert cluster.allocations[job.jid] is alloc
    assert alloc.sized_for_mb == 10_000
    assert [alloc.total_on(n) for n in alloc.nodes] == [10_000, 10_000]
    cluster.check_invariants()
    cluster.disarm_cow()
    # A restarted job gets a fresh record, and its first update decides.
    cluster.release(job.jid)
    job.restarts += 1
    again = start(policy, cluster, job)
    assert again.sized_for_mb is None
    calls = _spy_decide(policy, monkeypatch)
    policy.update(job, 0.0, 100.0)
    assert calls == [job.jid]
    assert again.sized_for_mb == 10_000


def test_unsealed_mark_fails_conservation():
    alloc = JobAllocation(nodes=[0], local_mb={0: 1024})
    alloc.sized_for_mb = 1024
    with pytest.raises(ValueError):
        alloc.check_conservation()
