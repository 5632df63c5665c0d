"""Dynamic disaggregated policy: Decider/Actuator resizing and OOM."""

import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.cluster.allocation import JobAllocation
from repro.cluster.cluster import Cluster
from repro.cluster.memorypool import STRATEGIES, MemoryPool
from repro.core.config import SystemConfig
from repro.core.state import capture, restore
from repro.jobs.usage import UsageTrace
from repro.obs.provenance import ProvenanceLog
from repro.policies.base import NO_CHANGE, UpdateOutcome
from repro.policies.dynamic import DynamicDisaggregatedPolicy
from repro.scheduler.simulator import simulate
from repro.traces.pipeline import synthetic_workload

import reference_orders as ref
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


def _oom_mid_resize(strategy, per_node):
    """A four-node resize that runs out of lendable memory at its
    fourth node, through the bulk or the per-node reference Actuator.

    Job 2 runs on nodes 2-5; node 2 borrows 20000 MB from node 5, one
    of the job's own nodes.  Job 1 fills nodes 0, 1, 6 and 7 but for
    10500 MB.  The reading asks node 2 for half of what the others get:
    node 2 returns its borrow and shrinks, nodes 3 and 4 take their free
    DRAM and borrow, and node 5 finds 71644 MB left of the 79000 MB it
    needs, whatever the lender strategy.
    """
    cluster = Cluster(SystemConfig(n_nodes=8, normal_mem_gb=64,
                                   large_mem_gb=128, frac_large_nodes=0.25))
    large, normal = 128 * 1024, 64 * 1024
    cluster.apply(1, JobAllocation(nodes=[0, 1, 6, 7], local_mb={
        0: large - 3000, 1: large - 2000, 6: normal - 1000, 7: normal - 4500}))
    cluster.apply(2, JobAllocation(
        nodes=[2, 3, 4, 5], local_mb={2: normal, 3: 1000, 4: 1000, 5: 1000},
        remote_mb={2: {5: 20_000}}))
    prov = ProvenanceLog()
    cluster.add_demand_listener(lambda c, lenders: prov.emit(
        "demand_dirty", lenders=[int(lender) for lender in lenders]))
    policy = DynamicDisaggregatedPolicy(cluster)
    policy.pool = MemoryPool(cluster, strategy)
    policy.pool.provenance = prov
    if per_node:
        policy._actuate = lambda *args: ref.actuate_per_node(policy, *args)
    job = varying_job(jid=2, lo=1000, hi=80_000, request=1000, n_nodes=4)
    job.node_scale = (0.5, 1.0, 1.0, 1.0)
    alloc = cluster.allocations[2]
    out = policy.update(job, 450.0, 100.0)
    state = {
        "columns": cluster.columns.content_hash(),
        "aggregates": {name: getattr(cluster, name)
                       for name in cluster.recompute_aggregates()},
        "local_mb": list(alloc.local_mb.items()),
        "remote_mb": [(n, list(m.items())) for n, m in alloc.remote_mb.items()],
        "sealed": (alloc._total_local, alloc._total_remote,
                   list(alloc._remote_on.items()),
                   list(alloc._lender_mb.items())),
        "lender_jobs": [list(rec.items()) for rec in cluster.lender_jobs],
    }
    cluster.check_invariants()
    return out, state, prov.to_jsonl()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_oom_mid_resize_matches_per_node_actuator(strategy):
    """The bulk Actuator commits what it planned before the failed
    borrow, the failing node's local take included, exactly as the
    node-by-node Actuator leaves it: same ledgers, maps and orders,
    outcome, and provenance rows."""
    bulk = _oom_mid_resize(strategy, per_node=False)
    per_node = _oom_mid_resize(strategy, per_node=True)
    assert bulk == per_node
    out, state, rows = bulk
    assert out.oom
    # Nodes 3 and 4 borrowed, node 5 took its free DRAM and then failed.
    kinds = [(e["kind"], e["data"].get("near")) for e in map(json.loads,
                                                           rows.splitlines())]
    assert kinds == [("borrow_plan", 3), ("borrow_plan", 4),
                     ("borrow_fail", 5), ("demand_dirty", None)]
    assert out.freed_mb == 45_536
    # Node 5's local take (its free DRAM, which depends on where nodes 3
    # and 4 borrowed) is committed with the rest.
    assert 2 * 79_000 < out.grown_mb < 3 * 79_000
    assert state["local_mb"][3] == (5, out.grown_mb - 2 * 79_000 + 1000)
    assert dict(state["remote_mb"]).get(2) is None  # node 2 returned all


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
            cluster.remote_held_mb.tolist())


def _spy_touches(cluster, monkeypatch):
    """Names of the ledger write funnels called from now on: a skipped
    update that writes and then reverts leaves the ledgers equal, but
    not this list."""
    calls = []
    for name in ("_touch_local_many", "_touch_lent_many"):
        def spy(*args, _real=getattr(cluster, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cluster, name, spy)
    return calls


def _spy_decide(policy, monkeypatch):
    calls = []
    real = policy._decide

    def spy(*args):
        calls.append(args[0].jid)
        return real(*args)

    monkeypatch.setattr(policy, "_decide", spy)
    return calls


def _spy_monitor(policy, monkeypatch):
    calls = []
    real = policy._monitor

    def spy(job, progress, end):
        calls.append((progress, end))
        return real(job, progress, end)

    monkeypatch.setattr(policy, "_monitor", spy)
    return calls


def test_unchanged_reading_returns_the_shared_immutable_outcome(
    policy, cluster
):
    """An update that changes nothing allocates no outcome: it returns
    the one shared ``NO_CHANGE``, which nothing can mutate."""
    job = varying_job(n_nodes=2)
    start(policy, cluster, job)
    assert policy.update(job, 0.0, 100.0) is not NO_CHANGE  # shrinks
    out = policy.update(job, 100.0, 100.0)  # still reads 10k
    assert out is NO_CHANGE and out == UpdateOutcome()
    with pytest.raises(FrozenInstanceError):
        out.resized = True
    with pytest.raises(AttributeError):
        out.touched_nodes.append(0)
    assert NO_CHANGE == UpdateOutcome() and NO_CHANGE.touched_nodes == ()


def test_unchanged_reading_skips_decider(policy, cluster, monkeypatch):
    job = varying_job(n_nodes=2)
    start(policy, cluster, job)
    policy.update(job, 0.0, 100.0)  # shrink to 10k and mark
    alloc = cluster.allocations[job.jid]
    assert alloc.sized_for_mb == 10_000
    before = _ledgers(cluster)
    touches = _spy_touches(cluster, monkeypatch)
    calls = _spy_decide(policy, monkeypatch)
    out = policy.update(job, 100.0, 100.0)  # still reads 10k
    assert calls == []
    assert out == UpdateOutcome()
    assert _ledgers(cluster) == before and touches == []
    assert alloc.sized_for_mb == 10_000
    # A changed reading runs the Decider again.
    out = policy.update(job, 450.0, 100.0)
    assert calls == [job.jid] and out.grown_mb == 2 * 30_000
    assert touches  # the spy sees the resize's ledger writes
    assert alloc.sized_for_mb == 40_000


def test_skipped_update_still_runs_the_monitor(cluster, monkeypatch):
    # Noise too small to move a 10 GB reading: readings repeat, yet a
    # noisy Monitor records nothing, runs on every update and draws once.
    policy = DynamicDisaggregatedPolicy(cluster, monitor_noise=1e-9,
                                        monitor_seed=5)
    job, alloc = _marked_job(policy, cluster, 10_000)
    calls = _spy_decide(policy, monkeypatch)
    monitor = _spy_monitor(policy, monkeypatch)
    for progress in (100.0, 200.0, 300.0):
        policy.update(job, progress, 100.0)
    assert calls == [] and len(monitor) == 3
    assert policy._readings == {}
    reference = np.random.default_rng(5)
    for _ in range(4):
        reference.normal(0.0, 1e-9)
    assert policy._monitor_rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize(
    "mutation", ["grow_local", "shrink_local", "add_remote", "remove_remote"]
)
def test_direct_cluster_mutation_clears_mark(policy, cluster, mutation,
                                             monkeypatch):
    # 150 GB per node exceeds every node's DRAM, so the job borrows.
    mb = 150_000 if mutation == "remove_remote" else 10_000
    job, alloc = _marked_job(policy, cluster, mb)
    # A flat trace: every window stays inside the recorded ranges.
    assert policy._readings[job.jid] == (mb, -np.inf, np.inf, -np.inf, np.inf)
    monitor = _spy_monitor(policy, monkeypatch)
    node = alloc.nodes[0]
    if mutation == "remove_remote":
        lender = next(iter(alloc.remote_mb[node]))
        cluster.remove_remote(job.jid, node, lender, 512)
    elif mutation == "add_remote":
        lender = next(n for n in range(cluster.n_nodes) if n not in alloc.nodes)
        cluster.add_remote(job.jid, node, lender, 512)
    else:
        getattr(cluster, mutation)(job.jid, node, 512)
    assert alloc.sized_for_mb is None
    out = policy.update(job, 100.0, 100.0)  # same reading as before
    assert out.resized and len(monitor) == 1
    assert [alloc.total_on(n) for n in alloc.nodes] == [mb] * len(alloc.nodes)
    assert alloc.sized_for_mb == mb
    cluster.check_invariants()


def test_resize_local_clears_mark(policy, cluster):
    job, alloc = _marked_job(policy, cluster, 10_000)
    cluster.resize(job.jid, alloc.nodes, [512, -512])
    assert alloc.sized_for_mb is None
    policy.update(job, 100.0, 100.0)
    assert [alloc.total_on(n) for n in alloc.nodes] == [10_000, 10_000]


def test_oom_update_leaves_no_mark(cluster, monkeypatch):
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
    # The kill requeues the job without on_finish, so the OOM outcome
    # drops the Monitor record, and the restarted job's first tick reads.
    assert b.jid not in policy._readings
    cluster.release(b.jid)
    b.restarts += 1
    start(policy, cluster, b)
    monitor = _spy_monitor(policy, monkeypatch)
    policy.update(b, 0.0, 100.0)
    assert monitor == [(0.0, 100.0)]


def test_restored_allocation_keeps_its_mark_and_restarted_starts_unmarked(
    policy, cluster, monkeypatch
):
    job, alloc = _marked_job(policy, cluster, 10_000)
    # A fork rollback restores the record in place, mark and maps alike,
    # so the mark still describes what every node holds.
    cow = cluster.arm_cow()
    state = capture(cluster)
    cluster.resize(job.jid, alloc.nodes, [512, -512])
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


# ----------------------------------------------------------------------
# Monitor record: a window that stays in its trace segments skips the
# Monitor while the reading is the mark
# ----------------------------------------------------------------------
def test_skipped_update_changes_no_state(policy, cluster, monkeypatch):
    job = varying_job(n_nodes=2)
    start(policy, cluster, job)
    policy.update(job, 0.0, 100.0)  # shrink to 10k, mark and record
    alloc = cluster.allocations[job.jid]
    peak = dict(policy._observed_peak)
    rng_state = policy._monitor_rng.bit_generator.state
    before = _ledgers(cluster)
    touches = _spy_touches(cluster, monkeypatch)
    monitor = _spy_monitor(policy, monkeypatch)
    decide = _spy_decide(policy, monkeypatch)
    # Both window ends stay inside [0, 500): the reading cannot change.
    for progress in (100.0, 250.0, 399.0):
        assert policy.update(job, progress, 100.0) == UpdateOutcome()
    assert monitor == [] and decide == []
    assert policy._observed_peak == peak
    assert alloc.sized_for_mb == 10_000
    assert policy._monitor_rng.bit_generator.state == rng_state
    assert _ledgers(cluster) == before and touches == []
    policy.on_finish(job)
    assert job.jid not in policy._readings


def test_window_leaving_its_segments_runs_the_monitor(policy, cluster,
                                                      monkeypatch):
    job = make_job(jid=1, runtime=1000.0, request_mb=10_000)
    # Two equal-valued segments: crossing the breakpoint re-reads the
    # same 10k, so only the Monitor runs, never the Decider.
    job.usage = UsageTrace([0.0, 300.0, 600.0], [10_000, 10_000, 40_000])
    start(policy, cluster, job)
    policy.update(job, 0.0, 100.0)
    monitor = _spy_monitor(policy, monkeypatch)
    decide = _spy_decide(policy, monkeypatch)
    policy.update(job, 100.0, 199.0)  # end just below the breakpoint
    assert monitor == []
    policy.update(job, 100.0, 200.0)  # end reaches the breakpoint
    assert monitor == [(100.0, 300.0)] and decide == []
    policy.update(job, 200.0, 200.0)  # recorded: [0, 300) and [300, 600)
    assert len(monitor) == 1
    policy.update(job, 300.0, 200.0)  # start leaves its segment
    assert monitor[-1] == (300.0, 500.0) and decide == []
    out = policy.update(job, 400.0, 200.0)  # end reaches the 40k segment
    assert monitor[-1] == (400.0, 600.0)
    assert decide == [job.jid] and out.grown_mb == 30_000


def test_monitor_record_changes_no_simulation_output():
    """Runs with OOM kills and restarts produce the same records and the
    same observed peaks whether or not the Monitor record is consulted."""

    class NeverRecorded(dict):
        def get(self, key, default=None):
            return default

    wl = synthetic_workload(n_jobs=60, n_system_nodes=48, seed=7,
                            frac_large=0.5)
    config = SystemConfig.from_memory_level(25, n_nodes=48)
    results, peaks, monitored = [], [], []
    for consult in (True, False):
        policy = DynamicDisaggregatedPolicy(Cluster(config))
        if not consult:
            policy._readings = NeverRecorded()
        calls = []
        real = policy._monitor
        policy._monitor = lambda *a: calls.append(a) or real(*a)
        res = simulate(wl.fresh_jobs(), config, policy=policy,
                       profiles=wl.profiles)
        results.append((res.oom_kills, [repr(r) for r in res.records]))
        peaks.append(dict(policy._observed_peak))
        monitored.append(len(calls))
    assert results[0][0] > 0
    assert results[0] == results[1]
    assert peaks[0] == peaks[1]
    assert monitored[0] < monitored[1]
