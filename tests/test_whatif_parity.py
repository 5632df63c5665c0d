"""What-if forks must be byte-identical to fresh end-to-end runs.

The COW snapshot engine (repro.whatif) promises that a fork — rollback
to the fork point, inject a perturbation, replay the suffix — produces
*exactly* the simulation a fresh run with the perturbation baked in
would have produced: same records, same metrics, same telemetry stream,
same provenance.  These tests hold it to that promise, alongside unit
coverage of the fork cache, the snapshot-hygiene seams (tombstone
compaction, COW re-arming, the content key), the sampler-livelock
regression, and campaign chunk rows against per-cell runs.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.errors import SimulationError
from repro.core.events import EventKind, EventQueue
from repro.core.state import capture, restore
from repro.jobs.job import Job
from repro.jobs.usage import UsageTrace
from repro.experiments.timeline import render_run
from repro.obs.export import metrics_jsonl, series_of
from repro.obs.provenance import lifecycle_jsonl
from repro.obs.telemetry import Telemetry
from repro.scheduler.simulator import build_simulation, simulate
from repro.traces.pipeline import synthetic_workload
from repro.whatif import (
    AddMemNodes,
    ForkCache,
    SimSnapshot,
    SubmitJob,
    SwapPolicy,
    WhatIf,
)

CONFIG = SystemConfig.from_memory_level(100, n_nodes=48)


def _workload(n_jobs=60, n_nodes=48, seed=7):
    return synthetic_workload(
        n_jobs=n_jobs, n_system_nodes=n_nodes, seed=seed
    )


def _extra_job(jobs, at, n_nodes=4, runtime=1800.0, mem_mb=32768):
    """The job :class:`SubmitJob` would inject, as a fresh-run input."""
    jid = max(j.jid for j in jobs) + 1
    return Job(
        jid=jid,
        submit_time=at,
        n_nodes=n_nodes,
        base_runtime=runtime,
        walltime_limit=runtime * 1.5,
        mem_request_mb=mem_mb,
        usage=UsageTrace.constant(mem_mb),
        profile=0,
    )


def _record_key(r):
    return (r.jid, r.state, r.queue_time, r.start_time, r.finish_time)


# ----------------------------------------------------------------------
# Fork/replay parity with fresh end-to-end runs
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(frac=st.floats(0.05, 0.95), seed=st.integers(0, 3))
def test_submit_fork_matches_fresh_run(frac, seed):
    """A SubmitJob fork at a random point == the job baked in from t=0."""
    wl = _workload(n_jobs=40, seed=seed)
    base = simulate(wl.fresh_jobs(), CONFIG, policy="dynamic",
                    profiles=wl.profiles)
    at = frac * base.makespan
    if any(j.submit_time == at for j in wl.jobs):
        at += 0.5  # avoid submit-order ties (documented SubmitJob caveat)

    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=at,
                     profiles=wl.profiles)
    pert = SubmitJob(n_nodes=4, base_runtime=1800.0, mem_request_mb=32768)
    forked = session.query(pert).result

    jobs = wl.fresh_jobs()
    fresh = simulate(jobs + [_extra_job(jobs, at)], CONFIG,
                     policy="dynamic", profiles=wl.profiles)
    assert forked.records == fresh.records
    assert forked.summary() == fresh.summary()


def test_late_submit_fork_matches_fresh_run():
    """A fork at 0.9 x makespan, where the rollback skips every job that
    had ended, still equals the job baked in from t=0."""
    wl = _workload(n_jobs=40, seed=1)
    base = simulate(wl.fresh_jobs(), CONFIG, policy="dynamic",
                    profiles=wl.profiles)
    at = 0.9 * base.makespan
    assert not any(j.submit_time == at for j in wl.jobs)

    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=at,
                     profiles=wl.profiles)
    ended = [j for j in session.handle.controller.jobs.values()
             if j.finish_time is not None and j.finish_time < at]
    assert len(ended) >= 0.9 * len(wl.jobs)
    pert = SubmitJob(n_nodes=4, base_runtime=1800.0, mem_request_mb=32768)
    forked = session.query(pert).result

    jobs = wl.fresh_jobs()
    fresh = simulate(jobs + [_extra_job(jobs, at)], CONFIG,
                     policy="dynamic", profiles=wl.profiles)
    assert forked.records == fresh.records
    assert forked.summary() == fresh.summary()


def test_fork_parity_includes_observability():
    """Telemetry, provenance, blame and event streams all match."""
    wl = _workload()
    base = simulate(wl.fresh_jobs(), CONFIG, policy="dynamic",
                    profiles=wl.profiles)
    at = 0.4 * base.makespan
    pert = SubmitJob(n_nodes=4, base_runtime=1800.0, mem_request_mb=32768)

    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=at,
                     profiles=wl.profiles, telemetry=Telemetry(),
                     capture_observability=True)
    report = session.query(pert)

    jobs = wl.fresh_jobs()
    telemetry = Telemetry()
    handle = build_simulation(jobs + [_extra_job(jobs, at)], CONFIG,
                              policy="dynamic", profiles=wl.profiles,
                              telemetry=telemetry)
    fresh = handle.finish()

    assert report.result.records == fresh.records
    obs = report.observability
    assert obs["metrics_jsonl"] == metrics_jsonl(telemetry.registry)
    assert obs["provenance_jsonl"] == telemetry.provenance.to_jsonl()
    assert obs["blame"] == telemetry.blame.to_dict()
    assert obs["events_jsonl"] == lifecycle_jsonl(telemetry.provenance)


def test_golden_large_cluster_parity():
    """The 1024-node golden check from the issue's acceptance criteria."""
    wl = synthetic_workload(n_jobs=200, n_system_nodes=1024, seed=11)
    config = SystemConfig.from_memory_level(100, n_nodes=1024)
    base = simulate(wl.fresh_jobs(), config, policy="dynamic",
                    profiles=wl.profiles)
    at = 0.6 * base.makespan
    session = WhatIf(wl.fresh_jobs(), config, policy="dynamic", at=at,
                     profiles=wl.profiles)
    pert = SubmitJob(n_nodes=64, base_runtime=3600.0, mem_request_mb=131072)
    forked = session.query(pert).result
    jobs = wl.fresh_jobs()
    fresh = simulate(jobs + [_extra_job(jobs, at, n_nodes=64,
                                        runtime=3600.0, mem_mb=131072)],
                     config, policy="dynamic", profiles=wl.profiles)
    assert forked.records == fresh.records
    assert forked.summary() == fresh.summary()


def test_session_stays_reusable_across_queries():
    """Queries leave the simulation parked at the fork point: the same
    query re-run (uncached) reproduces itself exactly."""
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    pert = SubmitJob(n_nodes=2, base_runtime=600.0, mem_request_mb=16384)
    first = session.query(pert, use_cache=False)
    session.query(AddMemNodes(2, 32768), use_cache=False)  # interleave
    again = session.query(pert, use_cache=False)
    assert first.result.records == again.result.records
    assert first.variant == again.variant


def test_swap_to_same_policy_is_identity():
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    report = session.query(SwapPolicy("dynamic"))
    assert all(d == 0.0 for d in report.deltas.values())


def test_swap_policy_query_leaves_handle_on_the_restored_policy():
    """After a policy-swap query rewinds, the handle reports the policy
    the controller runs again, not the swapped-in one."""
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    session.query(SwapPolicy("static"), use_cache=False)
    handle = session.handle
    assert handle.policy is handle.controller.policy
    assert handle.policy.name == "dynamic"


def test_add_memnodes_requires_idle_nodes():
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    with pytest.raises(SimulationError):
        session.query(AddMemNodes(10_000, 1024))


def test_cow_fork_touches_few_pages():
    """A small perturbation on a big cluster copies a fraction of it."""
    wl = synthetic_workload(n_jobs=40, n_system_nodes=512, seed=5)
    config = SystemConfig.from_memory_level(100, n_nodes=512)
    session = WhatIf(wl.fresh_jobs(), config, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    session.query(SubmitJob(n_nodes=2, base_runtime=600.0,
                            mem_request_mb=16384))
    store = session.handle.cluster._cow
    assert 0 < store.bytes_copied < store.full_copy_bytes()


# ----------------------------------------------------------------------
# Fork cache
# ----------------------------------------------------------------------
def test_fork_cache_hit_returns_same_report():
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    pert = SubmitJob(n_nodes=2, base_runtime=600.0, mem_request_mb=16384)
    first = session.query(pert)
    second = session.query(pert)
    assert second is first
    assert session.replays == 1 and session.queries == 2
    assert session.cache.stats()["hits"] == 1


def test_fork_cache_miss_on_different_perturbation():
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    session.query(SubmitJob(n_nodes=2, base_runtime=600.0,
                            mem_request_mb=16384))
    session.query(SubmitJob(n_nodes=3, base_runtime=600.0,
                            mem_request_mb=16384))
    assert session.replays == 2
    assert session.cache.stats()["misses"] == 2


def test_fork_cache_eviction_is_lru():
    cache = ForkCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a"
    cache.put("c", 3)  # evicts "b" (cold end)
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.stats()["evictions"] == 1
    assert len(cache) == 2


def test_fork_cache_capacity_validation():
    with pytest.raises(ValueError):
        ForkCache(capacity=0)


# ----------------------------------------------------------------------
# Snapshot hygiene seams
# ----------------------------------------------------------------------
def test_queue_compaction_drops_tombstones_before_snapshot():
    q = EventQueue()
    events = [q.push(float(i), EventKind.JOB_SUBMIT, payload=i)
              for i in range(10)]
    for ev in events[::2]:
        q.cancel(ev)
    assert len(q) == 5
    q.compact()  # what SimSnapshot.capture does before capturing
    assert not q._dead and len(q._heap) == 5
    state = capture(q)
    assert sorted(ev.payload for *_, ev in q._heap) == [1, 3, 5, 7, 9]
    # restore round-trips pop order and the live count
    assert [ev.payload for ev in q.drain()] == [1, 3, 5, 7, 9]
    assert len(q) == 0
    restore(q, state)
    assert len(q) == 5
    assert [ev.payload for ev in q.drain()] == [1, 3, 5, 7, 9]


def test_observed_timeline_run_ends_on_its_own():
    """The telemetry chain is the only periodic sampler, and it stops
    once the workload has drained.

    Its reschedule predicate counts any live event as work, so a second
    periodic chain would keep it alive forever; with one chain, the last
    sample lands within a cadence of the last other event (a finish, or
    a memory update at most one update interval later).
    """
    wl = _workload(n_jobs=5, n_nodes=16)
    config = SystemConfig.from_memory_level(100, n_nodes=16)
    tel = Telemetry(trace_spans=False, provenance=False)
    res = simulate(wl.fresh_jobs(), config, policy="dynamic",
                   profiles=wl.profiles, telemetry=tel, max_events=500_000)
    assert res.all_jobs_ran()
    times, _ = series_of(tel.registry, "busy_nodes")
    latest_event = res.makespan + config.update_interval
    assert times[-1] < latest_event + tel.sample_interval
    assert "cluster occupancy" in render_run(res, tel.registry)


def test_capture_rearms_cow_and_invalidates_prior_snapshot():
    wl = _workload()
    handle = build_simulation(wl.fresh_jobs(), CONFIG, policy="dynamic",
                              profiles=wl.profiles)
    handle.run_until(5000.0, inclusive=False)
    snap = SimSnapshot.capture(handle)
    assert handle.cluster._cow is snap._cow
    handle.run_until(9000.0, inclusive=False)
    snap2 = SimSnapshot.capture(handle)
    assert snap2._cow is handle.cluster._cow
    assert snap2._cow is not snap._cow  # old snapshot's store retired


def test_content_key_describes_the_captured_state():
    """Two captures of one paused state share a key, even when one is
    first read after a fork ran its suffix on the live handle."""
    wl = _workload()
    handle = build_simulation(wl.fresh_jobs(), CONFIG, policy="dynamic",
                              profiles=wl.profiles)
    handle.run_until(9000.0, inclusive=False)
    key = SimSnapshot.capture(handle).content_key
    second = SimSnapshot.capture(handle)
    second.restore()
    SubmitJob(n_nodes=4, base_runtime=1800.0,
              mem_request_mb=32768).apply(handle)
    handle.finish()
    assert second.content_key == key
    second.restore()
    handle.run_until(12000.0, inclusive=False)  # a later state differs
    assert SimSnapshot.capture(handle).content_key != key


# ----------------------------------------------------------------------
# Campaign chunks (rows must match per-cell runs)
# ----------------------------------------------------------------------
def test_policy_group_rows_match_per_cell_runs():
    from repro.experiments import runner
    from repro.experiments.parallel import _run_chunk, raw_result

    runner.clear_caches()
    from repro.experiments.scenarios import Scenario

    grid = [Scenario(policy=p, n_nodes=48, n_jobs=50, seed=2)
            for p in ("baseline", "static", "dynamic")]
    grouped = _run_chunk(grid, collect_telemetry=True)
    runner.clear_caches()
    per_cell = [raw_result(sc, collect_telemetry=True) for sc in grid]
    for g, c in zip(grouped, per_cell):
        g, c = dict(g), dict(c)
        g.pop("elapsed_s"), c.pop("elapsed_s")
        assert g == c
    runner.clear_caches()


def test_run_grid_worker_clamp_stays_on_pool_path(monkeypatch, caplog):
    import logging

    from repro.experiments import parallel, runner

    runner.clear_caches()
    from repro.experiments.scenarios import Scenario

    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
    grid = [Scenario(policy="static", n_nodes=48, n_jobs=50, seed=2)]
    with caplog.at_level(logging.WARNING, logger=parallel.__name__):
        raw = parallel.run_grid(grid, workers=8)
    assert any("clamping" in r.message for r in caplog.records)
    assert parallel.scenario_key(grid[0]) in raw
    runner.clear_caches()


# ----------------------------------------------------------------------
# On-disk trace cache
# ----------------------------------------------------------------------
def test_trace_cache_roundtrip(tmp_path, monkeypatch):
    from repro.traces import cache as tc

    monkeypatch.setenv(tc.TRACE_CACHE_ENV, str(tmp_path))
    wl = _workload(n_jobs=10, n_nodes=16)
    key = tc.cache_key("base_workload", "synthetic", 16, 10)
    assert tc.load_workload(key) is None  # cold
    assert tc.store_workload(key, wl)
    back = tc.load_workload(key)
    assert back is not None
    assert [j.jid for j in back.jobs] == [j.jid for j in wl.jobs]
    assert pickle.dumps(back.jobs) == pickle.dumps(wl.jobs)


def test_trace_cache_corrupt_entry_is_a_miss(tmp_path, monkeypatch):
    from repro.traces import cache as tc

    monkeypatch.setenv(tc.TRACE_CACHE_ENV, str(tmp_path))
    key = tc.cache_key("x")
    (tmp_path / f"trace-{key}.pkl").write_bytes(b"not a pickle")
    assert tc.load_workload(key) is None


def test_trace_cache_disabled_without_env(monkeypatch):
    from repro.traces import cache as tc

    monkeypatch.delenv(tc.TRACE_CACHE_ENV, raising=False)
    wl = _workload(n_jobs=5, n_nodes=16)
    assert tc.cache_dir() is None
    assert not tc.store_workload(tc.cache_key("y"), wl)
    assert tc.load_workload(tc.cache_key("y")) is None
