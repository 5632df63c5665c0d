"""What-if forks must be byte-identical to fresh end-to-end runs.

The COW snapshot engine (repro.whatif) promises that a fork — rollback
to the fork point, inject a perturbation, replay the suffix — produces
*exactly* the simulation a fresh run with the perturbation baked in
would have produced: same records, same metrics, same telemetry stream,
same provenance.  These tests hold it to that promise, alongside unit
coverage of the fork cache, the snapshot-hygiene seams (tombstone
compaction, COW re-arming), the sampler-livelock regression, and
campaign chunk rows against per-cell runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.errors import SimulationError
from repro.core.events import EventKind, EventQueue
from repro.core.lru import LRUCache
from repro.core.state import capture, restore
from repro.experiments import runner
from repro.experiments.scenarios import Scenario
from repro.jobs.job import Job
from repro.jobs.states import JobState
from repro.jobs.usage import UsageTrace
from repro.experiments.timeline import render_run
from repro.obs.export import metrics_jsonl, series_of
from repro.obs.provenance import lifecycle_jsonl
from repro.obs.telemetry import Telemetry
from repro.scheduler.simulator import build_simulation, simulate
from repro.traces.pipeline import synthetic_workload
from repro.whatif import (
    AddMemNodes,
    SimSnapshot,
    SubmitJob,
    SwapPolicy,
    WhatIf,
)
from repro.whatif import api as whatif_api

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


def test_query_after_a_raising_perturbation_starts_at_the_fork():
    """A perturbation that raises still leaves the session parked: the
    next query answers as it would on a fresh session."""
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    pert = SubmitJob(n_nodes=4, base_runtime=1800.0, mem_request_mb=32768)
    with pytest.raises(SimulationError):
        session.query(AddMemNodes(10_000, 1024))
    after = session.query(pert)
    fresh = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                   profiles=wl.profiles).query(pert)
    assert after.result.records == fresh.result.records
    assert after.pages_restored == fresh.pages_restored > 0


# ----------------------------------------------------------------------
# Reports from the cached prefix columns
# ----------------------------------------------------------------------
def _metrics_over_every_record(result):
    """A report's metrics, computed in one pass over all the records."""
    done = result.completed()
    m = result.summary()
    waits = np.array([r.wait_time for r in done], dtype=np.float64)
    m["mean_wait_s"] = float(np.mean(waits)) if len(waits) else float("nan")
    m["p50_wait_s"] = float(np.median(waits)) if len(waits) else float("nan")
    slowdowns = [s for s in (r.slowdown_experienced for r in done)
                 if s is not None]
    m["mean_slowdown"] = (float(np.mean(slowdowns)) if slowdowns
                          else float("nan"))
    return m


def _ended_early_workload():
    """30 jobs on 32 nodes with wall limits enforced: job 0 is OOM-killed
    until it is unrunnable (by t=1890), and jobs 3-5 time out (by
    t=21927); the run ends near t=68400."""
    scenario = Scenario(n_nodes=32, n_jobs=30, frac_large=0.25, seed=0)
    wl = runner.base_workload(scenario)
    jobs = wl.fresh_jobs()
    jobs[0].usage = UsageTrace.constant(10**9)
    for job in jobs[3:6]:
        job.walltime_limit = job.base_runtime * 0.5
    config = scenario.system_config().with_(enforce_walltime=True)
    return jobs, config, wl.profiles


@pytest.mark.parametrize("at", [0.0, 3000.0, 23000.0, 61500.0])
def test_report_metrics_equal_a_pass_over_every_record(at):
    """Base and variant metrics built from the prefix columns equal the
    metrics of one pass over the whole record list, float for float, at
    early and late forks whose prefix holds killed, timed-out and
    unrunnable records, for every perturbation kind."""
    jobs, config, profiles = _ended_early_workload()
    session = WhatIf(jobs, config, policy="dynamic", at=at,
                     profiles=profiles, max_events=100_000)
    prefix = session.handle.controller.result.records
    states = {r.state for r in prefix}
    if at >= 23000.0:
        assert {JobState.COMPLETED, JobState.TIMEOUT,
                JobState.UNRUNNABLE} <= states
    assert session._prefix.n_records == len(prefix)
    reports = [session.base_report] + [
        session.query(pert, use_cache=False) for pert in (
            SubmitJob(n_nodes=4, base_runtime=1800.0, mem_request_mb=32768),
            SwapPolicy("static"),
            AddMemNodes(1, 32768),
        )]
    for report in reports:
        want = _metrics_over_every_record(report.result)
        assert repr(sorted(report.variant.items())) == repr(
            sorted(want.items())), report.perturbation
        assert report.base == session.base_metrics


def test_report_rejects_records_that_lost_the_captured_prefix():
    """A result whose records do not start with the records written by
    the fork point (same values, other objects) fails loudly instead of
    reporting from stale columns."""
    jobs, config, profiles = _ended_early_workload()
    session = WhatIf(jobs, config, policy="dynamic", at=23000.0,
                     profiles=profiles, max_events=100_000)
    result = session.base_report.result
    k = session._prefix.n_records
    copied = list(result.records)
    copied[k - 1] = dataclasses.replace(copied[k - 1])
    for records in (result.records[:k - 1], copied):
        with pytest.raises(SimulationError, match="do not start with"):
            session._prefix.metrics(
                dataclasses.replace(result, records=records))


# ----------------------------------------------------------------------
# Copy-on-write lender maps
# ----------------------------------------------------------------------
_SUFFIX = st.tuples(
    st.floats(0.0, 30000.0),        # simulated seconds the suffix runs
    st.integers(1, 12),             # nodes of the job it submits
    st.integers(1024, 128 * 1024),  # and that job's memory request
)


@settings(max_examples=6, deadline=None)
@given(pause=st.sampled_from([20000.0, 34000.0]),
       suffixes=st.lists(_SUFFIX, min_size=1, max_size=4))
def test_rollback_restores_lender_maps_in_order(pause, suffixes):
    """After random suffixes, each rolled back in turn, every lender map
    holds the items it held at capture in the same insertion order, in
    the same dict object, and the dirtied set is empty again."""
    wl = _workload(n_jobs=60, seed=7)
    config = SystemConfig.from_memory_level(25, n_nodes=48)
    handle = build_simulation(wl.fresh_jobs(), config, policy="dynamic",
                              profiles=wl.profiles)
    handle.run_until(pause, inclusive=False)
    maps = handle.cluster.lender_jobs
    assert any(maps)
    snap = SimSnapshot.capture(handle)
    ids = [id(rec) for rec in maps]
    captured = [list(rec.items()) for rec in maps]
    for run_for, n_nodes, mem_mb in suffixes:
        SubmitJob(n_nodes=n_nodes, base_runtime=1800.0,
                  mem_request_mb=mem_mb).apply(handle)
        handle.run_until(pause + run_for)
        snap.restore()
        assert [list(rec.items()) for rec in maps] == captured
        assert [id(rec) for rec in maps] == ids
        assert not snap._cow._dirty_lenders
    handle.finish()  # the rolled-back state runs to a consistent end


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


def test_fork_cache_eviction_is_lru(monkeypatch):
    monkeypatch.setattr(whatif_api, "FORK_CACHE_SIZE", 2)
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=9000.0,
                     profiles=wl.profiles)
    a, b, c = (SubmitJob(n_nodes=n, base_runtime=600.0, mem_request_mb=16384)
               for n in (1, 2, 3))
    first = session.query(a)
    session.query(b)
    assert session.query(a) is first  # refresh "a"
    session.query(c)  # evicts "b" (cold end)
    cache = session.cache
    assert b.key() not in cache and a.key() in cache and c.key() in cache
    assert cache.stats()["evictions"] == 1
    assert len(cache) == 2
    assert session.replays == 3


def test_fork_cache_capacity_validation(monkeypatch):
    with pytest.raises(ValueError):
        LRUCache(capacity=0)
    monkeypatch.setattr(whatif_api, "FORK_CACHE_SIZE", 0)
    wl = _workload(n_jobs=4)
    with pytest.raises(ValueError):
        WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=0.0,
               profiles=wl.profiles)


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
