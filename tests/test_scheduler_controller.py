"""Controller behaviour: scheduling, backfill, restarts, accounting."""

import pytest

from repro.core.config import SystemConfig
from repro.jobs.states import JobState
from repro.jobs.usage import UsageTrace
from repro.obs.export import series_of
from repro.obs.telemetry import Telemetry
from repro.scheduler.simulator import simulate
from repro.slowdown.model import NullContentionModel

from conftest import make_job


def run(jobs, config, policy="static", **kw):
    kw.setdefault("model", NullContentionModel())
    return simulate(jobs, config, policy=policy, **kw)


@pytest.fixture
def config(tiny_config):
    return tiny_config  # 4 x 64GB nodes


def test_single_job_runs_to_completion(config):
    res = run([make_job(runtime=1000.0)], config)
    assert res.n_completed == 1
    rec = res.records[0]
    assert rec.state is JobState.COMPLETED
    assert rec.start_time >= rec.submit_time
    assert rec.actual_runtime == pytest.approx(1000.0)


def test_start_aligned_to_sched_interval(config):
    res = run([make_job(submit=5.0)], config)
    rec = res.records[0]
    assert rec.start_time % config.sched_interval == 0
    assert rec.start_time >= 5.0


def test_fcfs_when_resources_contend(config):
    # Each job takes the whole machine; they must serialise in order.
    jobs = [
        make_job(jid=i, submit=float(i), n_nodes=4, runtime=500.0)
        for i in range(3)
    ]
    res = run(jobs, config)
    recs = sorted(res.records, key=lambda r: r.jid)
    assert recs[0].start_time < recs[1].start_time < recs[2].start_time


def test_backfill_small_job_jumps_queue(config):
    # j0 holds the machine; j1 (wide) blocks; j2 (small, short) backfills.
    j0 = make_job(jid=0, submit=0.0, n_nodes=4, runtime=1000.0, walltime=1000.0)
    j1 = make_job(jid=1, submit=10.0, n_nodes=4, runtime=500.0, walltime=500.0)
    j2 = make_job(jid=2, submit=20.0, n_nodes=1, runtime=100.0, walltime=100.0)
    res = run([j0, j1, j2], config)
    recs = {r.jid: r for r in res.records}
    # j2 cannot fit alongside j0 (whole machine) - but after j0 ends,
    # j1 runs first; j2 only backfills if it fits before j1's reservation.
    assert recs[1].start_time >= recs[0].finish_time
    assert res.n_completed == 3


def test_backfill_does_not_delay_reservation():
    # 2-node machine: j0 on node A; j1 needs both (blocked, reserved at
    # ~1000); j2 is LONG (would run past the reservation): must wait.
    config = SystemConfig(n_nodes=2, normal_mem_gb=64, frac_large_nodes=0.0)
    j0 = make_job(jid=0, submit=0.0, n_nodes=1, runtime=1000.0, walltime=1000.0)
    j1 = make_job(jid=1, submit=10.0, n_nodes=2, runtime=100.0, walltime=100.0)
    j2 = make_job(jid=2, submit=20.0, n_nodes=1, runtime=1500.0, walltime=1500.0)
    res = run([j0, j1, j2], config, policy="static")
    recs = {r.jid: r for r in res.records}
    # j2 (wall 1500) would delay j1's reservation (~1000): must NOT backfill.
    assert recs[2].start_time >= recs[1].start_time
    # j1 starts right after j0 finishes (+ scheduling quantum).
    assert recs[1].start_time <= recs[0].finish_time + config.sched_interval


def test_short_job_backfills_into_gap():
    config = SystemConfig(n_nodes=2, normal_mem_gb=64, frac_large_nodes=0.0)
    j0 = make_job(jid=0, submit=0.0, n_nodes=1, runtime=1000.0, walltime=1000.0)
    j1 = make_job(jid=1, submit=10.0, n_nodes=2, runtime=100.0, walltime=100.0)
    j2 = make_job(jid=2, submit=20.0, n_nodes=1, runtime=100.0, walltime=100.0)
    res = run([j0, j1, j2], config, policy="static")
    recs = {r.jid: r for r in res.records}
    # j2 ends well before j0's walltime: backfills immediately.
    assert recs[2].start_time < recs[1].start_time


def test_unrunnable_job_marked(config):
    giant = make_job(jid=0, request_mb=10**9)
    ok = make_job(jid=1)
    res = run([giant, ok], config)
    assert res.unrunnable == [0]
    assert res.n_completed == 1
    assert not res.all_jobs_ran()


def test_dynamic_oom_restart_completes_eventually(config):
    """A job whose growth cannot be satisfied is killed and retried."""
    total = config.total_memory_mb()
    # Hog fills most of the pool for a long time (flat usage: the
    # dynamic policy cannot reclaim anything from it), leaving one node
    # startable with ~68 GB of pool memory free.
    hog = make_job(jid=0, submit=0.0, n_nodes=1, runtime=4000.0,
                   request_mb=total - 70_000)
    # Grower fits initially (request 5 GB) but then spikes far beyond
    # what remains in the pool.
    grower = make_job(jid=1, submit=0.0, n_nodes=1, runtime=1000.0,
                      request_mb=5_000, peak_mb=5_000)
    grower.usage = UsageTrace([0.0, 500.0], [1_000, 100_000])
    res = run([hog, grower], config, policy="dynamic")
    assert res.n_completed == 2
    assert res.oom_kills >= 1
    rec = {r.jid: r for r in res.records}[1]
    assert rec.restarts >= 1


def test_idle_update_ticks_reprice_nothing(config, monkeypatch):
    """An update tick whose updates all change nothing skips the
    Executor: a tick never reprices an empty set of jobs."""
    from repro.scheduler.controller import Controller

    ticks, priced = [], []
    on_tick, reprice = Controller._on_mem_update, Controller._reprice

    def tick(self, engine, ev):
        ticks.append(len(priced))
        on_tick(self, engine, ev)

    def spy(self, jids, now):
        if ticks:  # a finish before the first tick does not count
            priced.append(set(jids))
        reprice(self, jids, now)

    monkeypatch.setattr(Controller, "_on_mem_update", tick)
    monkeypatch.setattr(Controller, "_reprice", spy)
    job = make_job(runtime=3000.0, request_mb=40_000)
    job.usage = UsageTrace([0.0, 1000.0], [10_000, 30_000])
    res = simulate([job], config, policy="dynamic")
    assert res.n_completed == 1
    # Two resizes (shrink to 10k, grow to 30k) reprice the job; the
    # idle ticks between them reprice nothing.
    assert len(ticks) > 3 and priced[:2] == [{job.jid}, {job.jid}]
    assert set() not in priced[:-1]  # the last is the job's own finish


def test_utilization_accounting_single_job(config):
    job = make_job(n_nodes=2, runtime=1000.0, request_mb=1000)
    res = run([job], config)
    # 2 of 4 nodes busy for the whole active span.
    assert res.cpu_utilization() == pytest.approx(0.5, rel=0.1)


def test_sample_timeline(config):
    jobs = [make_job(jid=i, submit=0.0, runtime=500.0) for i in range(2)]
    tel = Telemetry(sample_interval=100.0, trace_spans=False,
                    provenance=False)
    run(jobs, config, telemetry=tel)
    times, busy = series_of(tel.registry, "busy_nodes")
    assert len(times) >= 5
    assert max(busy) > 0


def test_duplicate_job_ids_rejected(config):
    jobs = [make_job(jid=1), make_job(jid=1)]
    with pytest.raises(ValueError):
        run(jobs, config)


def test_deterministic_results(config):
    def build():
        return [
            make_job(jid=i, submit=i * 7.0, n_nodes=1 + i % 3,
                     runtime=300.0 + 50 * i, request_mb=20000 + 1000 * i)
            for i in range(20)
        ]

    r1 = run(build(), config)
    r2 = run(build(), config)
    assert [rec.finish_time for rec in r1.records] == [
        rec.finish_time for rec in r2.records
    ]


# ----------------------------------------------------------------------
# Sched-cadence tick computation (float-noise tolerant)
# ----------------------------------------------------------------------
def test_next_tick_exact_multiple_fires_immediately():
    from repro.scheduler.controller import next_tick
    assert next_tick(300.0, 300.0) == 300.0
    assert next_tick(0.0, 30.0) == 0.0


def test_next_tick_rounds_up_between_multiples():
    from repro.scheduler.controller import next_tick
    assert next_tick(310.0, 30.0) == 330.0
    assert next_tick(0.5, 30.0) == 30.0


def test_next_tick_tolerates_float_noise_above_a_multiple():
    """A time like 300.0000000001 (accumulated float error) must fire
    now-ish, not be pushed a whole interval to 600."""
    from repro.scheduler.controller import next_tick
    noisy = 300.0000000001
    t = next_tick(noisy, 300.0)
    assert noisy <= t < 301.0


def test_next_tick_tolerates_float_noise_below_a_multiple():
    from repro.scheduler.controller import next_tick
    noisy = 299.99999999999994
    t = next_tick(noisy, 300.0)
    assert noisy <= t <= 300.0


def test_next_tick_never_schedules_into_the_past():
    from repro.scheduler.controller import next_tick
    for now in (0.0, 1e-12, 29.999999, 30.000001, 12345.6789):
        assert next_tick(now, 30.0) >= now
