"""OOM-fairness mitigations and monitor noise (paper §2.2 knobs)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import SystemConfig
from repro.experiments import runner
from repro.experiments.scenarios import Scenario
from repro.jobs.states import JobState
from repro.jobs.usage import UsageTrace
from repro.obs.telemetry import Telemetry
from repro.policies.dynamic import DynamicDisaggregatedPolicy
from repro.scheduler.simulator import build_simulation, simulate
from repro.slowdown.model import NullContentionModel

from conftest import make_job


def test_keep_priority_on_restart():
    job = make_job(jid=1, submit=10.0)
    job.set_state(JobState.RUNNING)
    job.set_state(JobState.KILLED)
    job.reset_for_restart(now=500.0, keep_priority=True)
    assert job.queue_time == 10.0
    assert job.restarts == 1


def test_tail_requeue_by_default():
    job = make_job(jid=1, submit=10.0)
    job.set_state(JobState.RUNNING)
    job.set_state(JobState.KILLED)
    job.reset_for_restart(now=500.0)
    assert job.queue_time == 500.0


def _oom_scenario(config, **policy_kw):
    """A hog plus a growing job that OOMs at its first update."""
    total = config.total_memory_mb()
    hog = make_job(jid=0, submit=0.0, n_nodes=1, runtime=4000.0,
                   request_mb=total - 70_000)
    grower = make_job(jid=1, submit=0.0, n_nodes=1, runtime=1000.0,
                      request_mb=5_000, peak_mb=5_000)
    grower.usage = UsageTrace([0.0, 500.0], [1_000, 100_000])
    return simulate([hog, grower], config, policy="dynamic",
                    model=NullContentionModel(), **policy_kw)


def test_priority_boost_end_to_end(tiny_config):
    res = _oom_scenario(tiny_config, oom_priority_boost=True)
    assert res.oom_kills >= 1
    assert res.n_completed == 2


def test_monitor_noise_validation(tiny_config):
    cluster = Cluster(tiny_config)
    with pytest.raises(ValueError):
        DynamicDisaggregatedPolicy(cluster, monitor_noise=-0.1)
    with pytest.raises(ValueError):
        DynamicDisaggregatedPolicy(cluster, checkpoint_interval=0.0)


def test_checkpoint_quantum_rounds_down():
    job = make_job(jid=1, runtime=1000.0)
    job.set_state(JobState.RUNNING)
    job.work_done = 740.0
    job.set_state(JobState.KILLED)
    job.reset_for_restart(now=10.0, keep_checkpoint=True,
                          checkpoint_quantum=300.0)
    assert job.checkpointed_work == 600.0
    assert job.work_done == 600.0


def test_checkpoint_exact_without_quantum():
    job = make_job(jid=1, runtime=1000.0)
    job.set_state(JobState.RUNNING)
    job.work_done = 740.0
    job.set_state(JobState.KILLED)
    job.reset_for_restart(now=10.0, keep_checkpoint=True)
    assert job.work_done == 740.0


def test_periodic_cr_end_to_end(tiny_config):
    """C/R with a checkpoint quantum still completes everything and never
    recovers more work than was done."""
    res = _oom_scenario(tiny_config, checkpoint_restart=True,
                        checkpoint_interval=120.0)
    assert res.oom_kills >= 1
    assert res.n_completed == 2


def test_monitor_noise_zero_is_exact(tiny_config):
    """With sigma=0 the noisy path is never taken: identical results."""
    from repro.traces.pipeline import synthetic_workload

    wl = synthetic_workload(n_jobs=60, frac_large=0.5, overestimation=0.6,
                            n_system_nodes=tiny_config.n_nodes, seed=3)
    a = simulate(wl.fresh_jobs(), tiny_config, policy="dynamic",
                 profiles=wl.profiles)
    b = simulate(wl.fresh_jobs(), tiny_config, policy="dynamic",
                 profiles=wl.profiles, monitor_noise=0.0)
    assert a.throughput() == pytest.approx(b.throughput())


def test_monitor_noise_holds_more_memory(tiny_config):
    """Noisy readings inflate/deflate demand; allocations churn but the
    floor at current usage keeps jobs safe."""
    from repro.traces.pipeline import synthetic_workload

    wl = synthetic_workload(n_jobs=80, frac_large=0.5, overestimation=0.6,
                            n_system_nodes=tiny_config.n_nodes, seed=3)
    exact = simulate(wl.fresh_jobs(), tiny_config, policy="dynamic",
                     profiles=wl.profiles)
    noisy = simulate(wl.fresh_jobs(), tiny_config, policy="dynamic",
                     profiles=wl.profiles, monitor_noise=0.3,
                     monitor_seed=7)
    # All jobs still complete despite the noise.
    assert noisy.n_completed == exact.n_completed
    # Noise changes behaviour measurably but not catastrophically.
    assert noisy.throughput() > 0.5 * exact.throughput()


def test_monitor_noise_deterministic(tiny_config):
    from repro.traces.pipeline import synthetic_workload

    wl = synthetic_workload(n_jobs=40, frac_large=0.5, overestimation=0.6,
                            n_system_nodes=tiny_config.n_nodes, seed=4)
    a = simulate(wl.fresh_jobs(), tiny_config, policy="dynamic",
                 profiles=wl.profiles, monitor_noise=0.2, monitor_seed=9)
    b = simulate(wl.fresh_jobs(), tiny_config, policy="dynamic",
                 profiles=wl.profiles, monitor_noise=0.2, monitor_seed=9)
    assert a.throughput() == pytest.approx(b.throughput())


def test_requeued_job_beyond_the_machine_becomes_unrunnable():
    """Regression: a job pinned at a peak that no state of the machine
    can serve used to stay pending forever, and the run spun until
    ``max_events``.  The requeue checks feasibility again and records
    the job as unrunnable, as a submit would."""
    scenario = Scenario(n_nodes=32, n_jobs=30, frac_large=0.25, seed=0)
    wl = runner.base_workload(scenario)
    jobs = wl.fresh_jobs()
    jobs[0].usage = UsageTrace.constant(10**9)
    tel = Telemetry(trace_spans=False)
    handle = build_simulation(jobs, scenario.system_config(),
                              policy="dynamic", profiles=wl.profiles,
                              max_events=100_000, telemetry=tel)
    res = handle.finish()
    policy = handle.policy
    assert res.unrunnable == [0] and res.n_completed == 29
    assert jobs[0].state is JobState.UNRUNNABLE
    assert res.oom_kills == 3 == policy.max_oom_failures
    # The job ran before it became unrunnable, so it has a record.
    assert len(res.records) == 30
    assert res.oom_kill_fraction() == 1 / 30
    (rec,) = [r for r in res.records if r.jid == 0]
    assert rec.state is JobState.UNRUNNABLE and rec.restarts == 3
    assert rec.start_time == jobs[0].first_start_time is not None
    assert rec.finish_time == max(
        e.t for e in tel.provenance.events
        if e.jid == 0 and e.kind == "oom_kill"
    )
    assert tel.registry.counters["jobs_unrunnable"].value == 1
    kinds = [e.kind for e in tel.provenance.events if e.jid == 0]
    assert kinds.count("oom_kill") == 3 and kinds[-1] == "unrunnable"
    assert tel.blame.reason_of(0) is None  # no wait episode left open
    assert not policy.is_pinned(jobs[0])
    assert 0 not in policy._observed_peak
