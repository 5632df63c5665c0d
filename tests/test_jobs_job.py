"""Job record semantics."""

import pytest

from repro.core.errors import TraceError
from repro.jobs.job import Job
from repro.jobs.states import JobState
from repro.jobs.usage import UsageTrace

from conftest import make_job


def test_validation():
    with pytest.raises(TraceError):
        make_job(n_nodes=0)
    with pytest.raises(TraceError):
        make_job(runtime=0)
    with pytest.raises(TraceError):
        Job(jid=0, submit_time=0, n_nodes=1, base_runtime=10,
            walltime_limit=20, mem_request_mb=-1, usage=UsageTrace.constant(1))


def test_negative_profile_index_rejected():
    # A negative index would silently price the job with the pool's
    # last profile.
    with pytest.raises(TraceError, match=r"job 7: negative profile index -1"):
        make_job(jid=7, profile=-1)


def test_walltime_clamped_to_runtime():
    job = make_job(runtime=1000, walltime=10)
    assert job.walltime_limit == 1000


def test_remaining_work():
    job = make_job(runtime=1000)
    assert job.remaining_work == 1000
    job.work_done = 400
    assert job.remaining_work == 600
    job.work_done = 2000
    assert job.remaining_work == 0


def test_memory_class():
    normal = make_job(request_mb=64 * 1024)
    large = make_job(request_mb=64 * 1024 + 1)
    assert not normal.is_large_memory(64 * 1024)
    assert large.is_large_memory(64 * 1024)


def test_peak_and_mean_usage():
    job = make_job(runtime=100)
    job.usage = UsageTrace([0.0, 50.0], [100, 300])
    assert job.peak_usage_mb == 300
    assert job.mean_usage_mb() == pytest.approx(200.0)


def test_reset_for_restart_fr_loses_progress():
    job = make_job()
    job.set_state(JobState.RUNNING)
    job.work_done = 500.0
    job.start_time = 10.0
    job.set_state(JobState.KILLED)
    job.reset_for_restart(now=700.0, keep_checkpoint=False)
    assert job.state is JobState.PENDING
    assert job.work_done == 0.0
    assert job.queue_time == 700.0
    assert job.restarts == 1
    assert job.start_time is None


def test_reset_for_restart_cr_keeps_progress():
    job = make_job()
    job.set_state(JobState.RUNNING)
    job.work_done = 500.0
    job.set_state(JobState.KILLED)
    job.reset_for_restart(now=700.0, keep_checkpoint=True)
    assert job.work_done == 500.0
    assert job.checkpointed_work == 500.0


def test_reset_requires_killed_state():
    job = make_job()
    with pytest.raises(ValueError):
        job.reset_for_restart(now=10.0)


def test_node_seconds():
    job = make_job(n_nodes=4, runtime=100)
    assert job.node_seconds() == 400.0
