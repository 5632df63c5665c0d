"""Job record semantics."""

import numpy as np
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


@pytest.mark.parametrize("field", ["submit_time", "base_runtime",
                                   "walltime_limit"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   "60", None])
def test_time_that_is_not_a_finite_number_rejected(field, value):
    # NaN passed every comparison and ran; inf overflowed in the engine;
    # a string failed in some later comparison with a TypeError.
    fields = dict(jid=3, submit_time=0.0, n_nodes=2, base_runtime=60.0,
                  walltime_limit=120.0, mem_request_mb=1024,
                  usage=UsageTrace.constant(1024))
    fields[field] = value
    with pytest.raises(TraceError, match=rf"job 3: field '{field}'"):
        Job(**fields)


@pytest.mark.parametrize("n_nodes", ["4", 4.0, 2.5])
def test_non_integer_node_count_rejected(n_nodes):
    with pytest.raises(TraceError, match=r"job 5: field 'n_nodes'"):
        make_job(jid=5, n_nodes=n_nodes)


def test_numpy_scalars_still_load():
    job = Job(jid=np.int64(9), submit_time=np.float64(5.0),
              n_nodes=np.int64(2), base_runtime=np.float64(60.0),
              walltime_limit=np.float32(90.0), mem_request_mb=np.int32(512),
              usage=UsageTrace.constant(512))
    assert job.n_nodes == 2 and job.walltime_limit == 90.0


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
