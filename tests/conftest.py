"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os
import sys

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.jobs.job import Job
from repro.jobs.usage import UsageTrace
from repro.traces.pipeline import synthetic_workload


#: Wall-clock bound on one test (s).  The slowest tier-1 test takes a
#: few seconds, so only a hang reaches it.
TEST_TIME_LIMIT_S = 120

#: A copy of the terminal's stderr for hang tracebacks: test output is
#: captured, and a capture file is lost when the process exits.
_TRACEBACK_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output is not captured while pytest configures its plugins.
    config.stash[_TRACEBACK_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_TRACEBACK_FD])


@pytest.fixture(autouse=True)
def _bounded_wall_time(pytestconfig):
    """Fail the run when a test hangs instead of letting it run on.

    Past the bound, :mod:`faulthandler` prints every thread's traceback
    to the terminal and exits the process.
    """
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=pytestconfig.stash[_TRACEBACK_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> SystemConfig:
    """A small mixed cluster: 8 large (128 GB) + 24 normal (64 GB) nodes."""
    return SystemConfig(n_nodes=32, normal_mem_gb=64, large_mem_gb=128,
                        frac_large_nodes=0.25)


@pytest.fixture
def tiny_config() -> SystemConfig:
    """4 normal nodes, 64 GB each."""
    return SystemConfig(n_nodes=4, normal_mem_gb=64, large_mem_gb=128,
                        frac_large_nodes=0.0)


def make_job(
    jid: int = 0,
    submit: float = 0.0,
    n_nodes: int = 1,
    runtime: float = 1000.0,
    request_mb: int = 8192,
    peak_mb: int = None,
    walltime: float = None,
    profile: int = 0,
) -> Job:
    """Convenience job constructor with a flat usage trace."""
    peak = request_mb if peak_mb is None else peak_mb
    return Job(
        jid=jid,
        submit_time=submit,
        n_nodes=n_nodes,
        base_runtime=runtime,
        walltime_limit=walltime if walltime is not None else runtime * 2,
        mem_request_mb=request_mb,
        usage=UsageTrace.constant(peak),
        profile=profile,
    )


@pytest.fixture
def job_factory():
    return make_job


@pytest.fixture(scope="session")
def shared_workload():
    """One medium synthetic workload reused by read-only tests."""
    return synthetic_workload(
        n_jobs=300, frac_large=0.4, overestimation=0.0,
        n_system_nodes=96, seed=7,
    )
