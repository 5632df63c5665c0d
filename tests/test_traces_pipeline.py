"""End-to-end trace generation (Fig. 3 pipeline)."""

import hashlib

import numpy as np
import pytest

from repro.core.errors import TraceError
from repro.traces import google
from repro.traces.archer import LARGE_MEMORY_THRESHOLD_MB
from repro.traces.pipeline import grizzly_workload, synthetic_workload
from repro.traces.shapes import phased_usage, spike_usage


class TestSyntheticWorkload:
    def test_job_count_and_order(self, shared_workload):
        jobs = shared_workload.jobs
        assert len(jobs) == 300
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)

    def test_request_equals_peak_at_zero_overestimation(self, shared_workload):
        for job in shared_workload.jobs:
            assert job.mem_request_mb == job.usage.peak()

    def test_overestimation_scales_requests(self):
        wl = synthetic_workload(n_jobs=50, overestimation=0.6,
                                n_system_nodes=64, seed=1)
        for job in wl.jobs:
            assert job.mem_request_mb == int(round(job.usage.peak() * 1.6))

    def test_frac_large_controlled(self):
        for frac in (0.0, 0.5, 1.0):
            wl = synthetic_workload(n_jobs=400, frac_large=frac,
                                    n_system_nodes=64, seed=2)
            measured = np.mean(
                [j.usage.peak() > LARGE_MEMORY_THRESHOLD_MB for j in wl.jobs]
            )
            assert measured == pytest.approx(frac, abs=0.08)

    def test_max_job_nodes_defaults_to_eighth(self):
        wl = synthetic_workload(n_jobs=300, n_system_nodes=64, seed=3)
        assert max(j.n_nodes for j in wl.jobs) <= 8

    def test_profiles_assigned(self, shared_workload):
        n_prof = len(shared_workload.profiles)
        assert all(0 <= j.profile < n_prof for j in shared_workload.jobs)

    def test_usage_varies_over_time(self, shared_workload):
        """Donor grafting must produce non-flat traces (Fig. 4a vs 4b)."""
        varying = sum(1 for j in shared_workload.jobs if len(j.usage) > 1)
        assert varying > len(shared_workload.jobs) * 0.5
        ratios = [
            j.usage.mean(j.base_runtime) / j.usage.peak()
            for j in shared_workload.jobs
        ]
        assert 0.3 < np.mean(ratios) < 0.9

    def test_walltime_at_least_runtime(self, shared_workload):
        for j in shared_workload.jobs:
            assert j.walltime_limit >= j.base_runtime

    def test_meta_fields(self, shared_workload):
        assert shared_workload.meta["kind"] == "synthetic"
        assert shared_workload.meta["n_jobs"] == 300

    def test_deterministic(self):
        a = synthetic_workload(n_jobs=40, n_system_nodes=32, seed=9)
        b = synthetic_workload(n_jobs=40, n_system_nodes=32, seed=9)
        for x, y in zip(a.jobs, b.jobs):
            assert x.submit_time == y.submit_time
            assert x.mem_request_mb == y.mem_request_mb
            assert np.array_equal(x.usage.mem_mb, y.usage.mem_mb)

    def test_generated_bytes_pinned(self):
        """Generation output is pinned byte for byte: every job's usage
        trace, and the window tables of a donor pool.  The digest was
        recorded with per-window scalar ``max_in``/``usage_at`` queries,
        so the batch queries must reproduce them exactly."""
        h = hashlib.sha256()
        wl = synthetic_workload(n_jobs=80, n_system_nodes=64, seed=11)
        for job in wl.jobs:
            h.update(job.usage.times.astype("<f8").tobytes())
            h.update(job.usage.mem_mb.astype("<i8").tobytes())
        for donor in google.generate(300, seed=5):
            h.update(donor.avg_usage.astype("<f8").tobytes())
            h.update(donor.max_usage.astype("<f8").tobytes())
        assert h.hexdigest() == (
            "bbfe620124892561c73b481359cc8b1d843bff675193aef4a245aff5f88cf23c"
        )

    def test_generated_fields_pinned(self):
        """Everything else generation emits is pinned too: the synthetic
        jobs' scalar fields, a ``node_imbalance`` workload's per-rank
        scales, the donors' descriptions and a scaled Grizzly workload.
        Fields enter the digest by ``repr``, so a value that changes type
        (``int`` to ``np.int64``, say) changes the digest as well."""
        h = hashlib.sha256()

        def add(value):
            h.update(repr(value).encode())

        def add_jobs(wl):
            for j in wl.jobs:
                add((j.jid, j.submit_time, j.n_nodes, j.base_runtime,
                     j.walltime_limit, j.mem_request_mb, j.profile, j.user,
                     j.node_scale))
                h.update(j.usage.times.astype("<f8").tobytes())
                h.update(j.usage.mem_mb.astype("<i8").tobytes())

        add_jobs(synthetic_workload(n_jobs=80, n_system_nodes=64, seed=11))
        add_jobs(synthetic_workload(n_jobs=60, n_system_nodes=64,
                                    node_imbalance=0.2, seed=13))
        for d in google.generate(300, seed=5):
            add((d.job_id, d.tier.value, d.scheduling_class, d.n_tasks,
                 d.runtime, d.end_status.value))
        add_jobs(grizzly_workload(n_system_nodes=128, scale_jobs=150, seed=4))
        assert h.hexdigest() == (
            "b9c077b3285cea9e55d8437f4a9baf4e40b407ef6b09410e04da045ff33f595f"
        )

    def test_validation(self):
        with pytest.raises(TraceError):
            synthetic_workload(n_jobs=0)
        with pytest.raises(TraceError):
            synthetic_workload(n_jobs=10, frac_large=1.5)


class TestGrizzlyWorkload:
    @pytest.fixture(scope="class")
    def wl(self):
        return grizzly_workload(n_system_nodes=128, scale_jobs=150, seed=4)

    def test_job_count_scaled(self, wl):
        assert len(wl.jobs) == 150

    def test_submission_times_generated(self, wl):
        submits = [j.submit_time for j in wl.jobs]
        assert submits == sorted(submits)
        assert max(submits) > 0

    def test_sizes_fit_system(self, wl):
        assert max(j.n_nodes for j in wl.jobs) <= 128

    def test_meta(self, wl):
        assert wl.meta["kind"] == "grizzly"
        assert 0 < wl.meta["week_utilization"] <= 0.95

    def test_overestimation_applied(self):
        wl = grizzly_workload(n_system_nodes=64, scale_jobs=50,
                              overestimation=0.5, seed=5)
        for j in wl.jobs:
            assert j.mem_request_mb == int(round(j.usage.peak() * 1.5))


class TestUsageShapes:
    def test_phased_usage_peak_pinned(self, rng):
        t = phased_usage(rng, peak_mb=10000, duration=3600.0)
        assert t.peak() == 10000
        assert t.times[-1] < 3600.0

    def test_phased_usage_average_below_peak(self, rng):
        ratios = []
        for _ in range(100):
            t = phased_usage(rng, peak_mb=10000, duration=1000.0)
            ratios.append(t.mean(1000.0) / t.peak())
        assert 0.35 < np.mean(ratios) < 0.8

    def test_phased_usage_validation(self, rng):
        with pytest.raises(ValueError):
            phased_usage(rng, peak_mb=100, duration=0.0)

    def test_spike_usage_shape(self, rng):
        t = spike_usage(rng, peak_mb=10000, duration=1000.0)
        assert t.peak() == 10000
        assert t.mean(1000.0) < 0.6 * t.peak()
