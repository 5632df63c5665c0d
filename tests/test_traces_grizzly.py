"""Grizzly-like LDMS dataset generator and week sampling (Fig. 2)."""

import numpy as np
import pytest

from repro.core.errors import TraceError
from repro.core.units import MB_PER_GB, WEEK
from repro.traces.grizzly import (
    GRIZZLY_NODE_MEM_GB,
    LDMS_INTERVAL_S,
    generate_dataset,
)
from repro.traces.rdp import rdp


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(n_weeks=8, n_nodes=192, seed=3)


def test_week_count(dataset):
    assert len(dataset.weeks) == 8


def test_week_utilization_in_range(dataset):
    for util in dataset.utilizations():
        assert 0.2 <= util <= 1.0


def test_jobs_fill_target_load(dataset):
    week = dataset.weeks[0]
    total = sum(j.n_nodes * j.duration for j in week.jobs)
    assert total >= week.cpu_utilization() * week.n_nodes * WEEK * 0.99


def test_peaks_within_node_capacity(dataset):
    cap = GRIZZLY_NODE_MEM_GB * MB_PER_GB
    for week in dataset.weeks[:2]:
        for job in week.jobs[:200]:
            assert 0 < job.peak_memory_mb <= cap


def test_memory_mostly_small(dataset):
    """Table 2 Grizzly column: ~73% of jobs peak below 12 GB/node."""
    peaks = np.array(
        [j.peak_memory_mb for w in dataset.weeks for j in w.jobs]
    )
    frac_small = np.mean(peaks < 12 * MB_PER_GB)
    # Mixture of the small-job (63.5%) and large-job (77.8%) columns,
    # weighted by the generator's size mix.
    assert 0.55 <= frac_small <= 0.90


def test_sample_weeks_filters_by_utilization(dataset):
    selected = dataset.sample_weeks(k=3, utilization_threshold=0.5, seed=1)
    assert len(selected) == 3
    assert all(w.cpu_utilization() >= 0.5 for w in selected)


def test_sample_weeks_deterministic(dataset):
    a = [w.index for w in dataset.sample_weeks(k=3, seed=5)]
    b = [w.index for w in dataset.sample_weeks(k=3, seed=5)]
    assert a == b


def test_sample_weeks_threshold_too_high(dataset):
    with pytest.raises(TraceError):
        dataset.sample_weeks(utilization_threshold=1.01)


def test_week_statistics_shape(dataset):
    stats = dataset.week_statistics()
    assert stats.shape == (8, 3)
    assert (stats[:, 0] <= 1.0).all()
    assert (stats[:, 1] > 0).all()  # max node-hours
    assert (stats[:, 2] > 0).all()  # max memory


def test_ldms_series_and_rdp_compression(dataset):
    job = max(dataset.weeks[0].jobs, key=lambda j: j.duration)
    series = job.ldms_series()
    assert series.shape[1] == 2
    assert series[1, 0] - series[0, 0] == LDMS_INTERVAL_S
    scalar = [float(job.usage.usage_at(t)) for t in series[:, 0]]
    assert series[:, 1].tolist() == scalar
    compressed = rdp(series, epsilon=job.peak_memory_mb * 0.02)
    assert len(compressed) < len(series)


def test_validation():
    with pytest.raises(TraceError):
        generate_dataset(n_weeks=0)
