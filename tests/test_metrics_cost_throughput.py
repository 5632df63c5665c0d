"""Cost model and throughput normalisation."""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.metrics.cost import (
    cluster_cost_usd,
    cost_benefit_gain,
    throughput_per_dollar,
)
from repro.metrics.records import SimulationResult
from repro.metrics.throughput import (
    normalized_throughput,
    relative_gain,
    throughput_table,
)

from test_metrics_records import record


def result_with_throughput(n_jobs, span, policy="static"):
    res = SimulationResult(policy=policy, total_nodes=10,
                           total_capacity_mb=10 * 65536)
    for i in range(n_jobs):
        res.records.append(record(jid=i))
    res.first_submit = 0.0
    res.makespan = span
    return res


def test_cost_matches_paper_scale():
    """1024 nodes, all-large: ~ $10.5M nodes + $1.3M memory."""
    cfg = SystemConfig.from_memory_level(100, n_nodes=1024)
    cost = cluster_cost_usd(cfg)
    assert cost == pytest.approx(1024 * 10154 + 1024 * 1280)


def test_throughput_per_dollar_magnitude():
    """Sanity-check against Fig. 7's 4-8e-8 jobs/s/$ range."""
    cfg = SystemConfig.from_memory_level(100, n_nodes=1024)
    res = result_with_throughput(500, span=1000 / 0.6)  # 0.3 jobs/s... scaled
    res.makespan = 500 / 0.55  # throughput 0.55 jobs/s
    tpd = throughput_per_dollar(res, cfg)
    assert 1e-8 < tpd < 1e-7


def test_cost_benefit_gain():
    cfg = SystemConfig.from_memory_level(50, n_nodes=8)
    static = result_with_throughput(100, span=1000.0)
    dynamic = result_with_throughput(110, span=1000.0, policy="dynamic")
    assert cost_benefit_gain(dynamic, static, cfg) == pytest.approx(0.10)


def test_normalized_throughput():
    ref = result_with_throughput(100, span=1000.0)
    res = result_with_throughput(80, span=1000.0)
    assert normalized_throughput(res, ref) == pytest.approx(0.8)


def test_normalized_throughput_missing_bar():
    ref = result_with_throughput(100, span=1000.0)
    res = result_with_throughput(80, span=1000.0)
    res.unrunnable.append(1)
    assert normalized_throughput(res, ref) is None


def test_relative_gain():
    a = result_with_throughput(113, span=1000.0)
    b = result_with_throughput(100, span=1000.0)
    assert relative_gain(a, b) == pytest.approx(0.13)


def test_throughput_table():
    ref = result_with_throughput(100, span=1000.0)
    table = throughput_table({"static": ref}, ref)
    assert table["static"] == pytest.approx(1.0)
