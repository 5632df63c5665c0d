"""Microbenchmarks: engine event rate, simulation speed, RDP throughput.

These time the hot kernels (unlike the figure benches, which time whole
sweeps), guarding against performance regressions in the simulator core.
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.engine import Engine
from repro.core.rng import ensure_rng
from repro.core.events import EventKind
from repro.jobs.usage import UsageTrace
from repro.scheduler.simulator import simulate
from repro.traces.pipeline import synthetic_workload
from repro.traces.rdp import VERTICAL, rdp_indices


def test_engine_event_rate(benchmark):
    """Raw event dispatch throughput of the DES engine."""

    def dispatch_10k():
        engine = Engine()
        engine.on(EventKind.TELEMETRY, lambda e, ev: None)
        for i in range(10_000):
            engine.at(float(i), EventKind.TELEMETRY)
        engine.run()
        return engine.events_processed

    processed = benchmark(dispatch_10k)
    assert processed == 10_000


def test_simulation_rate(benchmark):
    """End-to-end jobs simulated per wall second (static policy)."""
    wl = synthetic_workload(n_jobs=200, frac_large=0.5, overestimation=0.6,
                            n_system_nodes=96, seed=1)
    cfg = SystemConfig.from_memory_level(62, n_nodes=96)

    def run():
        return simulate(wl.fresh_jobs(), cfg, policy="static")

    res = benchmark(run)
    assert res.n_completed > 150


def test_dynamic_simulation_rate(benchmark):
    """Dynamic policy costs more per job (5-minute updates); keep it sane."""
    wl = synthetic_workload(n_jobs=200, frac_large=0.5, overestimation=0.6,
                            n_system_nodes=96, seed=1)
    cfg = SystemConfig.from_memory_level(62, n_nodes=96)

    def run():
        return simulate(wl.fresh_jobs(), cfg, policy="dynamic")

    res = benchmark(run)
    assert res.n_completed > 150


def test_rdp_rate(benchmark):
    """RDP compression of an LDMS-sized series (86k ten-second samples
    = one day of one node)."""
    rng = ensure_rng(0)
    n = 86_400 // 10
    levels = np.repeat(rng.integers(1000, 60000, size=24), n // 24 + 1)[:n]
    pts = np.column_stack([np.arange(n) * 10.0,
                           levels + rng.integers(0, 200, size=n)])

    keep = benchmark(rdp_indices, pts, 500.0, VERTICAL)
    assert 2 <= len(keep) < n


def test_usage_trace_query_rate(benchmark):
    """max_in is on the Decider's hot path (once per job per 5 min)."""
    trace = UsageTrace(np.arange(500) * 60.0,
                       np.abs(np.sin(np.arange(500))) * 10000 + 100)

    def queries():
        total = 0
        for p in range(0, 30000, 100):
            total += trace.max_in(float(p), float(p + 300))
        return total

    assert benchmark(queries) > 0
