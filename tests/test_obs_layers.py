"""The wall-clock layer table (repro.obs.layers)."""

import math
import types

import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import SystemConfig
from repro.core.errors import SimulationError
from repro.obs.layers import LAYER_POINTS, ROOT, LayerTimer, resolve
from repro.obs.telemetry import Telemetry
from repro.policies.dynamic import DynamicDisaggregatedPolicy
from repro.scheduler.simulator import build_simulation
from repro.traces.pipeline import synthetic_workload
from repro.whatif import SubmitJob, WhatIf

# The borrowing run of CI's obs-smoke job: 60 jobs, 64 nodes, a quarter
# of them large-memory, half the memory of a full system.
N_NODES = 64
CONFIG = SystemConfig.from_memory_level(50, n_nodes=N_NODES)


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(n_jobs=60, frac_large=0.25,
                              n_system_nodes=N_NODES, seed=0)


def _handle(workload, telemetry, **kw):
    return build_simulation(workload.fresh_jobs(), CONFIG, policy="dynamic",
                            profiles=workload.profiles, telemetry=telemetry,
                            **kw)


def _points():
    return {(owner, attr): vars(owner)[attr]
            for owner, attr in (resolve(m, q) for m, q, _ in LAYER_POINTS)}


def _timed(fn) -> bool:
    return hasattr(fn, "__layer__")


def test_every_point_resolves_to_a_function_on_its_owner():
    layers = [layer for _, _, layer in LAYER_POINTS]
    assert len(set(layers)) == len(layers)
    for module, qualname, _ in LAYER_POINTS:
        owner, attr = resolve(module, qualname)
        assert isinstance(vars(owner)[attr], types.FunctionType), qualname


def test_every_original_is_restored_after_a_run(workload, monkeypatch):
    originals = _points()
    handle = _handle(workload, Telemetry())
    rows = handle.telemetry.tracer.rows
    raw = handle.engine._handlers
    handle.run_until(20000.0)
    assert _points() == originals
    assert handle.engine._handlers is raw
    # A point patched between two runs is timed through the patch, and
    # the patch is what the next run puts back.
    released = []
    release = Cluster.release

    def counted(self, jid):
        released.append(jid)
        return release(self, jid)

    monkeypatch.setattr(Cluster, "release", counted)
    before = rows["cluster.release"][0]
    handle.finish()
    assert vars(Cluster)["release"] is counted
    assert rows["cluster.release"][0] == before + len(released) > before
    assert handle.engine._handlers is raw
    assert rows[ROOT][0] == 2
    monkeypatch.undo()
    assert _points() == originals


def test_a_run_that_raises_restores_every_original(workload):
    originals = _points()
    handle = _handle(workload, Telemetry(), max_events=50)
    raw = handle.engine._handlers
    with pytest.raises(SimulationError, match="max_events"):
        handle.finish()
    assert _points() == originals
    assert handle.engine._handlers is raw


@pytest.mark.parametrize("telemetry", ["none", "metrics-only", "full"])
def test_only_a_tracing_run_patches_the_points(workload, monkeypatch,
                                               telemetry):
    """A probe in ``_monitor`` sees every other point and the handler
    dict as they are mid-run: raw unless the telemetry traces."""
    tel = {"none": None, "metrics-only": Telemetry(trace_spans=False),
           "full": Telemetry()}[telemetry]
    handle = _handle(workload, tel)
    raw = handle.engine._handlers
    seen = []
    monitor = DynamicDisaggregatedPolicy._monitor

    def probe(self, *args):
        points = [fn for (owner, attr), fn in _points().items()
                  if attr != "_monitor"]
        seen.append((sum(map(_timed, points)), len(points),
                     handle.engine._handlers is raw))
        return monitor(self, *args)

    monkeypatch.setattr(DynamicDisaggregatedPolicy, "_monitor", probe)
    handle.finish()
    assert seen
    if telemetry == "full":
        assert all(n == total and not is_raw for n, total, is_raw in seen)
    else:
        assert all(n == 0 and is_raw for n, _, is_raw in seen)


def test_a_nested_attach_raises_and_leaves_the_outer_intact(workload):
    originals = _points()
    handle = _handle(workload, None)
    engine = handle.engine
    raw = engine._handlers
    timer = LayerTimer()
    with timer.attached(engine):
        patched = _points()
        wrapped = engine._handlers
        assert all(_timed(fn) for fn in patched.values())
        for nested in (timer, LayerTimer()):
            with pytest.raises(RuntimeError, match="nested attach"):
                with nested.attached(engine):
                    pass  # pragma: no cover
            assert _points() == patched
            assert engine._handlers is wrapped
        engine.run(until=20000.0)
    assert _points() == originals
    assert engine._handlers is raw
    assert timer.rows[ROOT][0] == 1


def test_self_times_sum_to_the_root_total(workload):
    tel = Telemetry()
    handle = _handle(workload, tel)
    handle.finish()
    table = tel.tracer.table()
    rows = {row["name"]: row for row in table}
    # The run borrows remote memory, so every layer on that path ran.
    assert rows["cluster.memorypool.split_borrow"]["calls"] > 0
    assert rows["cluster.resize"]["calls"] > 0
    assert rows["policy.actuator"]["calls"] > 0
    root = rows[ROOT]["total_s"]
    assert math.isclose(sum(row["self_s"] for row in table), root,
                        rel_tol=1e-9)
    assert all(0.0 <= row["self_s"] <= row["total_s"] for row in table)
    layers = {layer for _, _, layer in LAYER_POINTS} | {ROOT}
    assert {name for name in rows if not name.startswith("scheduler.on_")} \
        <= layers


def test_calls_count_what_the_run_did(workload, monkeypatch):
    evaluations = []
    monitor = DynamicDisaggregatedPolicy._monitor

    def counted(self, job, *args):
        evaluations.append(job.jid)
        return monitor(self, job, *args)

    monkeypatch.setattr(DynamicDisaggregatedPolicy, "_monitor", counted)
    tel = Telemetry()
    _handle(workload, tel).finish()
    rows = tel.tracer.rows
    assert rows["cluster.apply"][0] == \
        tel.registry.counters["jobs_started"].value
    assert rows["policy.monitor"][0] == len(evaluations) > 0
    assert rows["scheduler.on_submit"][0] == len(workload)


def test_the_table_survives_a_whatif_rollback(workload):
    tel = Telemetry()
    session = WhatIf(workload.fresh_jobs(), CONFIG, policy="dynamic",
                     at=20000.0, profiles=workload.profiles, telemetry=tel)
    runs = tel.tracer.rows[ROOT][0]
    session.query(SubmitJob(n_nodes=4, base_runtime=1800.0,
                            mem_request_mb=32768))
    assert tel.tracer.rows[ROOT][0] == runs + 1
