"""The declared fork state is complete.

Every class reachable from a paused simulation declares each of its
instance attributes exactly once (:mod:`repro.core.state`): as state
a what-if rollback captures, as fixed, or as deliberately surviving a
rollback.  These tests walk the live object graph from the
:class:`~repro.scheduler.simulator.SimulationHandle` of paused runs and
fail on any attribute nobody declared, and on declared names an
instance does not have.  A second walk fingerprints the whole graph and
checks that a fork plus rollback leaves it exactly as it was captured:
state restored, fixed attributes untouched.
"""

from __future__ import annotations

import types
from collections import deque
from dataclasses import fields, is_dataclass
from enum import Enum

import numpy as np
import pytest

from repro.cluster.allocation import JobAllocation
from repro.core.config import SystemConfig
from repro.core.state import ForkState, capture, restore
from repro.jobs.job import Job
from repro.obs.provenance import ProvenanceEvent
from repro.obs.registry import Counter, Gauge, Histogram
from repro.obs.telemetry import Telemetry
from repro.scheduler.simulator import build_simulation
from repro.traces.pipeline import synthetic_workload
from repro.whatif import AddMemNodes, SimSnapshot, SubmitJob, SwapPolicy, WhatIf

CONFIG = SystemConfig.from_memory_level(50, n_nodes=48)
PAUSE_AT = 23000.0

_SEQUENCES = (list, tuple, deque)
_CALLABLES = (types.FunctionType, types.MethodType, types.BuiltinFunctionType)


def _workload():
    return synthetic_workload(n_jobs=60, n_system_nodes=48, seed=7)


def _paused(policy, telemetry=None):
    wl = _workload()
    handle = build_simulation(wl.fresh_jobs(), CONFIG, policy=policy,
                              profiles=wl.profiles, telemetry=telemetry)
    handle.run_until(PAUSE_AT, inclusive=False)
    return handle


def _forked_and_restored():
    """A session parked at its fork point after queries that swapped
    the policy, added a job and grew capacity."""
    wl = _workload()
    session = WhatIf(wl.fresh_jobs(), CONFIG, policy="dynamic", at=PAUSE_AT,
                     profiles=wl.profiles, telemetry=Telemetry())
    session.query(SwapPolicy("static"), use_cache=False)
    session.query(SubmitJob(n_nodes=4, base_runtime=1800.0,
                            mem_request_mb=32768), use_cache=False)
    session.query(AddMemNodes(2, 32768), use_cache=False)
    return session.handle


PAUSED = {
    "dynamic": lambda: _paused("dynamic"),
    "static": lambda: _paused("static"),
    "baseline": lambda: _paused("baseline"),
    "dynamic+telemetry": lambda: _paused("dynamic", Telemetry()),
    "forked+restored": _forked_and_restored,
}


def _is_repro(value) -> bool:
    return type(value).__module__.startswith("repro.")


def _frozen(value) -> bool:
    """Frozen dataclasses are immutable by construction: all fixed."""
    return is_dataclass(value) and type(value).__dataclass_params__.frozen


def _attrs(obj):
    names = list(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        slots = vars(klass).get("__slots__", ())
        for slot in (slots,) if isinstance(slots, str) else slots:
            if slot != "__dict__" and hasattr(obj, slot):
                names.append(slot)
    return names


def _children(value):
    """``(label, child)`` pairs the walks descend into."""
    if isinstance(value, dict):
        return [(f"[{key!r}]", item) for key, item in value.items()]
    if isinstance(value, _SEQUENCES):
        return [(f"[{i}]", item) for i, item in enumerate(value)]
    if isinstance(value, (set, frozenset)):
        return [(f"{{{item!r}}}", item) for item in sorted(value, key=repr)]
    if not _is_repro(value) or isinstance(value, Enum):
        return []
    if _frozen(value):
        return [(f".{f.name}", getattr(value, f.name)) for f in fields(value)]
    decl = type(value).fork_state
    return [(f".{name}", getattr(value, name)) for name in decl.names
            if name not in decl.survive and hasattr(value, name)]


def undeclared(root):
    """Problems found walking the graph under ``root``, plus every
    declared class the walk met."""
    problems = []
    met = set()
    seen = set()
    stack = [("handle", root)]
    while stack:
        path, value = stack.pop()
        if id(value) in seen or isinstance(value, _CALLABLES):
            continue
        seen.add(id(value))
        if _is_repro(value) and not isinstance(value, Enum) \
                and not _frozen(value):
            cls = type(value)
            decl = getattr(cls, "fork_state", None)
            if not isinstance(decl, ForkState):
                problems.append(f"{path}: {cls.__qualname__} declares no "
                                "fork_state")
                continue
            met.add(cls)
            attrs = set(_attrs(value))
            for name in sorted(attrs - set(decl.names)):
                problems.append(f"{path}.{name}: not declared by "
                                f"{cls.__qualname__}.fork_state")
            for name in sorted(n for n in decl.names if not hasattr(value, n)):
                problems.append(f"{path}.{name}: declared by "
                                f"{cls.__qualname__} but not on the instance")
        stack.extend((path + label, child)
                     for label, child in reversed(_children(value)))
    return problems, met


def fingerprint(root):
    """Every leaf reachable from ``root`` (survivors excluded), by path.

    Objects reached twice appear once, then as references to their
    first path, so a rollback that rebinds an alias shows up too.
    """
    rows = []
    first = {}
    stack = [("handle", root)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, _CALLABLES):
            rows.append((path, getattr(value, "__qualname__", "")))
            continue
        if isinstance(value, np.random.Generator):
            value = value.bit_generator.state
        if not isinstance(value, (int, float, str, type(None), Enum)):
            if id(value) in first:
                rows.append((path, "-> " + first[id(value)]))
                continue
            first[id(value)] = path
        if isinstance(value, np.ndarray):
            rows.append((path, (value.dtype.str, value.shape,
                                value.tobytes())))
            continue
        children = _children(value)
        if children or isinstance(value, (dict, set, frozenset)
                                  + _SEQUENCES):
            rows.append((path, type(value).__qualname__))
            stack.extend((path + label, child)
                         for label, child in reversed(children))
        elif _is_repro(value) and not isinstance(value, Enum):
            rows.append((path, type(value).__qualname__))
        else:
            rows.append((path, repr(value)))
    return rows


# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(PAUSED))
def test_every_reachable_attribute_is_declared(name):
    problems, met = undeclared(PAUSED[name]())
    assert not problems, "\n".join(problems)
    assert {Job, JobAllocation} <= met


def test_telemetry_objects_are_walked():
    _, met = undeclared(PAUSED["dynamic+telemetry"]())
    assert {Counter, Gauge, Histogram, ProvenanceEvent} <= met


def test_undeclared_attribute_on_a_reachable_object_fails():
    handle = PAUSED["dynamic"]()
    handle.cluster.extra_ledger = {}
    job = next(iter(handle.controller.jobs.values()))
    job.note = "undeclared"
    problems, _ = undeclared(handle)
    assert any(p.endswith(".extra_ledger: not declared by "
                          "Cluster.fork_state") for p in problems)
    assert any(".note: not declared by Job.fork_state" in p
               for p in problems)


def test_declared_name_missing_from_an_instance_fails():
    handle = PAUSED["static"]()
    del handle.controller._dirty
    problems, _ = undeclared(handle)
    assert any(p.endswith("._dirty: declared by Controller but not on the "
                          "instance") for p in problems)


#: (memory level, pause time): lending under way at the pause; at level
#: 25 the suffix also OOM-kills and restarts a job
FORK_POINTS = [(50, PAUSE_AT), (25, 20000.0)]


@pytest.mark.parametrize("level,pause_at", FORK_POINTS)
def test_a_fork_and_rollback_restores_the_whole_graph(level, pause_at):
    """State is rolled back and fixed attributes are untouched: the
    graph fingerprint after a fork's suffix plus a rollback equals the
    fingerprint at capture."""
    wl = _workload()
    config = SystemConfig.from_memory_level(level, n_nodes=48)
    handle = build_simulation(wl.fresh_jobs(), config, policy="dynamic",
                              profiles=wl.profiles, telemetry=Telemetry())
    handle.run_until(pause_at, inclusive=False)
    snap = SimSnapshot.capture(handle)
    before = fingerprint(handle)
    kills = []
    for pert in (SwapPolicy("static"), AddMemNodes(2, 32768),
                 SubmitJob(n_nodes=4, base_runtime=1800.0,
                           mem_request_mb=32768)):
        snap.restore()
        pert.apply(handle)
        kills.append(handle.finish().oom_kills)
        snap.restore()
        after = fingerprint(handle)
        diff = [(b, a) for b, a in zip(before, after) if b != a]
        assert not diff and len(before) == len(after), diff[:5]
    assert level == 50 or max(kills) > handle.controller.result.oom_kills


def test_capture_restore_round_trips_a_declared_object():
    registry = Telemetry().registry
    registry.inc("ticks", 2)
    registry.observe("wait_s", 5.0, (1.0, 10.0))
    state = capture(registry)
    registry.inc("ticks")
    registry.inc("new_counter")
    registry.observe("wait_s", 50.0)
    registry.sample(1.0)
    restore(registry, state)
    assert registry.to_dict() == {
        "counters": {"ticks": 2}, "gauges": {},
        "histograms": {"wait_s": {"bounds": [1.0, 10.0], "counts": [0, 1, 0],
                                  "sum": 5.0, "count": 1}},
        "series": [],
    }


def test_declarations_are_checked():
    with pytest.raises(ValueError):
        ForkState(values=("a",), fixed=("a",))
    with pytest.raises(TypeError):
        ForkState(mutable=("a",))

    class Undeclared:
        pass

    with pytest.raises(TypeError):
        capture(Undeclared())
