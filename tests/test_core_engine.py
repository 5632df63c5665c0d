"""Discrete-event engine semantics."""

import pytest

from repro.core.engine import Engine
from repro.core.errors import SimulationError
from repro.core.events import EventKind


def test_runs_handlers_in_time_order():
    engine = Engine()
    seen = []
    engine.on(EventKind.TELEMETRY, lambda e, ev: seen.append(ev.payload))
    engine.at(3.0, EventKind.TELEMETRY, "c")
    engine.at(1.0, EventKind.TELEMETRY, "a")
    engine.at(2.0, EventKind.TELEMETRY, "b")
    end = engine.run()
    assert seen == ["a", "b", "c"]
    assert end == 3.0


def test_handler_can_schedule_more_events():
    engine = Engine()
    count = []

    def handler(eng, ev):
        count.append(eng.now)
        if len(count) < 3:
            eng.after(10.0, EventKind.TELEMETRY)

    engine.on(EventKind.TELEMETRY, handler)
    engine.at(0.0, EventKind.TELEMETRY)
    engine.run()
    assert count == [0.0, 10.0, 20.0]


def test_until_stops_clock():
    engine = Engine()
    engine.on(EventKind.TELEMETRY, lambda e, ev: None)
    engine.at(100.0, EventKind.TELEMETRY)
    end = engine.run(until=50.0)
    assert end == 50.0
    assert len(engine.queue) == 1  # event still pending


def test_stop_exits_loop():
    engine = Engine()
    engine.on(EventKind.TELEMETRY, lambda eng, ev: eng.stop())
    engine.at(1.0, EventKind.TELEMETRY)
    engine.at(2.0, EventKind.TELEMETRY)
    engine.run()
    assert len(engine.queue) == 1


def test_cannot_schedule_in_past():
    engine = Engine()
    engine.on(EventKind.TELEMETRY, lambda e, ev: None)
    engine.at(5.0, EventKind.TELEMETRY)
    engine.run()
    with pytest.raises(SimulationError):
        engine.at(1.0, EventKind.TELEMETRY)


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.after(-1.0, EventKind.TELEMETRY)


def test_missing_handler_raises():
    engine = Engine()
    engine.at(0.0, EventKind.JOB_FINISH)
    with pytest.raises(SimulationError):
        engine.run()


def test_max_events_guard():
    engine = Engine()
    engine.on(EventKind.TELEMETRY, lambda eng, ev: eng.after(1.0, EventKind.TELEMETRY))
    engine.at(0.0, EventKind.TELEMETRY)
    with pytest.raises(SimulationError):
        engine.run(max_events=100)


def test_cancel_through_engine():
    engine = Engine()
    seen = []
    engine.on(EventKind.TELEMETRY, lambda e, ev: seen.append(ev.payload))
    ev = engine.at(1.0, EventKind.TELEMETRY, "dead")
    engine.at(2.0, EventKind.TELEMETRY, "alive")
    engine.cancel(ev)
    engine.run()
    assert seen == ["alive"]


def test_events_processed_counter():
    engine = Engine()
    engine.on(EventKind.TELEMETRY, lambda e, ev: None)
    for t in range(5):
        engine.at(float(t), EventKind.TELEMETRY)
    engine.run()
    assert engine.events_processed == 5
