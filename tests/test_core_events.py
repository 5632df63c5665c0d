"""Event queue ordering, cancellation, determinism."""

import pytest

from repro.core.events import EventKind, EventQueue


def test_orders_by_time():
    q = EventQueue()
    q.push(5.0, EventKind.JOB_SUBMIT, "b")
    q.push(1.0, EventKind.JOB_SUBMIT, "a")
    q.push(9.0, EventKind.JOB_SUBMIT, "c")
    assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]


def test_kind_rank_breaks_time_ties():
    """Finishes run before scheduler passes at the same timestamp."""
    q = EventQueue()
    q.push(10.0, EventKind.SCHED_PASS, "sched")
    q.push(10.0, EventKind.JOB_FINISH, "finish")
    q.push(10.0, EventKind.MEM_UPDATE, "mem")
    kinds = [q.pop().kind for _ in range(3)]
    assert kinds == [EventKind.JOB_FINISH, EventKind.MEM_UPDATE, EventKind.SCHED_PASS]


def test_sequence_breaks_full_ties():
    q = EventQueue()
    first = q.push(1.0, EventKind.JOB_SUBMIT, "first")
    second = q.push(1.0, EventKind.JOB_SUBMIT, "second")
    assert first.seq < second.seq
    assert q.pop().payload == "first"
    assert q.pop().payload == "second"


def test_cancel_skips_event():
    q = EventQueue()
    ev = q.push(1.0, EventKind.JOB_FINISH, "dead")
    q.push(2.0, EventKind.JOB_FINISH, "alive")
    q.cancel(ev)
    assert len(q) == 1
    assert q.pop().payload == "alive"
    assert q.pop() is None


def test_cancel_twice_is_idempotent():
    q = EventQueue()
    ev = q.push(1.0, EventKind.JOB_FINISH, None)
    q.cancel(ev)
    q.cancel(ev)
    assert len(q) == 0


def test_peek_time_skips_cancelled():
    q = EventQueue()
    ev = q.push(1.0, EventKind.JOB_FINISH, None)
    q.push(5.0, EventKind.JOB_FINISH, None)
    q.cancel(ev)
    assert q.peek_time() == 5.0


def test_len_and_bool():
    q = EventQueue()
    assert not q
    q.push(0.0, EventKind.TELEMETRY, None)
    assert q and len(q) == 1


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(float("nan"), EventKind.TELEMETRY, None)


def test_drain_yields_in_order():
    q = EventQueue()
    for t in (3.0, 1.0, 2.0):
        q.push(t, EventKind.TELEMETRY, t)
    assert [e.payload for e in q.drain()] == [1.0, 2.0, 3.0]


def test_heap_stays_bounded_under_repeated_reschedule():
    """Cancel-heavy workloads (repricing) must not grow the heap without
    bound: tombstones are compacted once they outnumber live entries."""
    q = EventQueue()
    ev = q.push(1.0, EventKind.JOB_FINISH, "job")
    for i in range(10_000):
        q.cancel(ev)
        ev = q.push(float(i + 2), EventKind.JOB_FINISH, "job")
    assert len(q) == 1
    assert len(q._heap) <= 2 * max(len(q), 64)
    assert q.pop().payload == "job"
    assert q.pop() is None


def test_compaction_preserves_pop_order():
    q = EventQueue()
    events = [q.push(float(t), EventKind.JOB_FINISH, t) for t in range(200)]
    for ev in events[::2]:
        q.cancel(ev)  # triggers compaction part-way through
    assert [e.payload for e in q.drain()] == list(range(1, 200, 2))
