"""A minimal deterministic discrete-event engine.

The engine owns the clock and the event queue and dispatches events to
handlers registered per :class:`~repro.core.events.EventKind`.  It is
deliberately tiny: the scheduling *semantics* live in
:mod:`repro.scheduler.simulator`, which registers its handlers here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .errors import SimulationError
from .events import Event, EventKind, EventQueue
from .state import ForkState

Handler = Callable[["Engine", Event], None]


class Engine:
    """Event loop with a monotone clock and per-kind handlers."""

    fork_state = ForkState(
        values=("now", "events_processed", "_stopped"),
        objects=("queue",),
        fixed=("_handlers",),
    )

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now: float = 0.0
        self.events_processed: int = 0
        self._handlers: Dict[EventKind, Handler] = {}
        self._stopped = False

    def on(self, kind: EventKind, handler: Handler) -> None:
        """Register ``handler`` for events of ``kind`` (one per kind)."""
        self._handlers[kind] = handler

    def at(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule {kind.name} at {time} before now={self.now}"
            )
        return self.queue.push(time, kind, payload)

    def after(self, delay: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for {kind.name}")
        return self.queue.push(self.now + delay, kind, payload)

    def cancel(self, ev: Event) -> None:
        self.queue.cancel(ev)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 100_000_000,
        inclusive: bool = True,
    ) -> float:
        """Process events until the queue drains, ``until`` passes, or stop().

        ``inclusive`` controls the boundary: by default events stamped
        exactly ``until`` are processed; ``inclusive=False`` stops just
        before them (the what-if fork semantics — events at the fork
        time belong to the replayed suffix, so a perturbation injected
        at the fork time interleaves with them in within-tick rank
        order, exactly as a fresh run would order it).

        Returns the final clock value.
        """
        self._stopped = False
        processed = 0
        while not self._stopped:
            nxt = self.queue.peek_time()
            if nxt is None:
                break
            if until is not None and (nxt > until or
                                      (not inclusive and nxt >= until)):
                self.now = until
                break
            ev = self.queue.pop()
            assert ev is not None
            if ev.time < self.now:
                raise SimulationError(
                    f"time went backwards: {ev.time} < {self.now} ({ev.kind.name})"
                )
            self.now = ev.time
            handler = self._handlers.get(ev.kind)
            if handler is None:
                raise SimulationError(f"no handler for event kind {ev.kind.name}")
            handler(self, ev)
            processed += 1
            self.events_processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
        return self.now
