"""Job lifecycle states and the legal transition map."""

from __future__ import annotations

from enum import Enum


class JobState(Enum):
    """Lifecycle of a job inside the simulator.

    ``KILLED`` is transient: a job killed for out-of-memory is resubmitted
    (Fail/Restart or Checkpoint/Restart, paper §2.2) and returns to
    ``PENDING``.  ``UNRUNNABLE`` marks jobs that no configuration of the
    simulated system can ever satisfy (e.g. baseline policy with a memory
    request above the largest node) — the "missing bars" of Fig. 5.
    """

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    KILLED = "killed"
    TIMEOUT = "timeout"
    UNRUNNABLE = "unrunnable"


#: Legal state transitions.  ``TIMEOUT`` (wall-limit kill, terminal) only
#: occurs when the simulator is configured to enforce wall limits.
TRANSITIONS = {
    JobState.PENDING: {JobState.RUNNING, JobState.UNRUNNABLE},
    JobState.RUNNING: {JobState.COMPLETED, JobState.KILLED, JobState.TIMEOUT},
    JobState.KILLED: {JobState.PENDING},
    JobState.COMPLETED: set(),
    JobState.TIMEOUT: set(),
    JobState.UNRUNNABLE: set(),
}


#: States with no way out: nothing writes a job in one of them again.
TERMINAL = frozenset(state for state, out in TRANSITIONS.items() if not out)


def check_transition(old: JobState, new: JobState) -> None:
    """Raise ``ValueError`` if ``old -> new`` is not a legal transition."""
    if new not in TRANSITIONS[old]:
        raise ValueError(f"illegal job state transition {old.value} -> {new.value}")
