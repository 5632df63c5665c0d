"""Declared fork state: what a what-if rollback captures, class by class.

Every class that holds simulation run state carries one class-level
:class:`ForkState` declaration, ``fork_state``, that sorts its instance
attributes by how a rollback treats them:

``values``
    kept as-is: immutable values, or references whose identity is the
    state (frozen events, arrays that are replaced and never written);
``copies``
    containers (``list``, ``dict``, ``set``, ``deque``, ``ndarray``)
    copied at capture and again at every restore, so one capture can be
    restored any number of times;
``nested``
    a dict of such containers; both levels are copied;
``objects``
    a declared object (or ``None``): the reference is put back and the
    object is rolled back in place from its own declaration;
``object_maps``
    a dict of declared objects: the dict is copied and every member
    that is not final (below) is rolled back in place;
``fixed``
    bound while the simulation is built and wired, never rebound, and
    never captured;
``survive``
    mutable, but deliberately left alone by a rollback: diagnostic
    counters, memo caches of fixed inputs, the rollback's own page store.

:func:`capture` walks the declarations from a root object and returns a
nested tuple; :func:`restore` writes it back into the *same* objects, so
every cross-reference in the graph stays valid.  Each class compiles to
one capture and one restore function on first use.  A class whose state
is plain values only (:class:`repro.jobs.Job`) captures one tuple and
restores it with one zip/setattr loop, without per-field dispatch.

A declaration may also give ``final``, a predicate saying that an
instance has reached a state nothing writes again (a job that ended:
:data:`repro.jobs.states.TERMINAL`).  An ``object_maps`` dict captures
``(member, state)`` pairs only for the members that are not final at
capture, and a restore rewrites only those: the dict itself is still
copied back whole, so a member a fork added is dropped, but a rollback
costs the live members, not all of them.

A subclass that adds state extends its base's declaration with
:meth:`ForkState.extend`; a subclass without state of its own (the
``NULL_TELEMETRY`` / ``NULL_PROVENANCE`` singletons) declares everything
fixed.  ``tests/test_fork_state.py`` walks the live object graph of
paused runs and fails on any attribute no declaration names.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

__all__ = ["ForkState", "capture", "restore"]

#: Declaration kinds: the first five are captured, in this order.
KINDS = ("values", "copies", "nested", "objects", "object_maps", "fixed",
         "survive")


class ForkState:
    """The fork-state declaration of one class (see the module docstring)."""

    __slots__ = KINDS + ("final",)

    def __init__(self, *, final: Optional[Callable[[Any], bool]] = None,
                 **kinds: Tuple[str, ...]):
        #: ``instance -> True`` once nothing writes the instance again
        self.final = final
        unknown = set(kinds) - set(KINDS)
        if unknown:
            raise TypeError(f"unknown fork-state kinds {sorted(unknown)}")
        seen: Dict[str, str] = {}
        for kind in KINDS:
            names = tuple(kinds.get(kind, ()))
            for name in names:
                if name in seen:
                    raise ValueError(
                        f"{name!r} declared both {seen[name]} and {kind}"
                    )
                seen[name] = kind
            setattr(self, kind, names)

    @property
    def names(self) -> Tuple[str, ...]:
        """Every declared attribute, captured or not."""
        return sum((getattr(self, kind) for kind in KINDS), ())

    def extend(self, **kinds: Tuple[str, ...]) -> "ForkState":
        """This declaration plus ``kinds`` (a subclass's own attributes)."""
        return ForkState(final=self.final, **{
            kind: getattr(self, kind) + tuple(kinds.get(kind, ()))
            for kind in KINDS
        })


# ----------------------------------------------------------------------
# Compiled per-class plans
# ----------------------------------------------------------------------
Capture = Callable[[Any], Any]
Restore = Callable[[Any, Any], None]
#: ``(capture, restore, value names, final)``; the names are set when the
#: class declares plain values only, so dicts of such objects restore
#: inline; ``final`` is the declaration's predicate (or ``None``)
Plan = Tuple[Capture, Restore, Optional[Tuple[str, ...]],
             Optional[Callable[[Any], bool]]]


def _copy(value):
    return None if value is None else value.copy()


def _copy_nested(value):
    if value is None:
        return None
    return {key: inner.copy() for key, inner in value.items()}


def _getter(names: Tuple[str, ...]) -> Capture:
    """``obj -> tuple of the named attributes`` (also for one name)."""
    get = attrgetter(*names)
    if len(names) == 1:
        return lambda obj: (get(obj),)
    return get


def _values_step(names: Tuple[str, ...]) -> Tuple[Capture, Restore]:
    def restore_values(obj, values):
        # setattr, not a __dict__ update: materialising an instance's
        # __dict__ slows every later attribute read on it
        for name, value in zip(names, values):
            setattr(obj, name, value)

    return _getter(names), restore_values


def _copies_step(names: Tuple[str, ...], copy) -> Tuple[Capture, Restore]:
    get = _getter(names)

    def capture_copies(obj):
        return tuple([copy(value) for value in get(obj)])

    def restore_copies(obj, saved):
        for name, value in zip(names, saved):
            setattr(obj, name, copy(value))

    return capture_copies, restore_copies


def _objects_step(names: Tuple[str, ...]) -> Tuple[Capture, Restore]:
    get = _getter(names)
    plans = _PLANS

    def capture_objects(obj):
        return tuple([
            (ref, None if ref is None else plans[type(ref)][0](ref))
            for ref in get(obj)
        ])

    def restore_objects(obj, saved):
        for name, (ref, state) in zip(names, saved):
            setattr(obj, name, ref)
            if ref is not None:
                plans[type(ref)][1](ref, state)

    return capture_objects, restore_objects


def _object_maps_step(names: Tuple[str, ...]) -> Tuple[Capture, Restore]:
    get = _getter(names)
    plans = _PLANS

    def capture_live(members):
        """``(member, state)`` for each member not final at capture."""
        live = []
        cls = None
        for member in members.values():
            if type(member) is not cls:
                cls = type(member)
                capture_member, _, _, final = plans[cls]
            if final is None or not final(member):
                live.append((member, capture_member(member)))
        return live

    def capture_maps(obj):
        return tuple([(members.copy(), capture_live(members))
                      for members in get(obj)])

    def restore_maps(obj, saved):
        for name, (members, live) in zip(names, saved):
            setattr(obj, name, members.copy())
            cls = None
            for member, state in live:
                if type(member) is not cls:
                    cls = type(member)
                    _, restore_member, fields, _ = plans[cls]
                if fields is None:
                    restore_member(member, state)
                else:  # plain values (the jobs): no call per member
                    for field, value in zip(fields, state):
                        setattr(member, field, value)

    return capture_maps, restore_maps


def _no_state(obj):
    return None


def _restore_nothing(obj, state) -> None:
    pass


def _rng_state(rng):
    return rng.bit_generator.state


def _set_rng_state(rng, state) -> None:
    rng.bit_generator.state = state


def _compile(cls: type) -> Plan:
    if issubclass(cls, np.random.Generator):
        # A Monitor's noise stream: rolled back through its bit generator.
        return _rng_state, _set_rng_state, None, None
    decl = getattr(cls, "fork_state", None)
    if not isinstance(decl, ForkState):
        raise TypeError(f"{cls.__qualname__} declares no fork_state")
    steps = []
    if decl.values:
        steps.append(_values_step(decl.values))
    if decl.copies:
        steps.append(_copies_step(decl.copies, _copy))
    if decl.nested:
        steps.append(_copies_step(decl.nested, _copy_nested))
    if decl.objects:
        steps.append(_objects_step(decl.objects))
    if decl.object_maps:
        steps.append(_object_maps_step(decl.object_maps))
    if not steps:
        return _no_state, _restore_nothing, None, decl.final
    if len(steps) == 1:
        plain = decl.values if decl.values else None
        return steps[0] + (plain, decl.final)
    captures = tuple(step[0] for step in steps)
    restores = tuple(step[1] for step in steps)

    def capture_all(obj):
        return tuple([step(obj) for step in captures])

    def restore_all(obj, state):
        for step, part in zip(restores, state):
            step(obj, part)

    return capture_all, restore_all, None, decl.final


class _Plans(dict):
    """``type -> plan``, compiled on first lookup."""

    def __missing__(self, cls: type) -> Plan:
        plan = self[cls] = _compile(cls)
        return plan


_PLANS = _Plans()


def capture(obj) -> Any:
    """Capture ``obj``'s declared state and, recursively, its objects'."""
    return _PLANS[type(obj)][0](obj)


def restore(obj, state) -> None:
    """Roll ``obj`` (and its declared objects) back to ``state`` in place."""
    _PLANS[type(obj)][1](obj, state)
