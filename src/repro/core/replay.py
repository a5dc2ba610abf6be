"""Replay functions: reconstructing shared state from the global log.

"Such functions that reconstruct the current shared state from the log are
called replay functions" (§2).  The CCAL discipline never stores shared
state: every shared primitive recomputes whatever state it needs by
folding over the log.  A replay fold that encounters an impossible event
sequence (e.g. a ``pull`` of an already-owned location) raises
:class:`~repro.core.errors.Stuck` — this is exactly how the push/pull
model detects data races (Fig. 8: the ``None`` branches).

This module provides the fold framework (:class:`ReplayFn`) and the
paper's ``Rshared`` (Fig. 8).  Object-specific replay functions
(``Rticket``, ``Rsched``, ``Rqueue``, ...) live with their objects in
:mod:`repro.objects`.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generic, Optional, TypeVar

from ..obs import obs_enabled
from ..obs.metrics import inc
from .errors import Stuck
from .events import PULL, PUSH, Event
from .log import Log

S = TypeVar("S")

#: Every live ReplayFn, so checkers can expose aggregate ``cache_info()``
#: in certificate provenance without threading instances around.
_REPLAY_REGISTRY: "weakref.WeakSet[ReplayFn]" = weakref.WeakSet()


class ReplayFn(Generic[S]):
    """A replay function as a fold ``(init, step)`` over the log.

    ``init(*params)`` is the state of the empty log, ``step(state, event,
    *params)`` the state after one more event (it may raise :class:`Stuck`
    on an ill-formed log), and ``finish(state)`` the value returned.

    The fold is pure, so a call resumes from the state the log's memo
    holds for ``(self, params)`` and steps only the events appended since.
    States are shared through the memo and must be immutable; ``finish``
    hands out fresh mutable copies.  A ``Stuck`` leaves the memo behind
    the offending event, so every later call that reaches it raises again.
    """

    def __init__(
        self,
        name: str,
        init: Callable[..., S],
        step: Callable[..., S],
        finish: Callable[[S], Any] = lambda state: state,
    ):
        self.name = name
        self._init = init
        self._step = step
        self._finish = finish
        self._stats = dict.fromkeys(("hits", "misses", "events_stepped"), 0)
        _REPLAY_REGISTRY.add(self)

    def __call__(self, log, *params) -> S:
        if not isinstance(log, Log):
            log = Log(log)
        memo, key, end, stats = log._memo, (self, params), log._len, self._stats
        stored, state = memo.get(key, (None, None))
        if stored == end:
            stats["hits"] += 1
            if obs_enabled():
                inc("replay.cache_hits")
            return self._finish(state)
        pos = stored if stored is not None and stored < end else 0
        if pos == 0:
            state = self._init(*params)
        step = self._step
        for event in log._events[pos:end]:
            state = step(state, event, *params)
        if stored is None or stored < end:  # never move the memo backwards
            memo[key] = (end, state)
        stats["misses"] += 1
        stats["events_stepped"] += end - pos
        if obs_enabled():
            inc("replay.cache_misses")
            inc("replay.events_stepped", end - pos)
        return self._finish(state)

    def cache_info(self) -> Dict[str, int]:
        """Per-process calls answered from the memo, calls that stepped, events stepped."""
        return dict(self._stats)

    def __repr__(self):
        return f"ReplayFn({self.name})"


def all_replay_fns() -> "list[ReplayFn]":
    """Every live replay function, sorted by name — for the lint pass."""
    return sorted(_REPLAY_REGISTRY, key=lambda f: f.name)


def replay_cache_info() -> Dict[str, Dict[str, int]]:
    """``cache_info()`` of every live replay function, keyed by name.

    Stamped into certificate provenance by the checkers (obs-gated) so a
    certificate records how much log replay the run amortized.
    """
    out: Dict[str, Counter] = {}
    for fn in all_replay_fns():
        out.setdefault(fn.name, Counter()).update(fn.cache_info())
    return {name: dict(counts) for name, counts in out.items()}


# --- ownership status for the push/pull memory model ----------------------


@dataclass(frozen=True)
class Ownership:
    """The ownership status of a shared location: free or owned by one id."""

    owner: Optional[int] = None

    @property
    def is_free(self) -> bool:
        return self.owner is None

    def __str__(self):
        return "free" if self.is_free else f"own {self.owner}"


FREE = Ownership(None)


def own(tid: int) -> Ownership:
    return Ownership(tid)


VUNDEF = ("vundef",)
"""The undefined initial value of a shared location (paper's ``vundef``)."""


@dataclass(frozen=True)
class SharedCell:
    """Replayed state of one shared location: its value and ownership."""

    value: Any
    status: Ownership

    def __iter__(self):
        # Allow `value, status = replay_shared(...)` unpacking.
        yield self.value
        yield self.status


def _shared_init(loc) -> SharedCell:
    return SharedCell(VUNDEF, FREE)


def _shared_step(state: SharedCell, event: Event, loc) -> SharedCell:
    if event.name == PULL and event.args and event.args[0] == loc:
        if not state.status.is_free:
            raise Stuck(
                f"data race: {event.tid}.pull({loc}) while {state.status}"
            )
        return SharedCell(state.value, own(event.tid))
    if event.name == PUSH and event.args and event.args[0] == loc:
        if state.status.owner != event.tid:
            raise Stuck(
                f"data race: {event.tid}.push({loc}) while {state.status}"
            )
        return SharedCell(event.args[1], FREE)
    return state


replay_shared = ReplayFn("Rshared", _shared_init, _shared_step)
"""``Rshared`` from Fig. 8: fold pull/push events for one location.

``replay_shared(log, loc)`` returns a :class:`SharedCell` ``(value,
status)``; it raises :class:`Stuck` on a racy log (pull of an owned
location, push by a non-owner).
"""


def replay_owner(log, loc) -> Optional[int]:
    """The current owner of shared location ``loc`` (or None if free)."""
    return replay_shared(log, loc).status.owner
