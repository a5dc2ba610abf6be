"""The certified queuing lock (paper §5.4, Fig. 11).

"With queuing locks, waiting threads are put to sleep to avoid busy
spinning.  Reasoning about this locking algorithm is particularly
challenging since its C implementation utilizes both spinlocks and
low-level scheduler primitives (i.e., sleep and wakeup)."

The implementation is Fig. 11 verbatim (NIL = 0 plays the paper's -1)::

    void acq_q(uint l) {              void rel_q(uint l) {
        ▷acq(ql_loc(l));                  ▷acq(ql_loc(l));
        if (ql_busy[l] != NIL) {          ql_busy[l] = ▷wakeup(l);
            ▷sleep(l);                    ▷rel(ql_loc(l));
        } else {                      }
            ql_busy[l] = get_tid();
            ▷rel(ql_loc(l));
        }
    }

``ql_busy`` lives in the spinlock-protected shared block; ``sleep(l)``
enqueues the caller on the sleeping queue *while the spinlock is held*
and releases it inside the scheduler — the atomicity that rules out lost
wakeups.  Release *hands the lock off*: the woken thread returns from
``acq_q`` already holding it (``ql_busy`` is set to the woken thread's
id by the releaser).

Correctness (§5.4) is "mutual exclusion and starvation freedom":

* mutual exclusion — "the busy value of the lock is always equal to the
  lock holder's thread ID": :func:`busy_matches_holder` checks the
  invariant on every reachable prefix of every bounded schedule.
* starvation freedom — "the starvation-freedom proof is mainly about
  the termination of the sleep primitive call": every bounded-schedule
  game completes, i.e. every sleeper is eventually woken and runs.

Both are discharged by :func:`check_qlock_correctness` via exhaustive
thread-game enumeration; the atomic overlay (:func:`qlock_atomic_specs`)
gives the same one-event-per-operation interface as the spinlocks, so
higher layers (condition variables, IPC) are lock-implementation
agnostic here too.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.certificate import Certificate
from ..core.context import ExecutionContext
from ..core.errors import Stuck
from ..core.events import ACQ, ACQ_Q, Event, REL, REL_Q, SLEEP, WAKEUP, thaw
from ..core.interface import LayerInterface, Prim
from ..core.log import Log
from ..core.replay import ReplayFn
from ..machine.sharedmem import local_copy
from .local_queue import NIL
from .sched import CpuMap
from .ticket_lock import replay_lock


def ql_loc(lock: Any) -> Tuple[str, Any]:
    """The spinlock (and shared block) protecting queuing lock ``lock``."""
    return ("ql", lock)


def ql_chan(lock: Any) -> Tuple[str, Any]:
    """The sleeping-queue channel of queuing lock ``lock``."""
    return ("qlock", lock)


# --- implementation ---------------------------------------------------------------


def acq_q_impl(ctx: ExecutionContext, lock):
    """Fig. 11 ``acq_q`` (Python twin of the mini-C source)."""
    yield from ctx.call(ACQ, ql_loc(lock))
    copy = local_copy(ctx)[ql_loc(lock)]
    if copy is None:
        copy = {"busy": NIL}
        local_copy(ctx)[ql_loc(lock)] = copy
    if copy["busy"] != NIL:
        # Busy: sleep releases the spinlock inside the scheduler and the
        # releaser hands the lock to us directly.
        yield from ctx.call(SLEEP, ql_chan(lock), ql_loc(lock))
    else:
        copy["busy"] = ctx.tid
        yield from ctx.call(REL, ql_loc(lock))
    return None


def rel_q_impl(ctx: ExecutionContext, lock):
    """Fig. 11 ``rel_q``: hand off to the first sleeper (or free)."""
    yield from ctx.call(ACQ, ql_loc(lock))
    copy = local_copy(ctx)[ql_loc(lock)]
    if copy is None:
        raise Stuck(f"rel_q({lock}) before any acquisition")
    if copy["busy"] != ctx.tid:
        raise Stuck(
            f"rel_q({lock}) by {ctx.tid} but holder is {copy['busy']}"
        )
    woken = yield from ctx.call(WAKEUP, ql_chan(lock))
    copy["busy"] = woken  # NIL frees the lock; otherwise a direct handoff
    yield from ctx.call(REL, ql_loc(lock))
    return None


def qlock_unit():
    """The mini-C source of Fig. 11."""
    from ..clight.ast import (
        Assign,
        Call,
        CFunction,
        Const,
        Fld,
        If,
        Seq,
        Shared,
        TranslationUnit,
        Tup,
        Var,
        eq,
        ne,
    )

    loc = Tup([Const("ql"), Var("l")])
    chan = Tup([Const("qlock"), Var("l")])
    busy = Fld(Shared(loc), "busy")

    acq_q = CFunction(
        "acq_q",
        ["l"],
        Seq(
            [
                Call(None, ACQ, [loc]),
                Call(None, "ql_alloc", [loc]),
                If(
                    ne(busy, Const(NIL)),
                    Call(None, SLEEP, [chan, loc]),
                    Seq(
                        [
                            Call(Var("me"), "get_tid", []),
                            Assign(busy, Var("me")),
                            Call(None, REL, [loc]),
                        ]
                    ),
                ),
            ]
        ),
        doc="queuing lock acquire (Fig. 11)",
    )
    rel_q = CFunction(
        "rel_q",
        ["l"],
        Seq(
            [
                Call(None, ACQ, [loc]),
                Call(Var("w"), WAKEUP, [chan]),
                Assign(busy, Var("w")),
                Call(None, REL, [loc]),
            ]
        ),
        doc="queuing lock release (Fig. 11)",
    )
    unit = TranslationUnit("qlock")
    unit.add(acq_q)
    unit.add(rel_q)
    return unit


def ql_alloc_prim() -> Prim:
    """Materialize the ``{busy: NIL}`` block on first acquisition."""
    from ..core.interface import private_prim

    def alloc(ctx: ExecutionContext, loc):
        copies = local_copy(ctx)
        if loc not in copies:
            raise Stuck(f"ql_alloc({loc}) outside the critical section")
        if copies[loc] is None:
            copies[loc] = {"busy": NIL}
        return None

    return private_prim("ql_alloc", alloc, doc="initialize ql_busy once")


# --- replay and invariants -----------------------------------------------------------


def replay_qlock_busy(log: Log, lock: Any) -> int:
    """The current ``ql_busy`` value from the spinlock's release events.

    The protected block's value travels in the spinlock's ``rel`` events;
    the latest one gives the current busy word (a projection of
    ``Rlock``'s fold, so it shares that fold's memo).
    """
    value, _holder = replay_lock(log, ql_loc(lock))
    if value == ("vundef",) or value is None:
        return NIL
    return thaw(value).get("busy", NIL)


def replay_qlock_holder(log: Log, lock: Any, cpus: CpuMap) -> int:
    """The queuing-lock holder implied by the event history.

    Folds the handoff protocol: a thread that sets busy to itself (fast
    path) holds; a ``wakeup`` handoff transfers to the woken thread; a
    busy value of NIL means free.  This is exactly
    :func:`replay_qlock_busy` — the point of the §5.4 mutual-exclusion
    argument is that the busy word *is* the holder.
    """
    return replay_qlock_busy(log, lock)


def busy_matches_holder(
    log: Log, lock: Any, critical_spans: Dict[int, List[Tuple[int, int]]]
) -> bool:
    """§5.4's invariant on one log: the busy word equals the holder.

    ``critical_spans[tid]`` are the (start, end) event indices during
    which ``tid`` was inside the qlock critical section (reported by the
    test harness players); at every index inside a span the replayed
    busy word must be ``tid``.
    """
    for tid, spans in critical_spans.items():
        for start, end in spans:
            for idx in range(start, min(end, len(log))):
                if replay_qlock_busy(log[: idx + 1], lock) != tid:
                    return False
    return True


# --- correctness via exhaustive games ---------------------------------------------------


CRIT_ENTER = "crit_enter"
CRIT_LEAVE = "crit_leave"


def qlock_worker(lock: Any, rounds: int = 1):
    """A test player: acquire, mark the critical section, release."""

    def player(ctx):
        for _ in range(rounds):
            yield from acq_q_impl(ctx, lock)
            ctx.emit(CRIT_ENTER, lock)
            ctx.emit(CRIT_LEAVE, lock)
            yield from rel_q_impl(ctx, lock)
        return "done"

    player.__name__ = f"qlock_worker_{rounds}"
    return player


def mutual_exclusion_ok(log: Log, lock: Any) -> bool:
    """No two threads are simultaneously between enter and leave, and the
    busy word equals the occupant at every enter."""
    inside: Optional[int] = None
    for idx, event in enumerate(log):
        if event.name == CRIT_ENTER and event.args and event.args[0] == lock:
            if inside is not None:
                return False
            inside = event.tid
            if replay_qlock_busy(log[: idx + 1], lock) != event.tid:
                return False
        elif event.name == CRIT_LEAVE and event.args and event.args[0] == lock:
            if inside != event.tid:
                return False
            inside = None
    return True


def check_qlock_correctness(
    cpus: CpuMap,
    init_current: Dict[int, int],
    lock: Any = 7,
    rounds: int = 1,
    fuel: int = 40_000,
    max_rounds: int = 600,
    max_choice_depth: int = 10,
    interface: Optional[LayerInterface] = None,
) -> Certificate:
    """§5.4: mutual exclusion + starvation freedom, exhaustively.

    Runs every thread of the machine through ``rounds`` qlock critical
    sections under all bounded hardware schedules over the multithreaded
    interface.  Obligations: no run gets stuck (the replay functions make
    protocol violations stick), every run completes (starvation freedom:
    every sleeper is woken and finishes), and the critical-section marks
    never overlap (mutual exclusion) with the busy word equal to the
    occupant.
    """
    from ..threads.interface import build_lhtd
    from ..threads.linking import enumerate_thread_games

    if interface is None:
        interface = build_lhtd(cpus, init_current, locks=[ql_loc(lock)])
        interface = interface.extend(interface.name, [ql_alloc_prim()])
    players = {
        tid: (qlock_worker(lock, rounds), ()) for tid in cpus.assignment
    }
    results = enumerate_thread_games(
        interface,
        players,
        cpus,
        init_current,
        fuel=fuel,
        max_rounds=max_rounds,
        max_choice_depth=max_choice_depth,
    )
    cert = Certificate(
        judgment=f"qlock({lock}) mutual exclusion ∧ starvation freedom",
        rule="qlock-correctness",
        bounds={
            "threads": len(cpus.assignment),
            "rounds": rounds,
            "schedules": len(results),
            "max_choice_depth": max_choice_depth,
        },
    )
    cert.add("at least one schedule explored", bool(results))
    for result in results:
        label = f"sched={result.schedule[:8]}..."
        cert.add(
            f"run safe [{label}]", result.stuck is None, result.stuck or ""
        )
        cert.add(
            f"run completes — starvation freedom [{label}]",
            result.finished,
            f"unfinished after {result.rounds} rounds",
        )
        cert.add(
            f"mutual exclusion [{label}]",
            mutual_exclusion_ok(result.log, lock),
        )
    cert.log_universe = tuple(r.log for r in results)
    return cert


# --- the atomic overlay ---------------------------------------------------------------


def _qlock_step(state: Tuple[int, Tuple[int, ...]], event: Event, lock: Any):
    if not event.args or event.args[0] != lock:
        return state
    holder, waiters = state
    if event.name == ACQ_Q:
        if holder == NIL:
            return (event.tid, waiters)
        return (holder, waiters + (event.tid,))
    if event.name == REL_Q:
        if event.tid != holder:
            raise Stuck(f"{event} by non-holder (holder {holder})")
        return (waiters[0], waiters[1:]) if waiters else (NIL, ())
    return state


replay_qlock_queue = ReplayFn("Rqlock", lambda lock: (NIL, ()), _qlock_step)
"""``replay_qlock_queue(log, lock)``: ``(holder, waiters)`` of the atomic
queuing lock, FIFO, from ``acq_q``/``rel_q`` events."""


def qlock_atomic_specs(cpus: CpuMap):
    """Atomic ``acq_q``/``rel_q`` — the same shape as the spinlocks'.

    The queuing lock exports the identical atomic contract as the ticket
    and MCS locks: acquisition is one event once the lock is available,
    release is one event.  FIFO handoff shows up only in the progress
    property, not in the safety interface.
    """

    def acq_q_spec(ctx: ExecutionContext, lock):
        ctx.emit(ACQ_Q, lock)
        while True:
            ctx.consume_fuel()
            holder, _ = replay_qlock_queue(ctx.log, lock)
            if holder == ctx.tid:
                return None
            yield from ctx.query()

    def rel_q_spec(ctx: ExecutionContext, lock):
        holder, _ = replay_qlock_queue(ctx.log, lock)
        if holder != ctx.tid:
            raise Stuck(f"rel_q({lock}) by {ctx.tid}, holder {holder}")
        ctx.emit(REL_Q, lock)
        return None
        yield  # pragma: no cover

    return acq_q_spec, rel_q_spec


def qlock_atomic_interface(
    base: LayerInterface,
    cpus: CpuMap,
    name: str = "L_qlock",
    hide: Iterable[str] = (),
) -> LayerInterface:
    acq_q_spec, rel_q_spec = qlock_atomic_specs(cpus)
    return base.extend(
        name,
        [
            Prim(ACQ_Q, acq_q_spec, kind="atomic", enters_critical=True,
                 cycle_cost=0, doc="atomic queuing-lock acquire (FIFO)"),
            Prim(REL_Q, rel_q_spec, kind="atomic", exits_critical=True,
                 cycle_cost=0, doc="atomic queuing-lock release"),
        ],
        hide=hide,
    )