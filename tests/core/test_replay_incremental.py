"""Incremental replay: resuming from the log memo equals folding from scratch.

Random event sequences over the object zoo's cells are appended to a
:class:`LogBuffer`; at random points a snapshot is replayed by every
shipped fold.  Each answer (value or ``Stuck`` message) must equal the
answer of a from-scratch fold over the same events, and memos must never
leak between logs that are not prefixes of one sequence.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Event, Log, LogBuffer, Stuck
from repro.core.events import (
    ACQ, ACQ_Q, DEQ, ENQ, PULL, PUSH, REL, REL_Q, SLEEP, WAKEUP, YIELD, freeze,
)
from repro.core.replay import replay_shared
from repro.machine.atomics import ALOAD, ASTORE, CAS, FAI, SWAP, replay_atomic
from repro.objects.mcs_lock import busy_cell, node_id, replay_mcs_queue, tail_cell
from repro.objects.qlock import ql_loc, replay_qlock_busy, replay_qlock_queue
from repro.objects.sched import TEXIT, CpuMap, replay_sched, replay_slpq
from repro.objects.shared_queue import replay_shared_queue
from repro.objects.ticket_lock import n_cell, replay_lock, replay_ticket, t_cell
from repro.threads.linking import canonical_skeleton, sched_projection

TIDS = (1, 2, 3)
CPUS = CpuMap({1: 0, 2: 0, 3: 1})
INIT_CURRENT = {0: 1, 1: 3}

tid_st = st.sampled_from(TIDS)
value_st = st.integers(0, 3)
ret_st = st.one_of(st.none(), value_st)

#: One random event touching a cell of the zoo: ticket, atomic and MCS
#: cells, the push/pull location, the atomic lock and the queuing lock's
#: spinlock, the shared queue, the sleeping queue, the scheduler and the
#: atomic queuing lock.
event_st = st.one_of(
    st.builds(lambda t, c, r: Event(t, FAI, (c,), r), tid_st,
              st.sampled_from([t_cell("L"), n_cell("L")]), ret_st),
    st.builds(lambda t, r: Event(t, ALOAD, (n_cell("L"),), r), tid_st, ret_st),
    st.builds(lambda t, v: Event(t, PULL, ("L",)) if v is None else Event(t, PUSH, ("L", v)),
              tid_st, ret_st),
    st.builds(lambda t, lock, v: Event(t, ACQ, (lock,)) if v is None
              else Event(t, REL, (lock, freeze({"busy": v}))),
              tid_st, st.sampled_from(["L", ql_loc("Q")]), ret_st),
    st.builds(lambda t: Event(t, SWAP, (tail_cell("L"), node_id(t))), tid_st),
    st.builds(lambda t: Event(t, CAS, (tail_cell("L"), node_id(t), 0)), tid_st),
    st.builds(lambda t, u: Event(t, ASTORE, (busy_cell("L", u), 0)), tid_st, tid_st),
    st.builds(lambda t, v: Event(t, ENQ, ("Q", v)), tid_st, value_st),
    st.builds(lambda t, r: Event(t, DEQ, ("Q",), r), tid_st, ret_st),
    st.builds(lambda t, u: Event(t, SLEEP, ("C", u)), tid_st, tid_st),
    st.builds(lambda t, u: Event(t, WAKEUP, ("C", u)), tid_st, st.sampled_from((0,) + TIDS)),
    st.builds(lambda t, u: Event(t, YIELD, (u,)), tid_st, tid_st),
    st.builds(lambda t, u: Event(t, TEXIT, (u,)), tid_st, st.sampled_from((0,) + TIDS)),
    st.builds(lambda t, q: Event(t, q, ("Q",)), tid_st, st.sampled_from([ACQ_Q, REL_Q])),
)

#: Every shipped fold, as ``(label, call(log))``.
FOLDS = [
    ("Rticket", lambda log: replay_ticket(log, "L")),
    ("Rticket/2", lambda log: replay_ticket(log, "L", 2)),
    ("Ratomic", lambda log: replay_atomic(log, n_cell("L"), 32)),
    ("Rshared", lambda log: replay_shared(log, "L")),
    ("Rlock", lambda log: replay_lock(log, "L")),
    ("Rmcs", lambda log: replay_mcs_queue(log, "L")),
    ("Rqueue", lambda log: replay_shared_queue(log, "Q")),
    ("Rslpq", lambda log: replay_slpq(log, "C")),
    ("Rsched", lambda log: replay_sched(log, CPUS, INIT_CURRENT)),
    ("Rqlock", lambda log: replay_qlock_queue(log, "Q")),
    ("Rqlock_busy", lambda log: replay_qlock_busy(log, "Q")),
    ("Rsched_projection", lambda log: sched_projection(log)),
    ("Rskeleton", lambda log: canonical_skeleton(log, CPUS)),
]


def answer(call, log):
    """The fold's value on ``log``, or the ``Stuck`` message it raised."""
    try:
        return ("ok", call(log))
    except Stuck as err:
        return ("stuck", str(err))


def scratch(call, events):
    """The same fold over a fresh log: nothing to resume from."""
    return answer(call, Log(events))


@settings(max_examples=60, deadline=None)
@given(st.lists(event_st, max_size=40), st.lists(st.integers(0, 40), max_size=8))
def test_incremental_equals_scratch(events, cuts):
    """Snapshots replayed in order resume from the buffer memo."""
    buffer = LogBuffer()
    cuts = sorted(set(c for c in cuts if c <= len(events))) + [len(events)]
    snapshots = []
    for cut in cuts:
        buffer.extend(events[len(buffer):cut])
        snapshots.append(buffer.snapshot())
    for label, call in FOLDS:
        stuck_at = None
        for snap in snapshots:
            got = answer(call, snap)
            assert got == scratch(call, tuple(snap)), (label, len(snap))
            if got[0] == "stuck" and stuck_at is None:
                stuck_at = got
            elif stuck_at is not None:
                # Once stuck, every longer log raises the same Stuck again.
                assert got == stuck_at, label
        # A second pass (now all memo hits or re-raises) agrees too.
        for snap in snapshots:
            assert answer(call, snap) == scratch(call, tuple(snap)), label


@settings(max_examples=40, deadline=None)
@given(st.lists(event_st, max_size=30), event_st, event_st, st.integers(0, 30))
def test_siblings_and_suffixes_never_share(events, left, right, cut):
    """``append`` siblings and suffix slices start fresh memos."""
    base = Log(events)
    for _label, call in FOLDS:
        answer(call, base)
    one, two = base.append(left), base.append(right)
    suffix = base[min(cut, len(base)):]
    assert len({id(one._memo), id(two._memo), id(base._memo)}) == 3
    if len(suffix) < len(base):
        assert suffix._memo is not base._memo
    for label, call in FOLDS:
        for log in (one, two, suffix):
            assert answer(call, log) == scratch(call, log.events), label
    # A prefix slice may share the memo: it is a prefix of the same sequence.
    prefix = base[:cut]
    assert prefix._memo is base._memo
    for label, call in FOLDS:
        assert answer(call, prefix) == scratch(call, prefix.events), label


def test_stuck_leaves_memo_behind_the_event():
    """A forged ``deQ`` raises at that event on every later call."""
    buffer = LogBuffer([Event(1, ENQ, ("Q", 5))])
    assert replay_shared_queue(buffer.snapshot(), "Q") == [5]
    buffer.append(Event(2, DEQ, ("Q",), 7))
    for _ in range(2):
        with pytest.raises(Stuck, match="head was 5"):
            replay_shared_queue(buffer.snapshot(), "Q")
        buffer.append(Event(1, ENQ, ("Q", 6)))
    # The prefix before the forged event still replays from the memo.
    assert replay_shared_queue(buffer.snapshot()[:1], "Q") == [5]


def test_returned_lists_are_fresh():
    """Mutating a returned queue never corrupts the memoized state."""
    log = Log([Event(1, ENQ, ("Q", 5))])
    replay_shared_queue(log, "Q").append(99)
    assert replay_shared_queue(log, "Q") == [5]
    replay_sched(log, CPUS, INIT_CURRENT)[0].ready.append(99)
    assert 99 not in replay_sched(log, CPUS, INIT_CURRENT)[0].ready
