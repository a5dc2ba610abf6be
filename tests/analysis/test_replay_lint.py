"""Replay-purity lint (R401/R402/R403): golden positives and negatives."""

from __future__ import annotations

from repro.analysis.replay_lint import lint_replay_fn
from repro.core.replay import ReplayFn, all_replay_fns, replay_shared


def _rules(findings):
    return {f.rule_id for f in findings if not f.suppressed}


class TestR401MutableClosure:
    def test_positive(self):
        leaked = {"count": 0}

        def init():
            return leaked["count"]

        def step(state, event):
            return state + 1

        rf = ReplayFn("Rleak", init, step)
        assert "REPRO-R401" in _rules(lint_replay_fn(rf))

    def test_negative_immutable_closure(self):
        base = 7
        names = ("a", "b")

        def init():
            return base

        def step(state, event):
            return state + len(names)

        rf = ReplayFn("Rconst", init, step)
        assert "REPRO-R401" not in _rules(lint_replay_fn(rf))


class TestR402Nondeterminism:
    def test_positive(self):
        import random

        def init():
            return 0

        def step(state, event):
            return state + random.random()

        rf = ReplayFn("Rrandom", init, step)
        assert "REPRO-R402" in _rules(lint_replay_fn(rf))

    def test_negative(self):
        assert "REPRO-R402" not in _rules(lint_replay_fn(replay_shared))


class TestR403MutableDefault:
    def test_positive(self):
        def init():
            return ()

        def step(state, event, scratch=[]):
            scratch.append(event)
            return state

        rf = ReplayFn("Rscratch", init, step)
        assert "REPRO-R403" in _rules(lint_replay_fn(rf))

    def test_negative(self):
        def init():
            return ()

        def step(state, event, bound=4):
            return state[-bound:] + (event,)

        rf = ReplayFn("Rbound", init, step)
        assert "REPRO-R403" not in _rules(lint_replay_fn(rf))


class TestShippedReplayFns:
    def test_all_registered_replay_fns_clean(self):
        # Import the shipped objects so their replay functions register.
        import repro.machine.atomics  # noqa: F401
        import repro.objects.mcs_lock  # noqa: F401
        import repro.objects.qlock  # noqa: F401
        import repro.objects.sched  # noqa: F401
        import repro.objects.shared_queue  # noqa: F401
        import repro.objects.ticket_lock  # noqa: F401
        import repro.threads.linking  # noqa: F401

        shipped = [
            rf for rf in all_replay_fns()
            if getattr(rf._init, "__module__", "").startswith("repro.")
        ]
        assert {
            "Ratomic", "Rlock", "Rmcs", "Rqlock", "Rqueue", "Rsched",
            "Rsched_projection", "Rshared", "Rskeleton", "Rslpq", "Rticket",
        } <= {rf.name for rf in shipped}
        dirty = {
            rf.name: _rules(lint_replay_fn(rf))
            for rf in shipped
            if _rules(lint_replay_fn(rf))
        }
        assert not dirty, f"shipped replay functions have findings: {dirty}"
