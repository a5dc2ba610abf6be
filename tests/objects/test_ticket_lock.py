"""The ticket lock: replay, derivation, mutual exclusion, overflow."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Event,
    Log,
    Stuck,
    VerificationError,
    enumerate_game_logs,
)
from repro.machine import lx86_interface
from repro.machine.atomics import FAI
from repro.objects.ticket_lock import (
    acq_impl,
    certify_ticket_lock,
    lock_guarantee,
    lock_relation,
    lock_rely,
    n_cell,
    rel_impl,
    replay_lock,
    replay_ticket,
    t_cell,
    ticket_lock_unit,
    ticket_protocol_inv,
)


class TestReplayTicket:
    def test_initial(self):
        state = replay_ticket(Log(), "L")
        assert state.now_serving == 0 and state.next_ticket == 0
        assert state.free

    def test_counts_fai_events(self):
        log = Log([
            Event(1, FAI, (t_cell("L"),)),
            Event(2, FAI, (t_cell("L"),)),
            Event(1, FAI, (n_cell("L"),)),
        ])
        state = replay_ticket(log, "L")
        assert state.next_ticket == 2
        assert state.now_serving == 1
        assert not state.free

    def test_wrapped_counters(self):
        log = Log([Event(1, FAI, (t_cell("L"),))] * 17)
        state = replay_ticket(log, "L", width_bits=4)
        assert state.next_ticket == 17
        assert state.next_wrapped == 1

    def test_per_lock_isolation(self):
        log = Log([Event(1, FAI, (t_cell("A"),))])
        assert replay_ticket(log, "B").next_ticket == 0


class TestReplayLock:
    def test_acq_rel_roundtrip(self):
        log = Log([Event(1, "acq", ("L",)), Event(1, "rel", ("L", 42))])
        value, holder = replay_lock(log, "L")
        assert value == 42 and holder is None

    def test_double_acq_sticks(self):
        log = Log([Event(1, "acq", ("L",)), Event(2, "acq", ("L",))])
        with pytest.raises(Stuck):
            replay_lock(log, "L")

    def test_rel_by_nonholder_sticks(self):
        log = Log([Event(1, "acq", ("L",)), Event(2, "rel", ("L", 0))])
        with pytest.raises(Stuck):
            replay_lock(log, "L")


class TestTicketProtocol:
    def test_in_order_service_ok(self):
        inv = ticket_protocol_inv(["L"])
        log = Log([
            Event(1, FAI, (t_cell("L"),)),
            Event(2, FAI, (t_cell("L"),)),
            Event(1, "pull", ("L",)),
            Event(1, "push", ("L", 0)),
            Event(1, FAI, (n_cell("L"),)),
            Event(2, "pull", ("L",)),
        ])
        assert inv.holds(log)

    def test_queue_jumping_rejected(self):
        inv = ticket_protocol_inv(["L"])
        log = Log([
            Event(1, FAI, (t_cell("L"),)),
            Event(2, FAI, (t_cell("L"),)),
            Event(2, "pull", ("L",)),  # 2 pulls while 1 is served
        ])
        assert not inv.holds(log)

    def test_release_without_serving_rejected(self):
        inv = ticket_protocol_inv(["L"])
        log = Log([Event(1, FAI, (n_cell("L"),))])
        assert not inv.holds(log)


class TestDerivation:
    def test_full_fig5_derivation(self):
        stack = certify_ticket_lock([1, 2], lock="q0")
        assert stack.composed.certificate.ok
        assert stack.composed.focused == {1, 2}
        assert "R_lock" in stack.composed.relation.name
        # Fun-lift, log-lift and weakened layers exist per CPU.
        assert set(stack.fun_lift) == {1, 2}
        assert set(stack.log_lift) == {1, 2}

    def test_derivation_with_python_impl(self):
        stack = certify_ticket_lock(
            [1, 2], lock="q0", use_c_source=False
        )
        assert stack.composed.certificate.ok

    def test_broken_impl_rejected(self):
        """Dropping the spin loop must fail the fun-lift."""
        from repro.core.calculus import module_rule
        from repro.core.module import FuncImpl, Module
        from repro.core.relation import ID_REL
        from repro.core.simulation import SimConfig
        from repro.objects.ticket_lock import (
            lock_low_interface,
            lock_scenarios,
            low_env_alphabet,
        )

        def broken_acq(ctx, lock):
            yield from ctx.call(FAI, t_cell(lock))
            # no spin, no pull: just grab
            yield from ctx.call("pull", lock)
            return None

        D = [1, 2]
        base = lx86_interface(
            D, rely=lock_rely(D, ["q0"]), guar=lock_guarantee(D, ["q0"])
        )
        low = lock_low_interface(base)
        module = Module(
            {"acq": FuncImpl("acq", broken_acq), "rel": FuncImpl("rel", rel_impl)},
            name="broken",
        )
        config = SimConfig(
            env_alphabet=low_env_alphabet([2], ["q0"]), env_depth=1,
            fuel=500, delivery="per_query",
        )
        with pytest.raises(VerificationError):
            module_rule(base, module, low, ID_REL, 1,
                        lock_scenarios("q0", config))


class TestMutualExclusionGames:
    def worker(self, rounds=1):
        def player(ctx, lock):
            for _ in range(rounds):
                yield from acq_impl(ctx, lock)
                yield from rel_impl(ctx, lock)
            return "done"

        return player

    def test_no_interleaving_races(self):
        """All bounded interleavings of two contending CPUs are race free
        (no stuck run = mutual exclusion in the push/pull model)."""
        D = [1, 2]
        base = lx86_interface(D)
        results = enumerate_game_logs(
            base,
            {1: (self.worker(), ("q0",)), 2: (self.worker(), ("q0",))},
            fuel=2000,
            max_rounds=16,
        )
        assert results
        assert all(r.stuck is None for r in results)

    def test_ownership_alternates(self):
        D = [1, 2]
        base = lx86_interface(D)
        results = enumerate_game_logs(
            base,
            {1: (self.worker(), ("q0",)), 2: (self.worker(), ("q0",))},
            fuel=2000,
            max_rounds=16,
        )
        for result in results:
            if not result.ok:
                continue
            pulls = [e.tid for e in result.log if e.name == "pull"]
            pushes = [e.tid for e in result.log if e.name == "push"]
            assert pulls == pushes  # strict pull/push alternation per holder


class TestOverflow:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 4))
    def test_mutual_exclusion_survives_wraparound(self, width_bits):
        """§4.1: with #CPU < 2^width, wraparound does not break ME.

        At width 2 the ticket counter wraps every 4 acquisitions; several
        rounds force multiple wraps and the protocol still serializes.
        """
        D = [1, 2]
        stack_rounds = 3
        base = lx86_interface(
            D, width=__import__("repro.core.machint", fromlist=["IntWidth"]).IntWidth(width_bits)
        )

        def worker(ctx, lock):
            for _ in range(stack_rounds):
                yield from acq_impl(ctx, lock)
                yield from rel_impl(ctx, lock)
            return "done"

        from repro.core.machine import RoundRobinScheduler, run_game

        result = run_game(
            base,
            {1: (worker, ("q0",)), 2: (worker, ("q0",))},
            RoundRobinScheduler([1, 2]),
            fuel=20_000,
            max_rounds=400,
        )
        assert result.ok
        pulls = [e.tid for e in result.log if e.name == "pull"]
        assert len(pulls) == 2 * stack_rounds


class TestCSource:
    def test_unit_shape(self):
        unit = ticket_lock_unit()
        assert set(unit.functions) == {"acq", "rel"}
        assert unit.source_lines() > 0

    def test_pretty_prints(self):
        from repro.clight import pretty_unit

        text = pretty_unit(ticket_lock_unit())
        assert "void acq(uint b)" in text
        assert "fai" in text


class TestReplayWork:
    def test_ticket_stack_steps_a_tenth_of_the_log(self, monkeypatch):
        """Deterministic replay work of the whole ticket-lock stack.

        Every replay call resumes from the buffer memo, so the events its
        folds step are at most a tenth of the summed length of the logs
        they were called on (what folding from scratch would visit).
        """
        from repro.core.replay import ReplayFn, replay_cache_info

        for var in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_CACHE"):
            monkeypatch.delenv(var, raising=False)
        visited = [0]
        call = ReplayFn.__call__

        def counting_call(self, log, *params):
            visited[0] += len(log)
            return call(self, log, *params)

        def stepped():
            return sum(i["events_stepped"] for i in replay_cache_info().values())

        monkeypatch.setattr(ReplayFn, "__call__", counting_call)
        before = stepped()
        stack = certify_ticket_lock([1, 2], lock="replay_work")
        work = stepped() - before
        assert stack.composed.certificate.ok
        assert visited[0] > 100_000
        assert 0 < work <= visited[0] // 10


class TestGameWork:
    def test_thm22_game_does_full_bookkeeping_on_a_quarter_of_its_rounds(self, monkeypatch):
        """Deterministic scheduler and mini-C work of the Thm 2.2 game.

        Sibling runs resume their parent's recorded decision, so at most
        a quarter of the scheduling rounds re-derive scheduler state from
        the log.  The work counts stay out of obs-off provenance.
        """
        import json

        from repro.clight.semantics import clight_info
        from repro.core import check_soundness
        from repro.reduce.dpor import scheduler_info

        for var in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_CACHE", "REPRO_REDUCE"):
            monkeypatch.delenv(var, raising=False)
        stack = certify_ticket_lock([1, 2], lock="game_work")
        picks, stmts = scheduler_info(), clight_info()["stmts"]
        cert = check_soundness(
            stack.composed,
            clients=[{tid: [("acq", ("game_work",)), ("rel", ("game_work",))]
                      for tid in (1, 2)}],
            max_rounds=20,
            require_progress=False,
        )
        after = scheduler_info()
        rounds = after["picks"] - picks["picks"]
        full = after["full_picks"] - picks["full_picks"]
        assert cert.ok
        assert rounds > 10_000
        assert 0 < full <= rounds // 4
        assert after["resumed_runs"] > picks["resumed_runs"]
        assert clight_info()["stmts"] > stmts
        text = json.dumps(cert.to_json())
        assert "full_picks" not in text and "stmts_executed" not in text
