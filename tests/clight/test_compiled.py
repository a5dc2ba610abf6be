"""Compiled mini-C against its interpreted twin (translation validation).

``repro.clight.semantics`` compiles function bodies into closures; the
tree-walking interpreter in ``clight_oracle.py`` is the reference.  On
generated programs and on every zoo unit's games both must agree on
everything a run exposes: logs, returns, cycles, ``Stuck`` reasons,
schedules, fuel left, private state and the number of statements
executed.
"""

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from clight_oracle import OracleInterp, oracle_player
from repro import obs
from repro.clight import (
    Arr,
    Assert,
    Assign,
    Binop,
    Break,
    Call,
    CFunction,
    Const,
    Continue,
    Expr,
    Fld,
    Glob,
    If,
    Interp,
    Return,
    Seq,
    Shared,
    Skip,
    Stmt,
    TranslationUnit,
    Tup,
    Unop,
    Var,
    While,
    c_player,
)
from repro.clight.semantics import clight_info
from repro.core import enumerate_game_logs, private_prim, run_local, simple_event_prim
from repro.machine import lx86_interface


@dataclass(frozen=True)
class Opaque(Stmt):
    """A statement no semantics knows."""


@dataclass(frozen=True)
class OpaqueExpr(Expr):
    """An expression no semantics knows."""


BINOPS = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=",
          "&", "|", "^", "<<", ">>", "&&", "||", "@@"]
UNOPS = ["-", "!", "~", "?"]
LOCALS = ["a", "b", "x", "y"]


LEAVES = st.one_of(
    st.integers(-3, 9).map(Const),
    st.integers(0, 3).map(Const),
    st.sampled_from(LOCALS).map(Var),
    st.sampled_from(LOCALS).map(Var),
    st.sampled_from([Glob("g"), Shared(Const("blk"))]),
    # rarer: an undefined global, an unpulled block, an unknown node
    st.sampled_from([Glob("nope"), Shared(Const("other")), OpaqueExpr()]),
)

EXPRS = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        st.builds(Unop, st.sampled_from(UNOPS), sub),
        st.builds(Binop, st.sampled_from(BINOPS), sub, sub),
        st.lists(sub, min_size=0, max_size=3).map(Tup),
        st.builds(Arr, st.just(Glob("arr")), sub),
        st.builds(Arr, sub, sub),
        st.builds(Fld, st.just(Glob("rec")), st.sampled_from(["f", "zz"])),
        st.builds(Fld, sub, st.just("f")),
    ),
    max_leaves=6,
)

PLACES = st.one_of(
    st.sampled_from(LOCALS).map(Var),
    st.just(Glob("g")),
    st.builds(Arr, st.just(Glob("arr")), EXPRS),
    st.builds(Arr, st.just(Glob("arr")), st.sampled_from(LOCALS).map(Var)),
    st.builds(Fld, st.just(Glob("rec")), st.sampled_from(["f", "new"])),
    st.sampled_from(["blk", "other"]).map(lambda b: Shared(Const(b))),
    st.builds(Shared, EXPRS),
    st.just(Const(1)),  # not an lvalue
)


#: Expressions and places that get stuck, each with its own reason: an
#: assignment of one to the other shows which side is evaluated first.
FAILING_EXPRS = st.sampled_from([
    Var("x"), Var("y"), Glob("nope"), Shared(Const("other")), OpaqueExpr(),
    Binop("/", Const(1), Const(0)),
])
FAILING_PLACES = st.one_of(
    st.builds(Arr, st.just(Glob("arr")), FAILING_EXPRS),
    st.builds(Shared, FAILING_EXPRS),
    st.builds(Fld, FAILING_EXPRS, st.just("f")),
)


def stmts(call_targets):
    assign = st.builds(Assign, PLACES, EXPRS)
    simple = st.one_of(
        assign,
        assign,
        st.builds(Assign, FAILING_PLACES, FAILING_EXPRS),
        st.sampled_from([Skip(), Break(), Continue(), Opaque()]),
        st.builds(Return, st.one_of(st.none(), EXPRS)),
        st.builds(Assert, EXPRS, st.just("generated assertion")),
        st.builds(Call, st.one_of(st.none(), PLACES), st.sampled_from(call_targets),
                  st.lists(EXPRS, min_size=0, max_size=2)),
    )
    return st.recursive(
        simple,
        lambda sub: st.one_of(
            st.lists(sub, min_size=0, max_size=4).map(Seq),
            st.builds(If, EXPRS, sub, sub),
            st.builds(While, st.one_of(st.just(Const(1)), EXPRS), sub),
        ),
        max_leaves=10,
    )


#: ``h`` calls primitives only; ``main`` also calls ``h`` (same unit).
HELPER_BODIES = stmts(["ev", "inc", "missing"])
MAIN_BODIES = stmts(["ev", "inc", "missing", "h", "h", "h"])


@st.composite
def programs(draw):
    width = draw(st.sampled_from([3, 4, 8]))
    unit = TranslationUnit("gen", width_bits=width)
    unit.globals["g"] = 0
    unit.globals["arr"] = lambda: [0, 1, 2]
    unit.globals["rec"] = lambda: {"f": 1}
    prelude = []
    if draw(st.booleans()):
        prelude = [Call(None, "pull", [Const("blk")]),
                   Assign(Shared(Const("blk")), Const(0))]
    unit.add(CFunction("h", ["x"], draw(HELPER_BODIES)))
    body = draw(st.lists(MAIN_BODIES, min_size=1, max_size=4))
    unit.add(CFunction("main", ["a", "b"], Seq(prelude + body)))
    args = (draw(st.integers(0, 9)), draw(st.integers(0, 9)))
    fuel = draw(st.sampled_from([3, 9, 30, 200, 400, 400]))
    return unit, args, fuel


IFACE = lx86_interface(
    [1],
    extra_prims=[
        simple_event_prim("ev"),
        private_prim("inc", lambda ctx, *vals: sum(v for v in vals if isinstance(v, int)) + 1),
    ],
)


def outcome(player, args, fuel):
    """Everything a local run exposes, or the exception it escaped with."""
    try:
        run = run_local(IFACE, 1, player, args, fuel=fuel)
    except Exception as err:  # a non-Stuck Python error escapes both alike
        return ("raised", type(err), str(err))
    return (
        tuple(run.log), run.ret, run.finished, run.stuck, run.cycles,
        run.queries, run.guar_ok, run.ctx.fuel, run.ctx.priv,
    )


def compiled_and_oracle(unit, name, args, fuel):
    oracle = OracleInterp(unit)
    before = clight_info()["stmts"]
    compiled = outcome(c_player(unit, name), args, fuel)
    stmts = clight_info()["stmts"] - before
    expected = outcome(oracle_player(unit, name, oracle), args, fuel)
    return (compiled, stmts), (expected, oracle.stmts)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_generated_programs_match_the_oracle(program):
    unit, args, fuel = program
    compiled, expected = compiled_and_oracle(unit, "main", args, fuel)
    assert compiled == expected


class TestFixedPrograms:
    """Named corners of the differential, pinned independently of Hypothesis."""

    def check(self, body, args=(1, 2), fuel=200, width=32):
        unit = TranslationUnit("fixed", width_bits=width)
        unit.globals["arr"] = lambda: [0, 1, 2]
        unit.add(CFunction("h", ["x"], Return(Binop("*", Var("x"), Const(3)))))
        unit.add(CFunction("main", ["a", "b"], body))
        compiled, expected = compiled_and_oracle(unit, "main", args, fuel)
        assert compiled == expected
        return compiled[0]

    def test_value_before_place(self):
        # Both the place's index and the value are undefined locals: the
        # value is evaluated first, so its name is the reported one.
        result = self.check(Assign(Arr(Glob("arr"), Var("x")), Var("y")))
        assert result[3] == "undefined local 'y'"

    def test_per_iteration_fuel(self):
        loop = Seq([Assign(Var("i"), Const(0)),
                    While(Binop("<", Var("i"), Const(5)),
                          Assign(Var("i"), Binop("+", Var("i"), Const(1)))),
                    Return(Var("i"))])
        result = self.check(loop)
        assert result[1] == 5
        # 3 statements + 5 bodies + seq + 5 iterations
        assert result[7] == 200 - 14

    def test_break_continue_return_in_nested_loops(self):
        body = Seq([
            Assign(Var("i"), Const(0)),
            While(Const(1), Seq([
                Assign(Var("i"), Binop("+", Var("i"), Const(1))),
                Assign(Var("j"), Const(0)),
                While(Const(1), Seq([
                    Assign(Var("j"), Binop("+", Var("j"), Const(1))),
                    If(Binop("<", Var("j"), Const(2)), Continue()),
                    If(Binop(">", Var("i"), Const(3)), Return(Binop("+", Var("i"), Var("j")))),
                    Break(),
                ])),
            ])),
        ])
        assert self.check(body)[1] == 6

    def test_break_outside_a_loop(self):
        assert self.check(Seq([Break()]))[3] == "main: break outside a loop"

    def test_same_unit_call_and_wraparound(self):
        body = Seq([Call(Var("r"), "h", [Var("a")]), Return(Binop("+", Var("r"), Const(250)))])
        assert self.check(body, args=(3, 0), width=8)[1] == (9 + 250) % 256

    def test_fuel_exhaustion(self):
        result = self.check(While(Const(1), Skip()), fuel=30)
        assert result[3] == "participant 1 ran out of fuel"

    def test_unknown_nodes(self):
        assert "cannot execute statement" in self.check(Opaque())[3]
        assert "cannot evaluate expression" in self.check(Return(OpaqueExpr()))[3]


def test_unit_growth_after_player_creation():
    """Same-unit calls resolve at call time, and a replaced body recompiles."""
    unit = TranslationUnit("grow")
    unit.add(CFunction("main", [], Seq([Call(Var("r"), "later", []), Return(Var("r"))])))
    player = c_player(unit, "main")
    assert run_local(IFACE, 1, player).stuck is not None  # "later" is a missing prim
    unit.add(CFunction("later", [], Return(Const(7))))
    assert run_local(IFACE, 1, player).ret == 7
    unit.add(CFunction("later", [], Return(Const(8))))
    assert run_local(IFACE, 1, player).ret == 8


def test_bodies_compile_once_per_interpreter():
    unit = TranslationUnit("once")
    unit.add(CFunction("main", [], Return(Const(1))))
    interp = Interp(unit)

    def player(ctx):
        first = yield from interp.run_function(ctx, "main", [])
        second = yield from interp.run_function(ctx, "main", [])
        return first + second

    before = clight_info()["compiled"]
    assert run_local(IFACE, 1, player).ret == 2
    assert clight_info()["compiled"] - before == 1


def test_exec_stmt_entry_point():
    unit = TranslationUnit("entry")
    interp = Interp(unit)
    env = {}

    def player(ctx):
        signal = yield from interp.exec_stmt(
            ctx, env, Seq([Assign(Var("v"), Const(4)), Return(Var("v"))])
        )
        return signal

    run = run_local(IFACE, 1, player)
    assert run.ret == ("return", 4)
    assert env == {"v": 4}
    assert run.cycles == 3


def test_statement_obs_counter_matches_clight_info():
    unit = TranslationUnit("obs")
    unit.add(CFunction("main", ["a", "b"], Seq([
        Assign(Var("i"), Const(0)),
        While(Binop("<", Var("i"), Const(4)), Seq([
            Call(None, "ev", [Var("i")]),
            Assign(Var("i"), Binop("+", Var("i"), Const(1))),
        ])),
    ])))
    was = obs.obs_enabled()
    obs.enable()
    try:
        counters = obs.REGISTRY.counter_values()
        before = (counters.get("clight.stmts_executed", 0), clight_info()["stmts"])
        run_local(IFACE, 1, c_player(unit, "main"), (0, 0))
        after = (obs.REGISTRY.counter_values()["clight.stmts_executed"],
                 clight_info()["stmts"])
    finally:
        if not was:
            obs.disable()
    assert after[0] - before[0] == after[1] - before[1] == 15


class TestMutableGlobals:
    def test_non_callable_initializer_is_not_shared_between_runs(self):
        unit = TranslationUnit("bump")
        unit.globals["arr"] = [0]
        unit.add(CFunction("bump", [], Seq([
            Assign(Arr(Glob("arr"), Const(0)),
                   Binop("+", Arr(Glob("arr"), Const(0)), Const(1))),
            Return(Arr(Glob("arr"), Const(0))),
        ])))
        iface = lx86_interface([1, 2])
        rets = [run_local(iface, 1, c_player(unit, "bump")).ret for _ in range(3)]
        assert rets == [1, 1, 1]
        assert run_local(iface, 2, c_player(unit, "bump")).ret == 1
        assert unit.globals["arr"] == [0]


# --- the zoo's units through whole-machine games -----------------------------------


def client(run_function, calls):
    def player(ctx):
        rets = []
        for name, args in calls:
            ret = yield from run_function(ctx, name, list(args))
            rets.append(ret)
        return (rets, ctx.fuel)
    return player


def ticket_game():
    from repro.objects.ticket_lock import (
        lock_guarantee, lock_rely, lx86_like_interface, ticket_lock_unit,
    )

    domain, lock = [1, 2], "zq"
    iface = lx86_like_interface(domain, 32, lock_rely(domain, [lock]),
                                lock_guarantee(domain, [lock]))
    calls = {tid: [("acq", (lock,)), ("rel", (lock,))] for tid in domain}
    return iface, ticket_lock_unit(), calls, 12


def mcs_game():
    from repro.objects.mcs_lock import mcs_guarantee, mcs_lock_unit, mcs_rely, tid_prims

    domain, lock = [1, 2], "zm"
    iface = lx86_interface(domain, rely=mcs_rely(domain, [lock]),
                           guar=mcs_guarantee(domain, [lock]), extra_prims=tid_prims())
    calls = {1: [("acq", (lock,)), ("rel", (lock,))], 2: [("acq", (lock,))]}
    return iface, mcs_lock_unit(), calls, 12


def queue_game():
    from repro.objects.shared_queue import q_alloc_prim, shared_queue_unit
    from repro.objects.ticket_lock import lock_atomic_interface, lock_guarantee, lock_rely

    domain, queue = [1, 2], "zs"
    base = lx86_interface(domain, rely=lock_rely(domain, [queue]),
                          guar=lock_guarantee(domain, [queue]))
    iface = lock_atomic_interface(
        base, hide=["fai", "aload", "astore", "cas", "swap", "pull", "push"]
    ).extend("L+zs", [q_alloc_prim()])
    calls = {1: [("enQ", (queue, 1)), ("deQ", (queue,))], 2: [("deQ", (queue,))]}
    return iface, shared_queue_unit(), calls, 12


@pytest.mark.parametrize("game", [ticket_game, mcs_game, queue_game])
@pytest.mark.parametrize("fuel", [400, 25])
def test_zoo_games_match_the_oracle(game, fuel):
    iface, unit, calls, rounds = game()
    interp, oracle = Interp(unit), OracleInterp(unit)
    before = clight_info()["stmts"]
    compiled = enumerate_game_logs(
        iface, {tid: (client(interp.run_function, c), ()) for tid, c in calls.items()},
        fuel=fuel, max_rounds=rounds, jobs=1,
    )
    stmts = clight_info()["stmts"] - before
    expected = enumerate_game_logs(
        iface, {tid: (client(oracle.run_function, c), ()) for tid, c in calls.items()},
        fuel=fuel, max_rounds=rounds, jobs=1,
    )
    assert compiled == expected
    assert stmts == oracle.stmts > 0
    if fuel == 25:  # the small budget runs out on some schedule
        assert any(r.stuck and "fuel" in r.stuck for r in compiled)
    else:
        assert any(r.ok for r in compiled)
