"""Operational semantics of mini-C, parameterized by a layer interface.

A :class:`~repro.clight.ast.CFunction` becomes a *player* (see
:mod:`repro.core.context`): primitive calls resolve against the underlay
interface and may query the environment; everything else is a silent
private transition, exactly as in the paper's machine model ("the
transitions for instructions only change ρ, pm, and m", §3.1).

State mapping:

* locals/parameters — a per-invocation environment dict (the stack
  frame),
* CPU-private globals — ``ctx.priv["globals"]``, initialized per
  participant from the translation unit's initializers,
* pulled shared blocks — the push/pull local copy
  (:func:`repro.machine.sharedmem.local_copy`); accessing a block that
  has not been pulled gets stuck (the data-race discipline).

Integer arithmetic wraps at the unit's width.  Every statement consumes
fuel and charges one simulated cycle (the cost model behind the §6
performance evaluation); every loop iteration consumes one more fuel.

Compilation.  Each function body is compiled once per interpreter,
lazily on its first call, into specialised Python closures ``run(ctx,
env)``.  An expression, and a statement subtree that contains no
``Call``, is a plain function; only subtrees that can reach a query
point (a ``Call``) are generator functions.  A statement returns its
control signal: ``None`` (normal completion), ``"break"``,
``"continue"`` or a 1-tuple ``(value,)`` (return).  The closures keep
the tree walk's observable behaviour exactly: fuel and cycle charges,
evaluation order (an assignment evaluates its value before its place),
call-time resolution of same-unit calls and every ``Stuck`` reason.
The walking interpreter they replace is kept with the tests as their
validation oracle.
"""

from __future__ import annotations

import copy
import weakref
from typing import Any, Callable, Dict, Tuple

from ..core.context import ExecutionContext
from ..core.errors import Stuck
from ..core.machint import IntWidth
from ..machine.sharedmem import local_copy
from ..obs import obs_enabled
from ..obs.metrics import inc
from .ast import (
    Arr,
    Assert,
    Assign,
    Binop,
    Break,
    Call,
    Const,
    Continue,
    Expr,
    Fld,
    Glob,
    If,
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
)

GLOBALS_KEY = "globals"

# Control signals of compiled statements (``None`` is normal completion;
# a return is the 1-tuple of its value).
_BREAK = "break"
_CONTINUE = "continue"
_RETURN_NONE = (None,)

#: ``[statements executed, statements flushed to the obs counter,
#: function bodies compiled]`` in this process.
_INFO = [0, 0, 0]

Run = Callable[[ExecutionContext, Dict[str, Any]], Any]


def clight_info() -> Dict[str, int]:
    """Per-process work of compiled mini-C: statements executed, bodies compiled."""
    return {"stmts": _INFO[0], "compiled": _INFO[2]}


def _flush_stmts() -> None:
    # Called whenever an invocation ends: statements executed since the
    # last flush go to the obs counter (dropped while obs is off).
    delta = _INFO[0] - _INFO[1]
    if delta:
        _INFO[1] = _INFO[0]
        if obs_enabled():
            inc("clight.stmts_executed", delta)


def unit_globals(ctx: ExecutionContext, unit: TranslationUnit) -> Dict[str, Any]:
    """This participant's instance of the unit's globals (lazily built).

    A callable initializer is called; any other value is deep-copied, so
    no two participants or runs share a mutable global.
    """
    store = ctx.priv.setdefault(GLOBALS_KEY, {})
    for name, init in unit.globals.items():
        if name not in store:
            store[name] = init() if callable(init) else copy.deepcopy(init)
    return store


class Interp:
    """One translation unit executed over a layer interface."""

    def __init__(self, unit: TranslationUnit):
        self.unit = unit
        self.width = IntWidth(unit.width_bits)
        #: ``name -> (CFunction, body, body is a generator function)``.
        #: Excluded from fingerprints (``repro.parallel.canonical``).
        self._compiled: Dict[str, Tuple[Any, Run, bool]] = {}

    def run_function(self, ctx: ExecutionContext, name: str, args):
        """Run function ``name`` of the unit: a generator returning its value.

        The callee is looked up at call time, since a unit can grow
        (:meth:`TranslationUnit.add`) after its players exist.
        """
        try:
            fn = self.unit.functions.get(name)
            if fn is None:
                raise Stuck(f"undefined function {name!r} in unit {self.unit.name}")
            if len(args) != len(fn.params):
                raise Stuck(
                    f"{name} expects {len(fn.params)} args, got {len(args)}"
                )
            entry = self._compiled.get(name)
            if entry is None or entry[0] is not fn:
                entry = self._compiled[name] = (fn, *self._compile(fn.body))
                _INFO[2] += 1
            _fn, body, is_gen = entry
            env = dict(zip(fn.params, args))
            signal = (yield from body(ctx, env)) if is_gen else body(ctx, env)
        finally:
            _flush_stmts()
        if signal is None:
            return None
        if signal.__class__ is tuple:
            return signal[0]
        raise Stuck(f"{name}: {signal} outside a loop")

    def exec_stmt(self, ctx: ExecutionContext, env: Dict[str, Any], stmt: Stmt):
        """Compile and execute one statement; a generator returning its signal.

        The signal is ``(kind, value)`` with ``kind`` one of ``"normal"``,
        ``"break"``, ``"continue"`` and ``"return"``.
        """
        run, is_gen = self._compile(stmt)
        try:
            signal = (yield from run(ctx, env)) if is_gen else run(ctx, env)
        finally:
            _flush_stmts()
        if signal is None:
            return ("normal", None)
        if signal.__class__ is tuple:
            return ("return", signal[0])
        return (signal, None)

    def _compile(self, stmt: Stmt) -> Tuple[Run, bool]:
        return _Compiler(self).stmt(stmt)


class _Compiler:
    """Turns statements and expressions of one unit into closures."""

    def __init__(self, interp: Interp):
        self.interp = interp
        self.unit = interp.unit
        self.bits = interp.width.bits
        self.mask = interp.width.modulus - 1

    # -- expressions ------------------------------------------------------------

    def expr(self, expr: Expr) -> Run:
        if isinstance(expr, Const):
            value = expr.value
            return lambda ctx, env: value
        if isinstance(expr, Var):
            name = expr.name

            def var(ctx, env):
                try:
                    return env[name]
                except KeyError:
                    raise Stuck(f"undefined local {name!r}") from None
            return var
        if isinstance(expr, Glob):
            unit, name = self.unit, expr.name

            def glob(ctx, env):
                store = unit_globals(ctx, unit)
                if name not in store:
                    raise Stuck(f"undefined global {name!r}")
                return store[name]
            return glob
        if isinstance(expr, Shared):
            loc_of = self.expr(expr.loc)

            def shared(ctx, env):
                loc = loc_of(ctx, env)
                copies = local_copy(ctx)
                if loc not in copies:
                    raise Stuck(
                        f"access to shared block {loc!r} without ownership "
                        f"(missing pull)"
                    )
                return copies[loc]
            return shared
        if isinstance(expr, Tup):
            return self._tuple([self.expr(item) for item in expr.items])
        if isinstance(expr, Arr):
            base_of, index_of = self.expr(expr.base), self.expr(expr.index)

            def arr(ctx, env):
                base = base_of(ctx, env)
                index = index_of(ctx, env)
                try:
                    return base[index]
                except (TypeError, IndexError, KeyError) as err:
                    raise Stuck(f"bad array access {expr}: {err}") from None
            return arr
        if isinstance(expr, Fld):
            base_of, fieldname = self.expr(expr.base), expr.fieldname

            def fld(ctx, env):
                base = base_of(ctx, env)
                try:
                    return base[fieldname]
                except (TypeError, KeyError) as err:
                    raise Stuck(f"bad field access {expr}: {err}") from None
            return fld
        if isinstance(expr, Unop):
            return self._unop(expr.op, self.expr(expr.arg))
        if isinstance(expr, Binop):
            return self._binop(expr.op, self.expr(expr.left), self.expr(expr.right))

        def unknown(ctx, env):
            raise Stuck(f"cannot evaluate expression {expr!r}")
        return unknown

    @staticmethod
    def _tuple(items) -> Run:
        if len(items) == 2:
            first, second = items
            return lambda ctx, env: (first(ctx, env), second(ctx, env))
        return lambda ctx, env: tuple([item(ctx, env) for item in items])

    def _unop(self, op: str, arg: Run) -> Run:
        mask = self.mask
        if op == "-":
            return lambda ctx, env: -arg(ctx, env) & mask
        if op == "!":
            return lambda ctx, env: 0 if arg(ctx, env) else 1
        if op == "~":
            return lambda ctx, env: ~arg(ctx, env) & mask

        def unknown(ctx, env):
            arg(ctx, env)
            raise Stuck(f"unknown unary operator {op!r}")
        return unknown

    def _binop(self, op: str, left: Run, right: Run) -> Run:
        mask, shift = self.mask, max(self.bits, 1)
        if op == "&&":
            return lambda ctx, env: 1 if (left(ctx, env) and right(ctx, env)) else 0
        if op == "||":
            return lambda ctx, env: 1 if (left(ctx, env) or right(ctx, env)) else 0
        if op == "+":
            return lambda ctx, env: (left(ctx, env) + right(ctx, env)) & mask
        if op == "-":
            return lambda ctx, env: (left(ctx, env) - right(ctx, env)) & mask
        if op == "*":
            return lambda ctx, env: (left(ctx, env) * right(ctx, env)) & mask
        if op == "/":
            def divide(ctx, env):
                lhs = left(ctx, env)
                rhs = right(ctx, env)
                if rhs == 0:
                    raise Stuck("division by zero")
                return (lhs // rhs) & mask
            return divide
        if op == "%":
            def modulo(ctx, env):
                lhs = left(ctx, env)
                rhs = right(ctx, env)
                if rhs == 0:
                    raise Stuck("modulo by zero")
                return (lhs % rhs) & mask
            return modulo
        if op == "==":
            return lambda ctx, env: 1 if left(ctx, env) == right(ctx, env) else 0
        if op == "!=":
            return lambda ctx, env: 1 if left(ctx, env) != right(ctx, env) else 0
        if op == "<":
            return lambda ctx, env: 1 if left(ctx, env) < right(ctx, env) else 0
        if op == "<=":
            return lambda ctx, env: 1 if left(ctx, env) <= right(ctx, env) else 0
        if op == ">":
            return lambda ctx, env: 1 if left(ctx, env) > right(ctx, env) else 0
        if op == ">=":
            return lambda ctx, env: 1 if left(ctx, env) >= right(ctx, env) else 0
        if op == "&":
            return lambda ctx, env: (left(ctx, env) & right(ctx, env)) & mask
        if op == "|":
            return lambda ctx, env: (left(ctx, env) | right(ctx, env)) & mask
        if op == "^":
            return lambda ctx, env: (left(ctx, env) ^ right(ctx, env)) & mask
        if op == "<<":
            return lambda ctx, env: (left(ctx, env) << (right(ctx, env) % shift)) & mask
        if op == ">>":
            return lambda ctx, env: (left(ctx, env) >> (right(ctx, env) % shift)) & mask

        def unknown(ctx, env):
            left(ctx, env)
            right(ctx, env)
            raise Stuck(f"unknown binary operator {op!r}")
        return unknown

    # -- places (lvalues): ``store(ctx, env, value)`` -----------------------------

    def place(self, place: Expr) -> Callable[[ExecutionContext, Dict[str, Any], Any], None]:
        if isinstance(place, Var):
            name = place.name

            def store_var(ctx, env, value):
                env[name] = value
            return store_var
        if isinstance(place, Glob):
            unit, name = self.unit, place.name

            def store_glob(ctx, env, value):
                unit_globals(ctx, unit)[name] = value
            return store_glob
        if isinstance(place, Shared):
            loc_of = self.expr(place.loc)

            def store_shared(ctx, env, value):
                loc = loc_of(ctx, env)
                copies = local_copy(ctx)
                if loc not in copies:
                    raise Stuck(
                        f"write to shared block {loc!r} without ownership "
                        f"(missing pull)"
                    )
                copies[loc] = value
            return store_shared
        if isinstance(place, Arr):
            base_of, index_of = self.expr(place.base), self.expr(place.index)

            def store_arr(ctx, env, value):
                base = base_of(ctx, env)
                index = index_of(ctx, env)
                base[index] = value
            return store_arr
        if isinstance(place, Fld):
            base_of, fieldname = self.expr(place.base), place.fieldname

            def store_fld(ctx, env, value):
                base_of(ctx, env)[fieldname] = value
            return store_fld

        def not_a_place(ctx, env, value):
            raise Stuck(f"not an lvalue: {place!r}")
        return not_a_place

    # -- statements: ``(run, run is a generator function)`` -------------------------
    #
    # Every statement opens with the same prologue: count it, consume one
    # fuel (``consume_fuel(0)`` raises the context's own ``OutOfFuel``
    # once the budget is negative) and charge one cycle.

    def stmt(self, stmt: Stmt) -> Tuple[Run, bool]:
        info = _INFO
        if isinstance(stmt, Skip):
            def skip(ctx, env):
                info[0] += 1
                ctx.fuel -= 1
                if ctx.fuel < 0:
                    ctx.consume_fuel(0)
                ctx.cycles += 1
            return skip, False
        if isinstance(stmt, Assign):
            return self._assign(stmt), False
        if isinstance(stmt, Seq):
            return self._seq(stmt)
        if isinstance(stmt, If):
            return self._if(stmt)
        if isinstance(stmt, While):
            return self._while(stmt)
        if isinstance(stmt, (Break, Continue)):
            signal = _BREAK if isinstance(stmt, Break) else _CONTINUE

            def jump(ctx, env):
                info[0] += 1
                ctx.fuel -= 1
                if ctx.fuel < 0:
                    ctx.consume_fuel(0)
                ctx.cycles += 1
                return signal
            return jump, False
        if isinstance(stmt, Return):
            return self._return(stmt), False
        if isinstance(stmt, Call):
            return self._call(stmt), True
        if isinstance(stmt, Assert):
            cond = self.expr(stmt.cond)

            def check(ctx, env):
                info[0] += 1
                ctx.fuel -= 1
                if ctx.fuel < 0:
                    ctx.consume_fuel(0)
                ctx.cycles += 1
                if not cond(ctx, env):
                    raise Stuck(f"{stmt.message}: {stmt.cond}")
            return check, False

        def unknown(ctx, env):
            info[0] += 1
            ctx.fuel -= 1
            if ctx.fuel < 0:
                ctx.consume_fuel(0)
            ctx.cycles += 1
            raise Stuck(f"cannot execute statement {stmt!r}")
        return unknown, False

    def _assign(self, stmt: Assign) -> Run:
        info, value_of = _INFO, self.expr(stmt.value)
        if isinstance(stmt.place, Var):
            name = stmt.place.name

            def assign_var(ctx, env):
                info[0] += 1
                ctx.fuel -= 1
                if ctx.fuel < 0:
                    ctx.consume_fuel(0)
                ctx.cycles += 1
                env[name] = value_of(ctx, env)
            return assign_var
        store = self.place(stmt.place)

        def assign(ctx, env):
            info[0] += 1
            ctx.fuel -= 1
            if ctx.fuel < 0:
                ctx.consume_fuel(0)
            ctx.cycles += 1
            store(ctx, env, value_of(ctx, env))
        return assign

    def _return(self, stmt: Return) -> Run:
        info = _INFO
        if stmt.value is None:
            def return_none(ctx, env):
                info[0] += 1
                ctx.fuel -= 1
                if ctx.fuel < 0:
                    ctx.consume_fuel(0)
                ctx.cycles += 1
                return _RETURN_NONE
            return return_none
        value_of = self.expr(stmt.value)

        def return_value(ctx, env):
            info[0] += 1
            ctx.fuel -= 1
            if ctx.fuel < 0:
                ctx.consume_fuel(0)
            ctx.cycles += 1
            return (value_of(ctx, env),)
        return return_value

    def _seq(self, stmt: Seq) -> Tuple[Run, bool]:
        info = _INFO
        parts = [self.stmt(sub) for sub in stmt.stmts]
        if not any(is_gen for _run, is_gen in parts):
            runs = [run for run, _is_gen in parts]

            def seq(ctx, env):
                info[0] += 1
                ctx.fuel -= 1
                if ctx.fuel < 0:
                    ctx.consume_fuel(0)
                ctx.cycles += 1
                for run in runs:
                    signal = run(ctx, env)
                    if signal is not None:
                        return signal
                return None
            return seq, False

        def seq_gen(ctx, env):
            info[0] += 1
            ctx.fuel -= 1
            if ctx.fuel < 0:
                ctx.consume_fuel(0)
            ctx.cycles += 1
            for run, is_gen in parts:
                signal = (yield from run(ctx, env)) if is_gen else run(ctx, env)
                if signal is not None:
                    return signal
            return None
        return seq_gen, True

    def _if(self, stmt: If) -> Tuple[Run, bool]:
        info, cond = _INFO, self.expr(stmt.cond)
        then, then_gen = self.stmt(stmt.then)
        els, els_gen = self.stmt(stmt.els)
        if not (then_gen or els_gen):
            def branch(ctx, env):
                info[0] += 1
                ctx.fuel -= 1
                if ctx.fuel < 0:
                    ctx.consume_fuel(0)
                ctx.cycles += 1
                if cond(ctx, env):
                    return then(ctx, env)
                return els(ctx, env)
            return branch, False

        def branch_gen(ctx, env):
            info[0] += 1
            ctx.fuel -= 1
            if ctx.fuel < 0:
                ctx.consume_fuel(0)
            ctx.cycles += 1
            if cond(ctx, env):
                return (yield from then(ctx, env)) if then_gen else then(ctx, env)
            return (yield from els(ctx, env)) if els_gen else els(ctx, env)
        return branch_gen, True

    def _while(self, stmt: While) -> Tuple[Run, bool]:
        info, cond = _INFO, self.expr(stmt.cond)
        body, body_gen = self.stmt(stmt.body)
        if not body_gen:
            def loop(ctx, env):
                info[0] += 1
                ctx.fuel -= 1
                if ctx.fuel < 0:
                    ctx.consume_fuel(0)
                ctx.cycles += 1
                while cond(ctx, env):
                    ctx.fuel -= 1
                    if ctx.fuel < 0:
                        ctx.consume_fuel(0)
                    signal = body(ctx, env)
                    if signal is not None:
                        if signal is _BREAK:
                            break
                        if signal is not _CONTINUE:
                            return signal
                return None
            return loop, False

        def loop_gen(ctx, env):
            info[0] += 1
            ctx.fuel -= 1
            if ctx.fuel < 0:
                ctx.consume_fuel(0)
            ctx.cycles += 1
            while cond(ctx, env):
                ctx.fuel -= 1
                if ctx.fuel < 0:
                    ctx.consume_fuel(0)
                signal = yield from body(ctx, env)
                if signal is not None:
                    if signal is _BREAK:
                        break
                    if signal is not _CONTINUE:
                        return signal
            return None
        return loop_gen, True

    def _call(self, stmt: Call) -> Run:
        # A weak reference: the interpreter holds its compiled bodies, so a
        # strong one would make every interpreter cyclic garbage.
        info, interp, unit, fname = _INFO, weakref.ref(self.interp), self.unit, stmt.fn
        arg_fns = [self.expr(arg) for arg in stmt.args]
        store = self.place(stmt.dst) if stmt.dst is not None else None

        def call(ctx, env):
            info[0] += 1
            ctx.fuel -= 1
            if ctx.fuel < 0:
                ctx.consume_fuel(0)
            ctx.cycles += 1
            args = [arg(ctx, env) for arg in arg_fns]
            if fname in unit.functions:
                ret = yield from interp().run_function(ctx, fname, args)
            else:
                # An underlay primitive: the callee's specification decides
                # whether this is a query point.
                ret = yield from ctx.call(fname, *args)
            if store is not None:
                store(ctx, env, ret)
            return None
        return call


def c_player(unit: TranslationUnit, name: str) -> Callable:
    """Make a player running function ``name`` of ``unit``.

    This is ``LκM`` — the function body executed over whatever
    interface the execution context carries.
    """
    interp = Interp(unit)

    def player(ctx: ExecutionContext, *args):
        ret = yield from interp.run_function(ctx, name, list(args))
        return ret

    player.__name__ = f"c_{name}"
    return player


def c_func_impl(unit: TranslationUnit, name: str):
    """Package a unit function as a :class:`~repro.core.module.FuncImpl`."""
    from ..core.module import FuncImpl

    return FuncImpl(
        name=name,
        player=c_player(unit, name),
        source=unit.functions[name],
        lang="c",
    )
