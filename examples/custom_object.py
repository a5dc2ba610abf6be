#!/usr/bin/env python3
"""Certify your own concurrent object with the CCAL toolkit.

The downstream-user story: a *shared statistics counter* with an atomic
``add_sample`` / ``get_mean`` interface, implemented in mini-C under a
certified spinlock — written, specified, and certified in ~100 lines
using the same machinery the paper's objects use:

1. implementation: lock-wrapped C code over the atomic lock layer,
2. atomic specification: one event per call, state replayed from the log,
3. simulation relation: merge each ``acq``-``rel`` pair into one event
   (a custom stateful relation, like the shared queue's),
4. the generalized ``Fun`` rule discharges the obligations.

Run:  python examples/custom_object.py
"""

from repro.core import Event, Log, ReplayFn, Stuck
from repro.core.calculus import module_rule
from repro.core.context import ExecutionContext
from repro.core.events import ACQ, REL, freeze, thaw
from repro.core.interface import Prim
from repro.core.module import FuncImpl, Module
from repro.core.relation import SimRel
from repro.core.simulation import Scenario, SimConfig
from repro.machine import lx86_interface
from repro.machine.sharedmem import local_copy
from repro.objects.ticket_lock import (
    lock_atomic_interface,
    lock_guarantee,
    lock_rely,
)

STATS = "stats"  # the lock / shared block protecting the counter


# --- 1. the implementation over the atomic lock layer -----------------------


def add_sample_impl(ctx: ExecutionContext, value):
    yield from ctx.call(ACQ, STATS)
    copy = local_copy(ctx)[STATS] or {"count": 0, "total": 0}
    copy = {"count": copy["count"] + 1, "total": copy["total"] + value}
    local_copy(ctx)[STATS] = copy
    yield from ctx.call(REL, STATS)
    return None


def get_mean_impl(ctx: ExecutionContext):
    yield from ctx.call(ACQ, STATS)
    copy = local_copy(ctx)[STATS] or {"count": 0, "total": 0}
    mean = copy["total"] // copy["count"] if copy["count"] else 0
    yield from ctx.call(REL, STATS)
    return mean


# --- 2. the atomic specification ---------------------------------------------


def _stats_step(state, event):
    count, total = state
    if event.name == "add_sample":
        return count + 1, total + event.args[0]
    return state


# ``(count, total)``, resumed from the log's memo on every call.
replay_stats = ReplayFn("Rstats", lambda: (0, 0), _stats_step)


def add_sample_spec(ctx: ExecutionContext, value):
    yield from ctx.query()
    ctx.emit("add_sample", value)
    return None


def get_mean_spec(ctx: ExecutionContext):
    yield from ctx.query()
    count, total = replay_stats(ctx.log)
    mean = total // count if count else 0
    ctx.emit("get_mean", ret=mean)
    return mean


# --- 3. the simulation relation (stateful, like the queue's) ------------------


class StatsRel(SimRel):
    name = "R_stats"

    def relate_logs(self, log_low: Log, log_high: Log) -> bool:
        expected = []
        count = total = 0
        for event in log_high:
            if event.is_sched():
                continue
            if event.name == "add_sample":
                count += 1
                total += event.args[0]
                expected.append((event.tid, count, total))
            elif event.name == "get_mean":
                expected.append((event.tid, count, total))
        actual = []
        for event in log_low:
            if event.name == REL and event.args and event.args[0] == STATS:
                state = thaw(event.args[1]) or {"count": 0, "total": 0}
                actual.append((event.tid, state["count"], state["total"]))
        return actual == expected

    def concretize_batch(self, batch, log: Log):
        out = []
        for event in batch:
            if event.name in ("add_sample", "get_mean"):
                from repro.objects.ticket_lock import replay_lock

                raw = replay_lock(log, STATS)[0]
                state = (
                    {"count": 0, "total": 0}
                    if raw == ("vundef",) or raw is None
                    else thaw(raw)
                )
                if event.name == "add_sample":
                    state = {
                        "count": state["count"] + 1,
                        "total": state["total"] + event.args[0],
                    }
                out.append(Event(event.tid, ACQ, (STATS,)))
                out.append(Event(event.tid, REL, (STATS, freeze(state))))
            else:
                out.append(event)
        return tuple(out)


# --- 4. certify ---------------------------------------------------------------


def main():
    print("=" * 72)
    print("Certifying a custom object: a lock-protected statistics counter")
    print("=" * 72)

    D = [1, 2]
    base = lx86_interface(
        D, rely=lock_rely(D, [STATS]), guar=lock_guarantee(D, [STATS])
    )
    lock_layer = lock_atomic_interface(
        base, name="L_lock",
        hide=["fai", "aload", "astore", "cas", "swap", "pull", "push"],
    )
    overlay = lock_layer.extend(
        "L_stats",
        [
            Prim("add_sample", add_sample_spec, kind="atomic", cycle_cost=0),
            Prim("get_mean", get_mean_spec, kind="atomic", cycle_cost=0),
        ],
        hide=[ACQ, REL],
    )
    module = Module(
        {
            "add_sample": FuncImpl("add_sample", add_sample_impl),
            "get_mean": FuncImpl("get_mean", get_mean_impl),
        },
        name="M_stats",
    )
    config = SimConfig(
        env_alphabet=[(), (Event(2, "add_sample", (10,)),)],
        env_depth=2,
        fuel=2000,
    )
    scenarios = [
        Scenario("mean_empty", [("get_mean", ())], config),
        Scenario("one_sample", [("add_sample", (4,)), ("get_mean", ())], config),
        Scenario(
            "running_mean",
            [("add_sample", (4,)), ("add_sample", (8,)), ("get_mean", ())],
            config,
        ),
    ]
    layer = module_rule(
        lock_layer, module, overlay, StatsRel(), 1, scenarios
    )
    print(f"\ncertified: {layer.judgment}")
    print(f"  {layer.certificate.obligation_count()} obligations discharged")
    print("\nEvery bounded environment behaviour (including a second CPU")
    print("injecting samples) is matched between the lock-wrapped C-style")
    print("implementation and the one-event-per-call atomic specification.")
    assert layer.certificate.ok


if __name__ == "__main__":
    main()
