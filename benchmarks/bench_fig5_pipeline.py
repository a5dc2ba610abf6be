"""Fig. 5: the complete layer-verification pipeline for the lock example.

The figure's derivation, executed end to end with per-stage accounting:

1. fun-lift        — ``L0[i] ⊢_R1 M1 : L1[i]`` (code ≤ low-level strategy)
2. log-lift        — ``L'1[i] ≤_{R} L1[i]`` (interface simulation)
3. weakening (Wk)  — combine 1 and 2
4. vertical composition — stack the shared queue on the lock layer
5. thread-safe compilation — CompCertX translation validation
6. parallel composition — both CPUs focused
7. soundness       — contextual refinement for client programs (Thm 2.2)
"""

from __future__ import annotations

import time

import pytest

from conftest import print_table, record_bench
from repro.clight.semantics import clight_info
from repro.core import SimConfig, check_soundness
from repro.core.replay import replay_cache_info
from repro.compiler import compile_and_validate
from repro.objects.shared_queue import certify_shared_queue
from repro.objects.ticket_lock import (
    certify_ticket_lock,
    low_env_alphabet,
    ticket_lock_unit,
)
from repro.machine import lx86_interface
from repro.objects.ticket_lock import lock_guarantee, lock_rely
from repro.reduce.dpor import scheduler_info


def run_pipeline():
    stages = []

    def stage(label, thunk):
        start = time.perf_counter()
        result = thunk()
        stages.append((label, time.perf_counter() - start, result))
        return result

    # Stages 1-3 + 6: the lock derivation driver runs fun-lift,
    # log-lift, Wk and Pcomp internally.
    stack = stage(
        "fun-lift + log-lift + Wk + Pcomp (ticket lock)",
        lambda: certify_ticket_lock([1, 2], lock="q0"),
    )
    # Stage 4: vertical composition — the shared queue over L_lock.
    queue = stage(
        "Vcomp substrate (shared queue over L_lock)",
        lambda: certify_shared_queue([1, 2], queue="rdq"),
    )
    # Stage 5: thread-safe compilation of the lock module.
    def compile_stage():
        D, lock = [1, 2], "q0"
        base = lx86_interface(
            D, rely=lock_rely(D, [lock]), guar=lock_guarantee(D, [lock])
        )
        cfg = SimConfig(
            env_alphabet=low_env_alphabet([2], [lock]), env_depth=1, fuel=500
        )
        return compile_and_validate(
            base, ticket_lock_unit(), 1,
            [("acq", [("acq", (lock,))], cfg),
             ("acq_rel", [("acq", (lock,)), ("rel", (lock,))], cfg)],
        )

    _asm, compile_cert = stage("thread-safe CompCertX", compile_stage)
    # Stage 7: the soundness theorem over the composed lock layer.
    soundness = stage(
        "soundness (Thm 2.2, contextual refinement)",
        lambda: check_soundness(
            stack.composed,
            clients=[{1: [("acq", ("q0",)), ("rel", ("q0",))],
                      2: [("acq", ("q0",)), ("rel", ("q0",))]}],
            max_rounds=20,
            require_progress=False,
        ),
    )
    return stages, stack, queue, compile_cert, soundness


def replay_events_stepped() -> int:
    """Events every replay fold in this process has stepped so far."""
    return sum(info["events_stepped"] for info in replay_cache_info().values())


def test_fig5_full_pipeline(benchmark):
    stepped = replay_events_stepped()
    stmts = clight_info()["stmts"]
    full_picks = scheduler_info()["full_picks"]
    stages, stack, queue, compile_cert, soundness = benchmark.pedantic(
        run_pipeline, rounds=1, iterations=1
    )
    stepped = replay_events_stepped() - stepped
    stmts = clight_info()["stmts"] - stmts
    full_picks = scheduler_info()["full_picks"] - full_picks
    rows = []
    total_obligations = 0
    for label, seconds, result in stages:
        if hasattr(result, "composed"):
            count = result.composed.certificate.obligation_count()
        elif hasattr(result, "certificate"):
            count = result.certificate.obligation_count()
        elif isinstance(result, dict) and "composed" in result:
            count = result["composed"].certificate.obligation_count()
        elif isinstance(result, tuple):
            count = result[1].obligation_count()
        else:
            count = result.obligation_count()
        total_obligations += count
        rows.append([label, f"{seconds * 1000:.1f} ms", count])
    rows.append(["TOTAL", "", total_obligations])
    from repro.obs.store import certificate_digest

    record_bench(
        stages=[
            {"stage": label, "seconds": round(seconds, 6)}
            for label, seconds, _ in stages
        ],
        total_obligations=total_obligations,
        # Content digests name *what was proved*, so the run ledger can
        # correlate bench timings with certificate identity across runs.
        certificates={
            "lock_stack": certificate_digest(stack.composed.certificate),
            "soundness": certificate_digest(soundness),
        },
        # Deterministic work counts: the ledger's timer-free series.
        work={
            "replay_events_stepped": stepped,
            "clight_stmts": stmts,
            "scheduler_full_picks": full_picks,
        },
    )
    print_table(
        "Fig. 5 — the layer-verification pipeline",
        ["stage", "time", "obligations"],
        rows,
    )
    assert stack.composed.certificate.ok
    assert queue["composed"].certificate.ok
    assert compile_cert.ok
    assert soundness.ok
    assert total_obligations > 150
