"""Obligation-granular incremental re-verification speedup.

The CompCertX separate-compilation argument, one level finer: after
editing one ticket-lock primitive, a re-verification of the whole
multi-stack workload (ticket + MCS + shared queue + the Thm 2.2
soundness game) must re-check only the obligations whose dependency
slice contains the edit.  The MCS and queue stacks reload at rule
level; the ticket stack reassembles from warm per-obligation entries,
re-checking only the scenarios that reach ``rel``.

Gate: the incremental re-run is at least ``SPEEDUP_FLOOR``× faster
than the cold run, and the obligation cache reports genuine partial
reuse (some obligations warm, some re-checked — an all-warm or
all-cold run would mean the slice keys are broken in one direction or
the other).
"""

from __future__ import annotations

import os
import time

from conftest import print_table, record_bench, scratch_path

import repro.objects.ticket_lock as tl
from repro.core import check_soundness
from repro.objects.ticket_lock import FAI, PUSH, n_cell
from repro.objects.mcs_lock import certify_mcs_lock
from repro.objects.shared_queue import certify_shared_queue
from repro.parallel.cache import incremental_collector
from repro.parallel.canonical import fingerprint_info

SPEEDUP_FLOOR = 5.0


def rel_impl_edited(ctx, lock):
    """Bytecode-different, semantically identical ``rel`` (the edit).

    Callees are module-level names so the dependency slice stays exact
    (attribute access would force the honest whole-rule fallback).
    """
    yield from ctx.call(PUSH, lock)
    yield from ctx.call(FAI, n_cell(lock))
    _edited = True
    return None


def _workload():
    """Ticket + MCS + queue + soundness — the Fig. 5 CI unit, multi-stack.

    The edit lands in the ticket lock's ``rel``; the MCS and queue
    stacks and the soundness game over the MCS stack are untouched, so
    a working incremental cache reloads them at rule level and pays
    only for the ticket obligations whose slice reaches ``rel``.
    """
    stack = tl.certify_ticket_lock([1, 2], lock="q0", use_c_source=False)
    mcs = certify_mcs_lock([1, 2, 3], lock="q0")
    certify_shared_queue([1, 2, 3], queue="rdq")
    check_soundness(
        mcs.composed,
        clients=[{t: [("acq", ("q0",)), ("rel", ("q0",))] for t in (1, 2)}],
        max_rounds=18,
        require_progress=False,
    )
    return stack


def test_incremental_speedup(benchmark, tmp_path_factory, monkeypatch):
    cache_dir = tmp_path_factory.mktemp("incremental-cache")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_JOBS", raising=False)

    started = time.perf_counter()
    with incremental_collector() as cold_counts:
        _workload()
    cold_s = time.perf_counter() - started

    # The edit: one ticket-lock primitive changes bytecode.
    monkeypatch.setattr(tl, "rel_impl", rel_impl_edited)

    def incremental_run():
        with incremental_collector() as counts:
            _workload()
        return counts

    before = fingerprint_info()
    started = time.perf_counter()
    warm_counts = benchmark.pedantic(incremental_run, rounds=1, iterations=1)
    incremental_s = time.perf_counter() - started
    after = fingerprint_info()

    speedup = cold_s / incremental_s if incremental_s else float("inf")
    rows = [
        ["cold (fresh cache)", f"{cold_s * 1000:.0f} ms",
         f"{cold_counts['rechecked']} obligations checked"],
        ["incremental (1 prim edited)", f"{incremental_s * 1000:.0f} ms",
         f"{warm_counts['reused']} reused / "
         f"{warm_counts['rechecked']} re-checked"],
        ["speedup", f"{speedup:.1f}x", f"floor {SPEEDUP_FLOOR:.0f}x"],
    ]
    record_bench(
        cold_s=round(cold_s, 6),
        incremental_s=round(incremental_s, 6),
        speedup=round(speedup, 3),
        cold_rechecked=cold_counts["rechecked"],
        warm_reused=warm_counts["reused"],
        warm_rechecked=warm_counts["rechecked"],
        warm_slice_misses=warm_counts["slice_misses"],
        # Deterministic work counts of the incremental run: the ledger's
        # timer-free series.
        work={
            "fingerprint_nodes": after["nodes_expanded"] - before["nodes_expanded"],
            "fingerprint_bytes": after["bytes_hashed"] - before["bytes_hashed"],
        },
    )
    print_table(
        "Incremental re-verification — edit one ticket-lock primitive",
        ["run", "time", "obligations"],
        rows,
    )
    # Cold run checks everything; the edited run must show *partial*
    # reuse: warm entries for unchanged slices, re-checks for the rest.
    assert cold_counts["rechecked"] > 0
    assert warm_counts["reused"] > 0, "no obligation reloaded warm"
    assert warm_counts["rechecked"] > 0, "edit never re-checked anything"
    assert warm_counts["rechecked"] < cold_counts["rechecked"], (
        "incremental run re-checked as much as the cold run"
    )
    assert warm_counts["slice_misses"] == 0, (
        "edit should resolve exactly, not via the whole-rule fallback"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental run only {speedup:.1f}x faster than cold "
        f"(floor {SPEEDUP_FLOOR:.0f}x)"
    )
