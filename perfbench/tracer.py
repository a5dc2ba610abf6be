"""Per-layer spans recorded from outside the program.

:func:`install` replaces the public entry points of each layer (the
:data:`TARGETS` table) with thin wrappers that count calls and time
them.  A layer's *self time* is the time inside its spans minus the time
inside the spans they enclose, so nested layers are not counted twice.
Players, ``ctx.call`` and the interpreters are generators: their
wrappers return a proxy that times every ``send``/``next``/``throw``
resumption, so a generator is charged for the time it actually runs,
not for the time between its creation and its exhaustion.

The wrappers are installed into every ``repro.*`` module that holds the
original object, so ``from .x import f`` call sites see them too.  They
change the functions that dependency slices fingerprint; install them
before any certificate-cache warm-up and use a fresh cache directory.
The wrapper closures hold only the original function, the layer name
and a hook, never the tracer, so a fingerprint that reaches a wrapper
is the same on every run.  The tracer itself is this module's
``_TRACER`` global, read at call time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from contextlib import contextmanager
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import ratio

#: Spans kept in memory and written by :meth:`Tracer.write`; the rest
#: are still counted in the per-layer totals.
MAX_SPANS = 200_000

#: Layers whose spans are recorded individually (coarse-grained ones);
#: the hot layers (log, replay, context, interpreters) are aggregated.
RECORDED = {
    "verdict", "core.machine", "core.simulation", "core.contextual",
    "compiler", "obs.forensics", "analysis", "parallel.cache",
}


class Tracer:
    """Span stack, per-layer self time, counters and recorded spans."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: List[Tuple[str, float, float, Any, int]] = []
        self.dropped = 0
        self.verdict: Any = None
        self.extend_from = 0
        self.origin = perf_counter()

    def enter(self, layer: str) -> None:
        self.stack.append([layer, perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, child = self.stack.pop()
        duration = perf_counter() - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if layer in RECORDED:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (layer, start, duration, self.verdict, len(self.stack))
                )
            else:
                self.dropped += 1

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` of benchmark bookkeeping to no layer."""
        if self.stack:
            self.stack[-1][2] += seconds

    @contextmanager
    def suspended(self):
        """Run benchmark code (answer checks) without charging any layer."""
        self_s, counts, spans = dict(self.self_s), Counter(self.counts), len(self.spans)
        try:
            yield
        finally:
            self.self_s = defaultdict(float, self_s)
            self.counts = counts
            del self.spans[spans:]

    def write(self, path: str) -> None:
        """Write the recorded spans as a Chrome ``trace_event`` file."""
        events = [
            {"name": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - self.origin) * 1e6, 3),
             "dur": round(duration * 1e6, 3),
             "args": {"verdict": verdict, "depth": depth}}
            for layer, start, duration, verdict, depth in self.spans
        ]
        doc = {"traceEvents": events, "otherData": {
            "dropped_spans": self.dropped,
            "self_s": dict(sorted(self.self_s.items())),
            "counts": dict(sorted(self.counts.items())),
        }}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


_TRACER: Optional[Tracer] = None


class _GenSpan:
    """Generator proxy: one span per resumption of the wrapped generator."""

    __slots__ = ("_gen", "_layer")

    def __init__(self, gen: Any, layer: str):
        self._gen = gen
        self._layer = layer

    def __iter__(self) -> "_GenSpan":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        tracer = _TRACER
        tracer.enter(self._layer)
        try:
            return self._gen.send(value)
        finally:
            tracer.exit()

    def throw(self, *args: Any) -> Any:
        tracer = _TRACER
        tracer.enter(self._layer)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.exit()

    def close(self) -> None:
        self._gen.close()


def _wrap(fn: Callable, layer: str, count: Optional[str], pre: Optional[Callable],
          post: Optional[Callable], generator: bool, timed: bool) -> Callable:
    if generator:
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer = _TRACER
            if count:
                tracer.counts[count] += 1
            return _GenSpan(fn(*args, **kwargs), layer)
        return gen_wrapper

    if not timed:
        @functools.wraps(fn)
        def count_wrapper(*args, **kwargs):
            tracer = _TRACER
            tracer.counts[count] += 1
            if pre is not None:
                pre(tracer, args, kwargs)
            return fn(*args, **kwargs)
        return count_wrapper

    @functools.wraps(fn)
    def span_wrapper(*args, **kwargs):
        tracer = _TRACER
        if count:
            tracer.counts[count] += 1
        if pre is not None:
            pre(tracer, args, kwargs)
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if post is not None:
            started = perf_counter()
            post(tracer, args, kwargs, result)
            tracer.exclude(perf_counter() - started)
        return result
    return span_wrapper


# --- hooks ------------------------------------------------------------------


def _log_extend_before(tracer, args, kwargs):
    tracer.extend_from = len(args[0])


def _log_extend_after(tracer, args, kwargs, _result):
    # ``extend`` may be given a one-shot iterable: count what it appended.
    tracer.counts["core.log.events_appended"] += len(args[0]) - tracer.extend_from


def _log_snapshot(tracer, args, kwargs):
    buffer = args[0]
    if buffer._snapshot is None:
        tracer.counts["core.log.snapshots"] += 1
        tracer.counts["core.log.snapshot_events"] += len(buffer)


def _replay_fold(tracer, args, kwargs):
    tracer.counts["core.replay.events_folded"] += len(args[0])


def _replay_fn_fold(tracer, args, kwargs):
    tracer.counts["core.replay.events_folded"] += len(args[1])


def _reduce_prune(tracer, args, kwargs):
    # Merges of child collectors re-tally prunes already counted where
    # the scheduler made them; count only the original decisions.
    if sys._getframe(2).f_code.co_name in ("absorb", "absorb_stats"):
        return
    tracer.counts["reduce.pruned"] += args[2] if len(args) > 2 else kwargs.get("count", 1)


def _table_seen(tracer, args, kwargs, hit):
    tracer.counts["reduce.table_hits" if hit else "reduce.table_misses"] += 1


def _behaviors(tracer, args, kwargs, results):
    tracer.counts["reduce.behaviours"] += len(results)
    tracer.counts["reduce.distinct_behaviours"] += len({r.log for r in results})


def _cache_load(tracer, args, kwargs, entry):
    tracer.counts["parallel.cache.hits" if entry is not None else "parallel.cache.misses"] += 1


def _cache_store(tracer, args, kwargs, _result):
    from repro.parallel.cache import _entry_path

    try:
        tracer.counts["parallel.cache.bytes_written"] += os.path.getsize(
            _entry_path(args[0])
        )
    except OSError:
        pass


#: (layer, module, attribute path, count name, pre hook, post hook, kind)
#: kind: "span" (timed call), "gen" (timed generator), "count" (untimed).
TARGETS: List[Tuple[str, str, str, Optional[str], Any, Any, str]] = [
    ("core.log", "repro.core.log", "LogBuffer.append", "core.log.events_appended", None, None, "span"),
    ("core.log", "repro.core.log", "LogBuffer.extend", None, _log_extend_before, _log_extend_after, "span"),
    ("core.log", "repro.core.log", "LogBuffer.snapshot", None, _log_snapshot, None, "span"),
    ("core.replay", "repro.core.replay", "ReplayFn.__call__", "core.replay.calls", _replay_fn_fold, None, "span"),
    ("core.replay", "repro.objects.ticket_lock", "replay_ticket", "core.replay.calls", _replay_fold, None, "span"),
    ("core.replay", "repro.objects.mcs_lock", "replay_mcs_queue", "core.replay.calls", _replay_fold, None, "span"),
    ("core.replay", "repro.objects.shared_queue", "replay_shared_queue", "core.replay.calls", _replay_fold, None, "span"),
    ("core.replay", "repro.objects.sched", "replay_sched", "core.replay.calls", _replay_fold, None, "span"),
    ("core.replay", "repro.objects.sched", "replay_current", "core.replay.calls", _replay_fold, None, "span"),
    ("core.replay", "repro.objects.sched", "replay_slpq", "core.replay.calls", _replay_fold, None, "span"),
    ("core.replay", "repro.objects.qlock", "replay_qlock_busy", "core.replay.calls", _replay_fold, None, "span"),
    ("core.replay", "repro.objects.qlock", "replay_qlock_holder", "core.replay.calls", _replay_fold, None, "span"),
    ("core.context", "repro.core.context", "ExecutionContext.call", "core.context.calls", None, None, "gen"),
    ("core.machine", "repro.core.machine", "run_game", None, None, None, "span"),
    ("core.machine", "repro.core.machine", "run_local", None, None, None, "span"),
    ("core.machine", "repro.core.machine", "enumerate_game_logs", None, None, None, "span"),
    ("core.machine", "repro.core.machine", "sample_game_logs", None, None, None, "span"),
    ("core.simulation", "repro.core.simulation", "enumerate_local_runs", None, None, None, "span"),
    ("core.simulation", "repro.core.simulation", "check_sim", None, None, None, "span"),
    ("core.simulation", "repro.core.simulation", "check_scenario_sim", None, None, None, "span"),
    ("core.simulation", "repro.core.simulation", "check_scenarios", None, None, None, "span"),
    ("core.simulation", "repro.core.simulation", "check_interface_sim", None, None, None, "span"),
    ("core.contextual", "repro.core.contextual", "check_soundness", None, None, None, "span"),
    ("core.contextual", "repro.core.contextual", "check_refinement", None, None, None, "span"),
    ("core.contextual", "repro.core.contextual", "behaviors_of", None, None, _behaviors, "span"),
    ("clight", "repro.clight.semantics", "Interp.run_function", None, None, None, "gen"),
    ("clight", "repro.clight.semantics", "Interp.exec_stmt", "clight.stmts", None, None, "count"),
    ("asm", "repro.asm.semantics", "AsmInterp.run_function", None, None, None, "gen"),
    ("compiler", "repro.compiler.codegen", "compile_unit", None, None, None, "span"),
    ("compiler", "repro.compiler.validate", "validate_function", None, None, None, "span"),
    ("compiler", "repro.compiler.validate", "compile_and_validate", None, None, None, "span"),
    ("reduce", "repro.reduce.dpor", "ReducingScheduler.pick", "reduce.picks", None, None, "span"),
    ("reduce", "repro.reduce.dpor", "TranspositionTable.seen", None, None, _table_seen, "span"),
    ("reduce", "repro.reduce.stats", "ReductionStats.prune", "reduce.prune_calls", _reduce_prune, None, "count"),
    ("obs.forensics", "repro.obs.forensics", "build_counterexample", None, None, None, "span"),
    ("obs.forensics", "repro.obs.forensics", "shrink_sequence", None, None, None, "span"),
    ("core.certificate", "repro.core.certificate", "Certificate.to_json", None, None, None, "span"),
    ("core.certificate", "repro.core.certificate", "Certificate.canonical_bytes", None, None, None, "span"),
    ("core.certificate", "repro.core.certificate", "stamp_provenance", None, None, None, "span"),
    ("core.certificate", "repro.core.certificate", "stamp_incremental", None, None, None, "span"),
    ("core.certificate", "repro.core.certificate", "stamp_cache_status", None, None, None, "span"),
    ("core.certificate", "repro.core.certificate", "stamp_lint", None, None, None, "span"),
    ("analysis", "repro.analysis.deps", "dependency_closure", "analysis.closures", None, None, "span"),
    ("analysis", "repro.analysis.slices", "scenario_obligation_key", None, None, None, "span"),
    ("analysis", "repro.analysis.slices", "sim_args_obligation_key", None, None, None, "span"),
    ("analysis", "repro.analysis.slices", "client_obligation_key", None, None, None, "span"),
    ("analysis", "repro.analysis.linter", "lint_rule_inputs", None, None, None, "span"),
    ("parallel.canonical", "repro.parallel.canonical", "canonical_fingerprint", "parallel.canonical.calls", None, None, "span"),
    ("parallel.cache", "repro.parallel.cache", "_load", "parallel.cache.reads", None, _cache_load, "span"),
    ("parallel.cache", "repro.parallel.cache", "_store", "parallel.cache.writes", None, _cache_store, "span"),
    ("parallel.cache", "repro.parallel.cache", "cached_certificate", None, None, None, "span"),
    ("parallel.cache", "repro.parallel.cache", "cached_obligation", None, None, None, "span"),
    ("parallel.cache", "repro.parallel.cache", "cached_obligation_payload", None, None, None, "span"),
]

LAYERS = sorted({target[0] for target in TARGETS})


def install() -> Tracer:
    """Wrap every target; returns the tracer that now receives the spans.

    Idempotent per process: a second call only swaps in a fresh tracer.
    """
    global _TRACER
    tracer = Tracer()
    if _TRACER is not None:
        _TRACER = tracer
        return tracer
    for layer, module_name, path, count, pre, post, kind in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapper = _wrap(original, layer, count, pre, post,
                        generator=kind == "gen", timed=kind != "count")
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    _TRACER = tracer
    return tracer


#: The per-layer metrics every traced run reports (0 where a workload
#: does not exercise or does not measure the layer).
PER_LAYER = (
    "core.log.events_appended", "core.log.snapshots", "core.log.snapshot_events",
    "core.log.self_s",
    "core.replay.calls", "core.replay.events_folded", "core.replay.memo_hit_ratio",
    "core.replay.self_s",
    "core.context.calls", "core.context.self_s",
    "core.machine.game_runs", "core.machine.game_rounds", "core.machine.local_queries",
    "core.machine.self_s", "core.simulation.self_s", "core.contextual.self_s",
    "clight.stmts", "clight.self_s", "asm.self_s", "compiler.self_s",
    "reduce.picks", "reduce.self_s", "reduce.pruned", "reduce.table_hit_ratio",
    "reduce.distinct_ratio",
    "obs.forensics.self_s", "core.certificate.self_s",
    "analysis.closures", "analysis.self_s",
    "parallel.canonical.calls", "parallel.canonical.self_s",
    "parallel.cache.reads", "parallel.cache.writes", "parallel.cache.bytes_written",
    "parallel.cache.hit_ratio", "parallel.cache.reuse_ratio", "parallel.cache.self_s",
    "serve.warm_server_p50_ms", "serve.http_overhead_p50_ms", "serve.store.hit_ratio",
    "serve.jobs.deduped", "serve.jobs.rejected", "serve.queue.wait_p50_ms",
    "serve.worker.busy_ratio", "serve.worker.verify_p50_s",
    "loadgen.lag_p99_ms", "trace.overhead_ratio",
)


def layer_metrics(self_s: Dict[str, float], counts: Dict[str, int],
                  verdicts: int, records: List[Dict[str, Any]],
                  overhead_ratio: float) -> Dict[str, float]:
    """Per-verdict layer numbers of one traced phase.

    Counts and self times are divided by the number of verdicts, so runs
    of different length compare; ratios are over the whole phase.
    """
    out = {name: 0.0 for name in PER_LAYER}
    for layer in LAYERS:
        out[layer + ".self_s"] = self_s.get(layer, 0.0) / verdicts
    for name in ("core.log.events_appended", "core.log.snapshots",
                 "core.log.snapshot_events", "core.replay.calls",
                 "core.replay.events_folded", "core.context.calls",
                 "core.machine.game_runs", "core.machine.game_rounds",
                 "core.machine.local_queries", "clight.stmts", "reduce.picks",
                 "reduce.pruned", "analysis.closures", "parallel.canonical.calls",
                 "parallel.cache.reads", "parallel.cache.writes",
                 "parallel.cache.bytes_written"):
        out[name] = counts.get(name, 0) / verdicts
    out["core.replay.memo_hit_ratio"] = ratio(
        counts.get("core.replay.cache_hits", 0),
        counts.get("core.replay.cache_hits", 0) + counts.get("core.replay.cache_misses", 0),
    )
    out["reduce.table_hit_ratio"] = ratio(
        counts.get("reduce.table_hits", 0),
        counts.get("reduce.table_hits", 0) + counts.get("reduce.table_misses", 0),
    )
    out["reduce.distinct_ratio"] = ratio(
        counts.get("reduce.distinct_behaviours", 0), counts.get("reduce.behaviours", 0)
    )
    out["parallel.cache.hit_ratio"] = ratio(
        counts.get("parallel.cache.hits", 0), counts.get("parallel.cache.reads", 0)
    )
    reused = sum(r["obligations"]["reused"] for r in records)
    rechecked = sum(r["obligations"]["rechecked"] for r in records)
    out["parallel.cache.reuse_ratio"] = ratio(reused, reused + rechecked)
    out["trace.overhead_ratio"] = overhead_ratio
    return out
