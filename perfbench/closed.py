"""The closed loop shared by ``cold_fig5`` and ``edit_reverify``.

One caller issues a verdict, waits for it, checks it and issues the
next, so a slower program receives less load.  Verdict kinds come in
fixed blocks whose order is shuffled by the seed: the seed changes the
order and the names, never the amount of work in a block.

With ``--trace 1`` the run has two phases of ``--seconds / 2`` each: an
untraced one, then :func:`tracer.install` and a traced one made of whole
blocks.  The ratio of their median verdict times is
``trace.overhead_ratio``; per-layer numbers are per verdict of the
traced phase.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional

from harness import Checks, Deadline, median, peak_rss_mb, percentile, ratio
import tracer as tracing

#: Deterministic per-verdict work counts (traced phase), by kind.
WORK_COUNTS = (
    "core.log.events_appended", "core.log.snapshot_events",
    "core.replay.events_folded", "clight.stmts", "core.machine.game_runs",
    "obligations.rechecked", "obligations.reused",
)


class ClosedLoop:
    """A closed-loop workload; subclasses fill in the verdicts."""

    name = ""
    #: One block of verdict kinds; shuffled per block by the seed.
    block: List[str] = []
    #: The latency limit that ``slo_met_ratio`` counts against, seconds.
    slo_s = 0.0

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.checks = Checks()

    # -- to be provided by the workload --------------------------------------

    def setup(self) -> float:
        """Prepare the first verdict; returns ``setup_s``."""
        raise NotImplementedError

    def produce(self, kind: str) -> Dict[str, Any]:
        """Issue one verdict of ``kind``; the timed part.

        Returns a record that :meth:`check` can judge.
        """
        raise NotImplementedError

    def check(self, record: Dict[str, Any]) -> None:
        """Judge a record against the known answers (untimed).

        Sets ``ok``, ``digests`` and ``obligations`` (``reused`` /
        ``rechecked``) on the record and counts it in ``self.checks``.
        """
        raise NotImplementedError

    # -- the loop --------------------------------------------------------------

    def kinds(self):
        while True:
            block = list(self.block)
            self.rng.shuffle(block)
            yield from block

    def loop(self, seconds: float, kinds, whole_blocks: bool = False,
             tracer: Optional[tracing.Tracer] = None) -> List[Dict[str, Any]]:
        """Issue verdicts for ``seconds``; each record gets ``latency_s``."""
        records: List[Dict[str, Any]] = []
        deadline = Deadline(seconds)
        while deadline.open() or (whole_blocks and len(records) % len(self.block)):
            kind = next(kinds)
            if tracer is not None:
                tracer.verdict = len(records)
                before = _work_snapshot(tracer)
                tracer.enter("verdict")
            started = time.perf_counter()
            try:
                record = self.produce(kind)
            finally:
                if tracer is not None:
                    tracer.exit()
            record["latency_s"] = time.perf_counter() - started
            record["kind"] = kind
            if tracer is None:
                self.check(record)
            else:
                after = _work_snapshot(tracer)
                with tracer.suspended():
                    self.check(record)
                record["work"] = {k: after[k] - before.get(k, 0) for k in after}
                for field in ("rechecked", "reused"):
                    record["work"]["obligations." + field] = record["obligations"][field]
            records.append(record)
        self.elapsed_s = deadline.elapsed()
        return records

    def run(self, seconds: float, trace: bool, trace_path: str) -> Dict[str, Any]:
        setup_s = self.setup()
        kinds = self.kinds()
        if not trace:
            records = self.loop(seconds, kinds)
            return {
                "checks": self.checks,
                "end_to_end": self._end_to_end(records, setup_s),
                "work": _work_by_kind(records, "obligations", lambda r: r["obligations"]),
            }
        from repro import obs

        plain = self.loop(seconds / 2, kinds)
        plain_digests = _digests_by_kind(plain)
        tracer = tracing.install()
        obs.enable()
        self.retrace()
        tracer_start = _work_snapshot(tracer)
        self_start = dict(tracer.self_s)
        traced = self.loop(seconds / 2, self.kinds(), whole_blocks=True, tracer=tracer)
        traced_digests = _digests_by_kind(traced)
        for kind, digests in traced_digests.items():
            self.checks.verdict(
                digests == plain_digests.get(kind, digests),
                f"traced {kind} digests differ from the untraced run",
            )
        self_s = {k: v - self_start.get(k, 0.0) for k, v in tracer.self_s.items()}
        counts = _work_snapshot(tracer)
        counts = {k: counts[k] - tracer_start.get(k, 0) for k in counts}
        overhead = ratio(
            median([r["latency_s"] for r in traced]),
            median([r["latency_s"] for r in plain]),
        )
        per_layer = tracing.layer_metrics(
            self_s, counts, len(traced), traced, overhead
        )
        tracer.write(trace_path)
        return {
            "checks": self.checks,
            "per_layer": per_layer,
            "work": _work_by_kind(traced, "counts", lambda r: {
                name: r["work"].get(name, 0) for name in WORK_COUNTS}),
        }

    def retrace(self) -> None:
        """Work to redo after the tracer is installed (default: none)."""

    # -- metrics ---------------------------------------------------------------

    def _end_to_end(self, records, setup_s: float) -> Dict[str, float]:
        latencies = [r["latency_s"] for r in records]
        return {
            "setup_s": setup_s,
            "verdict_p50_s": median(latencies),
            "verdicts_per_s": ratio(len(records), self.elapsed_s),
            "warm_p50_ms": 1000.0 * median(latencies),
            "warm_p99_ms": 1000.0 * percentile(latencies, 99),
            "slo_met_ratio": ratio(
                sum(1 for r in records if r["ok"] and r["latency_s"] <= self.slo_s),
                len(records),
            ),
            "peak_rss_mb": peak_rss_mb(),
        }


def _work_snapshot(tracer: tracing.Tracer) -> Dict[str, int]:
    """The tracer's counters plus the ``repro.obs`` counters they lack."""
    from repro import obs

    snap = dict(tracer.counts)
    counters = obs.snapshot()["counters"]
    for name in ("machine.game_runs", "machine.game_rounds", "machine.local_queries",
                 "replay.cache_hits", "replay.cache_misses"):
        snap["core." + name] = counters.get(name, 0)
    return snap


def _digests_by_kind(records) -> Dict[str, Any]:
    """The first (name-normalised) digests seen for each verdict kind.

    Every verdict was already checked against the fixed answers, so the
    first one stands for its kind.
    """
    out: Dict[str, Any] = {}
    for record in records:
        out.setdefault(record["kind"], record["digests"])
    return out


def _work_by_kind(records, field: str, work) -> Dict[str, Any]:
    """``work(record)`` per verdict kind; ``repeat`` says every verdict agreed."""
    by_kind: Dict[str, Any] = {}
    for record in records:
        value = work(record)
        entry = by_kind.setdefault(record["kind"], {"verdicts": 0, field: value,
                                                    "repeat": True})
        entry["verdicts"] += 1
        entry["repeat"] = entry["repeat"] and value == entry[field]
    return by_kind
