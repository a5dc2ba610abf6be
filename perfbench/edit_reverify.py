"""``edit_reverify``: re-verification after editing one ticket-lock primitive.

Set-up warms the obligation cache on the ``benchmarks/bench_incremental``
unit: the ticket lock with Python implementations, the MCS lock, the
shared queue and Thm 2.2 soundness over the MCS stack.  Then a closed
loop of steps, each one of

* ``acq``: a fresh, semantically identical bytecode variant of ``acq_impl``;
* ``rel``: a fresh variant of ``rel_impl``;
* ``none``: an unchanged re-run.

Variants must be fresh: re-applying an earlier edit would hit the
rule-level cache and re-check nothing.  Here dependency closures,
fingerprinting and cache reads and writes carry most of the time, and
the engine re-checks only the obligations whose slice reaches the edit.
"""

from __future__ import annotations

import inspect
import os
import shutil
import tempfile
import time
from typing import Any, Dict

from answers import EDIT_REVERIFY
from closed import ClosedLoop
from harness import (
    CANON_LOCK, CANON_QUEUE, OUT, Names, answer_digest, import_seconds, median,
)

MODULES = (
    "repro.core", "repro.objects.ticket_lock", "repro.objects.mcs_lock",
    "repro.objects.shared_queue", "repro.parallel.cache",
)

#: Soundness game bound over the MCS stack.  At 18 rounds the game alone
#: takes most of a 14 s warm-up; 14 rounds keep set-up at a few seconds.
MAX_ROUNDS = 14

#: Cold warm-ups per run; ``setup_s`` is their median (plus imports).
WARM_UPS = 3


def unit(lock: str, queue: str) -> Dict[str, Any]:
    """The incremental unit for one lock and queue name; its certificates."""
    import repro.objects.ticket_lock as tl
    from repro.core import check_soundness
    from repro.objects.mcs_lock import certify_mcs_lock
    from repro.objects.shared_queue import certify_shared_queue

    ticket = tl.certify_ticket_lock([1, 2], lock=lock, use_c_source=False)
    mcs = certify_mcs_lock([1, 2, 3], lock=lock)
    shared = certify_shared_queue([1, 2, 3], queue=queue)
    soundness = check_soundness(
        mcs.composed,
        clients=[{tid: [("acq", (lock,)), ("rel", (lock,))] for tid in (1, 2)}],
        max_rounds=MAX_ROUNDS,
        require_progress=False,
    )
    return {
        "ticket_stack": ticket.composed.certificate,
        "mcs_stack": mcs.composed.certificate,
        "queue_stack": shared["composed"].certificate,
        "soundness": soundness,
    }


class Editor:
    """Installs fresh bytecode variants of ``acq_impl`` / ``rel_impl``.

    A variant is the original source with one dead assignment of a new
    constant as its first statement, compiled into the ticket-lock
    module's namespace so its callees resolve exactly as the original's
    do (an exact dependency slice, no whole-rule fallback).
    """

    def __init__(self) -> None:
        import repro.objects.ticket_lock as tl

        self.module = tl
        self.originals = {name: getattr(tl, name) for name in ("acq_impl", "rel_impl")}
        self.sources = {
            name: inspect.getsource(fn) for name, fn in self.originals.items()
        }
        self.serial = 0

    def edit(self, name: str) -> None:
        self.serial += 1
        lines = self.sources[name].splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if line.rstrip().endswith(":"))
        lines.insert(header + 1, f"    _edit = {self.serial}\n")
        namespace: Dict[str, Any] = {}
        code = compile("".join(lines), f"<edit {name} #{self.serial}>", "exec")
        exec(code, vars(self.module), namespace)
        setattr(self.module, name, namespace[name])

    def restore(self) -> None:
        for name, fn in self.originals.items():
            setattr(self.module, name, fn)


class EditReverify(ClosedLoop):
    name = "edit_reverify"
    block = ["acq", "rel", "none"]
    slo_s = 3.0

    def __init__(self, seed: int, answers: Dict[str, Any] = EDIT_REVERIFY):
        super().__init__(seed)
        self.names = Names(self.rng)
        self.answers = answers
        self.cache_dirs = []

    def _fresh_cache(self) -> None:
        os.makedirs(OUT, exist_ok=True)
        path = tempfile.mkdtemp(prefix="cache-", dir=OUT)
        self.cache_dirs.append(path)
        os.environ["REPRO_CACHE_DIR"] = path

    def _warm_up(self) -> float:
        """Cold unit run into a fresh cache dir under fresh names."""
        self._fresh_cache()
        self.lock, self.queue = self.names.lock(), self.names.queue()
        started = time.perf_counter()
        record = self._run_unit("warm-up")
        elapsed = time.perf_counter() - started
        self.check(record)
        return elapsed

    def setup(self) -> float:
        imports = import_seconds(MODULES)
        self.editor = Editor()
        warm_ups = [self._warm_up() for _ in range(WARM_UPS)]
        return imports + median(warm_ups)

    def retrace(self) -> None:
        # The wrappers changed what the slices fingerprint: start over.
        self.editor.restore()
        self._warm_up()

    def produce(self, kind: str) -> Dict[str, Any]:
        if kind != "none":
            self.editor.edit(f"{kind}_impl")
        return self._run_unit(kind)

    def _run_unit(self, kind: str) -> Dict[str, Any]:
        from repro.parallel.cache import incremental_collector

        with incremental_collector() as counts:
            certs = unit(self.lock, self.queue)
        return {"certs": certs, "counts": dict(counts), "answer": kind,
                "renames": {self.lock: CANON_LOCK, self.queue: CANON_QUEUE}}

    def check(self, record: Dict[str, Any]) -> None:
        certs = record.pop("certs")
        counts = record["counts"]
        checks = self.checks
        ok = True
        digests = {}
        total = 0
        for name, (want_obligations, want_digest) in self.answers["certificates"].items():
            cert = certs[name]
            digests[name] = answer_digest(cert, record["renames"])
            total += cert.obligation_count()
            ok &= checks.expect(cert.ok, True, f"{name} verdict")
            ok &= checks.expect(cert.obligation_count(), want_obligations,
                                f"{name} obligations")
            ok &= checks.expect(digests[name], want_digest, f"{name} digest")
        want_reused, want_rechecked = self.answers["steps"][record["answer"]]
        ok &= checks.expect((counts["reused"], counts["rechecked"], counts["slice_misses"]),
                            (want_reused, want_rechecked, 0),
                            f"{record['answer']} reused/re-checked/slice misses")
        record["ok"] = checks.verdict(ok, f"{record['answer']} step")
        record["digests"] = digests
        record["obligations"] = {"reused": counts["reused"],
                                 "rechecked": counts["rechecked"], "total": total}

    def close(self) -> None:
        if hasattr(self, "editor"):
            self.editor.restore()
        for path in self.cache_dirs:
            shutil.rmtree(path, ignore_errors=True)
