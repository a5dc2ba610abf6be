"""``cold_fig5``: a closed loop of cold, serial Fig. 5 derivations.

Each accepted derivation runs the calls ``benchmarks/bench_fig5_pipeline``
makes: the ticket-lock stack, the shared queue over it, thread-safe
CompCertX validation of the lock module and the Thm 2.2 soundness game
over the composed stack.  Every derivation uses fresh seeded lock and
queue names, so no in-process memo carries over: this is what a command
line user pays on every run.  The disk cache is off.

One derivation in each block of five certifies a ticket lock whose
``rel`` never pushes the protected data (the defect of
``examples/forensics_demo.py``).  It must be rejected, with the
counterexamples the forensics layer attaches.
"""

from __future__ import annotations

from typing import Any, Dict

from answers import COLD_FIG5
from closed import ClosedLoop
from harness import CANON_LOCK, CANON_QUEUE, Names, answer_digest, import_seconds

MODULES = (
    "repro.core", "repro.compiler", "repro.machine",
    "repro.objects.ticket_lock", "repro.objects.shared_queue",
)

MAX_ROUNDS = 20


def broken_rel(ctx, lock):
    """Fig. 10 ``rel`` with the bug: bump now-serving, never push."""
    from repro.objects.ticket_lock import FAI, n_cell

    yield from ctx.call(FAI, n_cell(lock))
    return None


def derive(lock: str, queue: str) -> Dict[str, Any]:
    """The Fig. 5 pipeline for one lock and one queue; all four certificates."""
    from repro.compiler import compile_and_validate
    from repro.core import SimConfig, check_soundness
    from repro.machine import lx86_interface
    from repro.objects.shared_queue import certify_shared_queue
    from repro.objects.ticket_lock import (
        certify_ticket_lock, lock_guarantee, lock_rely, low_env_alphabet,
        ticket_lock_unit,
    )

    domain = [1, 2]
    stack = certify_ticket_lock(domain, lock=lock)
    queue_stack = certify_shared_queue(domain, queue=queue)
    base = lx86_interface(
        domain, rely=lock_rely(domain, [lock]), guar=lock_guarantee(domain, [lock])
    )
    cfg = SimConfig(env_alphabet=low_env_alphabet([2], [lock]), env_depth=1, fuel=500)
    _asm, compile_cert = compile_and_validate(
        base, ticket_lock_unit(), 1,
        [("acq", [("acq", (lock,))], cfg),
         ("acq_rel", [("acq", (lock,)), ("rel", (lock,))], cfg)],
    )
    soundness = check_soundness(
        stack.composed,
        clients=[{tid: [("acq", (lock,)), ("rel", (lock,))] for tid in domain}],
        max_rounds=MAX_ROUNDS,
        require_progress=False,
    )
    return {
        "lock_stack": stack.composed.certificate,
        "queue_stack": queue_stack["composed"].certificate,
        "compile": compile_cert,
        "soundness": soundness,
    }


def derive_broken(lock: str) -> Any:
    """Fun* over the broken ``rel``; returns the certificate it refused."""
    from repro.core.calculus import module_rule
    from repro.core.errors import VerificationError
    from repro.core.events import ACQ, REL
    from repro.core.module import FuncImpl, Module
    from repro.core.relation import ID_REL
    from repro.core.simulation import SimConfig
    from repro.objects.ticket_lock import (
        acq_impl, lock_guarantee, lock_low_interface, lock_rely, lock_scenarios,
        low_env_alphabet, lx86_like_interface,
    )

    domain = [1, 2]
    base = lx86_like_interface(
        domain, 32, lock_rely(domain, [lock]), lock_guarantee(domain, [lock])
    )
    module = Module(
        {ACQ: FuncImpl(ACQ, acq_impl, lang="spec"),
         REL: FuncImpl(REL, broken_rel, lang="spec")},
        name="M_broken_rel",
    )
    config = SimConfig(
        env_alphabet=low_env_alphabet([2], [lock]), env_depth=1, fuel=2_000,
        delivery="per_query",
    )
    try:
        module_rule(base, module, lock_low_interface(base), ID_REL, 1,
                    lock_scenarios(lock, config))
    except VerificationError as err:
        return err.certificate
    return None


class ColdFig5(ClosedLoop):
    name = "cold_fig5"
    block = ["accept"] * 4 + ["reject"]
    slo_s = 5.0

    def __init__(self, seed: int, answers: Dict[str, Any] = COLD_FIG5):
        super().__init__(seed)
        self.names = Names(self.rng)
        self.answers = answers

    def setup(self) -> float:
        setup_s = import_seconds(MODULES)
        # First-use costs (lazy imports, interning tables) land here, and
        # the canonical names pin the known answers themselves.
        for kind in ("accept", "reject"):
            record = self._produce(kind, CANON_LOCK, CANON_QUEUE)
            self.check(record)
        return setup_s

    def produce(self, kind: str) -> Dict[str, Any]:
        return self._produce(kind, self.names.lock(), self.names.queue())

    def _produce(self, kind: str, lock: str, queue: str) -> Dict[str, Any]:
        if kind == "accept":
            certs = derive(lock, queue)
        else:
            certs = {"broken_rel": derive_broken(lock)}
        return {"certs": certs, "renames": {lock: CANON_LOCK, queue: CANON_QUEUE},
                "answer": kind}

    def check(self, record: Dict[str, Any]) -> None:
        expected = self.answers[record["answer"]]
        certs = record.pop("certs")
        checks = self.checks
        ok = True
        digests = {}
        total = 0
        for name, cert in certs.items():
            if cert is None:
                checks.expect(None, name, "derivation was not rejected")
                ok = False
                continue
            want_ok, want_obligations, want_digest = expected[name]
            digests[name] = answer_digest(cert, record["renames"])
            total += cert.obligation_count()
            ok &= checks.expect(cert.ok, want_ok, f"{name} verdict")
            ok &= checks.expect(cert.obligation_count(), want_obligations,
                                f"{name} obligations")
            ok &= checks.expect(digests[name], want_digest, f"{name} digest")
            if not want_ok:
                ok &= checks.expect(len(cert.counterexamples()),
                                    expected["counterexamples"],
                                    f"{name} counterexamples")
        ok &= checks.expect(sorted(certs), sorted(k for k in expected
                                                  if k != "counterexamples"),
                            "certificates produced")
        record["ok"] = checks.verdict(ok, f"{record['answer']} derivation")
        record["digests"] = digests
        record["obligations"] = {"reused": 0, "rechecked": 0, "total": total}
