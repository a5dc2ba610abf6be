"""Show that the benchmark's checks can fail and its work counts repeat.

    python3 perfbench/selfcheck.py

Run from the repository root; takes about three minutes.  It shows that

1. a deliberately wrong expected digest makes a verdict fail, so
   ``failed`` and the error rate rise above 0, on every workload's check;
2. the broken ticket ``rel`` is never counted as accepted: its refused
   certificate fails the accepted answer, and a derivation that is not
   refused at all fails the rejected answer;
3. two traced runs with one seed print the same work counts, and every
   verdict of one kind within a run did the same work.

Exits 0 when every step passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

FAILURES = []


def report(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def wrong(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def check_cold_fig5() -> None:
    from answers import COLD_FIG5
    from cold_fig5 import ColdFig5, derive_broken

    answers = copy.deepcopy(COLD_FIG5)
    ok, count, digest = answers["accept"]["soundness"]
    answers["accept"]["soundness"] = (ok, count, wrong(digest))
    bench = ColdFig5(seed=1, answers=answers)
    bench.setup()
    report(bench.checks.failed == 1 and bench.checks.attempted == 2,
           "cold_fig5: a wrong soundness digest fails the accepted derivation "
           f"({bench.checks.failed}/{bench.checks.attempted} failed)")

    bench = ColdFig5(seed=1)
    refused = derive_broken(harness.CANON_LOCK)
    renames = {harness.CANON_LOCK: harness.CANON_LOCK}
    bench.check({"certs": {"lock_stack": refused}, "renames": renames, "answer": "accept"})
    bench.check({"certs": {"broken_rel": None}, "renames": renames, "answer": "reject"})
    report(bench.checks.failed == 2,
           "cold_fig5: the broken rel is never counted as accepted "
           f"({bench.checks.failed}/2 failed)")


def check_edit_reverify() -> None:
    from answers import EDIT_REVERIFY
    from edit_reverify import Editor, EditReverify

    answers = copy.deepcopy(EDIT_REVERIFY)
    count, digest = answers["certificates"]["mcs_stack"]
    answers["certificates"]["mcs_stack"] = (count, wrong(digest))
    bench = EditReverify(seed=1, answers=answers)
    bench.editor = Editor()
    try:
        bench._warm_up()
        bench.check(bench.produce("none"))
    finally:
        bench.close()
    report(bench.checks.failed == 2,
           "edit_reverify: a wrong MCS digest fails the warm-up and the re-run "
           f"({bench.checks.failed}/{bench.checks.attempted} failed)")


def check_serve_mixed() -> None:
    from answers import SERVE_MIXED
    from repro.serve.protocol import result_bytes, run_stack
    from serve_mixed import Run

    blob = result_bytes(run_stack("mcs", {"lock": harness.CANON_LOCK}))
    params = {"lock": harness.CANON_LOCK}
    good = Run(seed=1).check_result("mcs", params, blob)
    answers = dict(SERVE_MIXED)
    answers["mcs"] = (answers["mcs"][0], wrong(answers["mcs"][1]))
    bad = Run(seed=1, answers=answers).check_result("mcs", params, blob)
    report(good and not bad,
           "serve_mixed: the served mcs result passes its answer and fails a wrong one")


def work_of(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "4", "--trace", str(trace)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["work"]


def check_repeat(workload: str, trace: int) -> None:
    first, second = work_of(workload, trace), work_of(workload, trace)
    if trace:
        # Whole blocks are traced, but how many fit the window may differ.
        for work in (first, second):
            for entry in work.values():
                entry.pop("verdicts")
    within = all(entry.get("repeat", True) for entry in first.values()) \
        if trace else True
    report(first == second and within,
           f"{workload}: work counts repeat across two runs with seed 7")


def main() -> int:
    harness.apply_clean_env()
    os.environ["PYTHONPATH"] = harness.SRC
    sys.path.insert(0, harness.SRC)
    check_cold_fig5()
    check_edit_reverify()
    check_serve_mixed()
    check_repeat("cold_fig5", 1)
    check_repeat("edit_reverify", 1)
    check_repeat("serve_mixed", 0)
    print(f"\n{len(FAILURES)} self-check(s) failed" if FAILURES else "\nall self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
