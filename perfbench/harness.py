"""Shared plumbing for the workloads: environment, names, statistics, checks.

Nothing here imports the program under test at module level, so that
``run.py`` can clear the ``REPRO_*`` environment before the first
``import repro`` (several settings are read at import time).
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Mapping, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Run artifacts (cache dirs, daemon spools, traces); git-ignored.
OUT = os.path.join(ROOT, ".perfbench")

#: The canonical names the hand-written known answers were recorded with.
CANON_LOCK = "q0"
CANON_QUEUE = "rdq"


def clean_env() -> Dict[str, str]:
    """The process environment with every engine knob removed.

    The workloads set what they need (``REPRO_CACHE_DIR`` for the
    incremental workload) explicitly, so a stray ``REPRO_JOBS`` or
    ``REPRO_REDUCE`` in the caller's shell cannot change what is measured.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def apply_clean_env() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


class Names:
    """Seeded, never-repeating lock/queue names.

    Fresh names defeat every in-process memo keyed on a name (replay
    caches, effect summaries), so each verdict pays its full cost.  The
    prefixes keep them from colliding with any other certificate text,
    which lets :func:`answer_digest` map them back to the canonical ones.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used = set()

    def fresh(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self._rng.getrandbits(40):010x}"
            if name not in self._used:
                self._used.add(name)
                return name

    def lock(self) -> str:
        return self.fresh("lk_")

    def queue(self) -> str:
        return self.fresh("qu_")


def _rename(value: Any, pairs: Sequence[tuple]) -> Any:
    if isinstance(value, str):
        for old, new in pairs:
            value = value.replace(old, new)
        return value
    if isinstance(value, dict):
        return {_rename(k, pairs): _rename(v, pairs) for k, v in value.items()}
    if isinstance(value, list):
        return [_rename(v, pairs) for v in value]
    return value


def answer_digest(cert: Any, renames: Mapping[str, str]) -> str:
    """The certificate digest after mapping fresh names to canonical ones.

    ``repro.obs.store.certificate_digest`` of the renamed, provenance-free
    export; equal to the digest of the same derivation run with the
    canonical names.
    """
    from repro.obs.store import certificate_digest

    doc = cert.to_json() if hasattr(cert, "to_json") else cert
    return certificate_digest(_rename(doc, sorted(renames.items())))


class Checks:
    """Counts attempted and failed verdicts; keeps the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def verdict(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok

    def expect(self, actual: Any, expected: Any, what: str) -> bool:
        """A check inside one verdict: records the reason, counts nothing."""
        if actual != expected:
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: got {actual!r}, want {expected!r}")
            return False
        return True


# --- statistics -------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """Inclusive linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        return float("nan")
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    if q >= 100:
        return max(values)
    return cuts[int(q) - 1] if q >= 1 else min(values)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --- set-up measurements ----------------------------------------------------


def import_seconds(modules: Iterable[str], repeats: int = 5) -> float:
    """Median time a fresh interpreter takes to import ``modules``.

    Each sample is timed inside the child, so interpreter start-up is
    excluded and only the program's own import cost is measured.
    """
    stmt = "; ".join(f"import {m}" for m in modules)
    code = (
        "import time; t = time.perf_counter(); " + stmt
        + "; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=clean_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return median(samples)


def peak_rss_mb(extra_pids: Iterable[int] = ()) -> float:
    """Peak RSS of this process plus ``extra_pids`` (their ``VmHWM``)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in extra_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


class Deadline:
    """The measured window: ``--seconds`` from the first verdict."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def open(self) -> bool:
        return time.perf_counter() < self.end

    def elapsed(self) -> float:
        return time.perf_counter() - self.start
