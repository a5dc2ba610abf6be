"""``serve_mixed``: an open loop against a real ``repro.serve`` daemon.

One daemon with one worker; one client thread that sends one request
at a time on a seeded schedule and mostly sleeps, so the event loop,
the worker and the client fit two CPUs.  The schedule merges three
streams:

* resubmissions of specs already verified, across a few tenants: these
  are store reads (``WARM_RATE`` per second);
* new cold ``ticket`` / ``mcs`` / ``queue`` specs under fresh names:
  a verification plus a store write;
* bursts of identical new ``ticket`` specs from several tenants, which
  in-flight dedup must collapse into one verification.

The last two share one stream of ``COLD_RATE`` arrivals per second.

At these rates the worker is about a quarter busy and the loop serves
well under its warm capacity, so latency is measured, not backlog.
Every request is timed from when it was due.  No request waits on a
cold job: completion is ``finished_at`` minus the due time, read from
the job document after the window.
This workload is the only one that runs the daemon's HTTP, store, job
table and worker pool; spans inside the daemon are not recorded, so
its per-layer numbers come from ``/metrics``, job documents and the
client's own timing.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from answers import SERVE_MIXED
from harness import (
    CANON_LOCK, CANON_QUEUE, OUT, ROOT, Checks, Names, answer_digest, clean_env,
    median, peak_rss_mb, percentile, ratio,
)

WARM_RATE = 50.0
#: New work per second: cold specs and dedup bursts, never overlapping
#: on one worker (a cold ticket job takes about 0.6 s).
COLD_RATE = 1 / 1.5
BURST_COPIES = 4
TENANTS = ("ci", "nightly", "dev")
STACKS = ("ticket", "mcs", "queue")
#: One block of new work: cold specs by stack, and one dedup burst of
#: ``BURST_COPIES`` identical new ticket specs from different tenants.
COLD_BLOCK = ("ticket", "ticket", "mcs", "queue", "burst")
#: After the window, the certificate of every n-th store-served
#: submission is fetched and compared with the cold verification's bytes.
WARM_BYTES_EVERY = 10
#: Latency limits for ``slo_met_ratio``: a store-served or dedup
#: submission must be answered, a cold job finished, within these.
WARM_SLO_S = 0.050
COLD_SLO_S = 5.0
#: Daemon boots per run; ``setup_s`` is their median.
BOOTS = 5
DRAIN_S = 60.0
BOOT_TIMEOUT_S = 60.0
CLIENT_NICE = -10


def _param(stack: str, name: str) -> Dict[str, str]:
    return {"queue": name} if stack == "queue" else {"lock": name}


def _canon(stack: str) -> str:
    return CANON_QUEUE if stack == "queue" else CANON_LOCK


def schedule(rng: random.Random, names: Names, seconds: float, pool) -> List[tuple]:
    """The seeded arrivals: ``(offset_s, kind, stack, params, tenants)``.

    Store-served resubmissions arrive at seeded gaps between a half and
    one and a half times their mean, so no two arrive together and a
    request's latency is its own, not the one queued ahead of it in the
    single client.  New work arrives
    once per cold period, at a seeded point in its middle third, as
    shuffled blocks of :data:`COLD_BLOCK`; every seed therefore offers
    the worker the same work, one job at a time, and only the timing and
    names change.
    """
    events = []
    t = rng.uniform(0.5, 1.5) / WARM_RATE
    while t < seconds:
        stack, params = pool[rng.randrange(len(pool))]
        events.append((t, "warm", stack, params, (rng.choice(TENANTS),)))
        t += rng.uniform(0.5, 1.5) / WARM_RATE
    period = 1 / COLD_RATE
    block: List[str] = []
    for k in range(int(seconds / period)):
        if not block:
            block = list(COLD_BLOCK)
            rng.shuffle(block)
        kind = block.pop()
        t = (k + rng.uniform(1 / 3, 2 / 3)) * period
        if kind == "burst":
            tenants = tuple(TENANTS[i % len(TENANTS)] for i in range(BURST_COPIES))
            events.append((t, "burst", "ticket", _param("ticket", names.lock()), tenants))
        else:
            events.append((t, "cold", kind, _param(kind, names.fresh(kind[:2] + "_")),
                           (rng.choice(TENANTS),)))
    events.sort(key=lambda event: event[0])
    return events


@contextmanager
def _prompt_client():
    """Raise the load generator's scheduling priority where allowed.

    The client shares two CPUs with the event loop and a busy worker; at
    normal priority it wakes late for due requests, and that lag, not
    the daemon, would set the measured tail.  Best effort: without the
    privilege the run goes on at normal priority.
    """
    before = os.getpriority(os.PRIO_PROCESS, 0)
    try:
        os.setpriority(os.PRIO_PROCESS, 0, CLIENT_NICE)
    except OSError:
        pass
    try:
        yield
    finally:
        try:
            os.setpriority(os.PRIO_PROCESS, 0, before)
        except OSError:
            pass


class Daemon:
    """One ``python -m repro.serve --workers 1`` process.

    ``boot_s`` runs from the spawn to the first healthy ``/healthz``
    answer; the ready file is polled every millisecond so that the
    polling interval does not show in it.
    """

    def __init__(self, spool: str):
        from repro.serve.client import ServeClient

        ready = os.path.join(spool, "ready.json")
        os.makedirs(spool, exist_ok=True)
        started = time.perf_counter()
        self.log = open(os.path.join(spool, "daemon.log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--workers", "1",
             "--spool", spool, "--ready-file", ready],
            stdout=self.log, stderr=subprocess.STDOUT, env=clean_env(), cwd=ROOT,
        )
        try:
            deadline = started + BOOT_TIMEOUT_S
            while True:
                if self.process.poll() is not None:
                    raise RuntimeError(f"daemon exited during boot; see {self.log.name}")
                try:
                    with open(ready, encoding="utf-8") as fh:
                        url = json.load(fh)["url"]
                    break
                except (OSError, ValueError, KeyError):
                    if time.perf_counter() > deadline:
                        raise RuntimeError("daemon not ready in time") from None
                    time.sleep(0.001)
            self.client = ServeClient(url)
            self.client.healthz()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def pids(self) -> List[int]:
        """The daemon and its pool workers."""
        pids = [self.process.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.process.pid:
                pids.append(int(entry))
        return pids

    def stop(self) -> None:
        """SIGTERM (a graceful drain); kill the daemon and its workers if stuck."""
        workers = self.pids()[1:]
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        # A clean drain has already ended the workers; orphans get killed.
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        deadline = time.monotonic() + 30
        while any(os.path.exists(f"/proc/{pid}") for pid in workers) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        self.log.close()


class Run:
    def __init__(self, seed: int, answers: Dict[str, Any] = SERVE_MIXED):
        self.answers = answers
        self.rng = random.Random(f"serve_mixed:{seed}")
        self.names = Names(self.rng)
        self.checks = Checks()
        self.cold_bytes: Dict[str, bytes] = {}   # job fingerprint -> bytes

    # -- checks ------------------------------------------------------------

    def check_result(self, stack: str, params: Dict[str, str], blob: bytes) -> bool:
        """A cold result against the hand-written answer for its stack."""
        doc = json.loads(blob)
        name, digest = self.answers[stack]
        renames = {value: _canon(stack) for value in params.values()}
        ok = self.checks.expect(doc.get("ok"), True, f"{stack} verdict")
        cert = doc.get("certificates", {}).get(name)
        ok &= self.checks.expect(cert is not None, True, f"{stack} certificate")
        if cert is not None:
            ok &= self.checks.expect(answer_digest(cert, renames), digest,
                                     f"{stack} digest")
        return ok

    # -- phases ------------------------------------------------------------

    def boot(self, spool_root: str) -> Tuple[Daemon, float]:
        boots = []
        daemon: Optional[Daemon] = None
        for i in range(BOOTS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(os.path.join(spool_root, f"boot{i}"))
            boots.append(daemon.boot_s)
        return daemon, median(boots)

    def warm_pool(self, client) -> List[tuple]:
        """Verify one spec per stack for every tenant; the store's contents."""
        pool = []
        for stack in STACKS:
            params = _param(stack, self.names.fresh(stack[:2] + "_"))
            docs = client.submit_batch([
                {"stack": stack, "params": params, "tenant": tenant}
                for tenant in TENANTS
            ])
            docs = [client.job(doc["id"], wait=True) for doc in docs]
            blobs = [client.certificate(doc["id"]) for doc in docs]
            ok = all(doc["state"] == "done" for doc in docs)
            ok &= self.check_result(stack, params, blobs[0])
            ok &= self.checks.expect(len(set(blobs)), 1, "per-tenant bytes agree")
            self.checks.verdict(ok, f"warm pool {stack}")
            self.cold_bytes[docs[0]["fingerprint"]] = blobs[0]
            pool.append((stack, params))
        return pool

    def measure(self, client, events, seconds: float) -> Dict[str, Any]:
        """Send the schedule; only submissions happen inside the window.

        Job documents and certificate bytes are read after the window,
        so the benchmark's own checking never delays a due request.
        """
        warm_lat: List[float] = []      # store-served and dedup, from due
        store_lat: List[float] = []     # store-served only
        lags: List[float] = []
        warm_ids: List[Tuple[str, str]] = []     # (job id, fingerprint) to fetch
        cold: Dict[str, Dict[str, Any]] = {}     # primary id -> state
        followers: Dict[str, List[str]] = {}     # primary id -> follower ids
        slo_met = 0
        answered = 0
        with _prompt_client():
            wall0, t0 = time.time(), time.perf_counter()
            for offset, kind, stack, params, tenants in events:
                due = t0 + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lags.append(time.perf_counter() - due)
                primary = None
                for tenant in tenants:
                    try:
                        doc = client.submit(stack, params, tenant=tenant)
                    except Exception as error:  # noqa: BLE001 - HTTP error or 429
                        self.checks.verdict(False, f"{kind} submission: {error!r}")
                        continue
                    latency = time.perf_counter() - due
                    answered += 1
                    if kind == "warm":
                        ok = doc.get("state") == "done" and doc.get("source") == "store" \
                            and doc.get("ok") is True
                        if ok and len(store_lat) % WARM_BYTES_EVERY == 0:
                            warm_ids.append((doc["id"], doc["fingerprint"]))
                        self.checks.verdict(ok, f"warm submission {doc.get('state')}")
                        warm_lat.append(latency)
                        store_lat.append(latency)
                        slo_met += ok and latency <= WARM_SLO_S
                    elif primary is None:
                        if doc.get("state") not in ("queued", "running") or "primary_id" in doc:
                            self.checks.verdict(False, f"{kind} admission {doc}")
                            continue
                        primary = doc["id"]
                        cold[primary] = {"due_wall": wall0 + offset, "stack": stack,
                                         "params": params}
                    else:
                        warm_lat.append(latency)
                        if doc.get("primary_id") != primary:
                            self.checks.verdict(False, f"dedup submission {doc}")
                            continue
                        followers.setdefault(primary, []).append(doc["id"])
                        slo_met += latency <= WARM_SLO_S
            elapsed_s = time.perf_counter() - t0
        window_metrics = client.metrics()

        drain_until = time.monotonic() + DRAIN_S
        for job_id, entry in cold.items():
            wait_s = max(0.1, drain_until - time.monotonic())
            slo_met += self.finish_cold(client, job_id, entry,
                                        followers.get(job_id, []), wait_s)
        for job_id, fingerprint in warm_ids:
            try:
                same = client.certificate(job_id) == self.cold_bytes.get(fingerprint)
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                same = False
                self.checks.expect(repr(error), None, "store-served bytes")
            self.checks.verdict(same, "store-served bytes equal the cold bytes")
        return {
            "warm_lat": warm_lat, "store_lat": store_lat, "lags": lags,
            "cold": [entry for entry in cold.values() if "completion_s" in entry],
            "slo_met": slo_met, "answered": answered, "elapsed_s": elapsed_s,
            "submissions": sum(len(event[4]) for event in events),
            "window_s": seconds, "metrics": window_metrics,
        }

    def finish_cold(self, client, job_id: str, entry, follower_ids,
                    wait_s: float) -> bool:
        """Check one cold job and its dedup followers; True if it met the SLO."""
        try:
            doc = client.job(job_id, wait=True, timeout_s=wait_s)
            ok = doc["state"] == "done" and doc.get("ok") is True \
                and doc.get("source") == "verified"
            blob = client.certificate(job_id) if ok else b""
            ok = ok and self.check_result(entry["stack"], entry["params"], blob)
            followers_ok = [ok and client.certificate(f) == blob for f in follower_ids]
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            self.checks.verdict(False, f"cold job {job_id}: {error!r}")
            for _ in follower_ids:
                self.checks.verdict(False, f"dedup follower of {job_id}")
            return False
        entry["doc"] = doc
        entry["completion_s"] = doc.get("finished_at", 0.0) - entry["due_wall"]
        self.checks.verdict(ok, f"cold {entry['stack']} job {doc['state']}")
        for same in followers_ok:
            self.checks.verdict(same, "dedup follower bytes equal the primary's")
        return ok and entry["completion_s"] <= COLD_SLO_S


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    bench = Run(seed)
    os.makedirs(OUT, exist_ok=True)
    spool_root = tempfile.mkdtemp(prefix="serve-", dir=OUT)
    daemon = None
    try:
        daemon, setup_s = bench.boot(spool_root)
        client = daemon.client
        pool = bench.warm_pool(client)
        events = schedule(bench.rng, bench.names, seconds, pool)
        before = client.metrics()
        measured = bench.measure(client, events, seconds)
        after = client.metrics()
        rss = peak_rss_mb(daemon.pids())
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(spool_root, ignore_errors=True)

    cold = measured["cold"]
    completions = [entry["completion_s"] for entry in cold]
    warm_ms = [1000.0 * s for s in measured["warm_lat"]]
    kinds = {kind: sum(len(e[4]) for e in events if e[1] == kind)
             for kind in ("warm", "cold", "burst")}
    work = {
        "submissions": kinds,
        "verifications": after["latency"]["cold"]["count"] - before["latency"]["cold"]["count"],
        "store_hits": after["cache"]["hits"] - before["cache"]["hits"],
        "deduped": after["jobs"]["deduped"] - before["jobs"]["deduped"],
        "obligations": after["incremental"],
    }
    result: Dict[str, Any] = {"checks": bench.checks, "work": work}
    if not trace:
        result["end_to_end"] = {
            "setup_s": setup_s,
            "verdict_p50_s": median(completions),
            "verdicts_per_s": ratio(measured["answered"], measured["elapsed_s"]),
            "warm_p50_ms": median(warm_ms),
            "warm_p99_ms": percentile(warm_ms, 99),
            "slo_met_ratio": ratio(measured["slo_met"], measured["submissions"]),
            "peak_rss_mb": rss,
        }
        return result

    from tracer import PER_LAYER

    per_layer = {name: 0.0 for name in PER_LAYER}
    # The submissions alone, before the checks read certificates back.
    window = measured["metrics"]
    server_p50 = window["latency"]["warm"]["p50_ms"] or 0.0
    hits = window["cache"]["hits"] - before["cache"]["hits"]
    misses = window["cache"]["misses"] - before["cache"]["misses"]
    docs = [entry["doc"] for entry in cold]
    per_layer.update({
        "serve.warm_server_p50_ms": server_p50,
        "serve.http_overhead_p50_ms":
            1000.0 * median(measured["store_lat"]) - server_p50,
        "serve.store.hit_ratio": ratio(hits, hits + misses),
        "serve.jobs.deduped": window["jobs"]["deduped"] - before["jobs"]["deduped"],
        "serve.jobs.rejected": window["jobs"]["rejected"] - before["jobs"]["rejected"],
        "serve.queue.wait_p50_ms":
            1000.0 * median([d["started_at"] - d["submitted_at"] for d in docs]),
        "serve.worker.busy_ratio":
            ratio(sum(d["wall_s"] for d in docs), measured["window_s"]),
        "serve.worker.verify_p50_s": median([d["wall_s"] for d in docs]),
        "loadgen.lag_p99_ms": 1000.0 * percentile(measured["lags"], 99),
    })
    result["per_layer"] = per_layer
    return result
