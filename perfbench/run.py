"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold_fig5 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics, each as ``{"value", "unit"}``.  The
line before it is ``{"work": ...}``, the run's work counts by verdict
kind.  Failed checks are listed on standard error.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

WORKLOADS = ("cold_fig5", "edit_reverify", "serve_mixed")


def load_spec():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Engine knobs are read at import time: clear them before any import.
    harness.apply_clean_env()
    os.environ["PYTHONPATH"] = harness.SRC
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"program sources not found under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    spec = load_spec()

    trace_path = os.path.join(
        harness.OUT, f"trace-{args.workload}-{args.seed}-{os.getpid()}.json"
    )
    if args.workload == "serve_mixed":
        import serve_mixed

        outcome = serve_mixed.run(args.seed, args.seconds, bool(args.trace))
    else:
        if args.workload == "cold_fig5":
            from cold_fig5 import ColdFig5 as Workload
        else:
            from edit_reverify import EditReverify as Workload
        workload = Workload(args.seed)
        try:
            outcome = workload.run(args.seconds, bool(args.trace), trace_path)
        finally:
            close = getattr(workload, "close", None)
            if close is not None:
                close()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {metric['name']} is {value!r}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    checks = outcome["checks"]
    for reason in checks.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"work": outcome["work"]}, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0 and not checks.reasons,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
