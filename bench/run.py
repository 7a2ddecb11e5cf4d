"""orcline's benchmark: verdict latency and throughput through the CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload orc --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

For one workload it prints each metric by name with its unit, then, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` reports the per-layer metrics of a traced run, and the tracing
overhead against untraced passes alternating with the traced ones.
``--workload all`` runs every workload both ways.  The exit code is 1
when any verdict is wrong, 2 when orcline's sources are not in ``src/``
next to ``bench/``.

The workloads and why each job is in them are in ``workloads.py``; the
job lists run in a fresh process each (``worker.py``); the tracer is
``tracing.py``.  ``baseline.json`` holds the figures measured at the
commit that introduced the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

TAIL_PERCENTILES = (90, 95, 99, 99.9)
WORKER_GRACE_S = 150
END_TO_END_UNITS = {"jobs_per_s": "jobs/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def unit_of(layer_metric: str) -> str:
    if layer_metric.endswith(".self_s"):
        return "s"
    if layer_metric.endswith("chars_per_s"):
        return "chars/s"
    if layer_metric.endswith(("ratio", "share", "per_event")):
        return "ratio"
    return "count"


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               workdir: str) -> dict:
    """One job list in a fresh process; returns the worker's result."""
    os.makedirs(workdir)
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "workdir": workdir,
            "result": os.path.join(workdir, "result.json"),
            "spans": os.path.join(ROOT, ".bench_out",
                                  f"{workload}.spans.jsonl")}
    if trace:
        os.makedirs(os.path.dirname(spec["spans"]), exist_ok=True)
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), spec_path],
        cwd=ROOT, timeout=seconds + WORKER_GRACE_S,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    with open(spec["result"]) as handle:
        return json.load(handle)


def tail(latencies: list) -> tuple:
    """(percentile, value): the highest percentile in TAIL_PERCENTILES
    with at least ten jobs beyond it (nearest-rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    chosen = None
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            chosen = (p, ordered[rank - 1])
    if chosen is None:
        return (100, ordered[-1])
    return chosen


def jobs_per_s(result: dict) -> float:
    """Jobs completed ÷ the time spent in them, over whole passes."""
    return result["attempted"] / sum(t for (_, t) in result["latencies"])


def end_to_end(workload: str, seed: int, seconds: float, workdir: str):
    result = run_worker(workload, seed, seconds, False, workdir)
    latencies = [t for (_, t) in result["latencies"]]
    percentile, tail_s = tail(latencies)
    metrics = {
        "jobs_per_s": jobs_per_s(result),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setup_s"]),
    }
    notes = {"latency_tail_percentile": percentile,
             "latency_samples": len(latencies),
             "setup_samples": len(result["setup_s"])}
    return result, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, \
        notes


def per_layer(workload: str, seed: int, seconds: float, workdir: str):
    """One run whose passes alternate untraced and traced."""
    result = run_worker(workload, seed, seconds, True, workdir)
    notes = {"traced_passes": result["traced_passes"],
             "untraced_passes": result["passes"] - result["traced_passes"]}
    return result, {k: (v, unit_of(k)) for k, v in result["layers"].items()}, \
        notes


def report(workload: str, seed: int, trace: bool, seconds: float) -> dict:
    workdir = os.path.join(ROOT, ".bench_tmp", f"{workload}-{os.getpid()}")
    try:
        measure = per_layer if trace else end_to_end
        result, metrics, notes = measure(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# workload {workload}  seed {seed}  trace {int(trace)}  "
          f"passes {result['passes']} x {result['jobs_per_pass']} jobs")
    print("# job mix " + ", ".join(f"{cls} x{n}"
                                   for cls, n in result["mix"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} ratio")
    for name, value in notes.items():
        print(f"# {name} {value}")
    print("# calibration_s (diagnostic only) "
          + " ".join(f"{t:.4f}" for t in result["calibration_s"]))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orcline", "cli.py")):
        print(f"error: no orcline sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        summary = report(args.workload, args.seed, bool(args.trace),
                         args.seconds)
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    correct = True
    for workload in WORKLOADS:
        for trace in (False, True):
            correct &= report(workload, args.seed, trace,
                              args.seconds)["correct"]
    print("all verdicts correct" if correct else "WRONG VERDICTS")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
