"""One workload's job list in a fresh process, as one closed-loop client.

Usage (from run.py): ``python3 bench/worker.py SPEC.json``.  The spec
names the workload, seed, seconds, trace flag, work directory and the
file to write the result to.

The worker calls ``orcline.cli.main(argv)`` for each job in turn, on one
thread, starting a job only after the previous one returned.  It repeats
the whole list while a further pass fits in the time, and always runs
at least ``MIN_PASSES`` (of each kind, when tracing).  Each job is timed
from argv in to output file written; its verdict is checked afterwards,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
MIN_PASSES = 2


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a diagnostic of how fast
    the host runs Python right now, never applied to any metric."""
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return perf_counter() - start


def time_setup() -> float:
    """Seconds for a fresh interpreter to start and import orcline.cli,
    which every CLI call pays before any work."""
    start = perf_counter()
    # A blocking wait: waiting with a timeout polls in steps of up to
    # 50 ms, which would quantise the measurement.
    code = subprocess.Popen([sys.executable, "-c", "import orcline.cli"],
                            env=dict(os.environ, PYTHONPATH=SRC)).wait()
    elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"importing orcline.cli exited {code}")
    return elapsed


def run_pass(main, jobs: list, scratch: str, outputs: dict, tracer, first_id):
    """Run every job once; returns [(class, seconds, failure or None)]."""
    records = []
    for offset, job in enumerate(jobs):
        out = job.out or scratch
        err = io.StringIO()
        gc.collect()
        if tracer is not None:
            tracer.job = first_id + offset
        failure = None
        start = perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = main(job.argv + ["--out", out])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a stop
            code = None
            failure = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if failure is None:
            try:
                with open(out) as handle:
                    text = handle.read()
                failure = job.check(code, text, err.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failure = f"unreadable output: {exc}"
            if failure is None and job.same_as is not None:
                previous = outputs.setdefault(job.same_as, text)
                if previous != text:
                    failure = "repeated seed wrote a different trace"
        if failure is not None:
            failure = f"{job.cls} {' '.join(job.argv)}: {failure}"
        records.append((job.cls, elapsed, failure))
    return records


def traced_layers(tracer, passes: list, jobs_per_pass: int) -> dict:
    """Per-layer metrics of the traced passes.  Every pass does the same
    work, so counts are per pass and times the median over passes."""
    from tracing import layer_metrics, self_times
    traced = [p for p, (_, _, flag) in enumerate(passes) if flag]
    by_pass = self_times(tracer.spans, lambda job: job // jobs_per_pass)
    per_pass = [by_pass[p] for p in traced]
    self_s = {name: statistics.median(t.get(name, 0.0) for t in per_pass)
              for name in set().union(*per_pass)}
    counts = {name: {k: v // len(traced) for k, v in c.items()}
              for name, c in tracer.counts.items()}
    share = statistics.median(
        sum(by_pass[p].values()) / sum(s for (_, s, _) in passes[p][1])
        for p in traced)

    def jobs_per_s(flag):
        times = [s for (_, rs, f) in passes if f == flag for (_, s, _) in rs]
        return len(times) / sum(times)

    layers = layer_metrics(self_s, counts, share)
    layers["trace.overhead_ratio"] = jobs_per_s(False) / jobs_per_s(True)
    return layers


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import orcline.cli
    if not os.path.abspath(orcline.cli.__file__).startswith(SRC + os.sep):
        print(f"orcline was imported from {orcline.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    calibration = [calibrate()]
    # The first launch writes the bytecode cache and is not counted.
    # Later launches are spread over the run, one after each pass, so
    # the median samples the same host phases as the jobs.
    time_setup()
    setup = [time_setup(), time_setup()]
    workload = workloads.build(spec["workload"], spec["seed"], spec["workdir"])
    jobs = workload.jobs
    scratch = os.path.join(spec["workdir"], "out.txt")
    # With tracing, untraced and traced passes alternate, so the
    # overhead compares passes run seconds apart, in one host phase.
    tracer = Tracer() if spec["trace"] else None
    min_passes = 2 * MIN_PASSES if tracer else MIN_PASSES
    outputs: dict = {}
    passes = []          # (pass seconds, records, traced)
    began = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        start = perf_counter()
        try:
            records = run_pass(orcline.cli.main, jobs, scratch, outputs,
                               tracer if traced else None,
                               len(passes) * len(jobs))
        finally:
            if traced:
                tracer.uninstall()
        passes.append((perf_counter() - start, records, traced))
        setup.append(time_setup())
        used = perf_counter() - began
        mean = used / len(passes)
        if len(passes) >= min_passes and used + mean > spec["seconds"]:
            break
    calibration.append(calibrate())

    records = [r for (_, rs, _) in passes for r in rs]
    failures = [f for (_, _, f) in records if f is not None]
    result = {
        "jobs_per_pass": len(jobs),
        "passes": len(passes),
        "pass_seconds": [t for (t, _, _) in passes],
        "latencies": [[cls, t] for (cls, t, _) in records],
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "calibration_s": calibration,
        "setup_s": setup,
        "mix": {cls: count for cls, (count, _) in workload.mix.items()},
    }
    if tracer is not None:
        result["layers"] = traced_layers(tracer, passes, len(jobs))
        result["traced_passes"] = sum(1 for (_, _, t) in passes if t)
        tracer.write(spec["spans"])
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
