#!/usr/bin/env python3
"""Run one workload of the f8tight benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload table_sweep --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it repeats whole rounds of the workload until the
seconds have passed and reports the end-to-end metrics; with ``--trace 1``
it runs a fixed number of rounds plainly, with every layer wrapped, and
plainly again, and reports per-layer self times, counters and the tracing
overhead.  Every output is checked against the oracles.  The last line of
standard output is the result object; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import Tracer

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SETUP_PROBES = 10
TRACE_ROUNDS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import f8tight from this checkout's src/, refusing any other copy."""
    if not (SOURCE / "f8tight" / "__init__.py").is_file():
        sys.exit(f"error: no f8tight sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import f8tight

    if Path(f8tight.__file__).resolve().parent != (SOURCE / "f8tight").resolve():
        sys.exit(f"error: imported f8tight from {f8tight.__file__}, not {SOURCE}")
    import workloads

    return workloads


class Run:
    """Outcome of executing operations: timings, counts and correctness."""

    def __init__(self, sink_type) -> None:
        self.sink_type = sink_type
        self.times: list[float] = []
        self.first_lines: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.certificates = 0
        self.correct = True

    def execute(self, op) -> None:
        sink = self.sink_type(op.first_line)
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.call(sink)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            self.times.append(time.perf_counter() - start)
            self.failed += 1
            if op.expect is None or not isinstance(exc, op.expect):
                print(f"unexpected failure in {op.kind}: {exc!r}", file=sys.stderr)
            return
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        if sink.line_at is not None:
            self.first_lines.append(sink.line_at - start)
        try:
            self.certificates += op.check(result, sink)
        except checks.CheckError as exc:
            self.correct = False
            print(f"check failed in {op.kind}: {exc}", file=sys.stderr)

    def execute_all(self, ops) -> None:
        for op in ops:
            self.execute(op)
        gc.collect()


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def setup_samples(args: argparse.Namespace) -> list[float]:
    """Set-up time of fresh interpreters: import f8tight and build round 0."""
    samples = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def timed_run(args: argparse.Namespace, workloads, first_round, own_setup: float) -> dict:
    run = Run(workloads.LineSink)
    start = time.perf_counter()
    ops, k = first_round, 0
    while True:
        run.execute_all(ops)
        k += 1
        if time.perf_counter() - start >= args.seconds:
            break
        ops = workloads.build_round(args.workload, args.seed, k)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    busy = sum(run.times)
    setup = statistics.median([own_setup, *setup_samples(args)])
    metrics = {
        "ops_per_s": ((run.attempted - run.failed) / busy, "1/s"),
        "op_p50_ms": (statistics.median(run.times) * 1000, "ms"),
        "op_tail_ms": (percentile(run.times, workloads.TAIL_PERCENTILE[args.workload]) * 1000, "ms"),
        "certs_per_s": (run.certificates / busy, "1/s"),
        "first_line_ms": (statistics.median(run.first_lines) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup, "s"),
    }
    print(f"{args.workload}: {k} rounds, {run.attempted} ops, {len(run.first_lines)} first lines", file=sys.stderr)
    return result_object(run, metrics)


def traced_run(args: argparse.Namespace, workloads, first_round) -> dict:
    """Plain, traced, plain again: the overhead compares the two warm passes."""
    rounds = [first_round] + [workloads.build_round(args.workload, args.seed, k) for k in range(1, TRACE_ROUNDS)]
    passes = [Run(workloads.LineSink) for _ in range(3)]
    for ops in rounds:
        passes[0].execute_all(ops)
    tracer = Tracer()
    tracer.install()
    try:
        for ops in rounds:
            passes[1].execute_all([traced_op(tracer, op) for op in ops])
    finally:
        tracer.uninstall()
    for ops in rounds:
        passes[2].execute_all(ops)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (sum(passes[1].times) / sum(passes[2].times), "ratio")
    passes[1].correct = all(run.correct for run in passes)
    return result_object(passes[1], metrics)


def traced_op(tracer, op):
    """The same operation with spans recorded during the call, not during the check."""

    def call(sink):
        tracer.active = True
        try:
            return op.call(sink)
        finally:
            tracer.active = False

    return dataclasses.replace(op, call=call)


def result_object(run: Run, metrics: dict) -> dict:
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    first_round = workloads.build_round(args.workload, args.seed, 0)
    own_setup = time.perf_counter() - STARTED
    if args.setup_probe:
        print(own_setup)
        return 0
    if args.trace:
        result = traced_run(args, workloads, first_round)
    else:
        result = timed_run(args, workloads, first_round, own_setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
