#!/usr/bin/env python3
"""Run the benchmark on a base commit and on this checkout in alternating pairs.

    python3 scripts/bench_pairs.py --number 9 --seed 901
    python3 scripts/bench_pairs.py --number 9 --seed 901 --base HEAD~1

The base commit is exported with `git archive` into a temporary
directory; the change is this checkout's working tree.  For every
workload in BENCHMARK.json, pair i of 10 runs `perfbench/run.py` with
seed `--seed` + i on both sides, the base first in even pairs and the
change first in odd ones.  The run length and each metric's better
direction also come from BENCHMARK.json.  The summary goes to BENCH_<number>.json at the
repository root: per workload and end-to-end metric, each side's median,
quartiles and runs, and the number of pairs the change won (ties count
for neither side).
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="write BENCH_<number>.json")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    return parser.parse_args(argv)


def export(revision: str, into: Path) -> str:
    """Unpack `revision` of this repository into `into`; returns its commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # The archive comes from this repository's own git, so it is trusted;
        # Python releases before the extraction filters take no `filter`.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return commit


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One plain run of the benchmark in `root`: its result object."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(base_runs: list[dict], change_runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' quartiles and runs, and the pairs the change won."""
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        base = [run["metrics"][name]["value"] for run in base_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": {**quartiles(base), "runs": base},
            "change": {**quartiles(change), "runs": change},
            "pairs_won": sum(1 for b, c in zip(base, change) if sign * (c - b) > 0),
        }
    return summary


def side_totals(runs: list[dict]) -> dict[str, object]:
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(sys.argv[1:] if argv is None else argv)
    seeds = [args.seed + i for i in range(PAIRS)]
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        report["base"] = export(args.base, Path(tmp))
        report["change"] = "working tree"
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "change": []}
            for i, seed in enumerate(seeds):
                order = [("base", Path(tmp)), ("change", ROOT)]
                for side, root in order if i % 2 == 0 else reversed(order):
                    runs[side].append(bench(root, workload, seed, spec["run_seconds"]))
                print(f"{workload}: pair {i + 1}/{PAIRS} (seed {seed}) done", file=sys.stderr)
            report["workloads"][workload] = {
                "base_totals": side_totals(runs["base"]),
                "change_totals": side_totals(runs["change"]),
                "metrics": summarize(runs["base"], runs["change"], spec["end_to_end"]),
            }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
