"""Steadiness check: how much the end-to-end metrics move between runs.

    python3 bench/steadiness.py [--runs 10] [--sets 1] [--first-seed 1]
                                [--workload NAME ...] [--seconds S]

Runs ``BENCHMARK.json``'s command once per seed and workload (seeds
``first-seed`` .. ``first-seed + runs - 1``, workloads interleaved), then
prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  A spread is
steady when it is within a third of the metric's bound.  With
``--sets 2`` the whole schedule runs twice and the second set's median is
compared with the first's: it may be worse by at most the bound.  The
bounds in ``BENCHMARK.json`` are chosen from these figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = list(command) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs\n{done.stdout[-2000:]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def worse_by(metric, first, second):
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    medians = []
    steady = True
    for set_index in range(args.sets):
        values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for workload in workloads:
                for name, value in run_once(spec["command"], workload, seed, seconds).items():
                    values[workload][name].append(value)
                print(f"set {set_index + 1} seed {seed} {workload} done", file=sys.stderr, flush=True)
        set_medians = {}
        for workload in workloads:
            print(f"\nset {set_index + 1}, {workload}, {args.runs} runs of {seconds} s")
            for metric in spec["end_to_end"]:
                series = values[workload][metric["name"]]
                q1, _, q3 = statistics.quantiles(series, n=4)
                median = statistics.median(series)
                spread = (q3 - q1) / median
                ok = spread <= metric["bound"] / 3
                steady = steady and ok
                set_medians[workload, metric["name"]] = median
                print(
                    f"  {metric['name']:<14} median {median:<11.6g} q1 {q1:<11.6g} q3 {q3:<11.6g}"
                    f" spread {spread:6.1%}  bound {metric['bound']:.0%}"
                    f"  {'steady' if ok else 'NOT steady'}  {metric['unit']}"
                )
                print("    values: " + " ".join(f"{v:.6g}" for v in series))
        medians.append(set_medians)
    if len(medians) == 2:
        print("\nsecond set against the first")
        for workload in workloads:
            for metric in spec["end_to_end"]:
                key = (workload, metric["name"])
                change = worse_by(metric, medians[0][key], medians[1][key])
                ok = change <= metric["bound"]
                steady = steady and ok
                print(
                    f"  {workload:<20} {metric['name']:<14} worse by {change:7.2%}"
                    f"  bound {metric['bound']:.0%}  {'ok' if ok else 'EXCEEDS BOUND'}"
                )
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
