"""Benchmark of the gkzlog CLI pipelines, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-golden [--workload NAME] [--small]

Run from anywhere; it uses the checkout that holds this file, runs the
package from its ``src`` directory and writes only under ``.bench_work``.

One parent process runs the ``gkzlog`` CLI as a user does, one fresh
child process per sample, in a closed loop with one client: the next
child starts only after the previous one has exited.  Every sample's
outputs are checked: exit code 0, ``run_report.json`` status ``pass``, no
non-integer mirror coefficients, and artifact sha256 equal to the golden
hashes of the seed's variant (``golden.json``) and to the first sample's.

``--trace 0`` reports the end-to-end metrics, with times scaled by the
machine-speed factor of ``calibrate``.  ``--trace 1`` runs the CLI
once with every layer function wrapped (``child.py trace``), then
untraced samples for the tracing overhead, and reports the per-layer
metrics (``layers.py``).  A run samples until ``--seconds`` would be
exceeded, and always at least once, so ``--seconds 0`` runs one sample.
``--small`` swaps in reduced sizes, for the smoke test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

import layers
from workloads import WORKLOADS, dominance, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
GOLDEN = BENCH_DIR / "golden.json"
SETUP_PROBES_PER_GAP = 2
CHILD_TIMEOUT_S = 150
# Machine-speed calibration, see ``calibrate``.  The reference is about
# what the loop takes on a quiet 2-vCPU x86-64 box under CPython 3.11.
CALIBRATIONS_PER_GAP = 5
CALIBRATION_REFERENCE_S = 0.06

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_tail": "s",
    "cpu_s": "s",
    "terms_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Run:
    code: int
    start_ns: int
    end_ns: int
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str
    speed: float = 1.0  # factor of the calibration loops just before the run

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def child_env() -> dict:
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def spawn(argv: list[str], cwd: Path) -> Run:
    """Run one child to completion; time it from spawn to exit."""
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        code=proc.returncode,
        start_ns=start,
        end_ns=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def check_outputs(command: str, out_dir: Path, run: Run):
    """Return (output terms, artifact hashes, problems) for one CLI run."""
    problems = []
    if run.code != 0:
        problems.append(f"exit code {run.code}: {run.stderr.strip()[-300:]}")
    hashes = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    } if out_dir.is_dir() else {}
    report = {}
    try:
        report = json.loads((out_dir / "run_report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"no readable run_report.json: {exc}")
    if report and report.get("status") != "pass":
        problems.append(f"run_report status {report.get('status')!r}")
    if command == "mirror":
        if report.get("non_integer_coefficients") != 0:
            problems.append(
                f"non_integer_coefficients = {report.get('non_integer_coefficients')!r}"
            )
        terms = report.get("coefficients", 0)
    else:
        terms = sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in out_dir.glob("*.series")
        )
    return terms, hashes, problems


def calibrate() -> float:
    """Time of a fixed exact-arithmetic loop (about 0.06 s) in this process.

    On a shared host the speed of the CPU drifts by 20-40 % over minutes,
    and every time metric drifts with it.  The loop runs between samples;
    the end-to-end times are scaled by the reference over the run's
    median loop time, which removes most of that drift.
    """
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 8000):
        total += Fraction(1, i)
    return perf_counter() - start


def tail(values) -> float:
    """The 90th percentile of ``values``, interpolated between samples.

    The percentile is fixed, not derived from the sample count, so that a
    faster commit, which fits more samples into a run, is judged on the
    same statistic as a slower one.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Bench:
    """One benchmark invocation: inputs, children, checks and counts."""

    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.variant = self.workload.variant(args.seed)
        self.dir = WORK_DIR / args.workload
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.out_dir = self.dir / "out"
        self.problem = write_inputs(self.workload, args.seed, self.variant, self.dir)
        self.cli_args = self.workload.cli_args(self.variant, self.problem, self.out_dir, args.small)
        golden = json.loads(Path(args.golden).read_text(encoding="utf-8"))
        size = "small" if args.small else "full"
        self.golden = golden.get(size, {}).get(args.workload, {}).get(self.variant)
        self.first_hashes = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibrations: list[float] = []
        self.setups: list[float] = []

    def gap(self) -> float:
        """Calibration loops, then set-up probes, between two samples.

        Returns this gap's speed factor.  The probes are scaled by it, so
        that set-up is sampled, and corrected for drift, across the run.
        """
        loops = [calibrate() for _ in range(CALIBRATIONS_PER_GAP)]
        self.calibrations.extend(loops)
        speed = CALIBRATION_REFERENCE_S / statistics.median(loops)
        self.setups.extend(self.setup_probe() * speed for _ in range(SETUP_PROBES_PER_GAP))
        return speed

    def run_cli(self, argv_prefix: list[str]) -> tuple[Run, int, int]:
        """One checked CLI run; returns (run, output terms, artifact bytes)."""
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        run = spawn(argv_prefix + self.cli_args, self.dir)
        terms, hashes, problems = check_outputs(self.workload.command, self.out_dir, run)
        if self.golden is None:
            problems.append(f"no golden hashes for variant {self.variant}")
        elif hashes != self.golden:
            problems.append("artifact hashes differ from the golden hashes")
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            problems.append("artifact hashes differ from the first run's")
        size = sum(path.stat().st_size for path in self.out_dir.iterdir()) if hashes else 0
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return run, terms, size

    def cli_samples(self, deadline: float) -> list[tuple[Run, int]]:
        """Untraced CLI runs until the next one would pass the deadline."""
        samples = []
        while not samples or perf_counter() + statistics.median(
            r.wall_s for r, _ in samples
        ) <= deadline:
            speed = self.gap()
            run, terms, _ = self.run_cli([sys.executable, "-m", "gkzlog.cli"])
            run.speed = speed
            samples.append((run, terms))
        return samples

    def setup_probe(self) -> float:
        run = spawn([sys.executable, str(BENCH_DIR / "child.py"), "setup", str(self.problem)], self.dir)
        if run.code != 0:
            raise RuntimeError(f"setup probe failed: {run.stderr.strip()[-300:]}")
        return (int(run.stdout.split()[-1]) - run.start_ns) / 1e9


def end_to_end(bench: Bench, seconds: float) -> dict:
    samples = bench.cli_samples(perf_counter() + seconds)
    bench.gap()
    speed = CALIBRATION_REFERENCE_S / statistics.median(bench.calibrations)
    passed = [(run, terms) for run, terms in samples if run.code == 0] or samples
    walls = [run.wall_s for run, _ in passed]
    wall = statistics.median(walls)
    tail_value = tail(walls)
    terms = statistics.median(terms for _, terms in passed)
    raw = {
        "wall_s": wall,
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(run.cpu_s for run, _ in passed),
    }
    metrics = {"setup_s": statistics.median(bench.setups)}
    metrics.update((name, value * speed) for name, value in raw.items())
    metrics["terms_per_s"] = terms / metrics["wall_s"]
    metrics["peak_rss_mib"] = statistics.median(run.rss_mib for run, _ in passed)
    notes = {
        "setup_s": (
            f"median of {len(bench.setups)} probes, {SETUP_PROBES_PER_GAP} per gap, "
            "each x its gap's factor"
        ),
        "wall_s": f"median of {len(walls)} runs",
        "wall_s_tail": (
            f"p90 of {len(walls)} runs, {sum(w > tail_value for w in walls)} above it"
        ),
        "cpu_s": "median user+sys of the child",
        "terms_per_s": f"{terms:g} output terms per run / wall_s",
        "peak_rss_mib": "median of the children's ru_maxrss",
    }
    print(
        f"speed factor {speed:.4f}: reference {CALIBRATION_REFERENCE_S} s over the median of "
        f"{len(bench.calibrations)} calibration loops; times below are raw times x factor"
    )
    print("raw wall s per run: " + " ".join(f"{value:.3f}" for value in walls))
    for name, value in metrics.items():
        measured = f"; raw {raw[name]:.6g} s" if name in raw else ""
        print(f"{name}: {value:.6g} {END_TO_END[name]} ({notes[name]}{measured})")
    return metrics


def per_layer(bench: Bench, seconds: float) -> dict:
    started = perf_counter()
    spans_path = bench.dir / "spans.json"
    child = [sys.executable, str(BENCH_DIR / "child.py"), "trace", str(spans_path)]
    speed = bench.gap()
    traced, _, artifact_bytes = bench.run_cli(child)
    baseline = bench.cli_samples(started + seconds)
    trace = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.exists() else None
    if trace is None:
        bench.problems.append("the traced run wrote no spans")
        return {name: 0 for name in layers.PER_LAYER}
    metrics = layers.layer_metrics(trace["names"], trace["spans"])
    negative = [name for name, value in metrics.items() if name.endswith("_s") and value < 0]
    if negative:
        bench.problems.append(f"negative self times: {negative}")
    if metrics["operators.violations"]:
        bench.problems.append(f"{metrics['operators.violations']} certified violations")
    metrics.update(
        {
            "cli.artifact_bytes": artifact_bytes,
            "trace.wall_s": traced.wall_s,
            # Start-up, import, wrapping and writing the spans.
            "trace.outside_s": traced.wall_s
            - sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS),
            # Both sides scaled by the speed of their own calibration gap,
            # so that a drift between the runs does not pass for overhead.
            "trace.overhead_s": traced.wall_s * speed
            - statistics.median(r.wall_s * r.speed for r, _ in baseline),
        }
    )
    for name in layers.PER_LAYER:
        print(f"{name}: {metrics[name]:.6g} {layers.unit_of(name)}")
    holds, detail = dominance(bench.workload, metrics)
    print(f"dominant layer prediction {'holds' if holds else 'does not hold'}: {detail}")
    for line in bench.workload.predictions:
        print(f"prediction: {line}")
    return {name: metrics[name] for name in layers.PER_LAYER}


def record_golden(args) -> int:
    """Run every variant once and store its artifact hashes."""
    path = Path(args.golden)
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    size = "small" if args.small else "full"
    for name in [args.workload] if args.workload else sorted(WORKLOADS):
        workload, work_dir, table = WORKLOADS[name], WORK_DIR / name, {}
        for variant in workload.variants:
            problem = write_inputs(workload, 0, variant, work_dir)
            out_dir = work_dir / "out"
            if out_dir.exists():
                shutil.rmtree(out_dir)
            argv = workload.cli_args(variant, problem, out_dir, args.small)
            run = spawn([sys.executable, "-m", "gkzlog.cli", *argv], work_dir)
            _, hashes, problems = check_outputs(workload.command, out_dir, run)
            if problems:
                print(f"{name} {variant}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            table[variant] = hashes
            print(f"{name} {variant}: {len(hashes)} artifacts, {run.wall_s:.2f} s", flush=True)
        golden.setdefault(size, {})[name] = table
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes (smoke test)")
    parser.add_argument("--golden", default=str(GOLDEN), help="golden hash file")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gkzlog" / "cli.py").is_file():
        print(f"error: no gkzlog source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(args)
    if args.workload is None:
        parser.error("--workload is required")

    bench = Bench(args)
    print(f"workload {args.workload}, seed {args.seed}, variant {bench.variant}")
    print("command: gkzlog " + " ".join(bench.cli_args))
    # Warm-up: the first import compiles the package to bytecode, a cost
    # users pay once per install, not per run.
    bench.setup_probe()
    try:
        if args.trace:
            metrics = per_layer(bench, args.seconds)
            units = {name: layers.unit_of(name) for name in metrics}
        else:
            metrics = end_to_end(bench, args.seconds)
            units = END_TO_END
    except RuntimeError as exc:
        bench.problems.append(str(exc))
        metrics, units = {}, {}
    failed_ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"failed_ratio: {failed_ratio:g} ({bench.failed} of {bench.attempted} runs)")
    for problem in dict.fromkeys(bench.problems):
        print(f"problem: {problem}")
    result = {
        "correct": not bench.problems,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
