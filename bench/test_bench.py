"""Smoke check of the benchmark itself, at reduced sizes and one sample.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run as harness  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--small", "--seconds", "0", "--seed", "0", *args],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_printed_with_units(lines, result, spec_metrics):
    expected = {metric["name"]: metric["unit"] for metric in spec_metrics}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{name}: ") and line.split()[2] == unit for line in lines
        ), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_are_printed_with_units(workload):
    lines, result = run_bench("--workload", workload, "--trace", "0")
    assert result["correct"], lines
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert_printed_with_units(lines, result, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert any(line.startswith("failed_ratio: 0 ") for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_trace_reports_every_layer_metric_with_nonnegative_self_times(workload):
    lines, result = run_bench("--workload", workload, "--trace", "1")
    assert result["correct"], lines
    assert_printed_with_units(lines, result, SPEC["per_layer"])
    times = {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if entry["unit"] == "s" and name != "trace.overhead_s"
    }
    assert all(value >= 0 for value in times.values()), times
    assert times["cli.total_s"] > 0


def test_corrupted_golden_hash_counts_as_a_failure(tmp_path):
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    workload = "triangles-mirror32"
    hashes = golden["small"][workload][WORKLOADS[workload].variant(0)]
    hashes[min(hashes)] = "0" * 64
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(golden), encoding="utf-8")
    lines, result = run_bench("--workload", workload, "--trace", "0", "--golden", str(corrupted))
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "problem: artifact hashes differ from the golden hashes" in lines


def test_benchmark_json_names_what_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [m["unit"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END.values())
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS.values():
        for size in ("full", "small"):
            assert sorted(golden[size][workload.name]) == sorted(workload.variants)


def test_tail_is_the_90th_percentile_whatever_the_sample_count():
    assert harness.tail([2.5]) == 2.5
    assert harness.tail([1.0, 2.0]) == pytest.approx(1.9)
    assert harness.tail([float(i) for i in range(1, 22)]) == pytest.approx(19.0)


def child_command(workload, tmp_path):
    spec = WORKLOADS[workload]
    variant = spec.variant(0)
    problem = write_inputs(spec, 0, variant, tmp_path)
    return spec.cli_args(variant, problem, tmp_path / "out", True)


def run_python(args, tmp_path):
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=harness.child_env(),
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_call_of_a_wrapped_function_has_a_span(workload, tmp_path):
    argv = child_command(workload, tmp_path)
    done = run_python([str(BENCH / "child.py"), "check", *argv], tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " 0 functions with calls past the trace" in done.stdout


def test_a_call_past_the_trace_is_found(tmp_path):
    # Undo the rebinding of f_coeffs in logseries, as if install had missed it.
    argv = child_command("pyramid-solve2", tmp_path)
    code = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
import child, gkzlog.cli, gkzlog.logseries
recorder = child.Recorder()
child.install(recorder)
gkzlog.logseries.f_coeffs = gkzlog.logseries.f_coeffs.__wrapped__
print(json.dumps(child.missed_calls(recorder, lambda: gkzlog.cli.main({argv!r}))))
"""
    done = run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    missed = json.loads(done.stdout.strip().splitlines()[-1])
    assert [line.split(":")[0] for line in missed] == ["coefficients.f_coeffs"]
