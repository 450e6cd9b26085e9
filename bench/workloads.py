"""The benchmark's workloads: generated inputs, CLI arguments, predictions.

Each workload is one ``gkzlog`` CLI pipeline.  The seed picks one of the
workload's variants; the benchmark writes the variant's problem file and
the program sees only that file.  Variants of one workload do the same
work up to relabeling, so the seed changes the bytes of the inputs and
artifacts but not the amount of work (the spread across seeds would
otherwise hide the spread the benchmark exists to bound).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Square pyramid: four base vertices, then the apex.  Every relabeling of
# the base vertices keeps the two diagonal relations as the lattice basis,
# so the box is the same up to relabeling.  Moving the apex changes the
# Hermite basis and with it the box: that costs 1.6-4.7 s instead of
# 3.2 s at radius 12, so the apex stays last.
PYRAMID = ((1, 1, 1, 1, 1), (-1, 1, 1, -1, 0), (-1, -1, 1, 1, 0))
PYRAMID_V = ("0", "0", "0", "0", "1")
HEXAGON = ((0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
TWO_TRIANGLES = (
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (-1, -1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (0, 0, -1, -1),
)


def _pyramid_problem(variant: str) -> dict:
    order = [int(x) for x in variant.split(",")]
    return {
        "name": "square_pyramid",
        "matrix": [[row[k] for k in order] for row in PYRAMID],
        "beta": ["1", "0", "0"],
        "v": [PYRAMID_V[k] for k in order],
    }


def _ci_problem(name: str, points, radius: int, grade: int):
    def problem(variant: str) -> dict:
        return {
            "name": name,
            "ci": {"point_sets": [[list(p) for p in points]]},
            "radius": radius,
            "grade": grade,
        }

    return problem


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    variants: tuple[str, ...]
    problem: Callable[[str], dict]  # variant -> problem-file contents
    args: tuple[str, ...]
    small_args: tuple[str, ...]
    # Which per-layer metrics should move which end-to-end metric here.
    predictions: tuple[str, ...]
    # Layer self-time metrics predicted, together, to dominate the trace.
    dominant: tuple[str, ...]

    def variant(self, seed: int) -> str:
        return random.Random(seed).choice(self.variants)

    def cli_args(self, variant: str, problem_path: Path, out_dir: Path, small: bool) -> list[str]:
        extra = list(self.small_args if small else self.args)
        if self.command == "mirror":
            extra += ["--index", variant]
        return [self.command, str(problem_path), *extra, "--out", str(out_dir)]


MIRROR_INDICES = tuple(str(i) for i in range(1, 7))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pyramid-solve2",
            command="solve",
            variants=tuple(
                ",".join(map(str, p)) + ",4" for p in itertools.permutations(range(4))
            ),
            problem=_pyramid_problem,
            args=("--order", "2", "--radius", "12"),
            small_args=("--order", "2", "--radius", "3"),
            predictions=(
                "coefficients.self_s and its *_calls counts move wall_s and cpu_s",
                "logseries.build_s, algebra_s, render_s and terms_built move wall_s",
                "operators.verify_s, apply_s and lattice.coords_of_calls move wall_s",
                "support.scans (37 today) moves wall_s only a little",
            ),
            dominant=("coefficients.self_s",),
        ),
        Workload(
            name="hexagon-mirror8",
            command="mirror",
            variants=MIRROR_INDICES,
            problem=_ci_problem("hexagon", HEXAGON, radius=4, grade=8),
            args=("--grade", "8"),
            small_args=("--grade", "2", "--radius", "2"),
            predictions=(
                "support.self_s, scans, points_scanned and kept_ratio move wall_s and peak_rss_mib",
                "lattice.enumerate_s, enumerate_calls and box_points move wall_s",
                "ci_mirror.useful_ratio moves wall_s; polytope.hull_s a little",
                "coefficients metrics predict no change here",
            ),
            dominant=("support.self_s", "lattice.self_s"),
        ),
        Workload(
            name="triangles-mirror32",
            command="mirror",
            variants=MIRROR_INDICES,
            problem=_ci_problem("ci_two_triangles", TWO_TRIANGLES, radius=4, grade=8),
            args=("--grade", "32"),
            small_args=("--grade", "4"),
            predictions=(
                "ci_mirror.graded_s and tail_terms move wall_s and cpu_s",
                "support.kept_ratio is high here and low on hexagon-mirror8: a support change "
                "that helps one can cost the other",
                "polytope.hull_s moves wall_s a little",
            ),
            dominant=("ci_mirror.graded_s",),
        ),
    )
}


def dominance(workload: Workload, metrics: dict) -> tuple[bool, str]:
    """Whether ``workload.dominant`` together outweigh every other layer.

    Rivals are the layers' self times, less any part of them that is
    itself predicted (``ci_mirror.graded_s`` is part of ``ci_mirror``).
    """
    rivals = {
        name.split(".")[0]: value for name, value in metrics.items() if name.endswith(".self_s")
    }
    total = sum(rivals.values()) or 1.0
    for name in workload.dominant:
        rivals[name.split(".")[0]] -= metrics[name]
    predicted = sum(metrics[name] for name in workload.dominant)
    top = max(rivals, key=rivals.get)
    return predicted > rivals[top], (
        f"{' plus '.join(workload.dominant)} {predicted / total:.0%} of traced self time; "
        f"next: {top} {rivals[top] / total:.0%}"
    )


def write_inputs(workload: Workload, seed: int, variant: str, work_dir: Path) -> Path:
    """Write the variant's problem file and a record of the seed's choices."""
    work_dir.mkdir(parents=True, exist_ok=True)
    problem_path = work_dir / "problem.json"
    problem_path.write_text(json.dumps(workload.problem(variant), indent=1) + "\n", encoding="utf-8")
    record = {"workload": workload.name, "seed": seed, "variant": variant}
    (work_dir / "inputs.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    return problem_path
