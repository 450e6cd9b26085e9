"""End-to-end command-line runs on the shipped fixtures."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gkzlog import (
    BoxOp,
    ProblemFileError,
    build_tails,
    combine,
    from_text,
    kernel_basis,
    tails_read,
    verify_box_operators,
    verify_euler_annihilation,
)
from gkzlog.cli import COMMANDS, OPTIONS, load_problem, main
from gkzlog.series_run import MAX_ARTIFACTS, _multiset_terms
from gkzlog.support import SupportBox
from tests.conftest import FIXTURES, projective_ci_sets, solution_terms

GAUSS = str(FIXTURES / "gauss.json")
PYRAMID = str(FIXTURES / "square_pyramid.json")
TRIANGLES = str(FIXTURES / "ci_two_triangles.json")
QUAD = str(FIXTURES / "ci_quadrilateral.json")
HEXAGON = str(FIXTURES / "hexagon.json")
QUINTIC = str(FIXTURES / "quintic.json")
SRC = str(FIXTURES.parent / "src")


def _run_gkzlog(args, **streams):
    """``gkzlog args`` in a fresh interpreter; stderr is captured as text."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    code = "import sys; from gkzlog.cli import main; sys.exit(main())"
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, env=env, stderr=subprocess.PIPE, text=True, timeout=120, **streams)


def test_lattice_command(capsys):
    assert main(["lattice", GAUSS]) == 0
    out = capsys.readouterr().out
    assert "rank: 1" in out
    assert "(1,1,-1,-1)" in out


def test_support_command(capsys):
    assert main(["support", PYRAMID, "--exclude", "4", "--radius", "3"]) == 0
    out = capsys.readouterr().out
    assert "minimal within radius 3" in out
    assert "(1,1,1,1,-4)" in out


def test_support_counterexample_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "matrix": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]],
                "beta": ["0", "2", "0"],
                "v": ["-1", "1", "1", "1"],
            }
        )
    )
    assert main(["support", str(bad), "--radius", "5"]) == 1
    assert "counterexample (1, 1, -1, -1)" in capsys.readouterr().out
    # the counterexample is the first point of its system, so a cap of one
    # point still fails minimality (exit 1) rather than the cap (exit 3)
    args = ["solve", str(bad), "--order", "0", "--radius", "5", "--max-terms", "1"]
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    failed = "minimality failed for the plain negative support\n"
    assert capsys.readouterr().out == failed
    # combine reports the same failure in the same words
    args = ["combine", str(bad), "--l", "(1,1,-1,-1)", "--radius", "5"]
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out == failed
    assert not (tmp_path / "out").exists()


def test_solve_order0(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", GAUSS, "--order", "0", "--radius", "6", "--out", str(out)]) == 0
    assert (out / "F.series").exists()
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "pass"
    assert report["verification"][0]["checks"][0]["violations"] == 0


def test_solve_order1_pyramid(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", PYRAMID, "--order", "1", "--radius", "4", "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"F.series", "quasi1_0.series", "quasi1_4.series", "run_report.json"} <= names
    # the i = 0..3 quasisolutions are pure logs of the single monomial
    text = (out / "quasi1_0.series").read_text()
    assert text == "1 * lambda^(0,0,0,0,1) * log^(1,0,0,0,0)\n"


def test_solve_order2_selected(tmp_path):
    out = tmp_path / "out"
    assert (
        main(
            [
                "solve",
                PYRAMID,
                "--order",
                "2",
                "--indices",
                "4,4 0,2",
                "--radius",
                "4",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    names = {p.name for p in out.iterdir()}
    assert {"quasi2_4_4.series", "quasi2_0_2.series"} <= names


def test_combine_first_order(tmp_path):
    out = tmp_path / "out"
    assert (
        main(["combine", GAUSS, "--l", "(-1,-1,1,1)", "--radius", "8", "--out", str(out)])
        == 0
    )
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "pass"
    ops = [c["op"] for c in report["verification"][0]["checks"]]
    assert "euler" in ops


def test_combine_second_order(tmp_path):
    out = tmp_path / "out"
    assert (
        main(
            [
                "combine",
                PYRAMID,
                "--l",
                "(-1,0,-1,0,2)",
                "--l",
                "(0,1,0,1,-2)",
                "--radius",
                "5",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "pass"


def test_combine_rejects_non_relation(tmp_path):
    assert main(["combine", GAUSS, "--l", "(1,0,0,0)", "--out", str(tmp_path)]) == 2


def test_combine_zero_point_gives_zero_series(tmp_path):
    out = tmp_path / "out"
    assert main(["combine", GAUSS, "--l", "(0,0,0,0)", "--radius", "4", "--out", str(out)]) == 0
    assert (out / "solution.series").read_text() == ""


def test_combine_at_radius_zero_certifies_nothing_and_fails(tmp_path, capsys):
    # every box operator needs radius >= 1 to certify any exponent; a check
    # that certified nothing must not report pass
    out = tmp_path / "out"
    assert main(["combine", GAUSS, "--l", "1,1,-1,-1", "--radius", "0", "--out", str(out)]) == 1
    assert "status: fail" in capsys.readouterr().out
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "fail"
    assert all(check["violations"] == 0 for check in report["verification"][0]["checks"])


@pytest.mark.parametrize(
    "fields",
    [
        {"matrix": [[1, 1], [0, 1]], "beta": ["1", "0"], "v": ["1", "0"]},
        {"ci": {"point_sets": [[[0, 0]]]}},
    ],
    ids=["matrix", "ci"],
)
def test_solve_on_a_rank_zero_lattice_checks_nothing_and_fails(tmp_path, capsys, fields):
    # a rank-0 lattice has no box operator, so solve runs no check at all
    out = tmp_path / "out"
    assert main(["solve", _problem(tmp_path, **fields), "--order", "1", "--out", str(out)]) == 1
    assert "status: fail" in capsys.readouterr().out
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "fail"
    assert all(entry["checks"] == [] for entry in report["verification"])


@pytest.mark.parametrize(
    "fields, point",
    [
        ({"matrix": [[1, 1], [0, 1]], "beta": ["1", "0"], "v": ["1", "0"]}, "0,0"),
        ({"ci": {"point_sets": [[[0, 0]]]}}, "0"),
    ],
    ids=["matrix", "ci"],
)
def test_combine_on_a_rank_zero_lattice_certifies_nothing_and_fails(
    tmp_path, capsys, fields, point
):
    # no box operator, and the one Euler check has no term to check
    out = tmp_path / "out"
    args = ["combine", _problem(tmp_path, **fields), "--l", point, "--out", str(out)]
    assert main(args) == 1
    assert "status: fail" in capsys.readouterr().out
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "fail"
    checks = [check for entry in report["verification"] for check in entry["checks"]]
    assert checks == [{"op": "euler", "checked_terms": 0, "violations": 0}]


def test_solve_order2_builds_one_support_box(tmp_path, monkeypatch):
    # the sweep's box feeds F, every G_i and the H table: one box of radius 12
    radii = []
    init = SupportBox.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        radii.append(self.radius)

    monkeypatch.setattr(SupportBox, "__init__", counting_init)
    args = ["solve", PYRAMID, "--order", "2", "--radius", "12", "--out", str(tmp_path / "out")]
    assert main(args) == 0
    assert radii == [12]


def record_tails(monkeypatch):
    """The log-index keys of every tail the CLI builds, in build order."""
    import gkzlog.series_run as series_run

    built = []
    build_tails = series_run.build_tails
    monkeypatch.setattr(
        series_run, "build_tails", lambda box, keys: built.extend(keys) or build_tails(box, keys)
    )
    return built


def count_calls(monkeypatch, module, name):
    """A list that grows by one entry per call of ``module.name``."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_solve_walks_each_chain_and_derives_each_side_once(tmp_path, monkeypatch):
    # 21 tails on 5 coordinates read 15 distinct (coordinate, log power)
    # chains; 16 artifacts meet 2 basis operators, whose minus sides agree
    import gkzlog.logseries as logseries
    import gkzlog.operators as operators

    walks = count_calls(monkeypatch, logseries, "chain_constants")
    derives = count_calls(monkeypatch, operators, "_derive")
    args = ["solve", PYRAMID, "--order", "2", "--radius", "4", "--out", str(tmp_path)]
    assert main(args) == 0
    assert len(walks) == 15
    assert len(derives) == 48


def test_mirror_walks_each_chain_once(tmp_path, monkeypatch):
    # F and G_2 on 7 coordinates: 7 log-free chains and one with log power 1
    import gkzlog.logseries as logseries

    walks = count_calls(monkeypatch, logseries, "chain_constants")
    args = ["mirror", TRIANGLES, "--index", "2", "--grade", "8", "--out", str(tmp_path)]
    assert main(args) == 0
    assert len(walks) == 8


@pytest.mark.parametrize("indices", ["0,4 2,2", "4,0,2,2"])
def test_solve_order2_subset_builds_only_the_requested_tails(tmp_path, monkeypatch, indices):
    # pairs (0,4) and (2,2) read F, G_0, G_2, G_4, H_04 and H_22 only; the
    # list is cut into consecutive pairs, each read as a multiset
    built = record_tails(monkeypatch)
    args = ["solve", PYRAMID, "--order", "2", "--indices", indices, "--radius", "4"]
    assert main([*args, "--out", str(tmp_path / "out")]) == 0
    assert built == [(), (0,), (2,), (4,), (0, 4), (2, 2)]


def test_combine_builds_only_the_tails_its_weights_read(tmp_path, monkeypatch):
    built = record_tails(monkeypatch)
    args = ["combine", PYRAMID, "--l", "(-1,0,-1,0,2)", "--radius", "4"]
    assert main([*args, "--out", str(tmp_path / "first")]) == 0
    assert built == [(), (0,), (2,), (4,)]
    # l'_b = 0 for b in {0, 2}: 9 of the 15 H tails, and every G
    built.clear()
    args += ["--l", "(0,1,0,1,-2)"]
    assert main([*args, "--out", str(tmp_path / "second")]) == 0
    assert built == [(), (0,), (1,), (2,), (3,), (4,)] + [
        (0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4), (4, 4)
    ]


def test_an_order_7_combine_passes_one_term_per_multiset(tmp_path):
    # 330 multisets of 7 indices out of 5, where the ordered tuples are 5**7 = 78,125
    started = time.perf_counter()
    args = ["combine", PYRAMID, *["--l=(-1,0,-1,0,2)"] * 7, "--radius", "3"]
    assert main([*args, "--out", str(tmp_path / "out")]) == 0
    assert time.perf_counter() - started < 1.5


PYRAMID_LATTICE = kernel_basis(load_problem(PYRAMID).matrix)
# Their weights cancel on the multisets {0, 1}, {0, 3}, {1, 2} and {2, 3}.
CANCELLING = [(1, 1, 1, 1, -4), (1, -1, 1, -1, 0)]


@settings(max_examples=40, deadline=None)
@given(
    points=st.one_of(
        st.just(CANCELLING),
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=3).map(
            lambda coords: PYRAMID_LATTICE.points_from_coords(coords)
        ),
    )
)
def test_multiset_terms_combine_as_the_ordered_terms(points):
    merged = _multiset_terms(points)
    assert all(weight and logs == tuple(sorted(logs)) for weight, logs in merged)
    assert len({logs for _, logs in merged}) == len(merged)
    ordered = solution_terms(*points)
    box = SupportBox(load_problem(PYRAMID).v, PYRAMID_LATTICE, 2)
    tails = build_tails(box, tails_read(ordered))
    assert combine(tails, merged) == combine(tails, ordered)


def test_the_cancelling_pair_drops_four_multisets():
    merged = {logs for _, logs in _multiset_terms(CANCELLING)}
    ordered = {tuple(sorted(logs)) for weight, logs in solution_terms(*CANCELLING) if weight}
    assert ordered - merged == {(0, 1), (0, 3), (1, 2), (2, 3)}
    assert merged <= ordered


@pytest.mark.parametrize("points", [CANCELLING, [*CANCELLING, (0, 1, 0, 1, -2)]])
def test_combine_verdicts_are_the_swept_subsets_and_the_tails_read(tmp_path, points):
    args = ["combine", PYRAMID, *[f"--l={point}" for point in points], "--radius", "3"]
    assert main([*args, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    sizes = range(1, len(points) + 1)
    swept = [()] + [s for size in sizes for s in itertools.combinations(range(5), size)]
    read = tails_read(_multiset_terms(points))
    keys = dict.fromkeys(tuple(sorted(set(key))) for key in [*swept, *read])
    assert list(report["verdicts"]) == [f"excluded={key}" for key in keys]


def test_combine_empty_second_l_is_an_input_error(tmp_path, capsys):
    args = ["combine", GAUSS, "--l", "(-1,-1,1,1)", "--l", "", "--radius", "2"]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert "expected 4 integers, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "radius, swept, run_report",
    [
        ("0", [1], "90b8dbcfd6a85bfb1401c7414b68ecb0d10bf28fd39809080bce236767c19cc9"),
        ("6", [6], "014a14360a7c48d7fcda7ccf1fe266aa80af0fff1b3567be7c85fb00251d305b"),
    ],
)
def test_mirror_radius_zero_sweeps_radius_one(tmp_path, monkeypatch, radius, swept, run_report):
    # --radius 0 would certify the origin alone; the sweep runs at radius 1,
    # and any larger radius is swept as given, as ci sweeps it
    import gkzlog.ci_mirror as ci_mirror

    radii = []
    init = SupportBox.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        radii.append(self.radius)

    monkeypatch.setattr(ci_mirror.SupportBox, "__init__", counting_init)
    out = tmp_path / "out"
    args = ["mirror", HEXAGON, "--index", "1", "--grade", "8", "--radius", radius]
    assert main([*args, "--out", str(out)]) == 0
    assert radii == swept
    # the same artifacts as with the sweep capped at radius 4; the run
    # report differs only in the radius requested
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == {
        "mirror_0_1.coeffs": "8ea7f5fabeb415c9511687e2e508fde0a3a953c9d1cef9b316257f5a93e65387",
        "mirror_0_1.report": "e2ab2a0fddc99ffc7931e587b789cd8c105fb0e1838dfff638774b21c593ec78",
        "run_report.json": run_report,
    }


def test_mirror_grade_zero_reports_the_radius_it_swept(tmp_path):
    # grade 0 returns before the rays are read; the sweep still ran at radius 1
    out = tmp_path / "out"
    args = ["mirror", TRIANGLES, "--index", "1", "--grade", "0", "--radius", "0"]
    assert main([*args, "--out", str(out)]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["parameters"]["radius_requested"] == 0
    assert report["parameters"]["radius_used"] == 1
    assert report["coefficients"] == 1


def test_solve_order0_rejects_indices(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["solve", GAUSS, "--order", "0", "--indices", "7", "--out", str(out)]
    assert main(args) == 2
    assert "--indices" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("order", ["1", "2"])
@pytest.mark.parametrize("indices", ["", " , "])
def test_solve_rejects_indices_that_name_no_index(tmp_path, capsys, order, indices):
    out = tmp_path / "out"
    args = ["solve", PYRAMID, "--order", order, "--indices", indices, "--radius", "2"]
    assert main([*args, "--out", str(out)]) == 2
    assert "names no index" in capsys.readouterr().err
    assert not out.exists()


QUINTIC_L = "(-5,1,1,1,1,1)"


def test_order_3_on_the_quintic_passes_box_and_euler(tmp_path):
    # orders above 2 are certified by the box and Euler checks alone
    out = tmp_path / "solve"
    assert main(["solve", QUINTIC, "--order", "3", "--radius", "5", "--out", str(out)]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "pass"
    # F and the 56 multisets of 3 of the 6 indices
    assert len(report["artifacts"]) == 57
    out = tmp_path / "combine"
    args = ["combine", QUINTIC, *["--l", QUINTIC_L] * 3, "--radius", "5", "--out", str(out)]
    assert main(args) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "pass"
    assert report["parameters"] == {"l": [[-5, 1, 1, 1, 1, 1]] * 3, "radius": 5}
    checks = report["verification"][0]["checks"]
    assert [check["op"] for check in checks] == ["box(5,-1,-1,-1,-1,-1)", "euler"]
    assert all(check["checked_terms"] > 0 for check in checks)


def test_order_5_on_the_quintic_is_refused(tmp_path, capsys):
    # the GKZ rank is the normalized volume 5, so order 5 meets a
    # non-minimal excluded set before any tail is built
    out = tmp_path / "out"
    assert main(["solve", QUINTIC, "--order", "5", "--radius", "5", "--out", str(out)]) == 1
    assert "minimality failed with [1, 2, 3, 4, 5] excluded" in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize(
    "order, indices", [("-1", None), ("2", "0,4,2"), ("3", "0 1 2 3"), ("0", "1")]
)
def test_solve_rejects_a_negative_order_and_a_ragged_index_list(tmp_path, capsys, order, indices):
    out = tmp_path / "out"
    args = ["solve", PYRAMID, "--order", order, "--radius", "2", "--out", str(out)]
    assert main(args + (["--indices", indices] if indices else [])) == 2
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err.startswith("input error: ")
    assert not out.exists()


def test_an_order_20_tuple_splits_by_sub_multiset(tmp_path):
    # (0,) * 20 has 21 distinct sub-multisets but 2**20 position subsets: on
    # a 2-vCPU host with CPython 3.11 the run takes about 0.01 s, and took
    # 27 s when combine walked the position subsets
    args = ["solve", GAUSS, "--order", "20", "--indices", ",".join(["0"] * 20)]
    started = time.perf_counter()
    assert main([*args, "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - started < 2.0
    assert (tmp_path / f"quasi20_{'_'.join(['0'] * 20)}.series").exists()


def test_hexagon_mirror_is_integral_to_grade_20(tmp_path):
    # Lian-Yau, Krattenthaler-Rivoal: the mirror map of a CI family is integral
    out = tmp_path / "out"
    assert main(["mirror", HEXAGON, "--index", "1", "--grade", "20", "--out", str(out)]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["non_integer_coefficients"] == 0
    assert report["coefficients"] == 1212
    assert report["parameters"]["radius_used"] == 32


def test_ci_command(capsys):
    assert main(["ci", TRIANGLES]) == 0
    out = capsys.readouterr().out
    assert "unique interior point (0, 0, 0, 0): True" in out
    assert "status: pass" in out


def test_ci_radius_zero_sweeps_radius_one(capsys):
    # radius 0 would check the origin alone; a check of nothing must not pass
    assert main(["ci", TRIANGLES, "--radius", "0"]) == 0
    verdicts = [line for line in capsys.readouterr().out.splitlines() if "minimality" in line]
    assert len(verdicts) == 8
    assert all(line.endswith("minimal within radius 1") for line in verdicts)


def test_mirror_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["mirror", QUAD, "--index", "4", "--grade", "4", "--out", str(out)]) == 0
    report_text = (out / "mirror_0_4.report").read_text()
    assert report_text.splitlines()[-1] == "OK"
    assert (out / "mirror_0_4.coeffs").read_text().startswith("0 | (0,0,0,0,0) | 1")


def test_parse_error_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    assert main(["lattice", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err
    bad.write_text('{"radius": 3,\n "v": [1,, 2]}')
    with pytest.raises(ProblemFileError) as caught:
        load_problem(str(bad))
    assert (caught.value.line, caught.value.column) == (2, 10)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000 + "]" * 100_000, "JSON nested too deep"),
        ('{"radius": ' + "9" * 5_000 + "}", "Exceeds the limit (4300 digits)"),
    ],
    ids=["nested-100000-deep", "integer-5000-digits"],
)
def test_malformed_problem_files_are_input_errors(tmp_path, text, message):
    # both used to escape load_problem as a RecursionError or a ValueError
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(ProblemFileError, match=re.escape(message)):
        load_problem(str(bad))
    done = _run_gkzlog(["solve", str(bad), "--order", "1", "--out", str(tmp_path / "out")])
    assert done.returncode == 2
    assert done.stderr.startswith("input error: ") and "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


FIXTURE_TEXTS = {path.name: path.read_text() for path in sorted(FIXTURES.glob("*.json"))}


def _paths(value, path=()):
    """The path of ``value`` and of everything nested in it, as key and index tuples."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(item, (*path, key))


@st.composite
def malformed_problem_texts(draw):
    """``(fixture name, text)``: the fixture cut short, or with one field replaced by deep
    nesting or a huge integer."""
    name = draw(st.sampled_from(sorted(FIXTURE_TEXTS)))
    text = FIXTURE_TEXTS[name]
    kind = draw(st.sampled_from(["prefix", "nesting", "integer"]))
    if kind == "prefix":
        return name, text[: draw(st.integers(0, len(text.rstrip()) - 1))]
    raw = json.loads(text)
    path = draw(st.sampled_from([path for path in _paths(raw) if path]))
    if kind == "nesting":
        depth = draw(st.one_of(st.integers(1, 40), st.integers(900, 1100), st.just(100_000)))
        value = "[" * depth + "]" * depth
    else:
        value = draw(st.sampled_from(["", "-"])) + "7" * draw(st.integers(4_301, 6_000))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@@"
    return name, json.dumps(raw).replace('"@@"', value)


# A relation of each fixture's lattice, for combine's --l.
RELATIONS = {
    name: ",".join(map(str, kernel_basis(load_problem(str(FIXTURES / name)).matrix).basis[0]))
    for name in FIXTURE_TEXTS
}


@settings(max_examples=150, deadline=None)
@given(case=malformed_problem_texts(), command=st.sampled_from(["solve", "combine", "mirror"]))
def test_malformed_problem_files_end_in_a_documented_exit_code(case, command):
    # a prefix is no JSON document; nesting or an integer past the interpreter's
    # digit limit in any field is an input error, not a traceback
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "problem.json"
        problem.write_text(text)
        args = {
            "solve": ["--order", "1"],
            "combine": ["--l", RELATIONS[name]],
            "mirror": ["--index", "1", "--grade", "2"],
        }[command]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, str(problem), *args, "--radius", "1", "--out", f"{tmp}/out"])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        event(f"exit {code}")


def test_missing_sections(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"radius": 3}))
    assert main(["lattice", str(bad)]) == 2


def test_inconsistent_v_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "matrix": [[1, 0], [0, 1]],
                "beta": ["1", "1"],
                "v": ["1", "0"],
            }
        )
    )
    assert main(["lattice", str(bad)]) == 2


COMMAND_ARGS = {
    "lattice": [],
    "support": [],
    "solve": ["--order", "0"],
    "combine": ["--l", "1,-1"],
    "ci": [],
    "mirror": ["--index", "0"],
}


@pytest.mark.parametrize(
    "vectors",
    [{"beta": 5, "v": ["0", "1"]}, {"beta": ["1"], "v": None}, {"beta": ["1"], "v": "01"}],
    ids=["beta-int", "v-null", "v-string"],
)
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_non_list_beta_or_v_is_an_input_error(tmp_path, capsys, command, vectors):
    path = _problem(tmp_path, matrix=[[1, 1]], **vectors)
    out = ["--out", str(tmp_path / "out")] if command in ("solve", "combine", "mirror") else []
    assert main([command, path, *COMMAND_ARGS[command], *out]) == 2
    assert "must be a list" in capsys.readouterr().err


def test_max_terms_resource_limit(tmp_path):
    # --max-terms caps the points one enumeration yields: with the last column
    # excluded the support set holds 51^2 points, with nothing excluded one
    args = ["support", PYRAMID, "--radius", "50", "--max-terms", "100"]
    assert main([*args, "--exclude", "4"]) == 3
    assert main(args) == 0


def test_capped_support_prints_nothing(capsys):
    args = ["support", PYRAMID, "--radius", "50", "--max-terms", "100", "--exclude", "4"]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap 100" in captured.err


def test_capped_solve_writes_nothing(tmp_path, capsys):
    # F's support set is one point; G_4's, the quadrant, passes the cap
    out = tmp_path / "out"
    args = ["solve", PYRAMID, "--order", "1", "--radius", "50", "--max-terms", "100"]
    assert main([*args, "--out", str(out)]) == 3
    assert "cap 100" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("order", ["0", "1"])
def test_a_coefficient_past_the_digit_limit_writes_nothing(tmp_path, order):
    # with A's last entry 1000, F's coefficients at radius 2 pass 4,300 digits
    gauss = json.loads((FIXTURES / "gauss.json").read_text())
    gauss["matrix"][2][2] = 1000
    out = tmp_path / "out"
    args = ["solve", _problem(tmp_path, **gauss), "--order", order, "--radius", "2"]
    done = _run_gkzlog([*args, "--out", str(out)])
    assert done.returncode == 3
    assert done.stderr.startswith("resource limit: ") and "Traceback" not in done.stderr
    assert not out.exists()


def test_an_order_past_the_artifact_cap_exits_3_and_writes_nothing(tmp_path, capsys):
    # C(5 + 12 - 1, 12) = 1,820 quasisolutions on the pyramid, past MAX_ARTIFACTS
    out = tmp_path / "out"
    started = time.perf_counter()
    args = ["solve", PYRAMID, "--order", "12", "--radius", "1", "--out", str(out)]
    assert main(args) == 3
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and "1820 quasisolutions" in err
    assert f"cap of {MAX_ARTIFACTS}" in err
    assert not out.exists()


def test_a_chain_walk_past_the_member_cap_exits_3_and_writes_nothing(tmp_path, capsys):
    # with A's last entry 10**4 the basis is (10**4, 10**4, -1, -10**4), so at
    # radius 2 coordinate 0 ranges over -20,000..20,000 on 3 support points
    gauss = json.loads((FIXTURES / "gauss.json").read_text())
    gauss["matrix"][2][2] = 10**4
    out = tmp_path / "out"
    started = time.perf_counter()
    args = ["solve", _problem(tmp_path, **gauss), "--order", "0", "--radius", "2"]
    assert main([*args, "--out", str(out)]) == 3
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("resource limit: a derivative-chain walk") and "20001 members" in err
    assert not out.exists()


def test_rank7_reflexive_triangle_ci_passes(tmp_path, capsys):
    # the 10 points of conv{(-1,-1), (2,-1), (-1,2)}, origin first: a rank-7
    # lattice whose radius-4 coefficient box holds 9^7 = 4,782,969 points
    triangle = [[0, 0], [-1, -1], [0, -1], [1, -1], [2, -1]]
    triangle += [[-1, 0], [1, 0], [-1, 1], [0, 1], [-1, 2]]
    path = _problem(tmp_path, ci={"point_sets": [triangle]}, radius=4)
    assert main(["ci", path]) == 0
    out = capsys.readouterr().out
    assert "unique interior point (0, 0): True" in out
    assert "minimal within radius 4" in out
    assert out.splitlines()[-1] == "status: pass"


def test_rank7_reflexive_triangle_mirror(tmp_path):
    # the grading query over the triangle's 66 rays and the grade-2 tails;
    # grading and coefficients as recorded before Kohler's rule
    triangle = [[0, 0], [-1, -1], [0, -1], [1, -1], [2, -1]]
    triangle += [[-1, 0], [1, 0], [-1, 1], [0, 1], [-1, 2]]
    path = _problem(tmp_path, ci={"point_sets": [triangle]}, radius=4)
    out = tmp_path / "out"
    assert main(["mirror", path, "--index", "1", "--grade", "2", "--out", str(out)]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["grading"] == [-3, 3, 0, 0, 3, 1, 1, 0, 0, 0]
    digest = hashlib.sha256((out / "mirror_0_1.coeffs").read_bytes()).hexdigest()
    assert digest == "14ec23333e8a3ba4d855383e2e48000b5df65efa2bd713431335dbadb07fdb48"


@pytest.mark.parametrize("degrees", [(2, 2, 3), (2, 2, 2, 2)])
def test_projective_ci_families_pass_ci(tmp_path, capsys, degrees):
    # the complete intersections of these degrees in P^6 and P^7, whose hulls
    # have 36 and 81 Minkowski candidates
    path = _problem(tmp_path, ci={"point_sets": projective_ci_sets(degrees)})
    assert main(["ci", path]) == 0
    out = capsys.readouterr().out
    assert f"unique interior point {(0,) * (sum(degrees) - 1)}: True" in out
    assert out.splitlines()[-1] == "status: pass"


def test_projective_ci_2222_mirror_is_integral(tmp_path):
    path = _problem(tmp_path, ci={"point_sets": projective_ci_sets((2, 2, 2, 2))})
    out = tmp_path / "out"
    assert main(["mirror", path, "--index", "0,1", "--grade", "12", "--out", str(out)]) == 0
    assert (out / "mirror_0_1.report").read_text().endswith("\nOK\n")


def test_ci_degenerate_hull_prints_nothing(tmp_path, capsys):
    path = _problem(tmp_path, ci={"point_sets": [[[0, 0], [1, 0], [-1, 0], [2, 0]]]})
    assert main(["ci", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not full-dimensional" in captured.err


def test_closed_stdout_is_an_output_error():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write to stdout fails
    try:
        done = _run_gkzlog(["support", PYRAMID, "--radius", "3"], stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert "output error" in done.stderr
    assert "Traceback" not in done.stderr


def test_out_under_a_regular_file_is_an_output_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ["mirror", TRIANGLES, "--index", "1", "--grade", "2", "--out", str(blocker / "out")]
    done = _run_gkzlog(args, stdout=subprocess.DEVNULL)
    assert done.returncode == 2
    assert done.stderr.startswith("output error: ")
    assert "Traceback" not in done.stderr


def test_float_rationals_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "matrix": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, -1]],
                "beta": [-0.5, "-1/3", "0"],
                "v": ["-1/2", "-1/3", "0", "0"],
            }
        )
    )
    assert main(["lattice", str(bad)]) == 2


def test_mirror_max_terms_resource_limit(tmp_path, capsys):
    out = str(tmp_path / "out")
    args = ["mirror", TRIANGLES, "--index", "1", "--grade", "40", "--out", out]
    assert main([*args, "--max-terms", "10"]) == 3
    assert "cap 10" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mirror_max_terms_bounds_the_tail_polytope(tmp_path, capsys):
    # the 81-point minimality box passes; the 821-coefficient grade-40 tail does not
    out = str(tmp_path / "out")
    args = ["mirror", TRIANGLES, "--index", "1", "--grade", "40", "--out", out]
    assert main([*args, "--max-terms", "100"]) == 3
    assert "cap 100" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_thread_environment_variable_is_not_read(monkeypatch):
    monkeypatch.setenv("GKZLOG_THREADS", "abc")
    assert main(["lattice", GAUSS]) == 0


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_artifacts_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert (
            main(["solve", PYRAMID, "--order", "1", "--radius", "4", "--out", str(out)])
            == 0
        )
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_quintic_mirror_is_integral(tmp_path):
    out = tmp_path / "out"
    quintic = str(FIXTURES / "quintic.json")
    assert main(["mirror", quintic, "--index", "1", "--grade", "12", "--out", str(out)]) == 0
    assert (out / "mirror_0_1.report").read_text().splitlines()[-1] == "OK"


# The eight points of [-1, 1]^2 but the origin: with the origin, any 3-8 of
# them make a one-set CI whose only possible interior point is the origin.
SQUARE_RING = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if x or y]
COEFFS_LINE = re.compile(r"(\d+) \| \((-?\d+(?:,-?\d+)*)\) \| (-?\d+(?:/\d+)?)")


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(st.sampled_from(SQUARE_RING), min_size=3, max_size=8, unique=True),
    radius=st.integers(0, 2),
    data=st.data(),
)
def test_mirror_exit_codes_under_fuzzing(points, radius, data):
    # every run ends in a documented exit code, and a passing run's
    # artifacts agree with each other and with its run report
    column = data.draw(st.integers(0, len(points)))
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "ci.json"
        problem.write_text(json.dumps({"ci": {"point_sets": [[(0, 0), *points]]}}))
        out = Path(tmp) / "out"
        args = ["mirror", str(problem), "--index", str(column), "--grade", "4"]
        code = main([*args, "--radius", str(radius), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code != 0:
            return
        non_integer = 0
        for line in (out / f"mirror_0_{column}.coeffs").read_text().splitlines():
            match = COEFFS_LINE.fullmatch(line)
            assert match, line
            non_integer += Fraction(match[3]).denominator != 1
        report = json.loads((out / "run_report.json").read_text())
        assert report["non_integer_coefficients"] == non_integer
        last = (out / f"mirror_0_{column}.report").read_text().splitlines()[-1]
        assert (last == "OK") == (non_integer == 0)


MATRIX_PROBLEMS = [
    json.loads((FIXTURES / name).read_text()) for name in ("gauss.json", "square_pyramid.json")
]
SHIFTS = st.one_of(st.integers(-2, 2).map(Fraction), st.fractions(-2, 2, max_denominator=3))
WRONG_TYPES = st.sampled_from([None, True, 1.5, "1", {}, [[]], ["1/0"], [1.5], "[[1]]"])


@st.composite
def matrix_problems(draw):
    """A matrix fixture with a perturbed ``v``, an inconsistent ``beta``, a mistyped field or
    a missing key."""
    raw = dict(draw(st.sampled_from(MATRIX_PROBLEMS)))
    # mostly consistent problems, so that many runs pass and their series are checked
    change = draw(st.sampled_from(["v", "v", "v", "beta", "type", "missing"]))
    if change == "v":  # beta follows v, so the problem stays consistent
        v = [Fraction(x) + draw(SHIFTS) for x in raw["v"]]
        raw["v"] = [str(x) for x in v]
        raw["beta"] = [str(sum(a * x for a, x in zip(row, v))) for row in raw["matrix"]]
    elif change == "beta":
        i = draw(st.integers(0, len(raw["beta"]) - 1))
        shift = draw(st.sampled_from([-1, 1, Fraction(1, 3), Fraction(-1, 2)]))
        raw["beta"] = [str(Fraction(b) + shift * (k == i)) for k, b in enumerate(raw["beta"])]
    elif change == "type":
        raw[draw(st.sampled_from(["matrix", "beta", "v", "radius"]))] = draw(WRONG_TYPES)
    else:
        del raw[draw(st.sampled_from(["matrix", "beta", "v"]))]
    return raw


@settings(max_examples=100, deadline=None)
@given(raw=matrix_problems(), order=st.integers(0, 2), radius=st.integers(1, 3))
def test_solve_exit_codes_under_fuzzing(raw, order, radius):
    # every run ends in a documented exit code, and a passing run's series
    # re-parse and pass the box operators of the lattice basis again
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "problem.json"
        problem.write_text(json.dumps(raw))
        out = Path(tmp) / "out"
        args = ["solve", str(problem), "--order", str(order), "--radius", str(radius)]
        code = main([*args, "--out", str(out)])
        assert code in (0, 1, 2, 3)
        event(f"exit {code}, order {order}")
        if code != 0:
            return
        loaded = load_problem(str(problem))
        lattice = kernel_basis(loaded.matrix)
        meta = SupportBox(loaded.v, lattice, radius)
        ops = [BoxOp(row) for row in lattice.basis]
        names = json.loads((out / "run_report.json").read_text())["artifacts"]
        assert names[0] == "F.series"
        for name in names:
            series = from_text((out / name).read_text(), len(loaded.v), meta)
            assert all(report.passed for report in verify_box_operators(series, ops)), name


COMBINE_PROBLEMS = {path: load_problem(path) for path in (GAUSS, PYRAMID)}


@st.composite
def lattice_point_texts(draw, problem):
    """``--l`` text: a lattice combination, an off-lattice vector, a wrong length or garbage."""
    basis = kernel_basis(problem.matrix).basis
    n = problem.matrix.n_cols
    coefficients = [draw(st.integers(-2, 2)) for _ in basis]
    point = [sum(c * row[k] for c, row in zip(coefficients, basis)) for k in range(n)]
    kind = draw(st.sampled_from(["lattice", "lattice", "lattice", "off", "length", "text"]))
    if kind == "off":  # no column of either matrix is zero
        point[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-1, 1, 2]))
    elif kind == "length":
        point = point[:-1] if draw(st.booleans()) else [*point, 0]
    elif kind == "text":
        return draw(st.text(alphabet="0123456789-+,() /.x", max_size=14))
    text = ",".join(map(str, point))
    return draw(st.sampled_from([text, f"({text})", text.replace(",", " ")]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), path=st.sampled_from(sorted(COMBINE_PROBLEMS)), radius=st.integers(0, 3))
def test_combine_exit_codes_under_fuzzing(data, path, radius):
    # every run ends in a documented exit code, and a passing run's series
    # re-parses and passes the box operators of the lattice basis and the
    # Euler operators again
    problem = COMBINE_PROBLEMS[path]
    texts = data.draw(st.lists(lattice_point_texts(problem), min_size=1, max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        args = ["combine", path, *[f"--l={text}" for text in texts], "--radius", str(radius)]
        code = main([*args, "--out", str(out)])
        assert code in (0, 1, 2, 3)
        event(f"exit {code}, order {len(texts)}")
        if code != 0:
            return
        lattice = kernel_basis(problem.matrix)
        meta = SupportBox(problem.v, lattice, radius)
        series = from_text((out / "solution.series").read_text(), len(problem.v), meta)
        ops = [BoxOp(row) for row in lattice.basis]
        assert all(report.passed for report in verify_box_operators(series, ops))
        assert verify_euler_annihilation(series, problem.matrix, problem.beta).passed


def test_negative_radius_and_grade_are_input_errors(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["solve", GAUSS, "--order", "0", "--radius", "-1", "--out", out]) == 2
    assert main(["mirror", QUAD, "--index", "1", "--grade", "-2", "--out", out]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _problem(tmp_path, **fields):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(fields))
    return str(path)


@pytest.mark.parametrize("radius", ["abc", "6", 6.0, True, -1])
def test_problem_radius_must_be_a_nonnegative_integer(tmp_path, radius):
    gauss = json.loads((FIXTURES / "gauss.json").read_text())
    path = _problem(tmp_path, **{**gauss, "radius": radius})
    assert main(["solve", path, "--order", "0", "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("grade", ["8", 8.5, False, -1])
def test_problem_grade_must_be_a_nonnegative_integer(tmp_path, grade):
    quad = json.loads((FIXTURES / "ci_quadrilateral.json").read_text())
    path = _problem(tmp_path, **{**quad, "grade": grade})
    assert main(["mirror", path, "--index", "1", "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("bad", [1.9, 1.0, "1", True])
def test_point_set_coordinates_must_be_integers(tmp_path, bad):
    points = [[0, 0], [bad, 1], [-1, 0], [1, -1], [1, 0]]
    path = _problem(tmp_path, ci={"point_sets": [points]})
    assert main(["mirror", path, "--index", "1", "--grade", "2", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", True])
def test_matrix_entries_must_be_integers(tmp_path, bad):
    gauss = json.loads((FIXTURES / "gauss.json").read_text())
    gauss["matrix"][0][0] = bad
    assert main(["lattice", _problem(tmp_path, **gauss)]) == 2


@pytest.mark.parametrize("point_sets", [[[[], []]], [[]], [[], [[0]]]])
@pytest.mark.parametrize("command", ["ci", "mirror"])
def test_degenerate_point_sets_are_input_errors(tmp_path, capsys, command, point_sets):
    # zero-dimensional points and empty sets used to escape as IndexError
    path = _problem(tmp_path, ci={"point_sets": point_sets})
    extra = ["--index", "0", "--out", str(tmp_path / "out")] if command == "mirror" else []
    assert main([command, path, *extra]) == 2
    assert "input error" in capsys.readouterr().err


def test_negative_max_terms_is_an_input_error(tmp_path, capsys):
    out = str(tmp_path / "out")
    args = ["mirror", TRIANGLES, "--index", "1", "--grade", "4", "--out", out]
    assert main([*args, "--max-terms", "-1"]) == 2
    assert "max-terms must be >= 0" in capsys.readouterr().err
    assert main([*args, "--max-terms", "0"]) == 3
    assert "cap 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


OUT = "<out>"  # an --out directory under tmp_path
PYRAMID_L = "-1,0,-1,0,2"  # argparse read a value that starts with "-" as an option


@pytest.mark.parametrize(
    "argv, code, fragment, parameters",
    [
        ([], 2, "input error: no command; choose one of lattice, support, solve,", None),
        (["solver", GAUSS], 2, "input error: unknown command 'solver'", None),
        (["mirror", TRIANGLES, "--index", "1", "--grad", "4"], 2, "unknown option '--grad'", None),
        (["lattice", GAUSS, "--radius"], 2, "input error: lattice: --radius needs a value", None),
        (["lattice", GAUSS, "--radius", "x"], 2, "--radius takes an integer, got 'x'", None),
        (["lattice", "--radius", "2"], 2, "input error: lattice: FILE missing", None),
        (["solve", GAUSS, "--out", OUT], 2, "input error: solve: --order is required", None),
        (["mirror", TRIANGLES, "--out", OUT], 2, "mirror: --index is required", None),
        (["combine", GAUSS, "--out", OUT], 2, "input error: combine: --l is required", None),
        (["lattice", GAUSS, PYRAMID], 2, f"lattice: a second FILE {PYRAMID!r}", None),
        (
            ["mirror", TRIANGLES, "--index", "1", "--grade=8", "--out", OUT],
            0,
            "integrality: OK",
            {"grade_bound": 8},
        ),
        (
            ["combine", PYRAMID, "--l", PYRAMID_L, "--radius", "3", "--out", OUT],
            0,
            "status: pass",
            {"l": [[-1, 0, -1, 0, 2]]},
        ),
        (
            ["combine", PYRAMID, "--l", PYRAMID_L, "--l=(1,-1,1,-1,0)", "--out", OUT, "--radius=3"],
            0,
            "status: pass",
            {"l": [[-1, 0, -1, 0, 2], [1, -1, 1, -1, 0]], "radius": 3},
        ),
        (["-h"], 0, "usage: gkzlog COMMAND FILE", None),
        (["--help"], 0, "usage: gkzlog COMMAND FILE", None),
        (["solve", GAUSS, "--help", "--order"], 0, "usage: gkzlog COMMAND FILE", None),
    ],
)
def test_the_argv_parser_contract(tmp_path, capsys, argv, code, fragment, parameters):
    out = tmp_path / "out"
    assert main([str(out) if arg == OUT else arg for arg in argv]) == code
    streams = capsys.readouterr()
    assert fragment in (streams.out if code == 0 else streams.err)
    assert "Traceback" not in streams.out + streams.err
    if parameters is not None:
        report = json.loads((out / "run_report.json").read_text())
        assert {key: report["parameters"][key] for key in parameters} == parameters
    if fragment.startswith("usage:"):
        # the usage block names every command and every option of the table
        for command, (_, summary, options, _) in COMMANDS.items():
            assert f"  gkzlog {command} FILE " in streams.out and summary in streams.out
            assert all(f"--{name} " in streams.out for name in options)
        assert all(f"\n  --{name} " in streams.out for name in OPTIONS)


def test_main_reads_sys_argv_without_arguments(monkeypatch, capsys):
    # the gkzlog console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["gkzlog", "lattice", GAUSS])
    assert main() == 0
    assert "rank: 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [
        ["mirror", TRIANGLES, "--index", "1", "--grade", "4"],
        ["solve", PYRAMID, "--order", "1", "--radius", "3"],
    ],
    ids=["mirror", "solve"],
)
def test_a_module_run_imports_no_argparse_and_no_second_cli(tmp_path, args):
    # under -m the running cli is __main__, so an import of gkzlog.cli from a
    # module it loads would compile cli.py a second time
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gkzlog.cli", *args, "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    imported = {line.rsplit("|", 1)[1].strip() for line in lines}
    assert {"gkzlog.lattice", "gkzlog.support"} <= imported
    assert not {"argparse", "gettext", "gkzlog.cli"} & imported
    assert ("gkzlog.series_run" in imported) == (args[0] == "solve")


# The mirror-map pipeline and the hull code: mirror loads both, ci the hull code alone.
MIRROR_MODULES = {"gkzlog.ci_mirror", "gkzlog.polytope"}
# The lift: what loading a CI problem file loads, and loading a matrix problem does not.
CI_LOAD = {"gkzlog.ci"}
# The solve/combine front end, which only those two commands load.
SERIES_RUN = {"gkzlog.series_run"}


@pytest.mark.parametrize(
    "args, absent, present",
    [
        (
            ["mirror", TRIANGLES, "--index", "1", "--grade", "4"],
            {"gkzlog.operators"} | SERIES_RUN,
            MIRROR_MODULES | CI_LOAD,
        ),
        (
            ["ci", TRIANGLES],
            {"gkzlog.ci_mirror", "gkzlog.logseries", "gkzlog.coefficients", "gkzlog.operators"}
            | SERIES_RUN,
            {"gkzlog.polytope"} | CI_LOAD,
        ),
        (
            ["solve", PYRAMID, "--order", "1", "--radius", "3"],
            MIRROR_MODULES | CI_LOAD,
            {"gkzlog.operators"} | SERIES_RUN,
        ),
        (
            ["combine", PYRAMID, "--l", "(-1,1,-1,1,0)", "--radius", "3"],
            MIRROR_MODULES | CI_LOAD,
            SERIES_RUN,
        ),
        (
            ["support", PYRAMID, "--exclude", "4"],
            MIRROR_MODULES | CI_LOAD | SERIES_RUN | {"gkzlog.logseries"},
            set(),
        ),
        (
            ["lattice", PYRAMID],
            MIRROR_MODULES | CI_LOAD | SERIES_RUN | {"gkzlog.logseries"},
            set(),
        ),
        (
            ["solve", HEXAGON, "--order", "1", "--radius", "2"],
            MIRROR_MODULES,
            CI_LOAD | SERIES_RUN | {"gkzlog.operators"},
        ),
        (["support", HEXAGON], MIRROR_MODULES | SERIES_RUN | {"gkzlog.logseries"}, CI_LOAD),
        (["lattice", HEXAGON], MIRROR_MODULES | SERIES_RUN | {"gkzlog.logseries"}, CI_LOAD),
    ],
    ids=[
        "mirror",
        "ci",
        "solve",
        "combine",
        "support",
        "lattice",
        "solve-ci-file",
        "support-ci-file",
        "lattice-ci-file",
    ],
)
def test_a_command_imports_only_its_pipeline(tmp_path, args, absent, present):
    # each command imports the pipeline it runs, so a run compiles no other
    # module, and no run compiles the series text regex, which only from_text reads
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    code = (
        "import json, re, sys; compiled = []; compile = re.compile\n"
        "re.compile = lambda p, *flags: compiled.append(p) or compile(p, *flags)\n"
        "from gkzlog.cli import main; code = main(sys.argv[1:])\n"
        "term = getattr(sys.modules.get('gkzlog.logseries'), '_TERM', None)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('gkzlog'))\n"
        "print(json.dumps([loaded, term in compiled])); sys.exit(code)"
    )
    if args[0] in {"mirror", "solve", "combine"}:
        args = [*args, "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded, compiled = json.loads(done.stdout.strip().splitlines()[-1])
    assert not absent & set(loaded)
    assert {"gkzlog.cli", "gkzlog.lattice", "gkzlog.support", *present} <= set(loaded)
    assert not compiled


def test_package_names_resolve_on_first_access():
    # gkzlog.__all__ is resolved lazily, each name from the module that defines it
    import importlib

    import gkzlog

    assert sorted(gkzlog._HOME) == sorted(gkzlog.__all__)
    for name, module in gkzlog._HOME.items():
        assert getattr(gkzlog, name) is getattr(importlib.import_module(f"gkzlog.{module}"), name)
    with pytest.raises(AttributeError):
        gkzlog.no_such_name
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = "import sys, gkzlog; print(sorted(m for m in sys.modules if m.startswith('gkzlog.')))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stdout.strip() == "[]", done.stderr
