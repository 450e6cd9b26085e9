"""Batch command-line front end.

Reads a JSON problem file (matrix system or complete-intersection spec),
runs the requested pipeline, and writes plain-text artifacts.  Every
solve/combine command re-verifies its own output through the operator
module before reporting success.  Output files are byte-identical across
runs of the same input; wall-clock timing goes to stdout only.

``solve --order K`` (any ``K >= 0``) and ``combine`` (one ``--l`` lattice
point per log order) run one pipeline, ``_series_run``, at every order.

Exit codes: 0 pass, 1 verification failure, 2 input or output error
(an unwritable ``--out`` or a closed stdout), 3 resource limit.

Each command imports the pipeline it runs when it runs: loading a ``ci``
problem imports the module ``ci`` (the point sets and their lift) and no
pipeline; the ``ci`` command imports the hull code of ``polytope``,
``mirror`` the mirror-map pipeline ``ci_mirror``, and ``solve`` and
``combine`` import ``logseries`` and ``operators``, so a run compiles
only the modules it needs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .errors import GkzError, ProblemFileError, ResourceLimit
from .lattice import DEFAULT_MAX_BOX_POINTS, IntMatrix, kernel_basis
from .rationals import rational_vector, to_int
from .support import SupportBox

DEFAULT_RADIUS = 6
DEFAULT_GRADE = 6


class Problem:
    """Loaded and validated problem file."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.radius = to_int(raw.get("radius", DEFAULT_RADIUS), "radius", minimum=0)
        self.grade = to_int(raw.get("grade", DEFAULT_GRADE), "grade", minimum=0)
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        self.source_hash = "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        self.spec = None
        if "ci" in raw:
            from .ci import CISpec, build_system

            ci = raw["ci"]
            if not isinstance(ci, dict) or "point_sets" not in ci:
                raise ProblemFileError("'ci' must be an object with 'point_sets'")
            try:
                self.spec = CISpec.from_lists(ci["point_sets"])
            except (ValueError, TypeError) as exc:
                raise ProblemFileError(f"bad point sets: {exc}") from None
            self.matrix, self.beta, self.v = build_system(self.spec)
        elif "matrix" in raw:
            try:
                self.matrix = IntMatrix.from_rows(raw["matrix"])
            except (ValueError, TypeError) as exc:
                raise ProblemFileError(f"bad matrix: {exc}") from None
            if "beta" not in raw or "v" not in raw:
                raise ProblemFileError("matrix problems need 'beta' and 'v'")
            self.beta = _rational_list(raw, "beta")
            self.v = _rational_list(raw, "v")
            if len(self.beta) != self.matrix.n_rows:
                raise ProblemFileError("beta length != matrix rows")
            if len(self.v) != self.matrix.n_cols:
                raise ProblemFileError("v length != matrix columns")
            if self.matrix.mul_vec(self.v) != self.beta:
                raise ProblemFileError("A v != beta")
        else:
            raise ProblemFileError("problem file needs either 'matrix' or 'ci'")


def _rational_list(raw, key):
    if not isinstance(raw[key], list):
        raise ProblemFileError(f"'{key}' must be a list, got {type(raw[key]).__name__}")
    return rational_vector(raw[key])


def load_problem(path: str) -> Problem:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ProblemFileError("top-level JSON value must be an object")
        return Problem(raw)  # whose source hash dumps the file back, as deep as it nests
    except json.JSONDecodeError as exc:
        raise ProblemFileError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ProblemFileError("JSON nested too deep") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ProblemFileError(str(exc)) from None


def _int(chunk):
    try:
        return int(chunk)
    except ValueError:
        raise ProblemFileError(f"expected an integer, got {chunk!r}") from None


def _parse_index_list(text, limit):
    out = []
    for chunk in text.replace(",", " ").split():
        value = _int(chunk)
        if not 0 <= value < limit:
            raise ProblemFileError(f"index {value} out of range 0..{limit - 1}")
        out.append(value)
    return out


def _parse_int_vector(text, length):
    cleaned = text.strip().lstrip("(").rstrip(")")
    parts = [p for p in cleaned.replace(",", " ").split() if p]
    if len(parts) != length:
        raise ProblemFileError(f"expected {length} integers, got {len(parts)}")
    return tuple(_int(p) for p in parts)


def _override(flag, default, what):
    """The command-line value if given, else the problem file's; both >= 0."""
    return to_int(default if flag is None else flag, what, minimum=0)


def _load_box_inputs(args):
    """Problem, relation lattice and radius of a run that builds a support box."""
    problem = load_problem(args.file)
    return problem, kernel_basis(problem.matrix), _override(args.radius, problem.radius, "radius")


def _solve_failure(excluded):
    if not excluded:
        return "minimality failed for the plain negative support"
    if len(excluded) == 1:
        return f"minimality failed with index {excluded[0]} excluded"
    return f"minimality failed with {list(excluded)} excluded"


def _write_artifact(out_dir: Path, name: str, content: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(content, encoding="utf-8")
    return name


def _write_run_report(out_dir: Path, report: dict):
    content = json.dumps(report, indent=2) + "\n"
    return _write_artifact(out_dir, "run_report.json", content)


def cmd_lattice(args) -> int:
    problem = load_problem(args.file)
    lattice = kernel_basis(problem.matrix)
    print(f"ambient dimension: {lattice.ambient_dim}")
    print(f"rank: {lattice.rank}")
    for row in lattice.basis:
        print("basis: (" + ",".join(str(x) for x in row) + ")")
    return 0


def cmd_support(args) -> int:
    problem, lattice, radius = _load_box_inputs(args)
    box = SupportBox(problem.v, lattice, radius, args.max_terms)
    excluded = tuple(_parse_index_list(args.exclude, problem.matrix.n_cols)) if args.exclude else ()
    # Both enumerations run before the first line, so a capped run prints nothing.
    verdict = box.check_minimal(excluded)
    points = box.support_set(excluded)
    print(f"excluded: {sorted(excluded)}")
    print(f"verdict: {verdict}")
    print(f"support points within radius {radius}: {len(points)}")
    for point in points:
        print("  (" + ",".join(str(x) for x in point) + ")")
    return 0 if verdict.minimal else 1


def _series_run(args, started, problem, box, sets, artifacts, euler, parameters) -> int:
    """The pipeline of ``solve`` and ``combine``; returns the exit code.

    Sweeps ``box`` over the excluded ``sets`` and then the keys of the
    tails the ``artifacts`` read (exit 1 after printing
    ``_solve_failure(excluded)`` for the first one that is not minimal),
    builds each of those tails once, in one ``build_tails`` call, and
    writes each artifact ``(name, terms)`` as ``combine(tails, terms)``,
    box-verified against the whole basis in one ``verify_box_operators``
    call and, unless ``euler`` is None, Euler-verified against its
    ``(matrix, beta)``; then ``run_report.json``.  An artifact passes
    only if every check passes and some check certified something: a box
    check a nonempty region, an Euler check at least one term.  So one
    with no check, or only an Euler check of no term (a rank-0 lattice has
    no box operator), does not pass.  Every support set is
    enumerated and every artifact rendered before the first write, so a
    capped run, or one with a number past the integer-string limit,
    writes nothing.
    """
    from .logseries import build_tails, combine, tails_read, to_text
    from .operators import BoxOp, verify_box_operators, verify_euler_annihilation

    needed = tails_read(term for _, terms in artifacts for term in terms)
    verdicts = box.sweep([*sets, *needed])
    for excluded, verdict in verdicts.items():
        if not verdict.minimal:
            print(_solve_failure(excluded))
            return 1
    tails = build_tails(box, needed)
    ops = [BoxOp(row) for row in box.lattice.basis]
    labels = [f"box({','.join(str(x) for x in row)})" for row in box.lattice.basis]
    verification, texts, ok = [], [], True
    for name, terms in artifacts:
        series = combine(tails, terms)
        reports = list(zip(labels, verify_box_operators(series, ops)))
        if euler is not None:
            reports.append(("euler", verify_euler_annihilation(series, *euler)))
        checks = [
            {"op": op, "checked_terms": got.checked_term_count, "violations": len(got.violations)}
            for op, got in reports
        ]
        verification.append({"artifact": name, "checks": checks})
        certified = any(
            got.checked_term_count if got.certified_region is None else got.certified_region
            for _, got in reports
        )
        ok = ok and certified and all(got.passed for _, got in reports)
        texts.append((name, to_text(series)))
    artifacts = [_write_artifact(Path(args.out), name, text) for name, text in texts]
    report = {
        "command": args.command,
        "input": problem.raw,
        "source": problem.source_hash,
        "parameters": parameters,
        "verdicts": {f"excluded={excluded}": str(v) for excluded, v in verdicts.items()},
        "artifacts": artifacts,
        "verification": verification,
        "status": "pass" if ok else "fail",
    }
    artifacts = artifacts + [_write_run_report(Path(args.out), report)]
    print(f"status: {report['status']}")
    print(f"artifacts: {', '.join(artifacts)}")
    print(f"elapsed: {time.perf_counter() - started:.3f}s")
    return 0 if ok else 1


def cmd_solve(args) -> int:
    from itertools import combinations_with_replacement

    started = time.perf_counter()
    problem, lattice, radius = _load_box_inputs(args)
    ncols = problem.matrix.n_cols
    order = to_int(args.order, "order", minimum=0)

    if args.indices is None:
        keys = combinations_with_replacement(range(ncols), order)
    elif order == 0:
        raise ProblemFileError("--indices needs --order 1 or more")
    else:
        flat = _parse_index_list(args.indices, ncols)
        if not flat:
            raise ProblemFileError(f"--indices {args.indices!r} names no index")
        if len(flat) % order:
            raise ProblemFileError(f"--indices: {len(flat)} indices are not {order}-tuples")
        keys = {tuple(sorted(flat[s : s + order])) for s in range(0, len(flat), order)}
    artifacts = [("F.series", [(1, ())])] + [
        (f"quasi{order}_{'_'.join(map(str, logs))}.series", [(1, logs)])
        for logs in sorted(keys)
        if logs
    ]
    box = SupportBox(problem.v, lattice, radius, args.max_terms)
    parameters = {"order": order, "radius": radius}
    return _series_run(args, started, problem, box, (), artifacts, None, parameters)


def _multiset_terms(points):
    """The solution's ``combine`` terms: ``prod_t l_t[a_t]`` summed over the orderings of each
    sorted multiset ``(a_1, ..., a_k)``, by multiplying out the linear forms ``sum_a l_t[a]
    x_a`` one at a time, not over the ``n**k`` tuples; a cancelled multiset is dropped."""
    weights = {(): 1}
    for point in points:
        step = {}
        for logs, weight in weights.items():
            for a, x in enumerate(point):
                if weight and x:
                    key = tuple(sorted((*logs, a)))
                    step[key] = step.get(key, 0) + weight * x
        weights = step
    return [(weight, logs) for logs, weight in weights.items() if weight]


def cmd_combine(args) -> int:
    from itertools import combinations

    started = time.perf_counter()
    problem, lattice, radius = _load_box_inputs(args)
    ncols = problem.matrix.n_cols

    points = [_parse_int_vector(text, ncols) for text in args.l]
    for point in points:
        if any(problem.matrix.mul_vec(point)):
            raise ProblemFileError(f"l = {point} is not in the relation lattice")
    sets = [()] + [s for k in range(1, len(points) + 1) for s in combinations(range(ncols), k)]
    box = SupportBox(problem.v, lattice, radius, args.max_terms)
    artifacts = [("solution.series", _multiset_terms(points))]
    euler = (problem.matrix, problem.beta)
    parameters = {"l": [list(point) for point in points], "radius": radius}
    return _series_run(args, started, problem, box, sets, artifacts, euler, parameters)


def cmd_ci(args) -> int:
    from .polytope import has_unique_interior_point

    problem, lattice, radius = _load_box_inputs(args)
    if problem.spec is None:
        raise ProblemFileError("'ci' section required for this command")
    spec = problem.spec
    # Sweep and hull run before the first line: a capped run or bad hull prints nothing.
    # Radius 0 would check the origin alone, so the sweep runs at radius 1 or more.
    box = SupportBox(problem.v, lattice, max(1, radius), args.max_terms)
    verdicts = box.sweep([()] + [(col,) for col in range(problem.matrix.n_cols)])
    hypothesis = has_unique_interior_point(spec.point_sets, spec.delta)
    print("lifted matrix rows:")
    for row in problem.matrix.rows:
        print("  (" + ",".join(str(x) for x in row) + ")")
    print("beta: (" + ",".join(str(x) for x in problem.beta) + ")")
    print("v: (" + ",".join(str(x) for x in problem.v) + ")")
    print(f"unique interior point {spec.delta}: {hypothesis}")
    ok = hypothesis
    for excluded, verdict in verdicts.items():
        what = f"column {excluded[0]} excluded" if excluded else "nothing excluded"
        print(f"minimality, {what}: {verdict}")
        ok = ok and verdict.minimal
    print(f"status: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def cmd_mirror(args) -> int:
    from .ci_mirror import mirror_map, render_coefficients, render_integrality_report

    started = time.perf_counter()
    problem = load_problem(args.file)
    if problem.spec is None:
        raise ProblemFileError("'ci' section required for this command")
    spec = problem.spec
    radius = _override(args.radius, problem.radius, "radius")
    grade = _override(args.grade, problem.grade, "grade")
    out_dir = Path(args.out)

    parts = args.index.replace(",", " ").split()
    try:
        if len(parts) == 1:
            index = spec.column_of(_int(parts[0]))
        elif len(parts) == 2:
            index = (_int(parts[0]), _int(parts[1]))
            spec.column_index(*index)
        else:
            raise ValueError("--index takes 'flat' or 'i,j'")
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None

    q = mirror_map(spec, index, grade, radius=radius, max_points=args.max_terms)
    i, j = q.index
    stem = f"mirror_{i}_{j}"
    artifacts = [
        _write_artifact(out_dir, f"{stem}.coeffs", render_coefficients(q)),
        _write_artifact(
            out_dir, f"{stem}.report", render_integrality_report(q, problem.source_hash)
        ),
    ]
    non_integer = sum(1 for c in q.coefficients.values() if c.denominator != 1)
    report = {
        "command": "mirror",
        "input": problem.raw,
        "source": problem.source_hash,
        "parameters": {
            "index": [i, j],
            "grade_bound": grade,
            "radius_requested": radius,
            "radius_used": q.radius,
        },
        "grading": list(q.grading),
        "coefficients": len(q.coefficients),
        "non_integer_coefficients": non_integer,
        "artifacts": artifacts,
        "status": "pass",
    }
    artifacts.append(_write_run_report(out_dir, report))
    elapsed = time.perf_counter() - started
    print(f"integrality: {'OK' if non_integer == 0 else f'{non_integer} non-integer coefficients'}")
    print(f"artifacts: {', '.join(artifacts)}")
    print(f"elapsed: {elapsed:.3f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkzlog",
        description="Exact series solutions and mirror maps of GKZ systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=False):
        p.add_argument("file", help="JSON problem file")
        p.add_argument("--radius", type=int, default=None, help="enumeration radius")
        p.add_argument(
            "--max-terms", type=int, default=DEFAULT_MAX_BOX_POINTS, help="lattice-point cap"
        )
        if out:
            p.add_argument("--out", default="out", help="artifact directory")

    p = sub.add_parser("lattice", help="print the relation-lattice basis")
    common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("support", help="minimality verdict and support listing")
    common(p)
    p.add_argument("--exclude", default=None, help="excluded indices, e.g. '4' or '0,2'")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("solve", help="build and verify (quasi)solutions")
    common(p, out=True)
    p.add_argument("--order", type=int, required=True, help="log order K >= 0")
    p.add_argument("--indices", default=None, help="log indices, cut into K-tuples")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("combine", help="combine quasisolutions into a solution")
    common(p, out=True)
    p.add_argument("--l", action="append", required=True, help="lattice point, once per order")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("ci", help="build a lifted system and check hypotheses")
    common(p)
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("mirror", help="mirror map and integrality report")
    common(p, out=True)
    p.add_argument("--index", required=True, help="column: flat index or 'i,j'")
    p.add_argument("--grade", type=int, default=None, help="grade bound")
    p.set_defaults(func=cmd_mirror)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.max_terms = to_int(args.max_terms, "max-terms", minimum=0)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except OSError as exc:  # an artifact or stdout that cannot be written
        if isinstance(exc, BrokenPipeError):  # the reader is gone: flush into devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except ProblemFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except GkzError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
