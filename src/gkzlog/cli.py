"""Batch command-line front end.

Reads a JSON problem file (matrix system or complete-intersection spec),
runs the requested pipeline, and writes plain-text artifacts.  Every
solve/combine command re-verifies its own output through the operator
module before reporting success.  Output files are byte-identical across
runs of the same input; wall-clock timing goes to stdout only.

``argv`` is read against one table of the six commands (``COMMANDS``,
with the options of ``OPTIONS``): ``gkzlog COMMAND FILE`` and options
as ``--opt value`` or ``--opt=value``, spelled in full.  A usage error
is an input error; ``-h`` or ``--help`` prints a usage block built from
the table.  ``main`` looks each command's runner up by its name when it
dispatches.

Exit codes: 0 pass, 1 verification failure, 2 input or output error
(a usage error, an unwritable ``--out`` or a closed stdout), 3 resource
limit.

Each command imports the pipeline it runs when it runs: loading a ``ci``
problem imports the module ``ci`` (the point sets and their lift) and no
pipeline; the ``ci`` command imports the hull code of ``polytope``,
``mirror`` the mirror-map pipeline ``ci_mirror``, and ``solve`` and
``combine`` the module ``series_run``, which verifies and renders their
artifacts through ``logseries`` and ``operators``; this module loads
the problem, the lattice and the box and writes what ``series_run``
returns.  So a run compiles only the modules it needs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

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


def _override(flag, default, what):
    """The command-line value if given, else the problem file's; both >= 0."""
    return to_int(default if flag is None else flag, what, minimum=0)


def _load_box_inputs(args):
    """Problem, relation lattice and radius of a run that builds a support box."""
    problem = load_problem(args.file)
    return problem, kernel_basis(problem.matrix), _override(args.radius, problem.radius, "radius")


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


def _write_series_run(args, started, problem, run) -> int:
    """Print the failure of a ``series_run`` run, or write its texts and run report."""
    failure, texts, fields = run
    if failure is not None:
        print(failure)
        return 1
    out_dir = Path(args.out)
    for name, text in texts:
        _write_artifact(out_dir, name, text)
    report = {"command": args.command, "input": problem.raw, "source": problem.source_hash}
    report.update(fields)
    artifacts = [*fields["artifacts"], _write_run_report(out_dir, report)]
    print(f"status: {report['status']}")
    print(f"artifacts: {', '.join(artifacts)}")
    print(f"elapsed: {time.perf_counter() - started:.3f}s")
    return 0 if report["status"] == "pass" else 1


def cmd_solve(args) -> int:
    from .series_run import solve_run

    started = time.perf_counter()
    problem, lattice, radius = _load_box_inputs(args)
    order = to_int(args.order, "order", minimum=0)
    keys = None
    if args.indices is not None:
        if order == 0:
            raise ProblemFileError("--indices needs --order 1 or more")
        flat = _parse_index_list(args.indices, problem.matrix.n_cols)
        if not flat:
            raise ProblemFileError(f"--indices {args.indices!r} names no index")
        if len(flat) % order:
            raise ProblemFileError(f"--indices: {len(flat)} indices are not {order}-tuples")
        keys = {tuple(sorted(flat[s : s + order])) for s in range(0, len(flat), order)}
    box = SupportBox(problem.v, lattice, radius, args.max_terms)
    return _write_series_run(args, started, problem, solve_run(box, order, keys))


def cmd_combine(args) -> int:
    from .series_run import combine_run

    started = time.perf_counter()
    problem, lattice, radius = _load_box_inputs(args)
    box = SupportBox(problem.v, lattice, radius, args.max_terms)
    run = combine_run(box, problem.matrix, problem.beta, args.l)
    return _write_series_run(args, started, problem, run)


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


# Every option of the command table: its kind (an int or str option keeps the
# last value given, a list option appends each one), its default, the name of
# its value and its help line.
OPTIONS = {
    "radius": (int, None, "R", "enumeration radius (default: the problem file's)"),
    "max-terms": (
        int,
        DEFAULT_MAX_BOX_POINTS,
        "N",
        f"point cap of each enumeration (default: {DEFAULT_MAX_BOX_POINTS})",
    ),
    "out": (str, "out", "DIR", "artifact directory (default: out)"),
    "exclude": (str, None, "I,J", "excluded indices, e.g. '4' or '0,2'"),
    "order": (int, None, "K", "log order K >= 0"),
    "indices": (str, None, "I,J", "log indices, cut into K-tuples"),
    "l": (list, None, "POINT", "lattice point, once per log order"),
    "index": (str, None, "I", "column: flat index or 'i,j'"),
    "grade": (int, None, "D", "grade bound (default: the problem file's)"),
}
_COMMON = ("radius", "max-terms")

# The command table: per command, the name of its runner, a summary, its
# options and the ones a run must give.  main looks the runner up by name when
# it dispatches, so a runner rebound after import is the one that runs.
COMMANDS = {
    "lattice": (cmd_lattice.__name__, "print the relation-lattice basis", _COMMON, ()),
    "support": (
        cmd_support.__name__,
        "minimality verdict and support listing",
        ("exclude", *_COMMON),
        (),
    ),
    "solve": (
        cmd_solve.__name__,
        "build and verify (quasi)solutions",
        ("order", "indices", *_COMMON, "out"),
        ("order",),
    ),
    "combine": (
        cmd_combine.__name__,
        "combine quasisolutions into a solution",
        ("l", *_COMMON, "out"),
        ("l",),
    ),
    "ci": (cmd_ci.__name__, "build a lifted system and check hypotheses", _COMMON, ()),
    "mirror": (
        cmd_mirror.__name__,
        "mirror map and integrality report",
        ("index", "grade", *_COMMON, "out"),
        ("index",),
    ),
}
_HELP = ("-h", "--help")


def _usage() -> str:
    """The ``--help`` text: one synopsis per command, then one line per option."""
    lines = [
        "usage: gkzlog COMMAND FILE [--OPTION VALUE]...",
        "Exact series solutions and mirror maps of GKZ systems.",
        "",
    ]
    for command, (_, summary, options, required) in COMMANDS.items():
        shown = []
        for name in options:
            kind, _, value, _ = OPTIONS[name]
            flag = f"--{name} {value}" + ("..." if kind is list else "")
            shown.append(flag if name in required else f"[{flag}]")
        lines += [f"  gkzlog {command} FILE {' '.join(shown)}", f"      {summary}"]
    lines += [
        "",
        "options, as --OPTION VALUE or --OPTION=VALUE; an option given twice keeps",
        "its last value, but one shown as VALUE... adds each value it is given:",
    ]
    for name, (_, _, value, text) in OPTIONS.items():
        lines.append(f"  --{name} {value}".ljust(20) + text)
    lines.append("  -h, --help".ljust(20) + "print this text")
    return "\n".join(lines)


def _parse_argv(argv):
    """The ``args`` of a run, as the command table reads ``argv``; None when it asks for help.

    ``args`` has ``command``, ``file`` and one attribute per option of the
    command (``--max-terms`` is ``max_terms``), its default when not given.
    A usage error raises :class:`ProblemFileError`: an unknown command or
    option, an option without its value, a missing or second FILE, a
    missing required option or a non-integer value of an int option.
    """
    if argv and argv[0] in _HELP:
        return None
    if not argv or argv[0] not in COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command"
        raise ProblemFileError(f"{given}; choose one of {', '.join(COMMANDS)} (see --help)")
    command, tokens, file = argv[0], iter(argv[1:]), None
    _, _, options, required = COMMANDS[command]
    values = {name: OPTIONS[name][1] for name in options}
    for token in tokens:
        if token in _HELP:
            return None
        if not token.startswith("-"):
            if file is not None:
                raise ProblemFileError(f"{command}: a second FILE {token!r}")
            file = token
            continue
        flag, equals, text = token.partition("=")
        name = flag[2:]
        if not flag.startswith("--") or name not in options:
            raise ProblemFileError(f"{command}: unknown option {flag!r}")
        if not equals and (text := next(tokens, None)) is None:
            raise ProblemFileError(f"{command}: {flag} needs a value")
        kind = OPTIONS[name][0]
        if kind is list:
            values[name] = [*(values[name] or ()), text]
        elif kind is int:
            try:
                values[name] = int(text)
            except ValueError:
                message = f"{command}: {flag} takes an integer, got {text!r}"
                raise ProblemFileError(message) from None
        else:
            values[name] = text
    if file is None:
        raise ProblemFileError(f"{command}: FILE missing")
    for name in required:
        if values[name] is None:
            raise ProblemFileError(f"{command}: --{name} is required")
    attributes = {name.replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, file=file, **attributes)


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_usage())
            code = 0
        else:
            args.max_terms = to_int(args.max_terms, "max-terms", minimum=0)
            code = globals()[COMMANDS[args.command][0]](args)
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
