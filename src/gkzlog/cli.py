"""Batch command-line front end.

Reads a JSON problem file (matrix system or complete-intersection spec),
runs the requested pipeline, and writes plain-text artifacts.  Every
solve/combine command re-verifies its own output through the operator
module before reporting success.  Output files are byte-identical across
runs of the same input; wall-clock timing goes to stdout only.

``argv`` is read against one table of the six commands (``COMMANDS``,
with the options of ``OPTIONS``): ``gkzlog COMMAND FILE`` and options
as ``--opt value`` or ``--opt=value``, spelled in full.  A usage error,
a negative int option among them, is an input error, raised before the
problem file is read; ``-h`` or ``--help`` prints a usage block built
from the table.  ``main`` looks each command's runner up by its name when
it dispatches.

Exit codes: 0 pass, 1 verification failure, 2 input or output error
(a usage error, an unwritable ``--out`` or a closed stdout), 3 resource
limit.

This module is the one that turns option text into values (one integer
list reader, ``_ints``, serves ``--exclude``, ``--indices``, ``--index``
and ``--l``) and the one that writes artifacts: each pipeline that
writes them returns ``(line, texts, fields)``, the line to print, each
artifact's ``(name, text)`` and the run report's fields, and
``_write_run`` prints and writes it.  Each command imports the pipeline
it runs when it runs: loading a ``ci`` problem imports the module ``ci``
(the point sets, their lift and ``check_hypotheses``) and no pipeline;
the ``ci`` command runs ``check_hypotheses``, which imports the hull code
of ``polytope``, ``mirror`` the mirror-map pipeline ``ci_mirror``
(``mirror_run``), and ``solve`` and ``combine`` the module
``series_run``, which verifies and renders their artifacts through
``logseries`` and ``operators``.  So a run compiles only the modules it
needs.
"""

from __future__ import annotations

import gc
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

try:  # hashlib loads OpenSSL; the interpreter's own SHA-256 is the same digest
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

DEFAULT_RADIUS = 6
DEFAULT_GRADE = 6


class Problem:
    """Loaded and validated problem file."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.radius = to_int(raw.get("radius", DEFAULT_RADIUS), "radius", minimum=0)
        self.grade = to_int(raw.get("grade", DEFAULT_GRADE), "grade", minimum=0)
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        self.source_hash = "sha256:" + sha256(canonical.encode("utf-8")).hexdigest()[:16]
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


def _ints(text):
    """The integers of an option's text, split at commas and whitespace."""
    out = []
    for chunk in text.replace(",", " ").split():
        try:
            out.append(int(chunk))
        except ValueError:
            raise ProblemFileError(f"expected an integer, got {chunk!r}") from None
    return out


def _indices(text, limit):
    """The column indices of an option's text (``_ints``), each in ``0..limit - 1``."""
    out = _ints(text)
    for value in out:
        if not 0 <= value < limit:
            raise ProblemFileError(f"index {value} out of range 0..{limit - 1}")
    return out


def _given(args, problem, name):
    """The option ``--name`` if given, else the problem file's value."""
    value = getattr(args, name)
    return getattr(problem, name) if value is None else value


def _load_box(args):
    """The problem and its ``SupportBox``, for a run that reads support sets."""
    problem = load_problem(args.file)
    radius = _given(args, problem, "radius")
    return problem, SupportBox(problem.v, kernel_basis(problem.matrix), radius, args.max_terms)


def _load_ci(args):
    """The problem of a command that needs its ``ci`` section."""
    problem = load_problem(args.file)
    if problem.spec is None:
        raise ProblemFileError("'ci' section required for this command")
    return problem


def _write_run(args, started, problem, run) -> int:
    """Print and write a pipeline's ``(line, texts, fields)``; the run's exit code.

    Without ``fields`` (a run whose minimality sweep failed) ``line`` is
    printed alone and nothing is written.  Otherwise each ``(name, text)``
    of ``texts`` and the run report (``command``, ``input``, ``source``,
    then ``fields``) are written to ``--out``, and ``line``, the artifact
    names and the elapsed time are printed.  The run passes when
    ``fields`` say so.
    """
    line, texts, fields = run
    if not fields:
        print(line)
        return 1
    report = {"command": args.command, "input": problem.raw, "source": problem.source_hash}
    report.update(fields)
    texts = [*texts, ("run_report.json", json.dumps(report, indent=2) + "\n")]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts:
        (out_dir / name).write_text(text, encoding="utf-8")
    print(line)
    print(f"artifacts: {', '.join(name for name, _ in texts)}")
    print(f"elapsed: {time.perf_counter() - started:.3f}s")
    return 0 if fields["status"] == "pass" else 1


def cmd_lattice(args) -> int:
    problem = load_problem(args.file)
    lattice = kernel_basis(problem.matrix)
    print(f"ambient dimension: {lattice.ambient_dim}")
    print(f"rank: {lattice.rank}")
    for row in lattice.basis:
        print("basis: (" + ",".join(str(x) for x in row) + ")")
    return 0


def cmd_support(args) -> int:
    problem, box = _load_box(args)
    excluded = tuple(_indices(args.exclude or "", problem.matrix.n_cols))
    # Both enumerations run before the first line, so a capped run prints nothing.
    verdict = box.check_minimal(excluded)
    points = box.support_set(excluded)
    print(f"excluded: {sorted(excluded)}")
    print(f"verdict: {verdict}")
    print(f"support points within radius {box.radius}: {len(points)}")
    for point in points:
        print("  (" + ",".join(str(x) for x in point) + ")")
    return 0 if verdict.minimal else 1


def cmd_solve(args) -> int:
    from .series_run import solve_run

    started = time.perf_counter()
    problem, box = _load_box(args)
    order, keys = args.order, None
    if args.indices is not None:
        if order == 0:
            raise ProblemFileError("--indices needs --order 1 or more")
        flat = _indices(args.indices, problem.matrix.n_cols)
        if not flat:
            raise ProblemFileError(f"--indices {args.indices!r} names no index")
        if len(flat) % order:
            raise ProblemFileError(f"--indices: {len(flat)} indices are not {order}-tuples")
        keys = {tuple(sorted(flat[s : s + order])) for s in range(0, len(flat), order)}
    return _write_run(args, started, problem, solve_run(box, order, keys))


def cmd_combine(args) -> int:
    from .series_run import combine_run

    started = time.perf_counter()
    problem, box = _load_box(args)
    matrix = problem.matrix
    points = [tuple(_ints(text.strip().lstrip("(").rstrip(")"))) for text in args.l]
    for point in points:
        if len(point) != matrix.n_cols:
            raise ProblemFileError(f"expected {matrix.n_cols} integers, got {len(point)}")
        if any(matrix.mul_vec(point)):
            raise ProblemFileError(f"l = {point} is not in the relation lattice")
    run = combine_run(box, matrix, problem.beta, points)
    return _write_run(args, started, problem, run)


def cmd_ci(args) -> int:
    from .ci import check_hypotheses

    problem = _load_ci(args)
    lattice, radius = kernel_basis(problem.matrix), _given(args, problem, "radius")
    # Both checks run before the first line: a capped sweep or a bad hull prints nothing.
    unique, verdicts = check_hypotheses(problem.spec, problem.v, lattice, radius, args.max_terms)
    print("lifted matrix rows:")
    for row in problem.matrix.rows:
        print("  (" + ",".join(str(x) for x in row) + ")")
    print("beta: (" + ",".join(str(x) for x in problem.beta) + ")")
    print("v: (" + ",".join(str(x) for x in problem.v) + ")")
    print(f"unique interior point {problem.spec.delta}: {unique}")
    for excluded, verdict in verdicts.items():
        what = f"column {excluded[0]} excluded" if excluded else "nothing excluded"
        print(f"minimality, {what}: {verdict}")
    ok = unique and all(verdict.minimal for verdict in verdicts.values())
    print(f"status: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def cmd_mirror(args) -> int:
    from .ci_mirror import mirror_run

    started = time.perf_counter()
    problem = _load_ci(args)
    spec, parts = problem.spec, _ints(args.index)
    if len(parts) not in (1, 2):
        raise ProblemFileError("--index takes 'flat' or 'i,j'")
    try:  # a pair is checked by its flat index, which gives it back
        index = spec.column_of(spec.column_index(*parts) if len(parts) == 2 else parts[0])
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None
    grade, radius = _given(args, problem, "grade"), _given(args, problem, "radius")
    run = mirror_run(spec, index, grade, radius, args.max_terms, problem.source_hash)
    return _write_run(args, started, problem, run)


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
    missing required option, or a non-integer or negative value of an int
    option.
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
                value = int(text)
            except ValueError:
                message = f"{command}: {flag} takes an integer, got {text!r}"
                raise ProblemFileError(message) from None
            values[name] = to_int(value, name, minimum=0)
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


def entry():
    """The gkzlog process: ``main()`` on ``sys.argv``, then ``sys.exit`` with its code.

    Before it exits it freezes the heap: ``gc.freeze`` moves every object
    still alive into the permanent generation, which the collections of
    interpreter finalization skip, and exit frees them all anyway.  ``main``
    itself does not freeze, so a caller that runs it in process keeps
    collecting its own cyclic garbage.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
