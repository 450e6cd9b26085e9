"""The pipeline of the ``solve`` and ``combine`` commands, from parsed inputs to rendered text.

``solve --order K`` (any ``K >= 0``, ``solve_run``) and ``combine`` (one
``--l`` lattice point per log order, ``combine_run``) run one pipeline,
``_series_run``, at every order.  The command line (``cli``) loads the
problem, its relation lattice and its ``SupportBox``, parses
``--indices``, and writes what both return, ``(failure, texts,
fields)``: ``failure`` is the line to print, with nothing to write, when
an excluded set the run sweeps is not minimal; otherwise it is None,
``texts`` holds each artifact's ``(name, text)`` and ``fields`` the run
report's entries from ``parameters`` to ``status``.  Only these two
commands import this module, and it imports nothing of ``cli``.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import ProblemFileError, ResourceLimit
from .logseries import build_tails, combine, tails_read, to_text
from .operators import BoxOp, verify_box_operators, verify_euler_annihilation

# The most quasisolutions ``solve --order K`` writes without ``--indices``.
MAX_ARTIFACTS = 1000


def _solve_failure(excluded):
    if not excluded:
        return "minimality failed for the plain negative support"
    if len(excluded) == 1:
        return f"minimality failed with index {excluded[0]} excluded"
    return f"minimality failed with {list(excluded)} excluded"


def _series_run(box, sets, artifacts, euler, parameters):
    """The pipeline of ``solve`` and ``combine``: ``(failure, texts, fields)``.

    Sweeps ``box`` over the excluded ``sets`` and then the keys of the
    tails the ``artifacts`` read (the failure is ``_solve_failure`` of the
    first one that is not minimal), builds each of those tails once, in
    one ``build_tails`` call, and renders each artifact ``(name, terms)``
    as ``combine(tails, terms)``, box-verified against the whole basis in
    one ``verify_box_operators`` call and, unless ``euler`` is None,
    Euler-verified against its ``(matrix, beta)``.  An artifact passes
    only if every check passes and some check certified something: a box
    check a nonempty region, an Euler check at least one term.  So one
    with no check, or only an Euler check of no term (a rank-0 lattice has
    no box operator), does not pass.  Every support set is enumerated and
    every artifact rendered before this returns, so a capped run, or one
    with a number past the integer-string limit, has nothing to write.
    """
    needed = tails_read(term for _, terms in artifacts for term in terms)
    verdicts = box.sweep([*sets, *needed])
    for excluded, verdict in verdicts.items():
        if not verdict.minimal:
            return _solve_failure(excluded), [], {}
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
    fields = {
        "parameters": parameters,
        "verdicts": {f"excluded={excluded}": str(v) for excluded, v in verdicts.items()},
        "artifacts": [name for name, _ in texts],
        "verification": verification,
        "status": "pass" if ok else "fail",
    }
    return None, texts, fields


def solve_run(box, order, keys=None):
    """``F`` and one quasisolution per sorted ``order``-tuple of log indices, run on ``box``.

    ``keys`` are the tuples (``--indices``); None means every multiset of
    ``order`` indices, ``C(n + order - 1, order)`` of them, which raises
    :class:`ResourceLimit` before any work when past ``MAX_ARTIFACTS``.
    """
    if keys is None:
        ncols = len(box.base)
        count = comb(ncols + order - 1, order)
        if count > MAX_ARTIFACTS:
            raise ResourceLimit(
                f"--order {order} writes {count} quasisolutions, past the cap of "
                f"{MAX_ARTIFACTS}; name the ones wanted with --indices"
            )
        keys = combinations_with_replacement(range(ncols), order)
    artifacts = [("F.series", [(1, ())])] + [
        (f"quasi{order}_{'_'.join(map(str, logs))}.series", [(1, logs)])
        for logs in sorted(keys)
        if logs
    ]
    return _series_run(box, (), artifacts, None, {"order": order, "radius": box.radius})


def _parse_int_vector(text, length):
    parts = text.strip().lstrip("(").rstrip(")").replace(",", " ").split()
    try:
        point = tuple(map(int, parts))
    except ValueError:
        raise ProblemFileError(f"--l {text!r} is not a list of integers") from None
    if len(point) != length:
        raise ProblemFileError(f"expected {length} integers, got {len(point)}")
    return point


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


def combine_run(box, matrix, beta, texts):
    """The solution of the lattice points ``texts`` (one ``--l`` each), run on ``box``.

    Each text must name a point of the relation lattice of ``matrix``.
    The run sweeps every excluded set of at most ``len(texts)`` indices
    and Euler-verifies the solution against ``(matrix, beta)``.
    """
    ncols = matrix.n_cols
    points = [_parse_int_vector(text, ncols) for text in texts]
    for point in points:
        if any(matrix.mul_vec(point)):
            raise ProblemFileError(f"l = {point} is not in the relation lattice")
    sets = [()] + [s for k in range(1, len(points) + 1) for s in combinations(range(ncols), k)]
    artifacts = [("solution.series", _multiset_terms(points))]
    parameters = {"l": [list(point) for point in points], "radius": box.radius}
    return _series_run(box, sets, artifacts, (matrix, beta), parameters)
