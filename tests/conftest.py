"""Shared fixtures: the four running example systems, and brute-force references."""

import itertools
from fractions import Fraction as F
from math import gcd, prod
from pathlib import Path

import pytest

from gkzlog import (
    CertifiedReport,
    CISpec,
    LogSeries,
    NonLatticeExponent,
    NoPositiveFunctional,
    ResourceLimit,
    build_tails,
    kernel_basis,
    tails_read,
)
from gkzlog.ci_mirror import DEFAULT_GRADING_BOUND
from gkzlog.linalg import hnf_rows, kernel_rows, solve_echelon, solve_integer
from gkzlog.rationals import rational_vector, to_int, to_rational
from tests.oracles import position_splits

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GAUSS_MATRIX = ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1))
PYRAMID_MATRIX = ((1, 1, 1, 1, 1), (-1, 1, 1, -1, 0), (-1, -1, 1, 1, 0))
PYRAMID_BETA = (F(1), F(0), F(0))
PYRAMID_V = (F(0), F(0), F(0), F(0), F(1))

TWO_TRIANGLES_SETS = (
    (
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (-1, -1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, -1, -1),
    ),
)
QUADRILATERAL_SETS = (((0, 0), (1, 1), (-1, 0), (1, -1), (1, 0)),)


def laplace_det(rows):
    """Determinant of a small square integer matrix by expansion along its first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def cofactor_vector(rows):
    """Vector orthogonal to ``n - 1`` rows of length ``n``: signed maximal minors.

    Zero exactly when the rows are dependent.
    """
    rows = [tuple(row) for row in rows]
    n = len(rows) + 1
    return tuple((-1) ** j * laplace_det([row[:j] + row[j + 1 :] for row in rows]) for j in range(n))


def _reference_cone_rays(rows, rank):
    """Extreme rays from the cofactor directions of the (rank-1)-subsets of rows."""
    if rank == 0:
        return []
    if len(hnf_rows(rows)) < rank:
        raise NoPositiveFunctional("support cone contains a line; not pointed")
    if rank == 1:
        return [d for d in ((1,), (-1,)) if all(r[0] * d[0] >= 0 for r in rows)]
    rays = set()
    for subset in itertools.combinations(rows, rank - 1):
        direction = cofactor_vector(subset)
        if not any(direction):
            continue
        g = gcd(*direction)
        direction = tuple(a // g for a in direction)
        for cand in (direction, tuple(-a for a in direction)):
            if all(sum(a * b for a, b in zip(row, cand)) >= 0 for row in rows):
                rays.add(cand)
    return sorted(rays)


def projective_ci_sets(degrees):
    """Point sets of the complete intersection of the given degrees in ``P^n``.

    ``n + 1 = sum(degrees)``: the vertices ``e_1 .. e_n, -(e_1 + .. + e_n)``
    of the simplex are dealt out in order, ``degrees[i]`` of them to set
    ``i`` (a nef partition), and each set has the origin first.
    """
    n = sum(degrees) - 1
    vertices = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    sets, start = [], 0
    for degree in degrees:
        sets.append(((0,) * n,) + tuple(vertices[start : start + degree]))
        start += degree
    return tuple(sets)


def box_points(lattice, radius):
    """Every lattice point with basis coordinates in ``[-radius, radius]``, by brute force.

    In lexicographic order of the coordinates; ``(2 * radius + 1) ** rank``
    points, the one point of rank 0 included.
    """
    steps = range(-radius, radius + 1)
    return [point_of(lattice, c) for c in itertools.product(steps, repeat=lattice.rank)]


def point_of(lattice, coords):
    """The ambient point ``sum_r coords[r] * basis[r]``, one entry at a time (reference map)."""
    return tuple(
        sum(c * row[i] for c, row in zip(coords, lattice.basis)) for i in range(lattice.ambient_dim)
    )


def fm_lattice_points(rows, dim, max_points):
    """``lattice._lattice_points`` as it was before Kohler's rule, as a reference.

    Plain integer Fourier-Motzkin: every pair of rows with opposite signs
    in the eliminated coordinate adds its combination, with no bound on the
    rows of a level.  Yields the same points in the same order, and raises
    the same ``ResourceLimit`` and ``ValueError``.
    """

    def normalized(rows):
        out = set()
        for a, c in rows:
            g = gcd(*a)
            if g == 0:
                if c < 0:
                    return None
                continue
            out.add((tuple(x // g for x in a), c // g))
        return sorted(out)

    level = normalized(rows)
    if level is None:
        return
    bounds = [None] * dim
    for k in range(dim - 1, -1, -1):
        lower = [(a[k], a[:k], c) for a, c in level if a[k] > 0]
        upper = [(a[k], a[:k], c) for a, c in level if a[k] < 0]
        bounds[k] = (lower, upper)
        if k:
            kept = [(a, c) for a, c in level if a[k] == 0]
            for pk, pa, pc in lower:
                for nk, na, nc in upper:
                    combined = tuple(-nk * p + pk * n for p, n in zip(pa, na))
                    kept.append((combined + (0,) * (dim - k), -nk * pc + pk * nc))
            level = normalized(kept)
            if level is None:
                return
    point = [0] * dim

    def walk(k):
        if k == dim:
            yield tuple(point)
            return
        lower, upper = bounds[k]
        if not lower or not upper:
            raise ValueError(f"coordinate {k} is unbounded: the polyhedron is not a polytope")
        prefix = point[:k]
        lo = max(-((c + sum(a * x for a, x in zip(pa, prefix))) // ak) for ak, pa, c in lower)
        hi = min((c + sum(a * x for a, x in zip(pa, prefix))) // -ak for ak, pa, c in upper)
        for x in range(lo, hi + 1):
            point[k] = x
            yield from walk(k + 1)

    for count, found in enumerate(walk(0), 1):
        if count > max_points:
            raise ResourceLimit(
                f"polytope has more than {max_points} lattice points (cap {max_points})"
            )
        yield found


def shell_grading(points):
    """The ambient grading of nonzero points by a search over shells, as a reference.

    Every integer coefficient vector in the saturated basis of the points'
    span, by growing max-norm shells up to ``DEFAULT_GRADING_BOUND``, each
    in lexicographic order; the first that is >= 1 on every point wins and
    is lifted to an ambient integer vector.
    """
    pts = sorted({tuple(int(x) for x in p) for p in points if any(p)})
    width = len(pts[0])
    basis = kernel_rows(kernel_rows(pts, width), width)
    coords = [tuple(int(c) for c in solve_echelon(basis, p)) for p in pts]
    for shell in range(DEFAULT_GRADING_BOUND + 1):
        for w in itertools.product(range(-shell, shell + 1), repeat=len(basis)):
            if shell and max(abs(x) for x in w) != shell:
                continue
            if all(sum(a * b for a, b in zip(w, y)) >= 1 for y in coords):
                return solve_integer(basis, w)
    raise NoPositiveFunctional("shells exhausted")


def fraction_derive(series, orders):
    """``operators._derive`` as it was on ``Fraction``-keyed term dicts, as a reference.

    Term dict of ``prod_j (d/dlambda_j)^orders[j] series``, one derivative
    at a time, with every exponent a ``Fraction``.
    """
    terms, out = series.items(), None
    for j, k in enumerate(orders):
        for _ in range(k):
            out = {}
            for (exponent, logdeg), coeff in terms:
                c, d = exponent[j], logdeg[j]
                shifted = exponent[:j] + (c - 1,) + exponent[j + 1 :]
                if c:
                    key = (shifted, logdeg)
                    out[key] = out.get(key, 0) + coeff * c
                if d:
                    key = (shifted, logdeg[:j] + (d - 1,) + logdeg[j + 1 :])
                    out[key] = out.get(key, 0) + coeff * d
            terms = out.items()
    return dict(terms) if out is None else out


def fraction_apply_box(series, op):
    """``apply_box`` on ``Fraction`` term dicts (``fraction_derive``), as a reference."""
    if len(op.point) != series.nvars:
        raise ValueError("dimension mismatch")
    out = fraction_derive(series, op.plus)
    for key, coeff in fraction_derive(series, op.minus).items():
        out[key] = out.get(key, 0) - coeff
    return LogSeries(series.nvars, out, series.meta)


def fraction_apply_euler(series, op):
    """``apply_euler`` on ``Fraction`` term dicts, as a reference."""
    if len(op.row) != series.nvars:
        raise ValueError("dimension mismatch")
    beta = F(op.beta)
    out = {}
    for (exponent, logdeg), coeff in series.items():
        key = (exponent, logdeg)
        out[key] = out.get(key, 0) + coeff * (sum(a * c for a, c in zip(op.row, exponent)) - beta)
        for j, a in enumerate(op.row):
            d = logdeg[j]
            if a and d:
                key = (exponent, logdeg[:j] + (d - 1,) + logdeg[j + 1 :])
                out[key] = out.get(key, 0) + coeff * a * d
    return LogSeries(series.nvars, out, series.meta)


def fraction_verify_box(series, op):
    """``verify_box_operators(series, [op])[0]`` with one lattice solve per source, as a reference.

    Each residual term solves for the coordinates of both of its sources
    ``u + l+`` and ``u + l-``, in that order.
    """
    if series.meta is None:
        raise ValueError("series carries no truncation metadata")
    meta = series.meta
    lattice = meta.lattice
    result = fraction_apply_box(series, op)
    checked = 0
    violations = []
    for (exponent, logdeg), coeff in result.items():
        checked += 1
        certified = True
        for shift in (op.plus, op.minus):
            delta = tuple(u + s - b for u, s, b in zip(exponent, shift, meta.base))
            coords = lattice.coords_of(delta)
            if coords is None:
                raise NonLatticeExponent(
                    f"exponent {exponent} is outside the rational span of the lattice"
                )
            if any(c.denominator != 1 for c in coords) or any(
                abs(c) > meta.radius for c in coords
            ):
                certified = False
                break
        if certified:
            violations.append((exponent, logdeg, coeff))
    coords = lattice.coords_of(op.point)
    region = 0
    if coords is not None and all(c.denominator == 1 for c in coords):
        region = 1
        for c in coords:
            region *= max(0, 2 * meta.radius + 1 - abs(int(c)))
    return CertifiedReport(checked, tuple(violations), region)


class FractionSeries:
    """``LogSeries`` as it was on ``Fraction``-keyed term dicts, as a reference.

    Terms are keyed by ``(exponent, logdeg)`` with ``Fraction`` exponents
    and hold ``Fraction`` coefficients; zero coefficients are never stored.
    """

    def __init__(self, nvars, terms=None, meta=None):
        canonical = {}
        for (exponent, logdeg), coeff in (terms or {}).items():
            value = to_rational(coeff)
            if value == 0:
                continue
            exponent = rational_vector(exponent)
            logdeg = tuple(to_int(d, "log power", minimum=0) for d in logdeg)
            if len(exponent) != nvars or len(logdeg) != nvars:
                raise ValueError("term dimension != nvars")
            canonical[(exponent, logdeg)] = value
        self.nvars, self.meta, self._terms = nvars, meta, canonical

    @classmethod
    def monomial(cls, exponent, logdeg=None, coeff=1, meta=None):
        logdeg = (0,) * len(exponent) if logdeg is None else logdeg
        return cls(len(exponent), {(tuple(exponent), tuple(logdeg)): coeff}, meta)

    def items(self):
        return self._terms.items()

    def terms(self):
        for (exponent, logdeg), coeff in sorted(self._terms.items()):
            yield exponent, logdeg, coeff

    def coefficient(self, exponent, logdeg=None):
        logdeg = (0,) * self.nvars if logdeg is None else tuple(logdeg)
        return self._terms.get((rational_vector(exponent), logdeg), F(0))

    def __eq__(self, other):
        return self.nvars == other.nvars and self._terms == other._terms

    def __add__(self, other):
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return FractionSeries(self.nvars, merged, self.meta if other.meta is None else other.meta)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        f = to_rational(factor)
        return FractionSeries(self.nvars, {k: c * f for k, c in self._terms.items()}, self.meta)

    def mul_log_linear(self, ivec):
        out = {}
        for i, weight in enumerate(ivec):
            if weight:
                fraction_add_into(out, self, weight, (i,))
        return FractionSeries(self.nvars, out, self.meta)

    def filter_terms(self, predicate):
        kept = {key: c for key, c in self._terms.items() if predicate(*key)}
        return FractionSeries(self.nvars, kept, self.meta)

    def with_term_added(self, exponent, logdeg, delta):
        return self + FractionSeries.monomial(exponent, logdeg, delta, self.meta)


def fraction_add_into(out, series, weight, logs):
    """Add ``weight * series * prod(log(lambda_b) for b in logs)`` into the dict ``out``."""
    for (exponent, logdeg), coeff in series.items():
        logdeg = tuple(d + logs.count(b) for b, d in enumerate(logdeg))
        out[(exponent, logdeg)] = out.get((exponent, logdeg), 0) + weight * coeff


def fraction_combine(tails, terms):
    """``combine`` on ``FractionSeries`` tails: each position split of each weighted multiset."""
    out = {}
    for weight, logs in terms:
        for tail, factors in position_splits(logs) if weight else ():
            fraction_add_into(out, tails[tail], weight, factors)
    return FractionSeries(tails[()].nvars, out, tails[()].meta)


def fraction_to_text(series):
    """``to_text`` of a ``FractionSeries``: ``str`` of each ``Fraction``, terms in sorted order."""
    return "".join(
        f"{coeff} * lambda^({','.join(map(str, exponent))}) * log^({','.join(map(str, logdeg))})\n"
        for exponent, logdeg, coeff in series.terms()
    )


def solution_terms(*points):
    """``combine`` terms of the order-``k`` solution of ``k`` lattice points ``l1, ..., lk``.

    The weight of the index tuple ``(a_1, ..., a_k)`` is ``prod_t l_t[a_t]``.
    """
    n = len(points[0])
    return [
        (prod(point[a] for point, a in zip(points, logs)), logs)
        for logs in itertools.product(range(n), repeat=len(points))
    ]


def tails_of(box, terms):
    """Every tail ``combine(tails, terms)`` reads, built from ``box``."""
    return build_tails(box, tails_read(terms))


def gauss_v(a, b):
    return (-F(a), -F(b), F(0), F(0))


def gauss_beta(a, b):
    return (-F(a), -F(b), F(0))


@pytest.fixture(scope="session")
def gauss_lattice():
    return kernel_basis(GAUSS_MATRIX)


@pytest.fixture(scope="session")
def pyramid_lattice():
    return kernel_basis(PYRAMID_MATRIX)


@pytest.fixture(scope="session")
def two_triangles_spec():
    return CISpec.from_lists(TWO_TRIANGLES_SETS)


@pytest.fixture(scope="session")
def quadrilateral_spec():
    return CISpec.from_lists(QUADRILATERAL_SETS)
