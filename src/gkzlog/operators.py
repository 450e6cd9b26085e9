"""Box and Euler operators on log-series, with certified vanishing checks.

``apply_box`` and ``apply_euler`` are exact symbolic applications of the
two operator families attached to a point configuration.  Both work on
plain ``{(exponent, logdeg): coeff}`` dicts and build one series at the
end: ``apply_box`` takes each side's derivatives one variable step at a
time and subtracts the second side in place, and ``differentiate`` is its
one-step case.  A truncated
series cannot vanish identically under a box operator: terms near the
enumeration boundary lose their cancelling partners.  The verifier
therefore certifies a result term only when both of its potential source
exponents lie inside the enumerated box recorded in the series metadata;
certified terms of a true solution must vanish exactly, and any survivor
is reported as a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NonLatticeExponent
from .lattice import IntMatrix
from .logseries import LogSeries
from .rationals import to_rational


@dataclass(frozen=True)
class BoxOp:
    """Box operator for a lattice relation; stores the split l = l+ - l-."""

    point: tuple[int, ...]
    plus: tuple[int, ...] = field(init=False)
    minus: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(int(x) for x in self.point))
        object.__setattr__(self, "plus", tuple(max(x, 0) for x in self.point))
        object.__setattr__(self, "minus", tuple(max(-x, 0) for x in self.point))

    def __str__(self):
        return f"box{self.point}"


@dataclass(frozen=True)
class EulerOp:
    """Euler operator from one matrix row and the matching parameter entry."""

    row: tuple[int, ...]
    beta: Fraction

    def __str__(self):
        return f"euler{self.row}={self.beta}"


def _derive(series: LogSeries, orders) -> dict:
    """Term dict of ``prod_j (d/dlambda_j)^orders[j] series``, one derivative at a time."""
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


def differentiate(series: LogSeries, j: int) -> LogSeries:
    """Exact partial derivative with respect to ``lambda_j``."""
    if not 0 <= j < series.nvars:
        raise ValueError("variable index out of range")
    orders = [int(i == j) for i in range(series.nvars)]
    return LogSeries(series.nvars, _derive(series, orders), series.meta)


def apply_box(series: LogSeries, op: BoxOp) -> LogSeries:
    """Difference of the two iterated-derivative monomials of the operator."""
    if len(op.point) != series.nvars:
        raise ValueError("dimension mismatch")
    out = _derive(series, op.plus)
    for key, coeff in _derive(series, op.minus).items():
        out[key] = out.get(key, 0) - coeff
    return LogSeries(series.nvars, out, series.meta)


def apply_euler(series: LogSeries, op: EulerOp) -> LogSeries:
    """Apply ``sum_j a_j lambda_j d/dlambda_j - beta`` term by term."""
    if len(op.row) != series.nvars:
        raise ValueError("dimension mismatch")
    beta = to_rational(op.beta)
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


@dataclass(frozen=True)
class CertifiedReport:
    """Result of a vanishing check.

    ``certified_region`` is, for a box check, the number of exponents
    whose two sources both lie in the box; ``None`` for an Euler check,
    which needs no truncation margin.  ``passed`` iff there are no
    violations and the certified region is not empty.
    """

    checked_term_count: int
    violations: tuple
    certified_region: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violations and self.certified_region != 0

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status}: {self.checked_term_count} terms checked, {len(self.violations)} violations"


def verify_box_annihilation(series: LogSeries, op: BoxOp) -> CertifiedReport:
    """Apply a box operator and check that every certified term vanished.

    A result term at exponent ``u`` is certified when both candidate
    sources ``u + l+`` and ``u + l-`` have integer lattice coordinates of
    max-norm at most the recorded radius.  Sources off the rational span
    of the lattice indicate caller misuse and raise
    :class:`NonLatticeExponent`; sources in the span with non-integer
    coordinates are boundary artifacts and are simply not certified.

    ``checked_term_count`` counts every residual term examined; the
    violations are the certified ones (uncertified residue is the
    expected truncation boundary).  A radius too small for the operator
    certifies no exponent, and the report then does not pass.
    """
    if series.meta is None:
        raise ValueError("series carries no truncation metadata")
    meta = series.meta
    lattice = meta.lattice
    result = apply_box(series, op)
    checked = 0
    violations = []
    for term in result.terms():
        checked += 1
        certified = True
        for shift in (op.plus, op.minus):
            delta = tuple(u + s - b for u, s, b in zip(term.exponent, shift, meta.base))
            coords = lattice.coords_of(delta)
            if coords is None:
                raise NonLatticeExponent(
                    f"exponent {term.exponent} is outside the rational span of the lattice"
                )
            if any(c.denominator != 1 for c in coords) or any(
                abs(c) > meta.radius for c in coords
            ):
                certified = False
                break
        if certified:
            violations.append((term.exponent, term.logdeg, term.coeff))
    # The two sources differ by l: with c its lattice coordinates, the box
    # holds both for prod_k max(0, 2R + 1 - |c_k|) exponents (0 if c is not integral).
    coords = lattice.coords_of(op.point)
    region = 0
    if coords is not None and all(c.denominator == 1 for c in coords):
        region = 1
        for c in coords:
            region *= max(0, 2 * meta.radius + 1 - abs(int(c)))
    return CertifiedReport(checked, tuple(violations), region)


def verify_euler_annihilation(series: LogSeries, matrix, beta) -> CertifiedReport:
    """Check that every Euler operator annihilates the series exactly.

    Euler operators do not shift exponents, so no truncation margin is
    needed and every result term is checked.
    """
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix.from_rows(matrix)
    if matrix.n_cols != series.nvars:
        raise ValueError("dimension mismatch")
    if len(beta) != matrix.n_rows:
        raise ValueError("parameter length != matrix rows")
    checked = len(series) * matrix.n_rows
    violations = []
    for row, beta_i in zip(matrix.rows, beta):
        result = apply_euler(series, EulerOp(row, to_rational(beta_i)))
        for term in result.terms():
            violations.append((term.exponent, term.logdeg, term.coeff))
    return CertifiedReport(checked, tuple(sorted(violations)))
