"""Box and Euler operators on log-series, with certified vanishing checks.

``apply_box`` and ``apply_euler`` are exact symbolic applications of the
two operator families attached to a point configuration.  They read a
series' integer terms as they are: a key is ``D * exponent`` as an int
tuple with the log powers, a value a coefficient times ``Q`` as an int
(``LogSeries``).  ``_derive`` takes derivatives one variable step at a
time on these keys, each step multiplying the shared denominator by
``D``; ``apply_box`` subtracts the two sides over one denominator and
``differentiate`` is a one-step derivative.  Keys are rescaled only
when ``beta``'s or the base's denominators do not divide ``D``.
A truncated series cannot vanish identically under a box operator:
terms near the enumeration boundary lose their cancelling partners.  The
verifier therefore certifies a result term only when both of its
potential source exponents lie inside the ``SupportBox`` that built the
series (its ``meta``), by one integer lattice solve per term; certified
terms of a true solution must vanish exactly, and any survivor is
reported as a violation.  ``verify_box_operators`` checks a list of operators, such
as a lattice basis, against one series and derives each distinct side
(``l+`` or ``l-``) once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import NonLatticeExponent
from .lattice import IntMatrix
from .linalg import solve_echelon
from .logseries import LogSeries
from .rationals import to_int, to_rational
from .values import Value


class BoxOp(Value, derived=("plus", "minus")):
    """Box operator for a lattice relation; stores the split l = l+ - l-."""

    point: tuple[int, ...]
    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def __post_init__(self):
        point = tuple(to_int(x, "box operator entry") for x in self.point)
        self.__dict__.update(
            point=point,
            plus=tuple(max(x, 0) for x in point),
            minus=tuple(max(-x, 0) for x in point),
        )

    def __str__(self):
        return f"box{self.point}"


class EulerOp(Value):
    """Euler operator from one matrix row and the matching parameter entry."""

    row: tuple[int, ...]
    beta: Fraction

    def __str__(self):
        return f"euler{self.row}={self.beta}"


def _derive(terms: dict, orders, scale: int) -> dict:
    """``prod_j (d/dlambda_j)^orders[j]`` of an integer term dict, one derivative at a time.

    A step in ``lambda_j`` sends key entry ``c`` to ``c - scale``; the
    exponent branch multiplies the numerator by ``c`` and the log branch
    by ``d * scale``, so each step multiplies the shared denominator by
    ``scale``.  Returns ``terms`` itself when every order is 0.
    """
    for j, k in enumerate(orders):
        for _ in range(k):
            out = {}
            get = out.get
            for (exponent, logdeg), num in terms.items():
                c, d = exponent[j], logdeg[j]
                shifted = exponent[:j] + (c - scale,) + exponent[j + 1 :]
                if c:
                    key = (shifted, logdeg)
                    out[key] = get(key, 0) + num * c
                if d:
                    key = (shifted, logdeg[:j] + (d - 1,) + logdeg[j + 1 :])
                    out[key] = get(key, 0) + num * d * scale
            terms = out
    return terms


def differentiate(series: LogSeries, j: int) -> LogSeries:
    """Exact partial derivative with respect to ``lambda_j``."""
    if not 0 <= j < series.nvars:
        raise ValueError("variable index out of range")
    scale, orders = series.exp_den, [int(i == j) for i in range(series.nvars)]
    terms = _derive(series.terms_over(scale), orders, scale)
    return LogSeries._of(series.nvars, scale, series.coeff_den * scale, terms, series.meta)


def _apply_box(series: LogSeries, op: BoxOp, sides: dict) -> LogSeries:
    """``apply_box``, with the derivative of each side read from ``sides`` by its orders.

    A side missing from ``sides`` is derived and stored there, so the
    operators that share a side derive it once per series.
    """
    if len(op.point) != series.nvars:
        raise ValueError("dimension mismatch")
    scale, terms = series.exp_den, series.terms_over(series.exp_den)
    for orders in (op.plus, op.minus):
        if orders not in sides:
            sides[orders] = _derive(terms, orders, scale)
    steps_plus, steps_minus = sum(op.plus), sum(op.minus)
    steps = max(steps_plus, steps_minus)
    lift_plus, lift_minus = scale ** (steps - steps_plus), scale ** (steps - steps_minus)
    out = {key: num * lift_plus for key, num in sides[op.plus].items()}
    get = out.get
    for key, num in sides[op.minus].items():
        out[key] = get(key, 0) - num * lift_minus
    return LogSeries._of(series.nvars, scale, series.coeff_den * scale**steps, out, series.meta)


def apply_box(series: LogSeries, op: BoxOp) -> LogSeries:
    """Difference of the two iterated-derivative monomials of the operator.

    Both sides are derived from the integer terms of the series and
    brought over ``Q * D^max(k+, k-)`` for ``k+ = sum(l+)`` and
    ``k- = sum(l-)`` derivative steps before they are subtracted.
    """
    return _apply_box(series, op, {})


def apply_euler(series: LogSeries, op: EulerOp) -> LogSeries:
    """Apply ``sum_j a_j lambda_j d/dlambda_j - beta`` term by term.

    On the integer terms over ``D``, the LCM of the exponent scale and
    ``beta``'s denominator: a term keeps its key with numerator times
    ``sum a_j c_j - D * beta``, and each log branch adds ``a_j * d_j * D``
    times it one log power lower; the shared denominator is ``Q * D``.
    """
    if len(op.row) != series.nvars:
        raise ValueError("dimension mismatch")
    beta = to_rational(op.beta)
    scale = lcm(series.exp_den, beta.denominator)
    shift = beta.numerator * (scale // beta.denominator)
    out = {}
    get = out.get
    for (exponent, logdeg), num in series.terms_over(scale).items():
        key = (exponent, logdeg)
        out[key] = get(key, 0) + num * (sum(a * c for a, c in zip(op.row, exponent)) - shift)
        for j, a in enumerate(op.row):
            d = logdeg[j]
            if a and d:
                key = (exponent, logdeg[:j] + (d - 1,) + logdeg[j + 1 :])
                out[key] = get(key, 0) + num * a * d * scale
    return LogSeries._of(series.nvars, scale, series.coeff_den * scale, out, series.meta)


def _inside(coords, radius: int) -> bool:
    """Whether lattice coordinates are integral and of max-norm at most ``radius``."""
    return all(c.denominator == 1 and abs(c) <= radius for c in coords)


class CertifiedReport(Value):
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


def verify_box_operators(series: LogSeries, ops) -> list[CertifiedReport]:
    """Apply each box operator of ``ops`` and check that every certified term vanished.

    One report per operator, in order.  The derivatives of the series
    are taken once per distinct side (``l+`` or ``l-``) of the operators,
    in a dict local to the call: the sides of a lattice basis often
    repeat.

    A result term at exponent ``u`` is certified when both candidate
    sources ``u + l+`` and ``u + l-`` have integer lattice coordinates of
    max-norm at most the radius of the series' box.  Sources off the
    rational span of the lattice indicate caller misuse and raise
    :class:`NonLatticeExponent`; sources in the span with non-integer
    coordinates are boundary artifacts and are simply not certified.

    ``checked_term_count`` counts every residual term examined; the
    violations are the certified ones (uncertified residue is the
    expected truncation boundary).  A radius too small for an operator
    certifies no exponent, and its report then does not pass.
    """
    if series.meta is None:
        raise ValueError("series carries no truncation metadata")
    meta = series.meta
    lattice, radius = meta.lattice, meta.radius
    sides, reports = {}, []
    for op in ops:
        result = _apply_box(series, op, sides)
        # Over D, the LCM of the result's and the base's scales, u + l+ - base is
        # (u + D * (l+ - base)) / D; as u + l- = u + l+ - l, one solve per term.
        scale = lcm(result.exp_den, *(b.denominator for b in meta.base))
        shift = [int(scale * (s - b)) for s, b in zip(op.plus, meta.base)]
        step = lattice.coords_of(op.point)
        violations = []
        for (exponent, logdeg), num in sorted(result.terms_over(scale).items()):
            coords = solve_echelon(lattice.basis, [u + s for u, s in zip(exponent, shift)], scale)
            if coords is not None and not _inside(coords, radius):
                continue
            exponent = tuple(Fraction(c, scale) for c in exponent)
            if coords is None or step is None:
                # u + l+ is off the span, or l is and so u + l- is
                raise NonLatticeExponent(
                    f"exponent {exponent} is outside the rational span of the lattice"
                )
            if _inside([a - b for a, b in zip(coords, step)], radius):
                violations.append((exponent, logdeg, Fraction(num, result.coeff_den)))
        # With c the lattice coordinates of l, the box holds both sources for
        # prod_k max(0, 2R + 1 - |c_k|) exponents (0 if c is not integral).
        region = 0
        if step is not None and all(c.denominator == 1 for c in step):
            region = prod(max(0, 2 * radius + 1 - abs(int(c))) for c in step)
        reports.append(CertifiedReport(len(result), tuple(violations), region))
    return reports


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
        violations.extend((*key, coeff) for key, coeff in result.items())
    return CertifiedReport(checked, tuple(sorted(violations)))
