"""Exact scalar kernels for logarithmic series coefficients.

The central object is the shifted product

    bracket(z, 0)  = 1
    bracket(z, k)  = 1 / ((z+1)(z+2)...(z+k))      for k > 0
    bracket(z, k)  = z(z-1)...(z+k+1)              for k < 0

together with two families of symmetric sums at shifted arguments:

    elem_sym_shifted(i, j, z)   elementary symmetric of degree j
                                in (z, z-1, ..., z-i+1)
    mono_sum_shifted(k, i, z)   complete sum of degree-i monomials
                                in (1/(z+1), ..., 1/(z+k))

From these, ``f_coeffs(z, k, m)`` assembles in closed form the
coefficient polynomial (in the log variable) of the k-th member of the
derivative chain that starts at ``t**z * log(t)**m``.  Consecutive
members satisfy ``f_{k-1} = (z+k) f_k + d/dlog f_k``, and
``chain_constants`` walks that recurrence from ``f_0`` on integers to
tabulate the constant terms of a whole range of members, as ``(num,
den)`` pairs, at O(m) work per member; the series builders use these
tables, and the closed forms remain as their oracle.  Every function is
pure and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import MinimalityViolation, PoleAtShift, UndefinedBracket
from .rationals import is_negative_integer, to_rational
from .values import Value

MAX_LOG_POWER = 2


def bracket(z, k: int) -> Fraction:
    """The shifted product ``[z]_k`` above.

    Undefined exactly when ``z`` is a negative integer and ``k >= -z``
    (a zero factor would be inverted); raises :class:`UndefinedBracket`.
    """
    z = to_rational(z)
    if k == 0:
        return Fraction(1)
    if k > 0:
        if is_negative_integer(z) and k >= -z:
            raise UndefinedBracket(z, k)
        denom = Fraction(1)
        for j in range(1, k + 1):
            denom *= z + j
        return 1 / denom
    prod = Fraction(1)
    for j in range(-k):
        prod *= z - j
    return prod


def bracket_vec(zs, ks) -> Fraction:
    """Product of coordinate-wise brackets for equal-length vectors."""
    if len(zs) != len(ks):
        raise ValueError("vector lengths differ")
    total = Fraction(1)
    for index, (z, k) in enumerate(zip(zs, ks)):
        try:
            total *= bracket(z, int(k))
        except UndefinedBracket as exc:
            raise UndefinedBracket(exc.z, exc.k, index=index) from None
    return total


def elem_sym_shifted(i: int, j: int, z) -> Fraction:
    """Elementary symmetric sum of degree ``j`` in ``z, z-1, ..., z-i+1``."""
    if i < 1:
        raise ValueError("i must be positive")
    if not 0 <= j <= i:
        raise ValueError("need 0 <= j <= i")
    z = to_rational(z)
    acc = [Fraction(1)] + [Fraction(0)] * j
    for t in range(i):
        x = z - t
        for d in range(min(t + 1, j), 0, -1):
            acc[d] += x * acc[d - 1]
    return acc[j]


def mono_sum_shifted(k: int, i: int, z) -> Fraction:
    """Sum of all degree-``i`` monomials in ``1/(z+1), ..., 1/(z+k)``.

    Raises :class:`PoleAtShift` when some ``z + j`` vanishes.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if i < 0:
        raise ValueError("i must be nonnegative")
    z = to_rational(z)
    acc = [Fraction(1)] + [Fraction(0)] * i
    for j in range(1, k + 1):
        if z + j == 0:
            raise PoleAtShift(z, j)
        x = 1 / (z + j)
        for d in range(1, i + 1):
            acc[d] += x * acc[d - 1]
    return acc[i]


class UniLogPoly(Value):
    """Polynomial in a single log variable; ``coeffs[d]`` multiplies ``log**d``."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, coeffs) -> "UniLogPoly":
        vals = [to_rational(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        return cls(tuple(vals))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, d: int) -> Fraction:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else Fraction(0)

    @property
    def constant(self) -> Fraction:
        return self.coefficient(0)

    def scaled(self, factor) -> "UniLogPoly":
        f = to_rational(factor)
        return UniLogPoly.of(c * f for c in self.coeffs)

    def plus(self, other: "UniLogPoly") -> "UniLogPoly":
        long, short = (self.coeffs, other.coeffs)
        if len(long) < len(short):
            long, short = short, long
        merged = list(long)
        for d, c in enumerate(short):
            merged[d] += c
        return UniLogPoly.of(merged)

    def dlog(self) -> "UniLogPoly":
        """Derivative with respect to the log variable."""
        return UniLogPoly.of(d * c for d, c in enumerate(self.coeffs) if d > 0)


def f_coeffs(z, k: int, m: int) -> UniLogPoly:
    """Log-variable coefficients of the k-th member of the derivative chain.

    The chain starts at ``t**z log(t)**m`` and each step is d/dt; the
    member at index ``k`` factors as ``t**(z+k)`` times the polynomial
    returned here.  ``m`` is capped at 2.

    The case ``z`` a negative integer with ``k >= -z`` has no product
    formula; it is excluded by the minimality hypotheses of every caller,
    so requesting it raises :class:`MinimalityViolation`.
    """
    if not 0 <= m <= MAX_LOG_POWER:
        raise ValueError(f"log power must be in 0..{MAX_LOG_POWER}")
    z = to_rational(z)
    if k > 0 and is_negative_integer(z) and k >= -z:
        raise MinimalityViolation(
            f"f_coeffs({z}, {k}, {m}) has no product formula (z negative integer, k >= -z)"
        )
    if k == 0:
        return UniLogPoly.of([Fraction(0)] * m + [Fraction(1)])
    coeffs = [Fraction(0)] * (m + 1)
    falling = Fraction(1)
    if k < 0:
        for i in range(min(-k, m) + 1):
            coeffs[m - i] = falling * elem_sym_shifted(-k, -k - i, z)
            falling *= m - i
    else:
        b = bracket(z, k)
        for i in range(m + 1):
            coeffs[m - i] = (-1) ** i * falling * b * mono_sum_shifted(k, i, z)
            falling *= m - i
    return UniLogPoly.of(coeffs)


def chain_constants(seed: UniLogPoly, z, lo: int, hi: int) -> list[tuple[int, int]]:
    """Constant terms of the chain members ``f_k`` for ``lo <= k <= hi``, as int pairs.

    Each constant is ``(num, den)`` in lowest terms with ``den > 0``.
    ``seed`` is the member ``f_0``; for the chain of ``t**z log(t)**m`` it
    is ``f_coeffs(z, 0, m)``.  Walking down applies the recurrence
    ``f_{k-1} = (z+k) f_k + d/dlog f_k`` directly.  Walking up solves it
    for ``f_k`` one log degree at a time, from the top degree down, which
    divides by ``z+k``; the walk stops before the first ``k > 0`` with
    ``z+k = 0``.  The list then ends early: every entry past its end is
    undefined, exactly where ``f_coeffs`` raises.

    A member is held as integer numerators over one denominator: with
    ``z = p/q`` and ``s = p + k q``, a step down multiplies the
    denominator by ``q`` and a step up by ``s**width``, and the common
    factor is divided out after each step up.
    """
    z = to_rational(z)
    p, q = z.numerator, z.denominator
    den = lcm(*(c.denominator for c in seed.coeffs))
    top = [c.numerator * (den // c.denominator) for c in seed.coeffs]
    width = len(top)
    out = []
    if lo <= 0:
        poly, d = top, den
        down = [(poly[0], d)]  # down[n] is the constant term of f_{-n}
        for k in range(0, lo, -1):
            shift = p + k * q
            poly = [
                shift * c + q * (i + 1) * poly[i + 1] if i + 1 < width else shift * c
                for i, c in enumerate(poly)
            ]
            d *= q
            down.append((poly[0], d))
        out = [down[-k] for k in range(lo, min(hi, 0) + 1)]
    poly, d = top, den
    for k in range(1, hi + 1):
        shift = p + k * q
        if shift == 0:
            break
        # f_k[i] = x_i / (d * shift**(width - i)), x solved from the top degree down
        x, solved = 0, [0] * width
        for i in range(width - 1, -1, -1):
            x = q * (poly[i] * shift ** (width - 1 - i) - (i + 1) * x)
            solved[i] = x * shift**i
        d *= shift**width
        g = gcd(d, *solved) if d > 0 else -gcd(d, *solved)
        poly, d = [c // g for c in solved], d // g
        if k >= lo:
            out.append((poly[0], d))
    return [(n // g, d // g) for n, d in out for g in [gcd(n, d)]]
