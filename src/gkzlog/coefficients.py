"""Exact coefficients of the derivative chain of ``t**z log(t)**m``.

The chain starts at ``t**z log(t)**m`` and each step is d/dt; its member
at index ``k`` factors as ``t**(z+k)`` times a polynomial ``f_k`` in the
log variable.  Consecutive members satisfy

    f_{k-1} = (z+k) f_k + d/dlog f_k,

and one walk on integers (``_walk``) follows that recurrence from the
seed ``f_0 = log**m``: down directly, and up by solving it for ``f_k``,
which divides by ``z+k`` and so stops before the first ``k > 0`` with
``z+k = 0``.  ``f_coeffs`` reads one member of the walk as a tuple of
``Fraction`` log-coefficients, and ``chain_constants`` tabulates the
constant terms of a whole range of members, as ``(num, den)`` pairs, at
O(m) work per member; the series builders and the mirror map use these
tables.  The paper's closed forms of the members (shifted products and
shifted symmetric sums) are the tests' oracle.  Every function is pure
and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import MinimalityViolation, ResourceLimit
from .rationals import to_rational

# The most chain members one ``chain_constants`` walk may visit.
MAX_CHAIN_MEMBERS = 4096


def _walk(top: list[int], den: int, z: Fraction, lo: int, hi: int):
    """Yield the chain members ``f_k`` for ``lo <= k <= hi`` in order, as ``(numerators, den)``.

    ``numerators[i] / den`` multiplies ``log**i``, with ``den > 0``; the
    seed ``f_0`` is ``top`` over ``den``.  The walk stops before the first
    ``k > 0`` with ``z+k = 0``: every member from there on is undefined.

    With ``z = p/q`` and ``s = p + k q``, a step down multiplies the
    denominator by ``q`` and a step up by ``s**width``; the common factor
    is divided out after each step up.
    """
    p, q = z.numerator, z.denominator
    width = len(top)
    if lo <= 0:
        poly, d = top, den
        down = [(poly, d)]  # down[n] is f_{-n}
        for k in range(0, lo, -1):
            shift = p + k * q
            poly = [
                shift * c + q * (i + 1) * poly[i + 1] if i + 1 < width else shift * c
                for i, c in enumerate(poly)
            ]
            d *= q
            down.append((poly, d))
        for k in range(lo, min(hi, 0) + 1):
            yield down[-k]
    poly, d = top, den
    for k in range(1, hi + 1):
        shift = p + k * q
        if shift == 0:
            return
        # f_k[i] = x_i / (d * shift**(width - i)), x solved from the top degree down
        x, solved = 0, [0] * width
        for i in range(width - 1, -1, -1):
            x = q * (poly[i] * shift ** (width - 1 - i) - (i + 1) * x)
            solved[i] = x * shift**i
        d *= shift**width
        g = gcd(d, *solved) if d > 0 else -gcd(d, *solved)
        poly, d = [c // g for c in solved], d // g
        if k >= lo:
            yield poly, d


def f_coeffs(z, k: int, m: int) -> tuple[Fraction, ...]:
    """Log-variable coefficients of the k-th member of the derivative chain.

    The chain starts at ``t**z log(t)**m`` and each step is d/dt; the
    member at index ``k`` factors as ``t**(z+k)`` times the polynomial
    returned here, whose entry ``d`` multiplies ``log**d``, with trailing
    zeros trimmed (the zero polynomial is the empty tuple).  ``m``, the
    log power, is any nonnegative integer.

    The case ``z`` a negative integer with ``k >= -z`` has no product
    formula; it is excluded by the minimality hypotheses of every caller,
    so requesting it raises :class:`MinimalityViolation`.
    """
    if m < 0:
        raise ValueError("log power must be nonnegative")
    z = to_rational(z)
    for poly, d in _walk([0] * m + [1], 1, z, k, k):
        while poly and not poly[-1]:
            poly = poly[:-1]
        return tuple(Fraction(c, d) for c in poly)
    raise MinimalityViolation(
        f"f_coeffs({z}, {k}, {m}) has no product formula (z negative integer, k >= -z)"
    )


def chain_constants(seed, z, lo: int, hi: int) -> list[tuple[int, int]]:
    """Constant terms of the chain members ``f_k`` for ``lo <= k <= hi``, as int pairs.

    Each constant is ``(num, den)`` in lowest terms with ``den > 0``.
    ``seed`` is the member ``f_0``, its log-coefficients as ``f_coeffs``
    returns them; for the chain of ``t**z log(t)**m`` it is ``f_coeffs(z,
    0, m)``.  The list ends early where the walk stops: every entry past
    its end is undefined, exactly where ``f_coeffs`` raises.

    The walk visits every member from ``f_0`` to each end of the range, so
    a range it would cross in more than ``MAX_CHAIN_MEMBERS`` members
    raises :class:`ResourceLimit` before the first step.
    """
    walked = max(hi, 0) - min(lo, 0) + 1
    if walked > MAX_CHAIN_MEMBERS:
        raise ResourceLimit(
            f"a derivative-chain walk over k = {lo}..{hi} visits {walked} members, "
            f"past the cap of {MAX_CHAIN_MEMBERS}"
        )
    den = lcm(*(c.denominator for c in seed))
    top = [c.numerator * (den // c.denominator) for c in seed]
    members = _walk(top, den, to_rational(z), lo, hi)
    return [(poly[0] // g, d // g) for poly, d in members for g in [gcd(poly[0], d)]]
