"""Exact rational helpers and the ``p/q`` wire format.

Every scalar in the package is a ``fractions.Fraction`` or, for matrix
entries, point coordinates and sizes, an ``int``; floats are rejected at
the boundary so no rounding or truncation can enter the computation.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .errors import ProblemFileError, ResourceLimit


def to_rational(value) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts ints, Fractions, and strings like ``"3"`` or ``"-7/12"``.
    Floats are rejected: they carry rounding error by construction.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ProblemFileError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFileError(f"bad rational literal {value!r}: {exc}") from None
    raise ProblemFileError(f"expected int or 'p/q' string, got {type(value).__name__}")


def to_int(value, what: str = "value", minimum: int | None = None) -> int:
    """Strict integer: rejects bool, float and str instead of truncating.

    ``minimum``, when given, is the smallest accepted value.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(f"{what}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ProblemFileError(f"{what} must be >= {minimum}, got {value}")
    return value


def rational_vector(values) -> tuple[Fraction, ...]:
    return tuple(to_rational(v) for v in values)


def ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))``, ``den > 0``, without building the Fraction.

    An integer past the interpreter's integer-string limit raises
    :class:`ResourceLimit`: its digits could not be read back.
    """
    g = gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceLimit(f"a rational has more than {limit} digits to write") from None
