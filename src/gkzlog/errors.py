"""Exception types shared across the package."""

from __future__ import annotations


class GkzError(Exception):
    """Base class for all package-specific errors."""


class UndefinedBracket(GkzError):
    """A shifted product would invert a zero factor.

    Raised by ``bracket(z, k)`` when ``z`` is a negative integer and
    ``k >= -z``, so that one of the factors ``z + 1, ..., z + k`` vanishes.
    ``index`` identifies the offending coordinate for vector inputs
    (0-based), ``None`` for scalar calls.
    """

    def __init__(self, z, k, index=None):
        self.z = z
        self.k = k
        self.index = index
        where = "" if index is None else f" at index {index}"
        super().__init__(f"bracket({z}, {k}) undefined{where}: a factor z+j is zero")


class PoleAtShift(GkzError):
    """Some shifted argument ``z + j`` is zero where a reciprocal is needed."""

    def __init__(self, z, shift):
        self.z = z
        self.shift = shift
        super().__init__(f"pole: z + {shift} = 0 for z = {z}")


class MinimalityViolation(GkzError):
    """A lattice point fell outside the guaranteed support sets.

    Signals that a coefficient family was requested in its excluded case,
    which cannot happen when the base exponent vector passes the relevant
    minimality checks.  Usually means the caller skipped those checks.
    """


class ResourceLimit(GkzError):
    """An enumeration would exceed the configured term cap."""


class DegenerateHull(GkzError):
    """The convex hull is not full-dimensional, so its interior is empty."""


class NoPositiveFunctional(GkzError):
    """No integer functional within the search bound is >= 1 on the support.

    Either the support does not lie in a pointed cone, or the search bound
    is too small.
    """


class NonLatticeExponent(GkzError):
    """A certified-region query involved an exponent off the base coset."""


class ProblemFileError(GkzError):
    """A problem file failed to parse or validate."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
