"""Exception types shared across the package."""

from __future__ import annotations


class GkzError(Exception):
    """Base class for all package-specific errors."""


class UndefinedBracket(GkzError):
    """A shifted product would invert a zero factor.

    Raised by ``log_free_coefficients`` when a log-free coordinate ``z``
    is a negative integer and its shift ``k >= -z``, so that one of the
    factors ``z + 1, ..., z + k`` of the bracket ``[z]_k`` vanishes.
    ``index`` identifies the offending coordinate (0-based), ``None``
    when there is none.
    """

    def __init__(self, z, k, index=None):
        self.z = z
        self.k = k
        self.index = index
        where = "" if index is None else f" at index {index}"
        super().__init__(f"bracket({z}, {k}) undefined{where}: a factor z+j is zero")


class MinimalityViolation(GkzError):
    """A lattice point fell outside the guaranteed support sets.

    Signals that a coefficient family was requested in its excluded case,
    which cannot happen when the base exponent vector passes the relevant
    minimality checks.  Usually means the caller skipped those checks.
    """


class ResourceLimit(GkzError):
    """An enumeration would exceed the term cap, or a number to write the integer-string limit."""


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
