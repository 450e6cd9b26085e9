"""Plain ``Fraction`` oracles of the package's exact arithmetic.

- The paper's closed forms of the derivative-chain coefficients: the
  shifted product ``[z]_k`` (``bracket``), shifted symmetric sums, and
  ``closed_form_f_coeffs`` assembled from them, with the arithmetic of
  log polynomials that states the chain recurrence.  A log polynomial is
  a tuple of ``Fraction``s, entry ``d`` multiplying ``log**d``, with
  trailing zeros trimmed (``trimmed``), as ``f_coeffs`` returns it.  The
  package walks that recurrence on integers instead
  (``gkzlog.coefficients``).
- The negative support of a vector, read off coordinate by coordinate
  (``nsupp``), and the mutation helpers of ``LogSeries``.
- The subsets of the positions of a multiset of log indices
  (``position_splits``), over which ``tests/conftest.py``'s
  ``fraction_combine`` combines tails.  The package enumerates the
  distinct sub-multisets once each, with their multiplicities
  (``gkzlog.logseries._splits``).
- The graded mirror-map arithmetic.  The package runs the quotient
  ``g / (1 + f)`` and the exponential on packed grade lines
  (``gkzlog.ci_mirror._graded_recurrence``).  These oracles compute the
  same series, and the product and logarithm that invert them, on
  point-keyed ``Fraction`` slices, one point at a time.
"""

from fractions import Fraction

from gkzlog import LogSeries, MinimalityViolation, UndefinedBracket


class PoleAtShift(ArithmeticError):
    """Some shifted argument ``z + j`` is zero where a reciprocal is needed."""

    def __init__(self, z, shift):
        self.z = z
        self.shift = shift
        super().__init__(f"pole: z + {shift} = 0 for z = {z}")


def _negative_integer(z) -> bool:
    return z.denominator == 1 and z < 0


def bracket(z, k: int) -> Fraction:
    """The shifted product ``[z]_k``.

        [z]_0 = 1
        [z]_k = 1 / ((z+1)(z+2)...(z+k))      for k > 0
        [z]_k = z(z-1)...(z+k+1)              for k < 0

    Undefined exactly when ``z`` is a negative integer and ``k >= -z``
    (a zero factor would be inverted); raises :class:`UndefinedBracket`.
    """
    z = Fraction(z)
    if k == 0:
        return Fraction(1)
    if k > 0:
        if _negative_integer(z) and k >= -z:
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
    z = Fraction(z)
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
    z = Fraction(z)
    acc = [Fraction(1)] + [Fraction(0)] * i
    for j in range(1, k + 1):
        if z + j == 0:
            raise PoleAtShift(z, j)
        x = 1 / (z + j)
        for d in range(1, i + 1):
            acc[d] += x * acc[d - 1]
    return acc[i]


def closed_form_f_coeffs(z, k: int, m: int) -> tuple[Fraction, ...]:
    """``f_coeffs(z, k, m)`` in closed form, from brackets and shifted symmetric sums.

    For ``k < 0`` the coefficient of ``log**(m-i)`` is ``m!/(m-i)!`` times
    the elementary symmetric sum of degree ``-k-i`` in ``z, ..., z+k+1``;
    for ``k > 0`` it is ``(-1)**i m!/(m-i)! [z]_k`` times the complete
    sum of degree ``i`` in ``1/(z+1), ..., 1/(z+k)``.  Raises
    :class:`MinimalityViolation`, as the package does, where ``z`` is a
    negative integer and ``k >= -z``.
    """
    if m < 0:
        raise ValueError("log power must be nonnegative")
    z = Fraction(z)
    if k > 0 and _negative_integer(z) and k >= -z:
        raise MinimalityViolation(
            f"f_coeffs({z}, {k}, {m}) has no product formula (z negative integer, k >= -z)"
        )
    if k == 0:
        return trimmed([0] * m + [1])
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
    return trimmed(coeffs)


def trimmed(coeffs) -> tuple[Fraction, ...]:
    """The log polynomial of ``coeffs``: ``Fraction``s, trailing zeros trimmed."""
    vals = [Fraction(c) for c in coeffs]
    while vals and vals[-1] == 0:
        vals.pop()
    return tuple(vals)


def scaled(poly, factor) -> tuple[Fraction, ...]:
    return trimmed(c * Fraction(factor) for c in poly)


def plus(a, b) -> tuple[Fraction, ...]:
    long, short = a, b
    if len(long) < len(short):
        long, short = short, long
    merged = list(long)
    for d, c in enumerate(short):
        merged[d] += c
    return trimmed(merged)


def dlog(poly) -> tuple[Fraction, ...]:
    """Derivative with respect to the log variable."""
    return trimmed(d * c for d, c in enumerate(poly) if d > 0)


def nsupp(vector, excluded=()) -> frozenset[int]:
    """Indices (outside ``excluded``) where ``vector`` is a negative integer."""
    if any(not 0 <= i < len(vector) for i in excluded):
        raise ValueError("excluded index out of range")
    return frozenset(
        k
        for k, x in enumerate(vector)
        if k not in excluded and _negative_integer(Fraction(x))
    )


def filter_terms(series: LogSeries, predicate) -> LogSeries:
    """Copy of ``series`` with the terms where ``predicate(exponent, logdeg)`` holds."""
    kept = {key: coeff for key, coeff in series.items() if predicate(*key)}
    return LogSeries(series.nvars, kept, series.meta)


def with_term_added(series: LogSeries, exponent, logdeg, delta) -> LogSeries:
    """Copy of ``series`` with ``delta`` added to one coefficient (mutation testing)."""
    return series + LogSeries.monomial(exponent, logdeg, delta, series.meta)


def position_splits(logs):
    """``(tail key, log factors)`` for each subset of the positions of the multiset ``logs``."""
    logs = sorted(logs)
    for mask in range(1 << len(logs)):
        yield (
            tuple(b for k, b in enumerate(logs) if mask >> k & 1),
            tuple(b for k, b in enumerate(logs) if not mask >> k & 1),
        )


def grade_slices(mapping, grading):
    """Grade slices ``{grade: {point: coeff}}`` of a point-keyed series."""
    slices: dict[int, dict] = {}
    for point, coeff in mapping.items():
        slices.setdefault(sum(g * x for g, x in zip(grading, point)), {})[point] = coeff
    return slices


def slice_mul(a_slice, b_slice, out):
    """Add the product of two slices into ``out``."""
    for p1, c1 in a_slice.items():
        for p2, c2 in b_slice.items():
            key = tuple(x + y for x, y in zip(p1, p2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2


def graded_mul(a, b, grading, bound):
    """Product of two point-keyed series, truncated at the grade bound."""
    sa, sb = grade_slices(a, grading), grade_slices(b, grading)
    out: dict = {}
    for ga, a_slice in sa.items():
        for gb, b_slice in sb.items():
            if ga + gb <= bound:
                slice_mul(a_slice, b_slice, out)
    return {p: c for p, c in out.items() if c}


def graded_log(e, grading, bound, origin):
    """Logarithm of a series with constant term 1, up to the bound."""
    se = grade_slices(e, grading)
    if se.get(0) != {origin: Fraction(1)}:
        raise ValueError("series must have constant term exactly 1")
    log: dict[int, dict] = {}
    for d in range(1, bound + 1):
        acc = {p: c * d for p, c in se.get(d, {}).items()}
        for m in range(1, d):
            if m in log and (d - m) in se:
                scaled = {p: -c * m for p, c in log[m].items()}
                slice_mul(scaled, se[d - m], acc)
        layer = {p: c / d for p, c in acc.items() if c}
        if layer:
            log[d] = layer
    return {p: c for layer in log.values() for p, c in layer.items()}


def reference_quotient(g, f, grading, bound):
    """``g / (1 + f)`` up to the bound: ``r_d = g_d - sum_e f_e * r_(d-e)``."""
    sf, sg = grade_slices(f, grading), grade_slices(g, grading)
    minus_f = {e: {p: -c for p, c in layer.items()} for e, layer in sf.items()}
    quotient = {}
    for d in range(bound + 1):
        acc = dict(sg.get(d, {}))
        for e in range(1, d + 1):
            if e in minus_f and (d - e) in quotient:
                slice_mul(minus_f[e], quotient[d - e], acc)
        layer = {p: c for p, c in acc.items() if c}
        if layer:
            quotient[d] = layer
    return {p: c for layer in quotient.values() for p, c in layer.items()}


def reference_exp(h, grading, bound, origin):
    """``exp(h)`` up to the bound: ``d * E_d = sum_m m * h_m * E_(d-m)`` from 1 at ``origin``."""
    sh = grade_slices(h, grading)
    exp = {0: {origin: Fraction(1)}}
    for d in range(1, bound + 1):
        acc = {}
        for m in range(1, d + 1):
            if m in sh and (d - m) in exp:
                scaled = {p: c * m for p, c in sh[m].items()}
                slice_mul(scaled, exp[d - m], acc)
        layer = {p: c / d for p, c in acc.items() if c}
        if layer:
            exp[d] = layer
    return {p: c for layer in exp.values() for p, c in layer.items()}
