"""Plain ``Fraction`` oracles of the graded mirror-map arithmetic.

The package runs the quotient ``g / (1 + f)`` and the exponential on
packed grade lines (``gkzlog.ci_mirror._graded_recurrence``).  These
oracles compute the same series, and the product and logarithm that
invert them, on point-keyed ``Fraction`` slices, one point at a time.
"""

from fractions import Fraction


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
