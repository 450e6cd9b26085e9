"""Sparse logarithmic series and the constructive solution builders.

A series is a finite sum of terms

    coeff * lambda^(e1,...,eN) * log(lambda_1)^d1 * ... * log(lambda_N)^dN

with exact rational coefficients and exponents and nonnegative integer
log powers, held on integers from the tail builder to ``to_text``: with
``D`` a common multiple of the exponent denominators and ``Q`` the least
one of the coefficients, a term is keyed by ``(D * exponent, logdeg)``
as int tuples and holds ``Q * coeff`` as a nonzero int.  ``Fraction``s
appear only at the public boundary (``coefficient``, ``items``).

The tails of the classical solution series of a GKZ system at a base
exponent vector ``v`` are built from the support sets of one
:class:`~gkzlog.support.SupportBox` (``v``, lattice, radius), one per
sorted tuple of log indices, all of them in one ``build_tails(box,
keys)`` call:

    ()       log-free series F
    (i,)     the log-free partner G_i of F * log(lambda_i)
    (i, j)   the log-free partner H_ij of the second-order
             quasisolution (i = j for a repeated index)
    (a1, ..., ak)  sorted: the tail of the order-k quasisolution

and one rule, ``combine``, assembles every quasisolution and solution
from them: a multiset ``S`` of log indices stands for
``sum_{T in S} tail(T) * prod_{b in S \\ T} log(lambda_b)`` (``T`` over
the subsets of the positions of ``S``), and a solution is a weighted sum
of such terms.  ``tails_read`` names the tails a list of terms reads.  A
combination, like the series algebra, adds each weighted series into one
integer term dict (``_weighted_sum``) and builds one series at the end.  The
tails and the mirror map's tails share one coefficient rule,
``log_free_coefficients``: one call walks the derivative chain of each
distinct (coordinate, log power) once, for all the keys it is given, and
writes each key's coefficients as integer numerators over one
denominator, with no ``Fraction`` per point.  Each series carries the
``SupportBox`` that built it as its ``meta`` (base vector, lattice,
radius), from which the operator module computes certified regions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm, prod
from operator import add, mul

from .coefficients import chain_constants, f_coeffs
from .errors import MinimalityViolation, ProblemFileError, UndefinedBracket
from .rationals import ratio_text, rational_vector, to_int, to_rational
from .support import SupportBox


def _log_powers(logdeg) -> tuple[int, ...]:
    """``logdeg`` as a tuple of ints; a bool, float or str power is rejected, not truncated."""
    logdeg = tuple(logdeg)
    if all(type(d) is int for d in logdeg):
        return logdeg
    return tuple(int(to_int(d, "log power")) for d in logdeg)


def _merge_meta(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ValueError("series have incompatible truncation metadata")


def _integer_terms(nvars, items):
    """``(D, Q, integer terms)`` of checked ``((exponent, logdeg), coeff)`` pairs, summed."""
    checked = []
    for (exponent, logdeg), coeff in items:
        value = to_rational(coeff)
        if value:
            exponent, logdeg = rational_vector(exponent), _log_powers(logdeg)
            if len(exponent) != nvars or len(logdeg) != nvars:
                raise ValueError("term dimension != nvars")
            if any(d < 0 for d in logdeg):
                raise ValueError("negative log power")
            checked.append((exponent, logdeg, value))
    den = lcm(*(x.denominator for exponent, _, _ in checked for x in exponent))
    q = lcm(*(value.denominator for _, _, value in checked))
    terms = {}
    for exponent, logdeg, value in checked:
        key = (tuple(x.numerator * (den // x.denominator) for x in exponent), logdeg)
        terms[key] = terms.get(key, 0) + value.numerator * (q // value.denominator)
    return den, q, terms


class LogSeries:
    """Finite sparse log-series: integer ``_terms`` over ``exp_den`` (D) and ``coeff_den`` (Q)."""

    __slots__ = ("nvars", "meta", "exp_den", "coeff_den", "_terms")

    def __init__(self, nvars: int, terms=None, meta: SupportBox | None = None):
        self._store(nvars, *_integer_terms(nvars, (terms or {}).items()), meta)

    def _store(self, nvars, den, q, terms, meta) -> "LogSeries":
        g = gcd(q, *terms.values())
        self.nvars, self.exp_den, self.coeff_den, self.meta = nvars, den, q // g, meta
        self._terms = {key: num // g for key, num in terms.items() if num}
        return self

    @classmethod
    def _of(cls, nvars, den, q, terms, meta) -> "LogSeries":
        """The builders' trusted path: integer ``terms`` over ``den`` and ``q``, not validated."""
        return object.__new__(cls)._store(nvars, den, q, terms, meta)

    @classmethod
    def monomial(cls, exponent, logdeg=None, coeff=1, meta=None) -> "LogSeries":
        nvars = len(exponent)
        if logdeg is None:
            logdeg = (0,) * nvars
        return cls(nvars, {(tuple(exponent), tuple(logdeg)): coeff}, meta)

    def terms_over(self, den: int) -> dict:
        """``_terms`` keyed over the exponent scale ``den``, a multiple of ``self.exp_den``."""
        f, own = den // self.exp_den, self._terms
        return own if f == 1 else {(tuple(c * f for c in e), d): n for (e, d), n in own.items()}

    def items(self):
        """``((exponent, logdeg), coeff)`` pairs, ``Fraction``s, in canonical (sorted) order."""
        den, q = self.exp_den, self.coeff_den
        return [
            ((tuple(Fraction(c, den) for c in exponent), logdeg), Fraction(num, q))
            for (exponent, logdeg), num in sorted(self._terms.items())
        ]

    def coefficient(self, exponent, logdeg=None) -> Fraction:
        if logdeg is None:
            logdeg = (0,) * self.nvars
        exponent, logdeg = rational_vector(exponent), _log_powers(logdeg)
        if len(exponent) != self.nvars or len(logdeg) != self.nvars:
            raise ValueError("dimension mismatch")
        den = self.exp_den
        if any(den % x.denominator for x in exponent):
            return Fraction(0)
        key = (tuple(x.numerator * (den // x.denominator) for x in exponent), logdeg)
        return Fraction(self._terms.get(key, 0), self.coeff_den)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        den = lcm(self.exp_den, other.exp_den)
        same = self.nvars == other.nvars and self.coeff_den == other.coeff_den
        return same and self.terms_over(den) == other.terms_over(den)

    __hash__ = None

    def __repr__(self) -> str:
        return f"LogSeries(nvars={self.nvars}, terms={len(self._terms)})"

    def __add__(self, other: "LogSeries") -> "LogSeries":
        if self.nvars != other.nvars:
            raise ValueError("dimension mismatch")
        meta = _merge_meta(self.meta, other.meta)
        return _weighted_sum(self.nvars, [(self, 1, ()), (other, 1, ())], meta)

    def __neg__(self) -> "LogSeries":
        return self.scale(-1)

    def __sub__(self, other: "LogSeries") -> "LogSeries":
        return self + (-other)

    def scale(self, factor) -> "LogSeries":
        return _weighted_sum(self.nvars, [(self, factor, ())], self.meta)

    def mul_log_linear(self, ivec) -> "LogSeries":
        """Multiply by the linear log form ``sum_i ivec[i] * log(lambda_i)``."""
        if len(ivec) != self.nvars:
            raise ValueError("dimension mismatch")
        parts = [(self, weight, (i,)) for i, weight in enumerate(ivec)]
        return _weighted_sum(self.nvars, parts, self.meta)


def _weighted_sum(nvars, parts, meta) -> LogSeries:
    """Sum of ``weight * series * prod(log(lambda_b) for b in logs)`` over ``parts``.

    Keys go over the LCM of the exponent scales and numerators over one
    denominator, so a term costs one key step and one multiply-add.
    """
    parts = [(series, w, logs) for series, weight, logs in parts if (w := to_rational(weight))]
    den = lcm(*(series.exp_den for series, _, _ in parts))
    q = lcm(*(series.coeff_den * weight.denominator for series, weight, _ in parts))
    out = {}
    get = out.get
    for series, weight, logs in parts:
        factor = weight.numerator * (q // (series.coeff_den * weight.denominator))
        bump = [logs.count(b) for b in range(nvars)]
        for (exponent, logdeg), num in series.terms_over(den).items():
            key = (exponent, tuple(map(add, logdeg, bump)) if logs else logdeg)
            out[key] = get(key, 0) + factor * num
    return LogSeries._of(nvars, den, q, out, meta)


def log_free_coefficients(v, point_sets) -> dict:
    """``{logs: (q, numerators)}``: the log-free rule on each key's points, over one denominator.

    ``point_sets`` maps sorted tuples of log indices to lists of points.
    The coefficient of a point is the product over coordinates ``j`` of
    the constant term of ``f_coeffs(v[j], point[j], m_j)``, with log
    power ``m_j = logs.count(j)``; ``logs`` is ``()`` for F, ``(i,)`` for
    ``G_i``, ``(i, i)`` for ``H_ii``, ``(i, j)`` for ``H_ij`` and a sorted
    ``k``-tuple for a tail of order ``k``.  Each
    distinct ``(j, m_j)`` walks its derivative chain once, over the union
    of the ranges of ``point[j]`` in the keys that share it, into
    ``(num, den)`` int pairs.  A key's coefficients are the integer
    ``numerators`` over ``q``, the LCM of the products of the pairs'
    denominators, in point order; ``q`` need not be the least one.

    Keys are read in order, and a point past a chain's pole raises what
    the closed forms raise there: :class:`UndefinedBracket` when a
    log-free coordinate (``m_j = 0``) is undefined,
    :class:`MinimalityViolation` otherwise.
    """
    base = rational_vector(v)
    needed = {}  # (j, m): every point[j] of the keys with m_j = m
    for logs, points in point_sets.items():
        for j, column in enumerate(zip(*points)):
            needed.setdefault((j, logs.count(j)), []).extend(column)
    tables = {}  # (j, m): lo, the first undefined k, numerators, denominators
    for (j, m), column in needed.items():
        lo = min(column)
        pairs = chain_constants(f_coeffs(base[j], 0, m), base[j], lo, max(column))
        tables[j, m] = lo, lo + len(pairs), [n for n, _ in pairs], [d for _, d in pairs]
    out = {}
    for logs, points in point_sets.items():
        nums = dens = [1] * len(points)
        for j, column in enumerate(zip(*points)):
            lo, end, table_nums, table_dens = tables[j, logs.count(j)]
            if max(column) >= end:
                ends = [tables[i, logs.count(i)][1] for i in range(len(base))]
                point = next(p for p in points if any(k >= e for k, e in zip(p, ends)))
                m, i = min((logs.count(i), i) for i, k in enumerate(point) if k >= ends[i])
                if m == 0:
                    raise UndefinedBracket(base[i], point[i], index=i)
                raise MinimalityViolation(
                    f"f_coeffs({base[i]}, {point[i]}, {m}) has no product formula"
                )
            at = [k - lo for k in column]
            nums = list(map(mul, nums, map(table_nums.__getitem__, at)))
            dens = list(map(mul, dens, map(table_dens.__getitem__, at)))
        q = lcm(*dens)
        out[logs] = q, [n * (q // d) for n, d in zip(nums, dens)]
    return out


def build_tails(box: SupportBox, keys) -> dict:
    """Log-free tails for each sorted tuple of log indices in ``keys``, keyed by it.

    The tail of ``logs`` holds one term per point of the support set that
    excludes ``logs`` with a nonzero rule value (``log_free_coefficients``):
    ``()`` gives ``F``, whose coefficient at the base exponent is 1,
    ``(i,)`` the partner ``G_i`` of ``F * log(lambda_i)``, ``(i, j)``
    the second-order tail ``H_ij`` (``i = j`` for a repeated index), and
    a sorted ``k``-tuple the tail of order ``k``.  Every
    support set is enumerated before the first coefficient, and all of
    them share one set of chain tables.  Support points keep every
    log-free coordinate that is a negative integer negative, so only a
    log index can hit an undefined entry, and that raises
    :class:`MinimalityViolation`.
    """
    base = box.base
    den = lcm(*(x.denominator for x in base))
    shift = [x.numerator * (den // x.denominator) for x in base]
    point_sets = {logs: box.support_set(logs) for logs in keys}
    coefficients = log_free_coefficients(base, point_sets)
    zero_deg = (0,) * len(base)
    tails = {}
    for logs, points in point_sets.items():
        q, numerators = coefficients[logs]
        terms = {
            (tuple(map(add, shift, map(den.__mul__, point))), zero_deg): num
            for point, num in zip(points, numerators)
        }
        tails[logs] = LogSeries._of(len(base), den, q, terms, box)
    return tails


def _splits(logs):
    """``(tail key, log factors, count)`` for each sub-multiset of the multiset ``logs``.

    ``count = prod_b C(m_b, t_b)``, with ``m_b`` and ``t_b`` the multiplicities
    of ``b`` in ``logs`` and in the key, is how many subsets of the positions
    of ``logs`` give the key: ``prod_b (m_b + 1)`` splits, not ``2**len(logs)``.
    """
    counts = [(b, logs.count(b)) for b in sorted(set(logs))]
    for taken in product(*(range(m + 1) for _, m in counts)):
        tail = tuple(b for (b, _), t in zip(counts, taken) for _ in range(t))
        factors = tuple(b for (b, m), t in zip(counts, taken) for _ in range(m - t))
        yield tail, factors, prod(comb(m, t) for (_, m), t in zip(counts, taken))


def tails_read(terms) -> list[tuple[int, ...]]:
    """Keys of the tails ``combine(tails, terms)`` reads: F's ``()``, then by length and index."""
    keys = {()}
    keys.update(tail for weight, logs in terms if weight for tail, _, _ in _splits(logs))
    return sorted(keys, key=lambda key: (len(key), key))


def combine(tails, terms) -> LogSeries:
    """Sum over ``(w, S)`` in ``terms`` of ``w * sum_{T in S} tails[T] * log^(S \\ T)``.

    ``S`` is a multiset of log indices of any size ``k`` and ``T`` runs over
    the subsets of the positions of ``S``; ``log^(S \\ T)`` is ``prod_{b in
    S \\ T} log(lambda_b)``.  So ``[(1, (i,))]`` is ``F*log_i + G_i`` and
    ``[(1, (i, i))]`` is ``F*log_i^2 + 2*G_i*log_i + H_ii``.  ``tails``
    maps sorted index tuples to series; only the keys ``tails_read``
    names are read, and their dimension and metadata must agree with
    ``tails[()]``.  Terms with ``w = 0`` are skipped.
    """
    terms = [(weight, logs) for weight, logs in terms if weight]
    n = tails[()].nvars
    meta = None
    for key in tails_read(terms):
        if any(not 0 <= b < n for b in key) or tails[key].nvars != n:
            raise ValueError("dimension mismatch")
        meta = _merge_meta(meta, tails[key].meta)
    parts = [(tails[t], w * count, f) for w, logs in terms for t, f, count in _splits(logs)]
    return _weighted_sum(n, parts, meta)


_TERM = r"^\s*(?P<coeff>-?\d+(?:/\d+)?)\s*\*\s*lambda\^\((?P<exp>[^)]*)\)\s*\*\s*log\^\((?P<deg>[^)]*)\)\s*$"


def to_text(series: LogSeries) -> str:
    """Canonical text form: one term per line, exact rationals as ``p/q``, sorted by exponent."""
    den, q = series.exp_den, series.coeff_den
    exponents = {exponent for exponent, _ in series._terms}
    names = {c: ratio_text(c, den) for c in {c for exponent in exponents for c in exponent}}
    texts = {exponent: ",".join([names[c] for c in exponent]) for exponent in exponents}
    lines = [
        f"{ratio_text(num, q)} * lambda^({texts[exponent]}) * log^({','.join(map(str, logdeg))})"
        for (exponent, logdeg), num in sorted(series._terms.items())
    ]
    return "\n".join(lines) + "\n" if lines else ""


def from_text(text: str, nvars: int | None = None, meta=None) -> LogSeries:
    """Parse the canonical text form; blank lines and ``#`` comments ignored."""
    term = re.compile(_TERM)  # compiled on the first parse, then read from re's cache
    rows = []
    width = nvars
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = term.match(line)
        if not match:
            raise ValueError(f"line {lineno}: cannot parse series term {line!r}")
        try:
            exponent = rational_vector(match.group("exp").split(","))
            logdeg = tuple(int(d) for d in match.group("deg").split(","))
            coeff = to_rational(match.group("coeff"))
            if any(d < 0 for d in logdeg):
                raise ValueError("negative log power")
        except (ProblemFileError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if width is None:
            width = len(exponent)
        if len(exponent) != width or len(logdeg) != width:
            raise ValueError(f"line {lineno}: inconsistent dimension")
        rows.append(((exponent, logdeg), coeff))
    if width is None:
        raise ValueError("cannot infer dimension of an empty series; pass nvars")
    return LogSeries._of(width, *_integer_terms(width, rows), meta)
