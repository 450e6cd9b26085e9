"""Small exact linear-algebra kernel: HNF, integer kernels, echelon solves.

Everything operates on plain tuples/lists of Python ints or Fractions.
The integer Hermite normal form is the one elimination engine: ranks are
the number of its nonzero rows, integer kernels are the rows of its
transform that it sends to zero (``kernel_rows``), and coordinates in
its rows (or in any echelon rows) follow by forward substitution
(``solve_echelon``), so no second, fraction-valued elimination and no
determinant is needed.  The matrices in this package are tiny (at most
a dozen rows), so the quadratic gcd-reduction HNF is more than fast
enough, and everything is exact.
"""

from __future__ import annotations

from fractions import Fraction


def hnf_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of an integer matrix; zero rows dropped.

    Convention: pivots positive, entries above each pivot reduced into
    ``[0, pivot)``.  The nonzero rows are a canonical basis of the row
    lattice, which makes golden outputs stable.
    """
    hnf, _ = hnf_rows_with_transform(rows)
    return tuple(row for row in hnf if any(row))


def hnf_rows_with_transform(rows):
    """Row Hermite normal form ``H`` with its transform ``U``.

    Returns ``(H, U)`` with ``U`` unimodular and ``U @ M == H``; ``H``
    keeps the zero rows, which come last.  Conventions as in
    :func:`hnf_rows`.
    """
    mat = [list(map(int, r)) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    trans = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]

    def combine(r, r0, q):
        mat[r] = [a - q * b for a, b in zip(mat[r], mat[r0])]
        trans[r] = [a - q * b for a, b in zip(trans[r], trans[r0])]

    pr = 0
    for col in range(ncols):
        nz = [r for r in range(pr, nrows) if mat[r][col]]
        while len(nz) > 1:
            r0 = min(nz, key=lambda r: abs(mat[r][col]))
            for r in nz:
                if r != r0:
                    q = mat[r][col] // mat[r0][col]
                    if q:
                        combine(r, r0, q)
            nz = [r for r in range(pr, nrows) if mat[r][col]]
        if not nz:
            continue
        piv = nz[0]
        mat[pr], mat[piv] = mat[piv], mat[pr]
        trans[pr], trans[piv] = trans[piv], trans[pr]
        if mat[pr][col] < 0:
            mat[pr] = [-a for a in mat[pr]]
            trans[pr] = [-a for a in trans[pr]]
        p = mat[pr][col]
        for r in range(pr):
            q = mat[r][col] // p
            if q:
                combine(r, pr, q)
        pr += 1
    return (
        tuple(tuple(r) for r in mat),
        tuple(tuple(r) for r in trans),
    )


def kernel_rows(rows, width) -> tuple[tuple[int, ...], ...]:
    """Hermite basis of the integer kernel ``{x in Z^width : rows . x = 0}``.

    With ``H = U rows^T`` the Hermite form of the transpose, the rows of
    the unimodular ``U`` whose row of ``H`` vanishes span the whole
    kernel lattice (it is saturated), not a finite-index sublattice; the
    result is their :func:`hnf_rows`.  Empty ``rows`` give the unit basis.
    """
    transpose = [tuple(row[i] for row in rows) for i in range(width)]
    hnf, trans = hnf_rows_with_transform(transpose)
    return hnf_rows(u for h, u in zip(hnf, trans) if not any(h))


def solve_echelon(rows, vec, den: int = 1):
    """Exact coefficients ``y`` with ``sum(y[k] * rows[k]) == vec / den``, or ``None``.

    ``rows`` are nonzero and in echelon form, as :func:`hnf_rows` returns
    them: each row's pivot (its first nonzero entry) lies right of the
    pivot of the row before, so each pivot column is zero in every later
    row and the coefficients follow one by one by forward substitution,
    in ints while each pivot divides.  They are non-integral when ``vec /
    den`` lies in the rational span but off the row lattice; ``None``
    means it is off the span.  Empty ``rows`` give ``()`` for ``0``.
    """
    rest = list(vec)
    coeffs = []
    for row in rows:
        pivot = next(j for j, a in enumerate(row) if a)
        y, r = divmod(rest[pivot], row[pivot] * den)
        if r:
            y = Fraction(rest[pivot], row[pivot] * den)
        if y:
            rest = [b - y * den * a for a, b in zip(row, rest)]
        coeffs.append(y)
    return None if any(rest) else tuple(coeffs)


def solve_integer(basis_rows, target):
    """Integer solution ``c`` of ``B c = target`` for a saturated basis ``B``.

    ``B`` has full row rank ``r`` and its row lattice is saturated, so an
    integer solution exists for every integer ``target``.  Works through
    the HNF ``H = U B^T`` with its unimodular transform ``U``: the
    coefficients ``y`` of ``target`` in the rows of ``H`` come from
    :func:`solve_echelon`, and ``c = y U``.
    """
    ncols = len(basis_rows[0])
    transpose = [tuple(row[i] for row in basis_rows) for i in range(ncols)]
    hnf, trans = hnf_rows_with_transform(transpose)
    y = solve_echelon([row for row in hnf if any(row)], target)
    if y is None:
        raise ValueError("target not in the image of the basis")
    sol = []
    for i in range(ncols):
        val = sum(trans[k][i] * c for k, c in enumerate(y))
        if val.denominator != 1:
            raise ValueError("basis is not saturated: no integer solution")
        sol.append(int(val))
    return tuple(sol)
