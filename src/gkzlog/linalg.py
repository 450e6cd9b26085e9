"""Small exact linear-algebra kernel: HNF, determinants, rational solves.

Everything operates on plain tuples/lists of Python ints or Fractions.
The matrices in this package are tiny (at most a dozen rows), so the
quadratic gcd-reduction HNF and fraction Gaussian elimination are more
than fast enough, and they are exact.
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
        while True:
            nz = [r for r in range(pr, nrows) if mat[r][col]]
            if len(nz) <= 1:
                break
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


def det_int(rows) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, n):
                if mat[r][k]:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def cofactor_vector(rows) -> tuple[int, ...]:
    """Integer vector orthogonal to the ``n-1`` given rows of length ``n``.

    Component ``j`` is ``(-1)**j`` times the minor obtained by deleting
    column ``j``.  The zero vector means the rows do not span a hyperplane.
    """
    rows = [tuple(map(int, r)) for r in rows]
    n = len(rows) + 1
    out = []
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows]
        out.append((-1) ** j * det_int(minor))
    return tuple(out)


def _reduce(mat, ncols) -> list[int]:
    """Gauss-Jordan elimination of the first ``ncols`` columns, in place.

    ``mat`` is a list of Fraction rows, possibly wider than ``ncols``.
    Returns the pivot columns; pivot row ``r`` has a 1 in column
    ``pivots[r]`` and that column is zero in every other row.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [a * inv for a in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
    return pivots


def rank_rational(rows) -> int:
    """Rank over the rationals."""
    mat = [[Fraction(x) for x in r] for r in rows]
    return len(_reduce(mat, len(mat[0]))) if mat else 0


def solve_rational(rows, rhs):
    """Solve ``A x = b`` exactly for a matrix with full column rank.

    Returns the unique solution as a tuple of Fractions, or ``None`` when
    the system is inconsistent.  Raises if the columns are dependent
    (callers here always pass bases).
    """
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = _reduce(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix does not have full column rank")
    if any(row[n] for row in aug[n:]):
        return None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = aug[r][n]
    return tuple(sol)


def solve_integer(basis_rows, target):
    """Integer solution ``c`` of ``B c = target`` for a saturated basis ``B``.

    ``B`` has full row rank ``r`` and its row lattice is saturated, so an
    integer solution exists for every integer ``target``.  Works through
    the HNF of ``B^T`` with its unimodular transform.
    """
    r = len(basis_rows)
    ncols = len(basis_rows[0])
    transpose = [tuple(row[i] for row in basis_rows) for i in range(ncols)]
    hnf, trans = hnf_rows_with_transform(transpose)
    y = [Fraction(0)] * ncols
    rhs = [Fraction(t) for t in target]
    for k in range(r):
        row = hnf[k]
        pivot_col = next(j for j in range(r) if row[j])
        y[k] = rhs[pivot_col] / row[pivot_col]
        rhs = [b - y[k] * a for a, b in zip(row, rhs)]
    if any(rhs):
        raise ValueError("target not in the image of the basis")
    sol = []
    for i in range(ncols):
        val = sum(trans[k][i] * y[k] for k in range(r))
        if val.denominator != 1:
            raise ValueError("basis is not saturated: no integer solution")
        sol.append(int(val))
    return tuple(sol)
