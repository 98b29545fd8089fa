"""Small exact linear algebra over a field (rationals or a prime field).

Matrices are lists of lists of field scalars.  Everything here is dense
Gaussian elimination; the problem sizes are tiny (coordinate changes).
Entries are combined with Python's operators and tested for zero by
truthiness; each updated entry is put back into the field with
`field.coerce` (a no-op on Fractions over Q, mod q over F_q).
`invert` reads the inverse off `rref([M | I])`.  `solve_affine` has no
caller in the package: the oracle eliminates on plain ints mod q, and the
tests check its `_echelon` and `_solve` against `rref` and `solve_affine`.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    pass


def identity(n, field):
    one, zero = field.one, field.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def invert(matrix, field):
    """Inverse of a square matrix; raises SingularMatrixError otherwise.

    The right half of rref([M | I]): M is invertible exactly when all n
    pivots fall in its own columns.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    rows, pivots = rref([list(row) + e for row, e in zip(matrix, identity(n, field))], field)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in rows]


def rref(matrix, field):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Zero rows are dropped, pivots are monic and cleared above and below.
    """
    coerce = field.coerce
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.invert(rows[rank][col])
        rows[rank] = [coerce(inv * a) for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [coerce(a - factor * b) for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def solve_affine(matrix, rhs, field):
    """Solve A x = b; returns (particular, nullspace_basis) or None if inconsistent."""
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(augmented, field)
    if ncols in pivots:
        return None
    particular = [field.zero] * ncols
    for row, col in zip(rows, pivots):
        particular[col] = row[-1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
        for row, col in zip(rows, pivots):
            vec[col] = field.coerce(-row[f])
        basis.append(vec)
    return particular, basis
