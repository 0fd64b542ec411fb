"""Dense exact linear algebra over the prime field F_p.

Matrices here come from power-residue characters and are at most a few
hundred rows/columns, so plain Gauss elimination on Python ints is exact
and fast enough.  rref is the one elimination: a rank is its pivot
count, and kernel_basis reads a kernel off it.  Rows are plain lists of
residues in [0, p); callers check p and label the rows and columns.
"""

from __future__ import annotations


def rref(p: int, rows: list[list[int]]) -> tuple[list[list[int]], tuple[int, ...]]:
    """Reduced row echelon form of rows of residues mod p, and the pivot columns (increasing)."""
    a = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i, row in enumerate(a):
            if i != r and row[c]:
                f = row[c]
                a[i] = [(x - f * y) % p for x, y in zip(row, a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, tuple(pivots)


def kernel_basis(p: int, rows: list[list[int]], cols: int) -> list[tuple[int, ...]]:
    """Echelonized basis of the right kernel, free variables set to 1 in column order.

    cols is the column count (rows may be empty); the basis has cols - rank vectors.
    """
    red, pivots = rref(p, rows)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [0] * cols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[f] % p
        basis.append(tuple(v))
    return basis
