"""Dense exact linear algebra over the prime field F_p.

Matrices here come from power-residue characters and are at most a few
hundred rows/columns, so plain Gauss elimination on Python ints is exact
and fast enough.  The elimination runs on lists of rows whose entries
are residues in [0, p); FpMatrix is the labelled matrix of the CLI,
checked once where it is built from outside input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import is_prime
from .errors import InputError


@dataclass(frozen=True)
class FpMatrix:
    p: int
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major, residues in [0, p)
    row_labels: tuple[str, ...] = field(default=())
    col_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not is_prime(self.p):
            raise InputError(f"modulus {self.p} is not prime")
        if len(self.entries) != self.rows * self.cols:
            raise InputError("entry count does not match shape")
        if any(not (0 <= e < self.p) for e in self.entries):
            raise InputError("entries must be reduced residues mod p")

    def to_lists(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]


def fp_matrix(p: int, data: list[list[int]], row_labels=(), col_labels=(), cols=None) -> FpMatrix:
    """An F_p matrix from its rows; pass cols when data may have no rows."""
    rows = len(data)
    if cols is None:
        cols = len(data[0]) if rows else 0
    if any(len(r) != cols for r in data):
        raise InputError("ragged matrix")
    entries = tuple(x % p for row in data for x in row)
    return FpMatrix(p, rows, cols, entries, tuple(row_labels), tuple(col_labels))


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


def rank(p: int, rows: list[list[int]]) -> int:
    return len(rref(p, rows)[1])


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
