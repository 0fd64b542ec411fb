"""Dense exact linear algebra over the prime field F_p.

Matrices here come from power-residue characters and are at most a few
hundred rows/columns, so plain Gauss elimination on Python ints is exact
and fast enough.
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

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


def fp_matrix(p: int, data: list[list[int]], row_labels=(), col_labels=(), cols=None) -> FpMatrix:
    """An F_p matrix from its rows; pass cols when data may have no rows."""
    rows = len(data)
    if cols is None:
        cols = len(data[0]) if rows else 0
    if any(len(r) != cols for r in data):
        raise InputError("ragged matrix")
    entries = tuple(x % p for row in data for x in row)
    return FpMatrix(p, rows, cols, entries, tuple(row_labels), tuple(col_labels))


def rref(m: FpMatrix) -> tuple[FpMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column list (strictly increasing)."""
    p = m.p
    a = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if a[i][c] % p != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    entries = tuple(x for row in a for x in row)
    return FpMatrix(p, m.rows, m.cols, entries, m.row_labels, m.col_labels), tuple(pivots)


def rank(m: FpMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: FpMatrix) -> list[tuple[int, ...]]:
    """Echelonized basis of the right kernel, free variables set to 1 in column order."""
    p = m.p
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for r_idx, c in enumerate(pivots):
            v[c] = (-red.at(r_idx, f)) % p
        basis.append(tuple(v))
    return basis
