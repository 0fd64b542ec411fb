"""Exact linear algebra over prime fields."""

import itertools
import random

import pytest

from shabound import fplinalg
from shabound.errors import InputError
from shabound.fplinalg import fp_matrix, kernel_basis, rank, rref


def _in_kernel(m, v) -> bool:
    return all(sum(m.at(i, j) * v[j] for j in range(m.cols)) % m.p == 0 for i in range(m.rows))


def test_rank_fixture():
    m = fp_matrix(5, [[1, 3], [4, 1]])
    assert rank(m) == 2  # det = -11 = 4 mod 5


def test_kernel_normalization_fixture():
    # free variable set to 1 in column order
    m = fp_matrix(5, [[1, 2]])
    assert kernel_basis(m) == [(3, 1)]


def test_rref_idempotent_and_reduced():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([5, 7])
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = fp_matrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        r1, piv = rref(m)
        r2, piv2 = rref(r1)
        assert r1.entries == r2.entries and piv == piv2
        for i, j in enumerate(piv):
            col = [r1.at(k, j) for k in range(r1.rows)]
            assert col[i] == 1 and sum(col) == 1  # pivot column is a unit vector


def test_kernel_vectors_are_in_kernel_and_independent():
    rng = random.Random(13)
    for _ in range(100):
        p = rng.choice([5, 7])
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 5)
        m = fp_matrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        basis = kernel_basis(m)
        assert len(basis) == cols - rank(m)
        for v in basis:
            assert _in_kernel(m, v)


def test_kernel_size_brute_force_small():
    # kernel cardinality p^(cols - rank), enumerated exhaustively
    rng = random.Random(17)
    for _ in range(30):
        p = 5
        rows = rng.randrange(1, 3)
        cols = rng.randrange(1, 4)
        m = fp_matrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        count = sum(
            1
            for v in itertools.product(range(p), repeat=cols)
            if _in_kernel(m, v)
        )
        assert count == p ** (cols - rank(m))


def test_composite_modulus_rejected():
    with pytest.raises(InputError):
        fp_matrix(6, [[1]])


def test_empty_matrix():
    m = fplinalg.FpMatrix(5, 0, 3, ())
    assert rank(m) == 0
    assert kernel_basis(m) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
