"""Exact linear algebra over prime fields."""

import itertools
import random

import pytest
from conftest import fp_kernel_basis, fp_rref

from shabound.descent import character_rows
from shabound.errors import InputError
from shabound.fplinalg import kernel_basis, rref


def _in_kernel(p, rows, v) -> bool:
    return all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)


def _random_rows(rng, p, rows, cols):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def test_rank_fixture():
    assert len(rref(5, [[1, 3], [4, 1]])[1]) == 2  # det = -11 = 4 mod 5: rank 2


def test_kernel_normalization_fixture():
    # free variable set to 1 in column order
    assert kernel_basis(5, [[1, 2]], 2) == [(3, 1)]


def test_rref_idempotent_and_reduced():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([5, 7])
        rows = _random_rows(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))
        r1, piv = rref(p, rows)
        r2, piv2 = rref(p, r1)
        assert r1 == r2 and piv == piv2
        for i, j in enumerate(piv):
            col = [row[j] for row in r1]
            assert col[i] == 1 and sum(col) == 1  # pivot column is a unit vector


def test_rref_leaves_its_input_alone():
    rows = [[0, 2], [3, 1]]
    rref(5, rows)
    assert rows == [[0, 2], [3, 1]]


def test_kernel_vectors_are_in_kernel_and_independent():
    rng = random.Random(13)
    for _ in range(100):
        p = rng.choice([5, 7])
        cols = rng.randrange(1, 5)
        rows = _random_rows(rng, p, rng.randrange(1, 4), cols)
        basis = kernel_basis(p, rows, cols)
        assert len(basis) == cols - len(fp_rref(p, rows, cols)[1])
        for v in basis:
            assert _in_kernel(p, rows, v)


def test_kernel_size_brute_force_small():
    # kernel cardinality p^(cols - rank), enumerated exhaustively
    rng = random.Random(17)
    for _ in range(30):
        p = 5
        cols = rng.randrange(1, 4)
        rows = _random_rows(rng, p, rng.randrange(1, 3), cols)
        count = sum(1 for v in itertools.product(range(p), repeat=cols) if _in_kernel(p, rows, v))
        assert count == p ** (cols - len(fp_rref(p, rows, cols)[1]))


def test_list_elimination_matches_the_oracle():
    # seeded random matrices, with empty, zero and full-rank ones mixed in
    rng = random.Random(19)
    shapes = {"empty": 0, "zero": 0, "full": 0}
    for i in range(300):
        p = rng.choice([5, 7])
        n_rows, cols = rng.randrange(0, 6), rng.randrange(0, 6)
        rows = _random_rows(rng, p, n_rows, cols)
        if i % 5 == 0:
            rows = [[0] * cols for _ in range(n_rows)]
        if i % 7 == 0 and n_rows and cols:  # rank min(n_rows, cols): unit diagonal, random above it
            rows = [[rng.randrange(p) if j > r else int(j == r) for j in range(cols)] for r in range(n_rows)]
        red, pivots = rref(p, rows)
        want_red, want_pivots = fp_rref(p, rows, cols)
        assert (red, pivots) == (want_red, want_pivots), (p, rows)
        assert kernel_basis(p, rows, cols) == fp_kernel_basis(p, rows, cols), (p, rows)
        shapes["empty"] += n_rows == 0
        shapes["zero"] += n_rows > 0 and cols > 0 and not any(map(any, rows))
        shapes["full"] += n_rows > 0 and cols > 0 and len(pivots) == min(n_rows, cols)
    assert min(shapes.values()) >= 10, shapes


def test_composite_modulus_rejected():
    # the character rows are where a modulus from outside input is checked
    for p in (6, 9, 1, 2):
        with pytest.raises(InputError, match=f"modulus {p} is not an odd prime"):
            character_rows(p, (11,), ())


def test_empty_matrix():
    assert rref(5, []) == ([], ())
    assert kernel_basis(5, [], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert fp_kernel_basis(5, [], 3) == kernel_basis(5, [], 3)
