"""Prime classification, character matrix, Selmer sandwich."""

import itertools
import random
from collections import Counter
from math import prod
from fractions import Fraction

import pytest

from shabound.arith import is_prime
from shabound.descent import (
    S1,
    S2,
    SandwichResult,
    analyze_curve,
    character_rows,
    classify_primes,
    factor_with_hints,
    m_rank,
    sandwich_from_sets,
    selmer_dims,
    valuation_ratio_set,
)
from shabound import descent, fplinalg
from shabound.arith import character_eval, residue_character
from shabound.elliptic import invariants
from shabound.errors import DegenerateFiber, IncompleteFactorization, InputError
from shabound.search import fiber, tate_family

Q = Fraction

E11A3 = invariants(0, -1, 1, 0, 0)
P0 = (Q(0), Q(0))


def test_classify_11a_fixture():
    cls = classify_primes(E11A3, P0, 5)
    assert cls.sets.s1 == ()
    assert cls.sets.s2 == (11,)
    assert cls.sets.s3 == (5,)
    assert cls.sets.excluded == ()
    assert cls.sets.evidence == ((11, "S2", "S2"),)


def test_classify_carries_nonminimal_input():
    from conftest import apply_transform
    from shabound.elliptic import Transformation, transform_point

    tr = Transformation(Q(1, 2), Q(0), Q(0), Q(0))
    big = apply_transform(E11A3, tr)
    cls = classify_primes(big, transform_point(P0, tr), 5)
    assert cls.sets.s2 == (11,)
    assert cls.curve.disc == -11


def test_character_matrix_fixture():
    assert character_rows(5, (2, 3), (11, 31)) == ([11, 31], [[1, 3], [1, 4]])
    assert m_rank(5, (2, 3), (11, 31)) == 2


def test_character_matrix_rejects_bad_s2():
    for rows_of in (character_rows, m_rank):
        with pytest.raises(InputError, match="S2 prime 7 is not congruent to 1 mod 5"):
            rows_of(5, (2,), (7,))
    # the dual direction passes only its row primes that are 1 mod p
    assert character_rows(5, (2,), ()) == ([], [])
    assert m_rank(5, (2,), ()) == 0


def test_character_matrix_rejects_overlap_and_p():
    with pytest.raises(InputError, match="overlap"):
        character_rows(5, (11,), (11,))
    with pytest.raises(InputError, match="may not appear"):
        character_rows(5, (5,), (11,))


def test_m_rank_bounded():
    rng = random.Random(31)
    primes = [ell for ell in range(2, 500) if is_prime(ell)]
    ones = {p: [ell for ell in primes if ell % p == 1] for p in (5, 7)}
    for _ in range(100):
        p = rng.choice([5, 7])
        s1 = tuple(sorted(rng.sample([q for q in primes if q != p], rng.randrange(0, 4))))
        s2 = tuple(sorted(set(rng.sample(ones[p], rng.randrange(0, 4))) - set(s1)))
        m = m_rank(p, s1, s2)
        assert 0 <= m <= min(len(s1), len(s2))


def test_sandwich_fixture_11a():
    an = analyze_curve(E11A3, P0, 5)
    assert (an.sandwich_phi, an.sandwich_dual) == ((0, 0), (0, 2))
    sw = sandwich_from_sets(5, (), (11,))
    assert (sw.lower_dim, sw.upper_dim) == (0, 0)
    swd = sandwich_from_sets(5, (11,), ())
    assert (swd.lower_dim, swd.upper_dim) == (0, 2)


def test_sandwich_empty_sets():
    sw = sandwich_from_sets(5, (), ())
    assert (sw.lower_dim, sw.upper_dim) == (0, 1)  # upper support is {p} alone


def test_sandwich_lower_le_upper_random():
    # and both ends equal the oracle's, bases included.  The second half
    # draws S1 with p below, inside and above it, and puts a prime that is
    # not 1 mod p in S2, whose row the sandwich drops
    rng = random.Random(47)
    primes = [ell for ell in range(2, 300) if is_prime(ell)]
    cases = []
    for p in (5, 7):
        ones = [ell for ell in primes if ell % p == 1]
        for _ in range(100):
            s1 = tuple(sorted(rng.sample([q for q in primes if q != p], rng.randrange(0, 4))))
            s2 = tuple(sorted(set(rng.sample(ones, rng.randrange(0, 4))) - set(s1)))
            cases.append((p, s1, s2))
    seen = Counter()
    for p in (5, 7, 11, 13):
        below, above = [q for q in primes if q < p], [q for q in primes if q > p]
        for i in range(60):
            s1 = rng.sample(below, rng.randrange(1, min(3, len(below)) + 1)) if i % 3 else []
            s1 += rng.sample(above, rng.randrange(1, 4)) if i % 3 < 2 else []
            others = [q for q in primes if q != p and q not in s1]
            s2 = rng.sample([q for q in others if q % p == 1], rng.randrange(0, 3))
            s2 += rng.sample([q for q in others if q % p != 1], 1)
            at = sorted({*s1, p}).index(p)
            seen["below" if at == 0 else "above" if at == len(s1) else "inside"] += 1
            cases.append((p, tuple(s1), tuple(s2)))
    assert seen == {"below": 80, "inside": 80, "above": 80}, seen
    for p, s1, s2 in cases:
        sw = sandwich_from_sets(p, s1, s2)
        assert sw.lower_dim <= sw.upper_dim
        assert sw == _oracle_sandwich(p, s1, s2), (p, s1, s2)  # bases included


def _kernel_count(p, rows, cols):
    """#{e in F_p^cols : rows . e = 0}: every vector's image is formed, the two
    halves of the columns apart, and the halves whose images cancel are counted."""

    def images(columns):
        out = [(0,) * len(rows)]
        for j in columns:
            steps = [tuple(e * row[j] % p for row in rows) for e in range(p)]
            out = [tuple([(v + w) % p for v, w in zip(image, step)]) for image in out for step in steps]
        return Counter(out)

    left, right = images(range(cols // 2)), images(range(cols // 2, cols))
    return sum(n * right[tuple(-v % p for v in image)] for image, n in left.items())


def test_selmer_dims_matches_rank_sandwich_and_kernel_counts():
    # one elimination per direction gives m, the rank of the character
    # matrix, and both sandwich dimensions.  Columns are drawn in random
    # order and may be 1 mod p or not; the rows are primes = 1 mod p.  For
    # |S| <= 4 both dimensions are checked against counted kernel vectors
    from conftest import fp_rref

    rng = random.Random(97)
    primes = [q for q in range(2, 1200) if is_prime(q)]
    cases = counted = 0
    seen = set()
    for p in (5, 7, 11, 13):
        ones = [q for q in primes if q % p == 1]
        for _ in range(2500):
            ells = rng.sample(ones, rng.randrange(0, 5))
            cols = rng.sample([q for q in primes if q != p and q not in ells], rng.randrange(0, 7))
            table = descent.character_table(p, cols, ells)
            m, lower, upper = selmer_dims(p, cols, ells, table)
            rows = [[table[ell][q] for q in cols] for ell in ells]
            assert m == len(fplinalg.rref(p, rows)[1]) == len(fp_rref(p, rows, len(cols))[1]), (p, cols, ells)
            sw = sandwich_from_sets(p, cols, ells)
            assert (lower, upper) == (sw.lower_dim, sw.upper_dim), (p, cols, ells)
            if len(cols) <= 4:
                unit = [((pow(q, p - 1, p * p) - 1) // p) % p for q in cols]
                full = [row + [table[ell][p]] for row, ell in zip(rows, ells)]
                assert p**upper == _kernel_count(p, full, len(cols) + 1), (p, cols, ells)
                assert p**lower == _kernel_count(p, rows + [unit], len(cols)), (p, cols, ells)
                counted += 1
            seen.add((bool(cols), bool(ells), any(q % p != 1 for q in cols), upper - lower))
            cases += 1
    assert cases == 10**4 and counted > 6000, (cases, counted)
    # empty S, empty L, columns that are not 1 mod p, and every bracket width
    assert {(False, True), (True, False)} <= {k[:2] for k in seen}
    assert {k[2] for k in seen} == {False, True} and {k[3] for k in seen} == {0, 1, 2}


def _is_local_pth_power(x: int, q: int, p: int) -> bool:
    """True iff the nonzero integer x is a p-th power in Q_q (p an odd prime).

    v_q(x) must be 0 mod p.  A q-adic unit u is then a p-th power iff
    u^(p-1) = 1 mod p^2 when q = p, iff u is a p-th power mod q when
    q = 1 mod p, and always otherwise (Z_q^* is p-divisible).
    """
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    if v % p:
        return False
    if q == p:
        return pow(x, p - 1, p * p) == 1
    if q % p == 1:
        return pow(x, (q - 1) // p, q) == 1
    return True


def _count_local_pth_powers(p, support, conditions):
    """#{e in F_p^support : prod q^e_q is a local p-th power at every prime of conditions}."""
    return sum(
        all(_is_local_pth_power(prod(q**e for q, e in zip(support, exps)), ell, p) for ell in conditions)
        for exps in itertools.product(range(p), repeat=len(support))
    )


def test_sandwich_counts_local_pth_powers():
    # both groups are defined by local conditions (Kloosterman-Schaefer,
    # J. Number Theory 99 (2003)): the upper group by p-th powers at every
    # prime of S2, the lower group also at p; each has p^dim elements.
    # S2 draws mostly primes = 1 mod p, and a few others, whose local
    # condition is empty
    rng = random.Random(71)
    primes = [ell for ell in range(2, 400) if is_prime(ell)]
    cases = 0
    for p in (5, 7):
        pool = [q for q in primes if q != p]
        s2_pool = [q for q in pool if q % p == 1 or q < 20]
        for _ in range(25):
            s1 = tuple(sorted(rng.sample(pool, rng.randrange(0, 4))))
            s2 = tuple(sorted(rng.sample([q for q in s2_pool if q not in s1], rng.randrange(0, 3))))
            sw = sandwich_from_sets(p, s1, s2)
            upper_support = tuple(sorted(s1 + (p,)))
            assert (sw.lower_support, sw.upper_support) == (s1, upper_support)
            assert _count_local_pth_powers(p, upper_support, s2) == p**sw.upper_dim, (p, s1, s2)
            assert _count_local_pth_powers(p, s1, s2 + (p,)) == p**sw.lower_dim, (p, s1, s2)
            cases += 1
    assert cases == 50


def test_valuation_ratio_set_swaps_with_its_arguments():
    # the dual isogeny sees (v', v) where the isogeny saw (v, v'): S1 and S2
    # trade places and None stays None.  This identity is why the scan's dual
    # check needs no per-prime loop once the round trip passes
    swapped = {S1: S2, S2: S1, None: None}
    seen = set()
    for p in (5, 7):
        for v in range(61):
            for w in range(61):
                if (v, w) == (0, 0):  # the one pair with both w = p v and v = p w
                    continue
                verdict = valuation_ratio_set(p, v, w)
                assert valuation_ratio_set(p, w, v) == swapped[verdict], (p, v, w)
                seen.add(verdict)
    assert seen == {S1, S2, None}


def test_classify_rejects_wrong_order():
    with pytest.raises(InputError):
        classify_primes(E11A3, (Q(1), Q(0)), 7)


def test_factor_with_hints_rejects_hints_below_2():
    # a hint of 1 used to strip itself from n forever, a hint of 0 raised ZeroDivisionError
    for hints in ((1,), (0,), (-3,), (2, 1), (0, 3)):
        with pytest.raises(InputError, match="hints must be primes"):
            factor_with_hints(12, hints)
    assert factor_with_hints(12, (2,)).factors == ((2, 2), (3, 1))
    assert factor_with_hints(-12, ()).factors == ((2, 2), (3, 1))
    # composite hints are documented as the caller's error and pass unchecked
    assert factor_with_hints(12, (4,)).factors == ((3, 1), (4, 1))


def test_bad_factorization_is_a_typed_error_with_and_without_asserts():
    # a factorization of -11 with the wrong prime used to pass under python -O
    # and fail later with "good reduction at 3: no singular point"
    import os
    import pathlib
    import subprocess
    import sys

    import shabound

    probe = (
        "from fractions import Fraction\n"
        "from shabound.arith import Factorization\n"
        "from shabound.descent import analyze_curve\n"
        "from shabound.elliptic import invariants\n"
        "from shabound.errors import InputError\n"
        "try:\n"
        "    analyze_curve(invariants(0, -1, 1, 0, 0), (Fraction(0), Fraction(0)), 5,\n"
        "                  Factorization(-11, -1, ((3, 1),)))\n"
        "except InputError as exc:\n"
        "    print('InputError:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(shabound.__file__).parent.parent))
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", probe], capture_output=True, text=True, env=env)
        assert out.returncode == 0, (flags, out.stderr)
        assert out.stdout.startswith("InputError:"), (flags, out.stdout)
        assert "does not multiply back" in out.stdout, (flags, out.stdout)


def _oracle_rows(p, cols, ells):
    """Character rows from one character_eval per matrix entry."""
    return [[character_eval(residue_character(ell, p), q) for q in cols] for ell in ells]


def _oracle_sandwich(p, s1, s2):
    """Both sandwich groups from _oracle_rows and the oracle elimination."""
    from conftest import fp_kernel_basis

    ells = [ell for ell in sorted(s2) if ell % p == 1]

    def kernel(support, extra_rows):
        rows = _oracle_rows(p, support, ells)
        return tuple(fp_kernel_basis(p, rows + extra_rows, len(support)))

    lower, upper = tuple(sorted(s1)), tuple(sorted(set(s1) | {p}))
    unit_row = [((pow(q, p - 1, p * p) - 1) // p) % p for q in lower]
    lower_basis, upper_basis = kernel(lower, [unit_row]), kernel(upper, [])
    return SandwichResult(p, len(lower_basis), len(upper_basis), lower, upper, lower_basis, upper_basis)


def _analyzed_fibers(p, bs):
    fam = tate_family(p)
    for b in bs:
        try:
            fib = fiber(fam, b)
        except (DegenerateFiber, IncompleteFactorization):
            continue
        yield b, analyze_curve(fib.curve, fib.point, p, fib.disc_factorization)


def test_analyze_curve_matches_standalone_matrix_and_sandwich_calls():
    # one character table per curve gives what the standalone calls (and an
    # oracle elimination with one character_eval per entry) give: the 80
    # fibers of the default p = 5 scan, and p = 7 with |b| <= 60.  m_phihat
    # takes as rows the S1 primes that are 1 mod p; on the fibers with an
    # S1 prime that is not, all of S1 as rows is rejected
    from conftest import fp_rref

    count = mixed = 0
    for p, height in ((5, 40), (7, 60)):
        bs = [s * b for b in range(1, height + 1) for s in (1, -1)]
        for b, an in _analyzed_fibers(p, bs):
            s1, s2 = an.classified.sets.s1, an.classified.sets.s2
            s1_rows = [q for q in s1 if q % p == 1]
            assert an.m_phi == m_rank(p, s1, s2), (p, b)
            assert an.m_phihat == m_rank(p, s2, s1_rows), (p, b)
            for dims, cols, others in ((an.sandwich_phi, s1, s2), (an.sandwich_dual, s2, s1)):
                sw, oracle = sandwich_from_sets(p, cols, others), _oracle_sandwich(p, cols, others)
                assert sw == oracle, (p, b)  # bases included
                assert dims == (sw.lower_dim, sw.upper_dim) == (oracle.lower_dim, oracle.upper_dim), (p, b)
            assert an.m_phi == len(fp_rref(p, _oracle_rows(p, s1, s2), len(s1))[1]), (p, b)
            assert an.m_phihat == len(fp_rref(p, _oracle_rows(p, s2, s1_rows), len(s2))[1]), (p, b)
            if len(s1_rows) < len(s1):
                with pytest.raises(InputError, match="is not congruent to 1 mod"):
                    m_rank(p, s2, s1)
                mixed += 1
            count += 1
    assert count > 150 and mixed > 100, (count, mixed)


def test_analyze_curve_builds_one_character_table(monkeypatch):
    # p = 7, b = 30: S1 = (2, 3, 5, 29), S2 = (71, 281), and 29 = 1 mod 7.
    # The matrices and sandwiches of both directions read chi_ell(q) for
    # ell in S2 against S1 and 7, and for ell = 29 against S2 and 7: 13
    # character_evals
    fib = fiber(tate_family(7), 30)
    pairs = []

    def counted_eval(chi, a):
        pairs.append((chi.ell, a))
        return character_eval(chi, a)

    monkeypatch.setattr(descent, "character_eval", counted_eval)
    an = analyze_curve(fib.curve, fib.point, 7, fib.disc_factorization)
    monkeypatch.undo()
    sets = an.classified.sets
    assert (sets.s1, sets.s2) == ((2, 3, 5, 29), (71, 281))
    want = {(ell, q) for ell in sets.s2 for q in sets.s1 + (7,)}
    want |= {(29, q) for q in sets.s2 + (7,)}
    assert sorted(pairs) == sorted(want)


def test_analyze_curve_rejects_a_composite_p_once():
    # a point of order 9 passes Velu; the character table rejects p = 9
    with pytest.raises(InputError, match="modulus 9 is not an odd prime"):
        analyze_curve(invariants(-3, -12, -12, 0, 0), (0, 0), 9)
