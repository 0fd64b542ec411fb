"""Prime classification, character matrix, Selmer sandwich."""

import itertools
import random
from math import prod
from fractions import Fraction

import pytest

from shabound.arith import is_prime
from shabound.descent import (
    S1,
    S2,
    SandwichResult,
    analyze_curve,
    character_matrix,
    classify_primes,
    factor_with_hints,
    m_rank,
    sandwich_from_sets,
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
    mat = character_matrix(5, (2, 3), (11, 31))
    assert mat.to_lists() == [[1, 3], [4, 1]]
    assert (mat.row_labels, mat.col_labels) == (("11", "31"), ("2", "3"))
    assert m_rank(5, (2, 3), (11, 31)) == 2


def test_character_matrix_rejects_bad_s2():
    with pytest.raises(InputError):
        character_matrix(5, (2,), (7,))
    # but the dual direction drops the trivial row
    mat = character_matrix(5, (2,), (7,), drop_trivial_rows=True)
    assert mat.rows == 0
    assert m_rank(5, (2,), (7,), drop_trivial_rows=True) == 0


def test_character_matrix_rejects_overlap_and_p():
    with pytest.raises(InputError):
        character_matrix(5, (11,), (11,))
    with pytest.raises(InputError):
        character_matrix(5, (5,), (11,))


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
    sw = analyze_curve(E11A3, P0, 5).sandwich_phi
    assert (sw.lower_dim, sw.upper_dim) == (0, 0)
    swd = sandwich_from_sets(5, (11,), ())
    assert (swd.lower_dim, swd.upper_dim) == (0, 2)


def test_sandwich_empty_sets():
    sw = sandwich_from_sets(5, (), ())
    assert (sw.lower_dim, sw.upper_dim) == (0, 1)  # upper support is {p} alone


def test_sandwich_lower_le_upper_random():
    rng = random.Random(47)
    primes = [ell for ell in range(2, 300) if is_prime(ell)]
    for p in (5, 7):
        ones = [ell for ell in primes if ell % p == 1]
        for _ in range(100):
            s1 = tuple(sorted(rng.sample([q for q in primes if q != p], rng.randrange(0, 4))))
            s2 = tuple(sorted(set(rng.sample(ones, rng.randrange(0, 4))) - set(s1)))
            sw = sandwich_from_sets(p, s1, s2)
            assert sw.lower_dim <= sw.upper_dim


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
    # the dual isogeny sees (v', v) where the isogeny saw (v, v'): S1 and S2 trade places
    for p in (5, 7):
        for v in range(61):
            for w in range(61):
                if (v, w) == (0, 0):
                    continue
                assert (valuation_ratio_set(p, v, w) == S1) == (valuation_ratio_set(p, w, v) == S2), (p, v, w)


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


def _oracle_sandwich(p, s1, s2):
    """Both sandwich groups from one character_eval per matrix entry and the FpMatrix elimination."""
    from conftest import fp_kernel_basis

    ells = [ell for ell in sorted(s2) if ell % p == 1]

    def kernel(support, extra_rows):
        rows = [[character_eval(residue_character(ell, p), q) for q in support] for ell in ells]
        return tuple(fp_kernel_basis(fplinalg.fp_matrix(p, rows + extra_rows, cols=len(support))))

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
    # FpMatrix oracle with one character_eval per entry) give: the 80
    # fibers of the default p = 5 scan, and p = 7 with |b| <= 60
    from conftest import fp_rref

    count = 0
    for p, height in ((5, 40), (7, 60)):
        bs = [s * b for b in range(1, height + 1) for s in (1, -1)]
        for b, an in _analyzed_fibers(p, bs):
            s1, s2 = an.classified.sets.s1, an.classified.sets.s2
            assert an.m_phi == m_rank(p, s1, s2), (p, b)
            assert an.m_phihat == m_rank(p, s2, s1, drop_trivial_rows=True), (p, b)
            assert an.sandwich_phi == sandwich_from_sets(p, s1, s2) == _oracle_sandwich(p, s1, s2), (p, b)
            assert an.sandwich_dual == sandwich_from_sets(p, s2, s1) == _oracle_sandwich(p, s2, s1), (p, b)
            assert an.m_phi == len(fp_rref(character_matrix(p, s1, s2))[1]), (p, b)
            assert an.m_phihat == len(fp_rref(character_matrix(p, s2, s1, True))[1]), (p, b)
            count += 1
    assert count > 150


def test_analyze_curve_builds_one_character_table_and_no_fpmatrix(monkeypatch):
    # p = 7, b = 30: S1 = (2, 3, 5, 29), S2 = (71, 281), and 29 = 1 mod 7.
    # The matrices and sandwiches of both directions read chi_ell(q) for
    # ell in S2 against S1 and 7, and for ell = 29 against S2 and 7: 13
    # character_evals, and the eliminations run on lists
    fib = fiber(tate_family(7), 30)
    pairs, built = [], [0]

    def counted_eval(chi, a):
        pairs.append((chi.ell, a))
        return character_eval(chi, a)

    def counted_post_init(self):
        built[0] += 1

    monkeypatch.setattr(descent, "character_eval", counted_eval)
    monkeypatch.setattr(fplinalg.FpMatrix, "__post_init__", counted_post_init)
    an = analyze_curve(fib.curve, fib.point, 7, fib.disc_factorization)
    monkeypatch.undo()
    sets = an.classified.sets
    assert (sets.s1, sets.s2) == ((2, 3, 5, 29), (71, 281))
    want = {(ell, q) for ell in sets.s2 for q in sets.s1 + (7,)}
    want |= {(29, q) for q in sets.s2 + (7,)}
    assert sorted(pairs) == sorted(want)
    assert built[0] == 0


def test_analyze_curve_rejects_a_composite_p_once():
    # a point of order 9 passes Velu; the character table rejects p = 9
    with pytest.raises(InputError, match="modulus 9 is not prime"):
        analyze_curve(invariants(-3, -12, -12, 0, 0), (0, 0), 9)
