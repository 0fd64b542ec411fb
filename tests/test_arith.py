"""Number-theoretic primitives: primality, factorization, characters, CRT."""

import random

import pytest
import sympy

from shabound.arith import (
    Factorization,
    Incomplete,
    ResidueCharacter,
    character_eval,
    crt_solve,
    factor,
    is_prime,
    jacobi,
    require_complete,
    residue_character,
    smallest_primitive_root,
    valuation,
)
from shabound.errors import IncompleteFactorization, InputError


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(0, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_vs_sympy_random():
    rng = random.Random(20260823)
    for _ in range(400):
        n = rng.randrange(2, 10**12)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_large_band_uses_bpsw():
    # beyond the proven Miller-Rabin limit but under the working cap
    p = sympy.nextprime(10**30)
    assert is_prime(p)
    assert not is_prime(p + 1)


# psi_k: the least odd composite that is a strong pseudoprime to the first k prime bases (OEIS A014233)
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def test_is_prime_at_each_psi_k():
    # each psi_k is composite and fools the first k bases; psi_12 fooled the
    # twelve bases 2..37 that is_prime used to trust up to psi_13
    for psi in PSI:
        for n in (psi, psi - 2, psi + 2):
            assert is_prime(n) == sympy.isprime(n), n
    assert not is_prime(318665857834031151167461)


def test_factor_splits_psi_12():
    fac = factor(318665857834031151167461)
    assert fac.complete
    assert fac.factors == ((399165290221, 1), (798330580441, 1))


def test_is_prime_rejects_out_of_range():
    with pytest.raises(InputError):
        is_prime(1 << 128)


def test_jacobi_vs_sympy():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(3, 10**6) | 1
        a = rng.randrange(0, 10**6)
        assert jacobi(a, n) == sympy.jacobi_symbol(a, n)


def test_factor_fixture():
    f = factor(-19008)
    assert f.sign == -1
    assert f.factors == ((2, 6), (3, 3), (11, 1))
    assert f.complete


def test_factor_random_reconstructs():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randrange(2, 10**14)
        f = require_complete(factor(n))
        prod = f.sign
        for q, e in f.factors:
            assert is_prime(q)
            prod *= q**e
        assert prod == n


def test_factor_incomplete_on_tiny_budget():
    # product of two 20-digit primes; rho with budget 1 cannot split it
    p = int(sympy.nextprime(10**19))
    q = int(sympy.nextprime(p + 10**9))
    f = factor(p * q, budget=1)
    assert isinstance(f, Incomplete)
    with pytest.raises(IncompleteFactorization):
        require_complete(f)


def test_factor_oversize_cofactor_is_incomplete():
    # the surviving cofactor exceeds the declared primality range: Incomplete, not an error
    p = int(sympy.nextprime(1 << 130))
    f = factor(3 * p, budget=10)
    assert not f.complete
    assert f.factors == ((3, 1),)
    assert f.cofactor == p


def test_factorization_validates():
    # public constructor arguments: typed errors, not asserts
    bad = (
        lambda: Factorization(12, 1, ((2, 1), (3, 1))),  # product mismatch
        lambda: Factorization(12, 1, ((3, 1), (2, 2))),  # not ascending
        lambda: Factorization(12, 1, ((2, 2), (3, 1), (5, 0))),  # zero exponent
        lambda: Factorization(-11, -11, ()),  # a unit sign hiding the prime 11
        lambda: ResidueCharacter(12, 5, 1),  # ell not 1 mod p
        lambda: ResidueCharacter(11, 5, 1),  # trivial generator
        lambda: ResidueCharacter(11, 5, 2),  # 2 has order 10 mod 11
    )
    for call in bad:
        with pytest.raises(InputError):
            call()
    assert ResidueCharacter(11, 5, 4) == residue_character(11, 5)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-11**5, 11) == 5
    assert valuation(7, 5) == 0


def test_smallest_primitive_root():
    for ell in (3, 5, 7, 11, 13, 31, 41, 61):
        assert smallest_primitive_root(ell) == sympy.primitive_root(ell)


def test_character_fixtures():
    chi = residue_character(11, 5)
    assert character_eval(chi, 3) == 3
    chi31 = residue_character(31, 5)
    assert character_eval(chi31, 2) == 4


def test_character_additivity_and_power_oracle():
    # chi(q) = dlog(q) mod p; q is a p-th power mod ell iff chi(q) = 0
    rng = random.Random(5)
    for p in (5, 7):
        ells = [ell for ell in range(2, 3000) if is_prime(ell) and ell % p == 1]
        for _ in range(200):
            ell = rng.choice(ells)
            chi = residue_character(ell, p)
            pth_powers = {pow(x, p, ell) for x in range(1, ell)}
            a = rng.randrange(1, ell)
            b = rng.randrange(1, ell)
            assert (character_eval(chi, a) == 0) == (a in pth_powers)
            assert (
                character_eval(chi, a * b)
                == (character_eval(chi, a) + character_eval(chi, b)) % p
            )


def test_crt_fixtures():
    assert crt_solve([(0, 41), (1, 11)]) == 287
    assert crt_solve([(2, 3), (3, 5)]) == 8
    with pytest.raises(InputError):
        crt_solve([(1, 4), (0, 6)])  # moduli not coprime

