"""Trial-division stages of `arith.factor` against the plain mod-30 wheel.

`factor` finds the primes below 2^12 with one gcd, takes the root r of a
perfect power r^k, trial-divides r from there to 10^6 by blocks of primes
that it tests with one gcd each, and splits perfect powers below 2^128
before rho.  `_wheel_factor` below is the earlier single-wheel `factor`,
kept as the oracle: the two must agree on the type, value, sign, factors
and stubborn cofactor of every result.
`factor_with_hints` with hints up to 10^6 must agree with `factor` in the
same way: such hints only reorder trial division.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
from math import isqrt

import pytest
import sympy

import shabound
from shabound import arith
from shabound.arith import Factorization, Incomplete, factor, factor_with_hints, is_prime
from shabound.cli import main
from shabound.errors import IncompleteFactorization
from shabound.isogeny import velu_quotient
from shabound.search import fiber, tate_family


def _wheel_factor(n, budget=None):
    """`factor` with the whole trial division by one mod-30 wheel to 10^6."""
    if budget is None:
        budget = arith._DEFAULT_RHO_BUDGET
    sign = 1 if n > 0 else -1
    m = abs(n)
    found = {}
    for p in (2, 3, 5):
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d <= arith._TRIAL_LIMIT and d * d <= m:
        while m % d == 0:
            found[d] = found.get(d, 0) + 1
            m //= d
        d += wheel[i]
        i = (i + 1) % 8
    stack = [m] if m > 1 else []
    stubborn = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m >= arith._WORKING_LIMIT:
            stubborn *= m
            continue
        if m < arith._TRIAL_LIMIT * arith._TRIAL_LIMIT or is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        g = arith._rho_brent(m, budget)
        if g is None:
            stubborn *= m
            continue
        stack.extend((g, m // g))
    factors = tuple(sorted(found.items()))
    if stubborn > 1:
        return Incomplete(n, sign, factors, stubborn)
    return Factorization(n, sign, factors)


def _key(f):
    return (type(f).__name__, f.value, f.sign, f.factors, getattr(f, "cofactor", None))


def _block_edges():
    """Where the stages and blocks meet: 2^12, every block start, 10^6."""
    return [*range(arith._SMALL_LIMIT, arith._TRIAL_LIMIT + 1, arith._BLOCK), arith._TRIAL_LIMIT]


def _corpus(rng):
    """(n, budget) pairs, each n with a seeded sign."""
    a, b = 999983, 1000003  # the largest prime below 10^6, the smallest above
    big = int(sympy.nextprime(1 << 128))
    p20 = int(sympy.nextprime(10**19))
    q20 = int(sympy.nextprime(p20 + 10**9))
    cases = [(1, None), (-1, None), (-a, None), (-b, None), (-a * b, None), (-(a**2) * b, None)]
    cases += [(a * a, None), (b * b, None), (a * b, None), (a * a * b, None), (a * b * b, None)]
    cases += [(a**3 * b**2 * 30, None)]
    # prime powers on both sides of 2^12, of 10^6 and of some block edges
    edges = _block_edges()
    picked = [edges[0], edges[1], edges[-2], edges[-1]] + rng.sample(edges[2:-2], 2)
    for edge in picked:
        for q in (int(sympy.prevprime(edge)), int(sympy.nextprime(edge - 1))):
            for k in range(1, 8):
                cases.append((q**k, None))
    # two primes of one block, so its gcd is composite
    lo = rng.choice(edges[1:-2])
    q1 = int(sympy.nextprime(lo))
    q2 = int(sympy.nextprime(q1))
    cases += [(q1 * q2, None), (q1**2 * q2**3 * 7**4, None)]
    # cofactors at or above 2^128: Incomplete whatever the budget
    cases += [(b**7, None), (big, None), (3 * a**2 * big, None), (4093 * q1 * b**7, None)]
    # q^k on both sides of 2^128: below it the stack splits the power, at or
    # above it the cofactor stays unresolved
    for k in (3, 5, 6, 7, 9, 10):
        root = int(sympy.integer_nthroot(1 << 128, k)[0])
        for q in (int(sympy.prevprime(root)), int(sympy.nextprime(root))):
            cases.append((q**k, None))
    # perfect powers whose roots mix small, block and > 10^6 primes; a root
    # whose block leftover is a prime <= 10^6; a square of two primes > 10^6
    cases += [((4099 * b) ** 5, None), ((7 * 4099 * b) ** 3, None), ((4099 * a) ** 3, None)]
    cases += [((b * 1000033) ** 2, None), (11 * (b * 1000033) ** 2, None)]
    # 2000 bits: a perfect power with a root of every range, and a non-power
    root = 7**3 * 4099 * a * b * int(sympy.nextprime(1 << 340))
    cases += [(root**5, None), (6 * 4099 * (rng.getrandbits(2000) | 1 << 1999), None)]
    # composites that resist a small rho budget
    cases += [(p20 * q20, 1), (11 * q1 * p20 * q20, 1), (b * 1000033, 1), (a**2 * p20 * q20, 5)]
    # seeded products of primes from every range
    pools = [(7, 4096), (4096, 10**6), (10**6, 10**9)]
    for _ in range(16):
        n = 1
        for _ in range(rng.randrange(1, 5)):
            lo, hi = rng.choice(pools)
            n *= int(sympy.nextprime(rng.randrange(lo, hi))) ** rng.randrange(1, 4)
        cases.append((n * rng.choice((1, 2, 6, 2**7 * 5**3)), None))
    return [(n if n < 0 else rng.choice((1, -1)) * n, budget) for n, budget in cases]


def test_factor_matches_the_single_wheel_oracle():
    cases = _corpus(random.Random(20040))
    kinds = set()
    for n, budget in cases:
        got = factor(n, budget)
        assert _key(got) == _key(_wheel_factor(n, budget)), (n, budget)
        kinds.add(type(got))
    assert kinds == {Factorization, Incomplete}


def test_small_hints_leave_factor_unchanged():
    # Velu's formulas factor the codomain discriminant with the domain's
    # primes up to 10^6 as hints; that must give the same bytes as factor
    rng = random.Random(20041)
    cases = _corpus(rng)
    kinds = set()
    for n, budget in cases:
        want = factor(n, budget)
        small = [q for q, _ in want.factors if q <= arith._TRIAL_LIMIT]
        for hints in ((), tuple(small), tuple(rng.sample(small, len(small) // 2)) + (5, 7, 999983)):
            got = factor_with_hints(n, hints, budget)
            assert _key(got) == _key(want), (n, budget, hints)
        kinds.add(type(want))
    assert kinds == {Factorization, Incomplete}


def test_small_hints_keep_the_p7_b_minus_150_codomain_incomplete():
    # an S2 prime enters the raw codomain discriminant to the 7th power:
    # 3555749^7 has 153 bits, above the 2^128 working limit
    fib = fiber(tate_family(7), -150)
    with pytest.raises(IncompleteFactorization) as caught:
        velu_quotient(fib.curve, fib.point, 7, fib.disc_factorization.primes)
    partial = caught.value.partial
    assert partial.cofactor == 3555749**7
    assert 3555749 in fib.disc_factorization.primes
    want = factor(partial.value)
    assert _key(partial) == _key(want)
    small = tuple(q for q in fib.disc_factorization.primes if q <= arith._TRIAL_LIMIT) + (7,)
    assert _key(factor_with_hints(partial.value, small)) == _key(want)
    # a hint above the trial limit completes it, which would change reports
    assert factor_with_hints(partial.value, fib.disc_factorization.primes).complete


def test_blocks_hold_exactly_the_primes_from_the_wheel_limit_to_10_6():
    n = arith._TRIAL_LIMIT
    sieve = [True] * (n + 1)
    for q in range(2, isqrt(n) + 1):
        for k in range(q * q, n + 1, q):
            sieve[k] = False
    small, product = arith._small_primes()
    assert product == sympy.prod(small)
    primes = list(small)
    for lo in _block_edges()[:-1]:
        block = arith._block_primes(lo)
        assert arith._block_product(lo) == sympy.prod(block)
        primes += block
    assert primes == [q for q in range(2, n + 1) if sieve[q]]


def test_tables_are_built_only_when_the_wheel_does_not_finish():
    # the block tables wait for a cofactor whose root is at least 2^24, and
    # nothing is built at import; a fresh interpreter, since other tests in
    # this session have built the tables
    probe = (
        "import shabound.cli\n"
        "from shabound import arith, search\n"
        "def built():\n"
        "    return arith._odd_sieve.cache_info().currsize + arith._block_product.cache_info().currsize\n"
        "print(arith._small_primes.cache_info().currsize)\n"
        "search.tate_family(5)\n"
        "search.tate_family(7)\n"
        "print(built())\n"
        "for n in (1, -19008, 2**100 * 3**50 * 4093**5, 4091 * 4093, 4099, -(4093**2) * 16769023):\n"
        "    arith.factor(n)\n"
        "print(built())\n"
        "arith.factor(4099 * 4111)\n"
        "print(built())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(shabound.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    small_at_import, import_and_families, small_primes_only, first_block = map(int, out.stdout.split())
    assert small_at_import == 0
    assert import_and_families == 0
    assert small_primes_only == 0
    assert first_block == 2  # the sieve and the first block's product


def test_kth_root_floors_above_the_float_range():
    rng = random.Random(20042)
    for bits in (60, 1100, 5000):
        for k in (2, 3, 5, 7, 163):
            m = rng.getrandbits(bits) | 1 << (bits - 1)
            r = arith._kth_root(m, k)
            assert r**k <= m < (r + 1) ** k, (bits, k)
            assert arith._kth_root(r**k, k) == r
    x = int(sympy.nextprime(1 << 200)) * 4099
    assert arith._perfect_power(x**30, arith._SMALL_LIMIT) == (x, 30)
    assert arith._perfect_power(x**30 + 2, arith._SMALL_LIMIT) == (x**30 + 2, 1)


def test_forced_scan_splits_powers_without_rho(monkeypatch, tmp_path, capsys):
    # the (41, 11) 300-fiber forced scan: plain trial division handed rho 76
    # perfect powers q^5; the root stage and the power split leave it none,
    # and factor is called as often as before
    calls = {"factor": 0, "rho": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    modules = [m for name, m in sys.modules.items() if name.startswith("shabound") and m]
    for name, fn in (("factor", arith.factor), ("rho", arith._rho_brent)):
        wrapped = counted(name, fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, wrapped)
    arith.residue_character.cache_clear()  # its primitive-root search factors ell - 1
    cfg = {"p": 5, "force_s1": [41], "force_s2": [11], "omega_max": 6,
           "scan_budget": 300, "verify_dual": False}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["search", "--config", str(path), "--jobs", "1", "--json"]) == 0
    assert calls == {"factor": 895, "rho": 0}
