"""Exact integer and modular arithmetic.

Primality, factorization with an effort budget, p-th power residue
characters, valuations and CRT.  Everything here is deterministic: the
rho cycle-finder uses a fixed polynomial schedule, never a random seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, log2, prod

from .errors import IncompleteFactorization, InputError

# Miller-Rabin with the first k prime bases is a proof of primality for
# n < psi_k, the least strong pseudoprime to all of them (OEIS A014233;
# Jaeschke 1993, Sorenson-Webster 2015); all 13 reach psi_13 (~2^81).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
_WORKING_LIMIT = 1 << 128

_TRIAL_LIMIT = 10**6
_SMALL_LIMIT = 1 << 12  # the primes below this are found with one gcd
_BLOCK = 1 << 12  # width of one gcd-tested block of primes from _SMALL_LIMIT to _TRIAL_LIMIT

_BUDGET_ENV = "SHABOUND_FACTOR_BUDGET"
_BUDGET_TEXT = os.environ.get(_BUDGET_ENV, "2000000")
try:
    _DEFAULT_RHO_BUDGET = int(_BUDGET_TEXT)
except ValueError:
    _DEFAULT_RHO_BUDGET = -1  # rejected by default_budget, as a negative value is


def default_budget() -> int:
    """The rho budget of factor; InputError if SHABOUND_FACTOR_BUDGET is not an integer >= 0."""
    if _DEFAULT_RHO_BUDGET < 0:
        raise InputError(f"{_BUDGET_ENV} must be a nonnegative integer, got {_BUDGET_TEXT!r}")
    return _DEFAULT_RHO_BUDGET


def _miller_rabin_witness(a: int, n: int) -> bool:
    """True if a proves n composite."""
    a %= n
    if a == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _lucas_strong_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameter choice (n odd, > 2)."""
    # find D = 5, -7, 9, -11, ... with jacobi(D, n) == -1
    d = 5
    while True:
        j = jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        if d == -11 and isqrt(n) ** 2 == n:
            return False  # perfect square, no D will work
        d = -d - 2 if d > 0 else -d + 2
    p, q = 1, (1 - d) // 4
    # factor n + 1 = s * 2^r
    s = n + 1
    r = 0
    while s % 2 == 0:
        s //= 2
        r += 1
    # Lucas sequences U_s, V_s by binary ladder
    u, v, qk = 1, p, q % n
    for bit in bin(s)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) % n, (d * u + p * v) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(r - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^128.

    Below psi_13 (~2^81) this is Miller-Rabin with the shortest prefix of
    the prime bases proven for n's size; up to the 2^128 working limit it
    is a Baillie-PSW check (strong base-2 MR plus strong Lucas).  Inputs
    at or beyond the working limit are rejected rather than answered
    probabilistically.
    """
    if n < 0:
        raise InputError("is_prime expects a nonnegative integer")
    if n >= _WORKING_LIMIT:
        raise InputError(f"n >= 2^128 is outside the declared working range: {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for k, psi in enumerate(_MR_PSI, 1):
        if n < psi:
            return not any(_miller_rabin_witness(a, n) for a in _MR_BASES[:k])
    if _miller_rabin_witness(2, n):
        return False
    return _lucas_strong_probable_prime(n)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise InputError("jacobi needs odd n > 0")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class Factorization:
    """Complete signed factorization: value = sign * prod(p^e)."""

    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InputError(f"sign {self.sign} is not 1 or -1")
        prod = self.sign
        prev = 1
        for p, e in self.factors:
            if p <= prev or e <= 0:
                raise InputError(
                    f"factors {self.factors} must be ascending with positive exponents"
                )
            prev = p
            prod *= p**e
        if prod != self.value:
            raise InputError(f"factorization {self.factors} does not multiply back to {self.value}")

    @property
    def complete(self) -> bool:
        return True

    def valuation(self, q: int) -> int:
        for p, e in self.factors:
            if p == q:
                return e
        return 0

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@dataclass(frozen=True)
class Incomplete:
    """Partial factorization: value = sign * prod(p^e) * cofactor."""

    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int  # composite, resisted the budget

    @property
    def complete(self) -> bool:
        return False


def _rho_brent(n: int, budget: int) -> int | None:
    """Brent's cycle variant of Pollard rho; deterministic constant schedule.

    Returns a nontrivial factor of composite n, or None if the iteration
    budget runs out.
    """
    if n % 2 == 0:
        return 2
    spent = 0
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += min(m, r - k)
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        if spent >= budget:
            return None
    return None


@lru_cache(maxsize=1)
def _small_primes() -> tuple[tuple[int, ...], int]:
    """The primes below _SMALL_LIMIT and their product; built on first need."""
    sieve = bytearray([1]) * _SMALL_LIMIT
    for q in range(2, isqrt(_SMALL_LIMIT) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, _SMALL_LIMIT, q)))
    primes = tuple(compress(range(2, _SMALL_LIMIT), sieve[2:]))
    return primes, prod(primes)


@lru_cache(maxsize=1)
def _odd_sieve() -> bytearray:
    """sieve[i] == 1 iff 2i + 1 is a prime <= _TRIAL_LIMIT; built on first need."""
    n = (_TRIAL_LIMIT + 1) // 2
    sieve = bytearray([1]) * n
    sieve[0] = 0
    for i in range(1, (isqrt(_TRIAL_LIMIT) + 1) // 2):
        if sieve[i]:
            q = 2 * i + 1
            sieve[q * q // 2 :: q] = bytes(len(range(q * q // 2, n, q)))
    return sieve


def _block_primes(lo: int) -> list[int]:
    """The primes in [lo, lo + _BLOCK) up to _TRIAL_LIMIT, for even lo."""
    hi = min(lo + _BLOCK, _TRIAL_LIMIT + 1)
    return list(compress(range(lo + 1, hi, 2), _odd_sieve()[lo // 2 : hi // 2]))


@lru_cache(maxsize=None)
def _block_product(lo: int) -> int:
    """Product of the primes of the block at lo, built on first use."""
    return prod(_block_primes(lo))


@lru_cache(maxsize=None)
def _residue_moduli(k: int) -> tuple[int, tuple[int, ...]]:
    """Primes ell = 1 mod k, as many as fit a product below 2^30 (at least one), and that product."""
    moduli = []
    ell = k + 1
    while not moduli or prod(moduli) * ell < 1 << 30:
        if is_prime(ell):
            moduli.append(ell)
        ell += k
    return prod(moduli), tuple(moduli)


def _kth_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1, by integer Newton steps from a float estimate."""
    if k == 2:
        return isqrt(m)
    e = log2(m) / k
    t = max(int(e) - 60, 0)
    x = int(2.0 ** (e - t)) << t
    # a Newton step from any x > 0 lands at or above the floor of the root,
    # and from there the steps decrease until they reach it
    x = ((k - 1) * x + m // x ** (k - 1)) // k
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _exact_root(m: int, k: int) -> int | None:
    """r with r^k == m, or None; most non-powers fail a k-th power residue test."""
    product, moduli = _residue_moduli(k)
    a = m % product
    for ell in moduli:
        if a % ell and pow(a, (ell - 1) // k, ell) != 1:
            return None
    r = _kth_root(m, k)
    return r if r**k == m else None


def _perfect_power(m: int, least: int) -> tuple[int, int]:
    """(r, k) with r^k == m and k as large as possible, for m >= 1 with no prime <= least.

    Only prime exponents q below 2^12 with least^q < m are tried: any
    other q-th root is at most least, so it is 1.
    """
    k = 1
    for q in _small_primes()[0]:
        if q >= log2(m) / log2(least):
            break
        while (r := _exact_root(m, q)) is not None:
            m, k = r, k * q
    return m, k


def _divide_out(m: int, q: int, found: dict[int, int], k: int = 1) -> int:
    """m without its factors q, each credited to found k times."""
    while m % q == 0:
        found[q] = found.get(q, 0) + k
        m //= q
    return m


def factor(n: int, budget: int | None = None) -> Factorization | Incomplete:
    """Factor a nonzero integer.

    Trial division to 10^6, then perfect-power splits and Brent rho with an
    iteration budget.  The primes below 2^12 come from one gcd of n with
    their product, and only that gcd is trial-divided (an n below 2^24 is
    trial-divided itself).  If the cofactor is then a perfect k-th power
    r^k, the rest of the trial division runs on r and credits each prime
    it finds k times.  From 2^12 to 10^6 the primes come in blocks of
    width 2^12, and a block is divided by only when the gcd of its primes'
    product with r is > 1; the stage stops once the next block start
    squared exceeds r.  The small primes and the block tables are built on
    first need, never at import, and the block tables only for an r of at
    least 2^24.

    What is left has no prime factor up to 10^6.  A piece below 2^128 is a
    prime, a perfect power (split into its root), or split by rho; a piece
    at or above 2^128, perfect power or not, is reported unresolved.
    Returns Incomplete (with that stubborn composite cofactor) instead of
    looping forever; callers that need completeness must check.
    """
    if n == 0:
        raise InputError("cannot factor 0")
    if budget is None:
        budget = default_budget()
    sign = 1 if n > 0 else -1
    m = abs(n)
    found: dict[int, int] = {}
    primes, product = _small_primes()
    # below 2^24 the walk over m itself is shorter than a gcd; either walk
    # ends with g 1 or a prime
    g = m if m < _SMALL_LIMIT**2 else gcd(product, m)
    for q in primes:
        if q * q > g:
            break
        if g % q == 0:
            m = _divide_out(m, q, found)
            while g % q == 0:
                g //= q
    if g > 1:
        m = _divide_out(m, g, found)
    r, k = _perfect_power(m, _SMALL_LIMIT)
    lo = _SMALL_LIMIT
    while lo <= _TRIAL_LIMIT and lo * lo <= r:
        g = gcd(_block_product(lo), r)
        if g > 1:
            for q in _block_primes(lo):
                if g % q == 0:
                    r = _divide_out(r, q, found, k)
        lo += _BLOCK
    if 1 < r <= _TRIAL_LIMIT:
        # below the square of the next block start: a prime
        found[r] = found.get(r, 0) + k
        r = 1
    # r^k has no prime factor <= 10^6 and is the cofactor the plain trial
    # division would leave, so each rule below sees the same number
    stack = [(r**k, 1)] if r > 1 else []
    stubborn = 1
    while stack:
        m, e = stack.pop()
        if m >= _WORKING_LIMIT:
            # beyond the declared primality range: report as an unresolved cofactor
            stubborn *= m**e
            continue
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
            found[m] = found.get(m, 0) + e
            continue
        r, k = _perfect_power(m, _TRIAL_LIMIT)
        if k > 1:
            stack.append((r, e * k))
            continue
        g = _rho_brent(m, budget)
        if g is None:
            stubborn *= m**e
            continue
        stack.extend(((g, e), (m // g, e)))
    factors = tuple(sorted(found.items()))
    if stubborn > 1:
        return Incomplete(n, sign, factors, stubborn)
    return Factorization(n, sign, factors)


def factor_with_hints(n: int, hints: tuple[int, ...], budget: int | None = None):
    """Factor n, stripping the hinted primes first (they usually cover everything).

    Velu's formulas pass the primes of the domain's discriminant and p,
    since isogenous curves share their bad primes, and factor only what
    is left.  With every hint at most _TRIAL_LIMIT the result equals
    factor(n): trial division would find those primes anyway, and the
    part of n above the trial limit, which decides completeness, is the
    same.

    The hints must be primes.  A hint below 2 raises InputError; a composite
    hint is not detected (a primality test per hint would cost more than
    the factoring it saves) and would appear as a "prime" of the result.
    """
    if n == 0:
        raise InputError("cannot factor 0")
    if any(q < 2 for q in hints):
        raise InputError(f"hints must be primes: {hints}")
    sign = 1 if n > 0 else -1
    m = abs(n)
    found = {}
    for q in sorted(set(hints)):
        while m % q == 0:
            found[q] = found.get(q, 0) + 1
            m //= q
    if m == 1:
        return Factorization(n, sign, tuple(sorted(found.items())))
    rest = factor(m * sign, budget)
    merged = dict(found)
    for q, e in rest.factors:
        merged[q] = merged.get(q, 0) + e
    factors = tuple(sorted(merged.items()))
    if rest.complete:
        return Factorization(n, sign, factors)
    return Incomplete(n, sign, factors, rest.cofactor)


def require_complete(f: Factorization | Incomplete) -> Factorization:
    if isinstance(f, Incomplete):
        raise IncompleteFactorization(f)
    return f


def smallest_primitive_root(ell: int) -> int:
    """Smallest primitive root modulo a prime ell."""
    if ell == 2:
        return 1
    fac = require_complete(factor(ell - 1))
    for r in range(2, ell):
        if all(pow(r, (ell - 1) // q, ell) != 1 for q in fac.primes):
            return r
    raise AssertionError("no primitive root found; ell not prime?")


@dataclass(frozen=True)
class ResidueCharacter:
    """One coordinate of the local-units-mod-p-th-powers map at a prime ell = 1 mod p.

    The fixed generator is g = r^((ell-1)/p) with r the smallest primitive
    root mod ell; any other choice rescales values by a unit of Z/p and
    leaves all ranks unchanged, fixing it makes outputs byte-deterministic.
    """

    ell: int
    p: int
    generator: int

    def __post_init__(self):
        if self.ell % self.p != 1:
            raise InputError(f"ell = {self.ell} is not 1 mod p = {self.p}")
        if pow(self.generator, self.p, self.ell) != 1 or self.generator == 1:
            raise InputError(f"{self.generator} does not have order p = {self.p} mod {self.ell}")


@lru_cache(maxsize=1024)  # the primitive-root search factors ell - 1
def residue_character(ell: int, p: int) -> ResidueCharacter:
    if not is_prime(ell) or not is_prime(p) or p == 2:
        raise InputError(f"residue_character needs primes, p odd: ell={ell}, p={p}")
    if ell % p != 1:
        raise InputError(f"ell = {ell} is not 1 mod p = {p}")
    r = smallest_primitive_root(ell)
    g = pow(r, (ell - 1) // p, ell)
    return ResidueCharacter(ell, p, g)


def character_eval(chi: ResidueCharacter, a: int) -> int:
    """x in {0..p-1} with a^((ell-1)/p) = g^x mod ell; 0 iff a is a p-th power mod ell."""
    ell, p = chi.ell, chi.p
    if a % ell == 0:
        raise InputError(f"{a} is divisible by ell = {ell}")
    target = pow(a, (ell - 1) // p, ell)
    val = 1
    for x in range(p):
        if val == target:
            return x
        val = val * chi.generator % ell
    raise AssertionError("character value not a power of the generator")


def valuation(n: int, q: int) -> int:
    """q-adic valuation of a nonzero integer."""
    if n == 0:
        raise InputError("valuation of 0")
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def crt_solve(congruences: list[tuple[int, int]]) -> int:
    """Least nonnegative solution of simultaneous congruences with coprime moduli."""
    x, m = 0, 1
    for r, n in congruences:
        if n <= 0:
            raise InputError(f"modulus must be positive: {n}")
        g = gcd(m, n)
        if g != 1:
            raise InputError(f"moduli not pairwise coprime: gcd({m},{n}) = {g}")
        # x' = x mod m, x' = r mod n
        t = (r - x) * pow(m, -1, n) % n
        x += m * t
        m *= n
    return x % m
