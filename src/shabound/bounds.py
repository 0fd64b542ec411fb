"""Arithmetic of the Selmer / rank / Sha bound formulas.

All operations are exact integer or rational arithmetic, parameterized by
the field invariants (degree, p-class-group dimension, hypothesis flags).
The formulas hold over a totally imaginary field containing the p-th
roots of unity with p > 3. Each is a plain function of its inputs;
bound_report is the one evaluator: it checks that the inputs are
nonnegative and flags a hypothesis failure (see hypothesis_status), so a
Q-mode report is advisory rather than refused.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction
from math import ceil

from .arith import is_prime
from .errors import InputError


class FieldInvariants(namedtuple("FieldInvariants", [
    "d",  # int, [K:Q]
    "cp",  # int, dim_{F_p} C_K[p]
    "totally_imaginary",  # bool
    "contains_zeta_p",  # bool
])):
    __slots__ = ()

    def __new__(cls, d: int, cp: int, totally_imaginary: bool, contains_zeta_p: bool):
        if d <= 0 or cp < 0:
            raise InputError("field degree must be positive, class dimension nonnegative")
        if totally_imaginary and d % 2:
            raise InputError("a totally imaginary field has even degree")
        return super().__new__(cls, d, cp, totally_imaginary, contains_zeta_p)


def hypothesis_status(f: FieldInvariants) -> tuple[bool, list[str]]:
    reasons = []
    if not f.totally_imaginary:
        reasons.append("field admits a real embedding")
    if not f.contains_zeta_p:
        reasons.append("field does not contain the p-th roots of unity")
    return (not reasons, reasons)


def _require_nonnegative(*counts: int) -> None:
    """The one input check of bound_report and sha_from_sum: set sizes, ranks and dimensions."""
    if any(c < 0 for c in counts):
        raise InputError(f"set sizes, ranks and dimensions must be nonnegative, got {list(counts)}")


def selmer_interval(f: FieldInvariants, s1: int, s2: int, m: int) -> tuple[int, int]:
    """Two-sided bound on dim of the isogeny Selmer group (raw signed integers)."""
    lower = s1 - s2 + f.cp - f.d // 2
    upper = s1 + f.cp - m + 3 * f.d // 2
    return lower, upper


def rank_upper(f: FieldInvariants, s1: int, s2: int, m: int, m_hat: int) -> int:
    """Upper bound for the Mordell-Weil rank from both isogeny directions."""
    return s1 + s2 + 2 * f.cp + 3 * f.d - m - m_hat - 1


def cassels_interval(f: FieldInvariants, s1: int, s2: int, dim_phi: int) -> tuple[int, int]:
    """Possible range of the dual Selmer dimension given the forward one.

    The shift t is bounded by |t| <= 2d + 1, so the interval has width
    2(2d + 1).
    """
    center = dim_phi - s1 + s2
    radius = 2 * f.d + 1
    return center - radius, center + radius


def sum_lower(f: FieldInvariants, s1: int, s2: int) -> int:
    """Lower bound on the sum of the two isogeny Selmer dimensions."""
    return abs(s1 - s2) + 2 * f.cp - 3 * f.d - 1


def sha_from_sum(selmer_sum: int, r: int) -> int:
    """Sha[p] lower bound from a Selmer sum k+1 and the rank r: ceil((k-r)/2), clamped."""
    _require_nonnegative(selmer_sum, r)
    k = selmer_sum - 1
    return max(0, ceil(Fraction(k - r, 2)))


def sha_lower_matrix(
    f: FieldInvariants, s1: int, s2: int, m_psi: int, m_psi_hat: int
) -> tuple[Fraction, int]:
    """Sha[p] lower bound through a high-rank matrix in the isogeny network.

    Returns the raw rational bound and its ceil clamped at 0.
    """
    twice = 2 * (-min(s1, s2) - 3 * f.d - 1) + m_psi + m_psi_hat
    return Fraction(twice, 2), max(0, -(-twice // 2))


class TheoremBudget(namedtuple("TheoremBudget", "p k n deg_h m_threshold d_max s2_max sha_guarantee")):
    """The construction's budget chain, all ints (see theorem_budget)."""

    __slots__ = ()


def theorem_budget(p: int, k: int, n: int, deg_h: int) -> TheoremBudget:
    """The construction's inequality chain as explicit budgets.

    m_threshold is the character-matrix rank to force; d_max bounds the
    field degree, s2_max the size of S2; the resulting certified Sha
    bound comes back >= k (equal to k: sha_lower_matrix with
    #S1 = #S2 = s2_max, m = m_threshold and m-hat = 0).
    """
    if p <= 3 or not is_prime(p):
        raise InputError("p must be a prime > 3")
    if k < 1 or n < 1 or deg_h < 1:
        raise InputError("k, n and deg(h) must be >= 1")
    m_threshold = 2 * k + 4 * (n + 3) * deg_h * (p - 1) + 2
    d_max = 2 * (p - 1) * deg_h
    s2_max = n * d_max
    field = FieldInvariants(d_max, 0, totally_imaginary=True, contains_zeta_p=True)
    sha_guarantee = sha_lower_matrix(field, s2_max, s2_max, m_threshold, 0)[1]
    return TheoremBudget(p, k, n, deg_h, m_threshold, d_max, s2_max, sha_guarantee)


class BoundReport(namedtuple("BoundReport", [
    "hypothesis_ok",  # bool
    "hypothesis_reasons",  # tuple[str, ...]
    "selmer_lower",  # int
    "selmer_upper",  # int
    "rank_upper",  # int
    "cassels_interval",  # tuple[int, int]
    "sum_lower",  # int
    "sha_lower_raw",  # Fraction
    "sha_lower",  # int
])):
    """All section-level bound formulas evaluated for one input bundle."""

    __slots__ = ()


@functools.lru_cache(maxsize=1024)  # a scan asks for few (s1, s2, m, m_hat) over one field
def bound_report(f: FieldInvariants, s1: int, s2: int, m: int, m_hat: int) -> BoundReport:
    """Evaluate every bound formula; hypothesis failures are flagged, not fatal.

    Pure in its hashable inputs, so cached; an input error raises on every call.
    """
    _require_nonnegative(s1, s2, m, m_hat)
    ok, reasons = hypothesis_status(f)
    lower, upper = selmer_interval(f, s1, s2, m)
    raw, sha_lower = sha_lower_matrix(f, s1, s2, m, m_hat)
    return BoundReport(
        ok, tuple(reasons), lower, upper,
        rank_upper(f, s1, s2, m, m_hat),
        cassels_interval(f, s1, s2, upper),
        sum_lower(f, s1, s2),
        raw, sha_lower,
    )
