"""Arithmetic of the Selmer / rank / Sha bound formulas.

All operations are exact integer or rational arithmetic, parameterized by
the field invariants (degree, p-class-group dimension, hypothesis flags).
The formulas need a totally imaginary field containing the p-th roots of
unity with p > 3; for Q-mode demonstrator runs the evaluations are still
exact in their combinatorial inputs, so callers may mark the report
advisory instead of refusing (see hypothesis_status).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .arith import is_prime
from .errors import HypothesisViolated, InputError


@dataclass(frozen=True)
class FieldInvariants:
    d: int  # [K:Q]
    cp: int  # dim_{F_p} C_K[p]
    totally_imaginary: bool
    contains_zeta_p: bool

    def __post_init__(self):
        if self.d <= 0 or self.cp < 0:
            raise InputError("field degree must be positive, class dimension nonnegative")
        if self.totally_imaginary and self.d % 2:
            raise InputError("a totally imaginary field has even degree")


def hypothesis_status(f: FieldInvariants) -> tuple[bool, list[str]]:
    reasons = []
    if not f.totally_imaginary:
        reasons.append("field admits a real embedding")
    if not f.contains_zeta_p:
        reasons.append("field does not contain the p-th roots of unity")
    return (not reasons, reasons)


def _require_hypotheses(f: FieldInvariants) -> None:
    ok, reasons = hypothesis_status(f)
    if not ok:
        raise HypothesisViolated("; ".join(reasons))


def _require_nonnegative(*counts: int) -> None:
    """The one input check of the formulas: set sizes, ranks and dimensions."""
    if any(c < 0 for c in counts):
        raise InputError(f"set sizes, ranks and dimensions must be nonnegative, got {list(counts)}")


def _formula(body):
    """The public form of a formula body: hypotheses required, inputs nonnegative.

    The body stays reachable as ``.body``; bound_report evaluates it
    and only flags a hypothesis failure.
    """

    @functools.wraps(body)
    def formula(f: FieldInvariants, *counts: int, **named: int):
        _require_hypotheses(f)
        _require_nonnegative(*counts, *named.values())
        return body(f, *counts, **named)

    formula.body = body
    return formula


@_formula
def selmer_interval(f: FieldInvariants, s1: int, s2: int, m: int) -> tuple[int, int]:
    """Two-sided bound on dim of the isogeny Selmer group (raw signed integers)."""
    lower = s1 - s2 + f.cp - f.d // 2
    upper = s1 + f.cp - m + 3 * f.d // 2
    return lower, upper


@_formula
def rank_upper(f: FieldInvariants, s1: int, s2: int, m: int, m_hat: int) -> int:
    """Upper bound for the Mordell-Weil rank from both isogeny directions."""
    return s1 + s2 + 2 * f.cp + 3 * f.d - m - m_hat - 1


@_formula
def cassels_interval(f: FieldInvariants, s1: int, s2: int, dim_phi: int) -> tuple[int, int]:
    """Possible range of the dual Selmer dimension given the forward one.

    The shift t is bounded by |t| <= 2d + 1, so the interval has width
    2(2d + 1).
    """
    center = dim_phi - s1 + s2
    radius = 2 * f.d + 1
    return center - radius, center + radius


@_formula
def sum_lower(f: FieldInvariants, s1: int, s2: int) -> int:
    """Lower bound on the sum of the two isogeny Selmer dimensions."""
    return abs(s1 - s2) + 2 * f.cp - 3 * f.d - 1


def sha_from_sum(selmer_sum: int, r: int) -> int:
    """Sha[p] lower bound from a Selmer sum k+1 and the rank r: ceil((k-r)/2), clamped."""
    _require_nonnegative(selmer_sum, r)
    k = selmer_sum - 1
    return max(0, ceil(Fraction(k - r, 2)))


@_formula
def sha_lower_matrix(
    f: FieldInvariants, s1: int, s2: int, m_psi: int, m_psi_hat: int
) -> tuple[Fraction, int]:
    """Sha[p] lower bound through a high-rank matrix in the isogeny network.

    Returns the raw rational bound and its ceil clamped at 0.
    """
    raw = Fraction(-min(s1, s2) - 3 * f.d - 1) + Fraction(m_psi + m_psi_hat, 2)
    return raw, max(0, ceil(raw))


@dataclass(frozen=True)
class TheoremBudget:
    p: int
    k: int
    n: int
    deg_h: int
    m_threshold: int
    d_max: int
    s2_max: int
    sha_guarantee: int


def theorem_budget(p: int, k: int, n: int, deg_h: int) -> TheoremBudget:
    """The construction's inequality chain as explicit budgets.

    m_threshold is the character-matrix rank to force; d_max bounds the
    field degree, s2_max the size of S2; the resulting certified Sha
    bound comes back >= k (equal to k: this is the sign-corrected chain
    -(#S2) - 3d - 1 + m/2 with #S2 = s2_max).
    """
    if p <= 3 or not is_prime(p):
        raise InputError("p must be a prime > 3")
    if k < 1 or n < 1 or deg_h < 1:
        raise InputError("k, n and deg(h) must be >= 1")
    m_threshold = 2 * k + 4 * (n + 3) * deg_h * (p - 1) + 2
    d_max = 2 * (p - 1) * deg_h
    s2_max = n * d_max
    sha_guarantee = -s2_max - 3 * d_max - 1 + ceil(Fraction(m_threshold, 2))
    return TheoremBudget(p, k, n, deg_h, m_threshold, d_max, s2_max, sha_guarantee)


@dataclass(frozen=True)
class BoundReport:
    """All section-level bound formulas evaluated for one input bundle."""

    f: FieldInvariants
    s1: int
    s2: int
    m: int
    m_hat: int
    hypothesis_ok: bool
    hypothesis_reasons: tuple[str, ...]
    selmer_lower: int
    selmer_upper: int
    rank_upper: int
    cassels_interval: tuple[int, int]
    sum_lower: int
    sha_lower_raw: Fraction
    sha_lower: int


def bound_report(f: FieldInvariants, s1: int, s2: int, m: int, m_hat: int) -> BoundReport:
    """Evaluate every bound formula; hypothesis failures are flagged, not fatal."""
    _require_nonnegative(s1, s2, m, m_hat)
    ok, reasons = hypothesis_status(f)
    lower, upper = selmer_interval.body(f, s1, s2, m)
    raw, sha_lower = sha_lower_matrix.body(f, s1, s2, m, m_hat)
    return BoundReport(
        f, s1, s2, m, m_hat, ok, tuple(reasons), lower, upper,
        rank_upper.body(f, s1, s2, m, m_hat),
        cassels_interval.body(f, s1, s2, upper),
        sum_lower.body(f, s1, s2),
        raw, sha_lower,
    )
