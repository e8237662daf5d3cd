"""Rigorous interval measures of D(r) m-tuple sets over Z_p via Z/p^N censuses.

Every m-tuple of residue classes mod p^N is classified through the
three-valued square classifier: a tuple counts toward the lower bound when
every pairwise product + r is provably a square at this precision, and
toward the upper bound unless some product + r is provably a nonsquare.
Soundness of the classifier makes [lo, hi] a rigorous bracket of the Haar
measure at every precision; increasing N only tightens it.

For pairs there is a fast path: the number of (a, b) with ab = t mod p^N
depends only on v_p(t), so one pass over Z/p^N with valuation weights
replaces the p^(2N) sweep.  The naive pair path is the general m-tuple
sweep at m = 2; the fast path is property-tested against it.  The sweep
counts tuples with the F_q census's clique kernel, over the status grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import is_prime, require_odd_prime, squares_mod
from .closed_forms import (
    diop2_ok,
    mu_A_k_q,
    mu_A_tail,
    mu_B_beta_q,
    mu_B_tail,
)
from .fp_census import DEFAULT_BUDGET, BudgetExceededError, _clique_count


@dataclass(frozen=True)
class MeasureInterval:
    """Exact rational bracket [lo, hi] of a Haar measure."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValueError("interval must satisfy 0 <= lo <= hi <= 1")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


def _vp_vector(t: np.ndarray, p: int, N: int) -> np.ndarray:
    v = np.zeros_like(t)
    tt = t.copy()
    for _ in range(N):
        mask = (tt != 0) & (tt % p == 0)
        v[mask] += 1
        tt[mask] //= p
    return v


def status_table(p: int, N: int) -> np.ndarray:
    """Vector of square statuses over Z/p^N: 1 square, -1 nonsquare, 0 undetermined.

    Vectorized restatement of `padic.square_status`; equality with the scalar
    classifier is asserted by tests.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = p**N
    t = np.arange(q, dtype=np.int64)
    k = _vp_vector(t, p, N)
    st = np.zeros(q, dtype=np.int8)
    nonzero = t != 0
    odd_k = nonzero & (k % 2 == 1)
    st[odd_k] = -1
    even = nonzero & ~odd_k
    unit = t // p ** np.minimum(k, N)
    if p == 2:
        visible = N - k
        decided = even & (visible >= 3)
        st[decided & (unit % 8 == 1)] = 1
        st[decided & (unit % 8 != 1)] = -1
        st[even & (visible == 2) & (unit % 4 == 3)] = -1
    else:
        residue = np.zeros(p, dtype=bool)
        residue[list(squares_mod(p))] = True
        is_sq = residue[unit % p]
        st[even & is_sq] = 1
        st[even & ~is_sq] = -1
    return st


def pair_product_weights(p: int, N: int) -> np.ndarray:
    """w[t] = #{(a, b) in (Z/p^N)^2 : ab = t}; constant on valuation shells.

    For v_p(t) = j < N the count is (j+1)(p-1)p^(N-1); the zero class takes
    the complement, so the weights sum to p^(2N) exactly.
    """
    q = p**N
    v = _vp_vector(np.arange(q, dtype=np.int64), p, N)
    w = ((v + 1) * (p - 1) * p ** (N - 1)).astype(object)
    nonzero_total = sum(
        (p - 1) * p ** (N - 1 - j) * (j + 1) * (p - 1) * p ** (N - 1) for j in range(N)
    )
    w[0] = q * q - nonzero_total
    return w


def _interval_from_counts(lo_count: int, hi_count: int, denom: int, p: int, N: int, m: int) -> MeasureInterval:
    interval = MeasureInterval(Fraction(lo_count, denom), Fraction(hi_count, denom))
    # union bound over pairs on the undetermined-class mass; p = 2 carries an
    # extra factor 4 because the unit must be seen mod 8
    slack = Fraction(2 ** (4 - N)) if p == 2 else Fraction(p ** (2 - N))
    assert interval.width <= m * (m - 1) * slack, (
        f"interval width {interval.width} exceeds the union bound at p={p}, N={N}, m={m}"
    )
    return interval


def _zp_pair_fast(p: int, r: int, N: int) -> tuple[int, int]:
    q = p**N
    st = status_table(p, N)
    shifted = st[(np.arange(q, dtype=np.int64) + r) % q]
    w = pair_product_weights(p, N)
    lo = int(sum(w[shifted == 1]))
    hi = int(sum(w[shifted != -1]))
    return lo, hi


def _zp_sweep(p: int, r: int, m: int, N: int) -> tuple[int, int]:
    q = p**N
    idx = np.arange(q, dtype=np.int64)
    grid = status_table(p, N)[(np.outer(idx, idx) + r) % q]
    return _clique_count(grid == 1, m), _clique_count(grid != -1, m)


def zp_interval(
    p: int,
    r: int,
    m: int,
    N: int,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
) -> MeasureInterval:
    """Rigorous [lo, hi] bracket of the D(r) m-tuple measure over Z_p.

    method "auto" uses the valuation-weight fast path for pairs and the
    general sweep otherwise; "naive" sends pairs through the sweep too, over
    the full p^(2N) grid (kept as the reference the fast path is tested against).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 2 or N < 1:
        raise ValueError("need m >= 2 and N >= 1")
    if p ** (m * N) > budget:
        raise BudgetExceededError(f"census size {p}^{m * N} exceeds budget {budget}")
    r = r % p**N
    if m == 2 and method != "naive":
        lo, hi = _zp_pair_fast(p, r, N)
    else:
        lo, hi = _zp_sweep(p, r, m, N)
    return _interval_from_counts(lo, hi, p ** (m * N), p, N, m)


def valuation_class_measure(p: int, r: int, target_valuation: int, N: int) -> Fraction:
    """Exact measure of pairs with v_p(ab + r) = target and ab + r a square.

    Requires target_valuation + 3 <= N so that membership of every touched
    class is fully determined; the result is then independent of N.
    """
    require_odd_prime(p)
    if target_valuation < 0:
        raise ValueError("target valuation must be >= 0")
    if target_valuation + 3 > N:
        raise ValueError("need target_valuation + 3 <= N for determined membership")
    q = p**N
    t = np.arange(q, dtype=np.int64)
    shifted = (t + r) % q
    v = _vp_vector(shifted, p, N)
    st = status_table(p, N)[shifted]
    mask = (shifted != 0) & (v == target_valuation) & (st == 1)
    undecided = (shifted != 0) & (v == target_valuation) & (st == 0)
    assert not undecided.any(), "class membership must be determined at this precision"
    w = pair_product_weights(p, N)
    return Fraction(int(sum(w[mask])), q * q)


@dataclass(frozen=True)
class SeriesVerdict:
    """Outcome of summing valuation-block closed forms against the pair density."""

    q: int
    alpha: int
    chi_s: int
    beta_max: int
    block_sum: Fraction
    closed_form: Fraction

    @property
    def equal(self) -> bool:
        return self.block_sum == self.closed_form


def series_consistency(q: int, alpha: int, chi_s: int, beta_max: int) -> SeriesVerdict:
    """Sum the valuation-block densities with an exact geometric tail and
    compare against the assembled five-case closed form, exactly.
    """
    if beta_max < alpha + 4:
        raise ValueError("need beta_max >= alpha + 4")
    if alpha == 0:
        total = mu_A_k_q(q, chi_s, 0)
        kmax = beta_max // 2
        total += sum(mu_A_k_q(q, chi_s, k) for k in range(1, kmax + 1))
        total += mu_A_tail(q, kmax + 1)
    else:
        total = Fraction(0)
        beta = 0
        while beta <= beta_max:
            total += mu_B_beta_q(q, alpha, chi_s, beta)
            beta += 2
        if alpha % 2 == 1 and alpha <= beta_max:
            total += mu_B_beta_q(q, alpha, chi_s, alpha)  # zero block, kept explicit
        tail_start = beta if beta % 2 == 0 else beta + 1
        total += mu_B_tail(q, alpha, tail_start)
    return SeriesVerdict(
        q=q,
        alpha=alpha,
        chi_s=chi_s,
        beta_max=beta_max,
        block_sum=total,
        closed_form=diop2_ok(q, alpha, chi_s),
    )


def reduction_consistency(p: int, r: int, m: int, N: int, budget: int = 10**7) -> bool:
    """Every lower-bound tuple reduces to an F_p D(r) tuple when no pairwise
    product + r vanishes mod p (checked by explicit enumeration; test scale).
    """
    from .fp_census import is_dr_tuple, square_table

    require_odd_prime(p)
    if p ** (m * N) > budget:
        raise BudgetExceededError("reduction consistency check is test-scale only")
    q = p**N
    st = status_table(p, N)
    table = square_table(p)
    from itertools import product as iproduct

    for tup in iproduct(range(q), repeat=m):
        statuses = [
            st[(tup[i] * tup[j] + r) % q] for i in range(m) for j in range(i + 1, m)
        ]
        if all(s == 1 for s in statuses):
            if any((tup[i] * tup[j] + r) % p == 0 for i in range(m) for j in range(i + 1, m)):
                continue
            if not is_dr_tuple(tuple(x % p for x in tup), r, table, p):
                return False
    return True
