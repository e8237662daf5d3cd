"""Rigorous interval measures of D(r) m-tuple sets over Z_p via Z/p^N censuses.

Every m-tuple of residue classes mod p^N is classified through the
three-valued square classifier: a tuple counts toward the lower bound when
every pairwise product + r is provably a square at this precision, and
toward the upper bound unless some product + r is provably a nonsquare.
Soundness of the classifier makes [lo, hi] a rigorous bracket of the Haar
measure at every precision; increasing N only tightens it.

For pairs there is a fast path: the number of (a, b) with ab = t mod p^N
depends only on v_p(t), so counting the selected residues per valuation
shell and weighting each shell once replaces the p^(2N) sweep.  The fast
path is property-tested against the general m-tuple sweep at m = 2.  The
sweep counts tuples with the F_q census's clique kernel, over the status grid.

The valuation vector (built shell by shell with strided adds) and the status
table are built once per (p, N) and cached read-only; callers roll them by r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


@lru_cache(maxsize=16)
def _vp_vector(p: int, N: int) -> np.ndarray:
    """v_p(t) for t in Z/p^N, with 0 at t = 0; read-only, built once per (p, N)."""
    v = np.zeros(p**N, dtype=np.int8)
    for k in range(1, N):
        v[p**k :: p**k] += 1
    v.flags.writeable = False
    return v


@lru_cache(maxsize=16)
def status_table(p: int, N: int) -> np.ndarray:
    """Vector of square statuses over Z/p^N: 1 square, -1 nonsquare, 0 undetermined.

    Vectorized restatement of `padic.square_status`; equality with the scalar
    classifier is asserted by tests.  Read-only, built once per (p, N).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # shell k is t = p^k j, for j >= 1 along st[p**k::p**k]; the j divisible
    # by p are multiples of p^(k+1), which the next shell overwrites, so the
    # pattern for the remaining j depends on j mod p (mod 8 when p = 2)
    period = 8 if p == 2 else p
    j = np.arange(1, period + 1) % period
    square = np.isin(j, list(squares_mod(p)))
    st = np.zeros(p**N, dtype=np.int8)
    for k in range(N):
        visible = N - k  # the unit is known mod p^(N-k)
        if k % 2:
            pattern = np.full(period, -1)
        elif p != 2:
            pattern = np.where(square, 1, -1)
        elif visible >= 3:
            pattern = np.where(j == 1, 1, -1)
        else:  # the unit is seen mod 4 or mod 2: only j = 3 mod 4 is decided
            pattern = np.where((visible == 2) & (j % 4 == 3), -1, 0)
        st[p**k :: p**k] = np.resize(pattern.astype(np.int8), p ** (N - k) - 1)
    st.flags.writeable = False
    return st


def pair_product_weights(p: int, N: int) -> tuple[int, ...]:
    """#{(a, b) in (Z/p^N)^2 : ab = t}, one entry per valuation shell of t.

    Entry j < N is the count for any t with v_p(t) = j, namely
    (j+1)(p-1)p^(N-1).  Entry N is the count for t = 0: a = 0 pairs with all
    p^N values of b, and each of the (p-1)p^(N-1-j) values of a with
    v_p(a) = j pairs with the p^j multiples of p^(N-j).
    """
    unit = (p - 1) * p ** (N - 1)
    return (*((j + 1) * unit for j in range(N)), N * unit + p**N)


def _pair_count(p: int, N: int, mask: np.ndarray) -> int:
    """#{(a, b) in (Z/p^N)^2 : mask[ab]}, summed shell by shell."""
    shells = np.bincount(_vp_vector(p, N)[mask], minlength=N + 1)
    if mask[0]:  # t = 0 is the zero class, not valuation 0
        shells[0] -= 1
        shells[N] += 1
    return sum(int(n) * w for n, w in zip(shells, pair_product_weights(p, N)))


def _interval_from_counts(lo_count: int, hi_count: int, denom: int, p: int, N: int, m: int) -> MeasureInterval:
    interval = MeasureInterval(Fraction(lo_count, denom), Fraction(hi_count, denom))
    # union bound over pairs on the undetermined-class mass; p = 2 carries an
    # extra factor 4 because the unit must be seen mod 8
    slack = Fraction(2 ** (4 - N)) if p == 2 else Fraction(p ** (2 - N))
    if interval.width > m * (m - 1) * slack:
        raise RuntimeError(
            f"interval width {interval.width} exceeds the union bound at p={p}, N={N}, m={m}"
        )
    return interval


def _zp_pair_fast(p: int, r: int, N: int) -> tuple[int, int]:
    shifted = np.roll(status_table(p, N), -r)  # shifted[t] = status of t + r
    return _pair_count(p, N, shifted == 1), _pair_count(p, N, shifted != -1)


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
) -> MeasureInterval:
    """Rigorous [lo, hi] bracket of the D(r) m-tuple measure over Z_p.

    Pairs take the valuation-weight fast path; m >= 3 takes the general sweep.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 2 or N < 1:
        raise ValueError("need m >= 2 and N >= 1")
    if p ** (m * N) > budget:
        raise BudgetExceededError(f"census size {p}^{m * N} exceeds budget {budget}")
    r = r % p**N
    if m == 2:
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
    st = status_table(p, N)
    shell = _vp_vector(p, N) == target_valuation
    shell[0] = False  # ab + r = 0 lies in no shell
    if (shell & (st == 0)).any():
        raise RuntimeError("class membership is undetermined at this precision")
    # indexed by ab: the squares of the shell, moved back by r
    return Fraction(_pair_count(p, N, np.roll(shell & (st == 1), -r)), q * q)


@dataclass(frozen=True)
class SeriesVerdict:
    """Outcome of summing valuation-block closed forms against the pair density."""

    q: int
    alpha: int
    chi_s: int
    beta_max: int
    block_sum: Fraction
    closed_form: Fraction


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
