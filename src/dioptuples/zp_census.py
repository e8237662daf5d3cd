"""Rigorous interval measures of D(r) m-tuple sets over Z_p via Z/p^N censuses.

Every m-tuple of residue classes mod p^N is classified through the
three-valued square classifier: a tuple counts toward the lower bound when
every pairwise product + r is provably a square at this precision, and
toward the upper bound unless some product + r is provably a nonsquare.
Soundness of the classifier makes [lo, hi] a rigorous bracket of the Haar
measure at every precision; increasing N only tightens it.

For pairs there is a fast path: the number of (a, b) with ab = t mod p^N
depends only on v_p(t), so counting the selected residues per valuation
shell and weighting each shell once replaces the p^(2N) sweep.  The ab of
shell k or deeper are the multiples of p^k, so each shell count is the
difference of the counts over the classes of t = ab + r mod p^k and mod
p^(k+1); each class, contiguous, is the one before it sliced at digit k of
r, and its nonzero and positive statuses give both brackets.  Triples go
through the F_q census's square-class engine (`_class_triangles`): with
a = p^k x for a unit x, ab + r depends on xy and on min(k + l, N) alone, so
each triple of valuation shells is one class sum over the unit group, one
stacked engine call per first shell, and no p^(2N) array is built.  Both
routes are property-tested against the general m-tuple sweep, which counts
tuples with the F_q census's clique kernel over the status grid and serves
m >= 4.  Since (-a)(-b) = ab, a and -a induce one sub-grid, so the sweep
makes two kernel calls, whose masks are the grid rows of the fixed points of
negation (0, and 2^(N-1) when p = 2), weighted 1, and of one a of each
{a, -a} pair, weighted 2.

The valuation vector and the status table (built shell by shell with strided
adds and fills) are built once per (p, N) and cached read-only; callers read
them at the values ab + r and never roll a copy by r.  The valuation-block
measures take a stack of r, so one (p, N, beta) builds its shell mask once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import require_nonzero_r, require_odd_prime, require_order, require_prime, residue_tables
# imported only because the benchmark's traced run (bench/spans.py) times
# `zp_census.series_consistency` by that name; no code here calls it
from .closed_forms import series_consistency  # noqa: F401
from .fp_census import DEFAULT_BUDGET, _class_triangles, _clique_count, _largest_fitting, _power_fits, admit


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

    The three values say that every Z_p lift of the class is a square, that
    none is, or that both kinds exist; interval censuses are rigorous because
    of the third.  A class t = p^k u, u a unit and k < N, is a nonsquare when
    k is odd.  For even k, u mod p decides it when p is odd.  When p = 2,
    u mod 8 decides it once N - k >= 3; below that, u = 3 mod 4 seen mod 4 is
    a nonsquare and the rest is undetermined, as is the zero class.  Tests
    pin every status against the lifts two levels up.  Each shell is filled in
    place: a strided fill per unit class while p <= 7, else one broadcast over
    its rows (p - 1 fills were slower from p = 11).  Read-only, once per (p, N).
    """
    require_prime(p)
    # shell k is t = p^k j, j a unit; j mod the period (p, or 8 when p = 2) fixes its status
    period = 8 if p == 2 else p
    c = np.arange(period)
    st = np.zeros(p**N, dtype=np.int8)
    for k in range(N):
        visible = N - k  # the unit is known mod p^(N-k)
        if k % 2:
            status = np.full(period, -1)
        elif p != 2:
            status = residue_tables(p).chi
        elif visible >= 3:
            status = np.where(c == 1, 1, -1)
        else:  # the unit is seen mod 4 or mod 2: only c = 3 mod 4 is decided
            status = np.where((visible == 2) & (c % 4 == 3), -1, 0)
        if period <= 8:  # a class past a short shell (p = 2, N - k < 3) is an empty slice
            for u in c[c % p > 0]:
                st[u * p**k :: period * p**k] = status[u]
        else:  # row i of the shell holds j = i p + column; column 0 is the next shell's
            st[:: p**k].reshape(-1, p)[:, 1:] = status[1:]
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


def _pair_count(p: int, N: int, deeper: list[int]) -> int:
    """#{(a, b) in (Z/p^N)^2 : ab + r is good}, given deeper[k], the good values of the class t = r mod p^k.

    The ab of shell k or deeper are the multiples of p^k, so shell k counts
    deeper[k] - deeper[k + 1] values (shell N, ab = 0, counts deeper[N]),
    each weighted by `pair_product_weights`.
    """
    return sum((d - e) * w for d, e, w in zip(deeper, [*deeper[1:], 0], pair_product_weights(p, N)))


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
    sub, lo, hi = status_table(p, N), [], []
    for k in range(N + 1):  # sub: the values ab + r with p^k | ab, the class of r mod p^k
        positive = 0
        for i in range(0, sub.size, 2**16):  # 2^16 values at a time: the comparison's buffer stays small and warm
            positive += int(np.count_nonzero(sub[i : i + 2**16] > 0))
        lo.append(positive)
        hi.append(sub.size - int(np.count_nonzero(sub)) + positive)
        sub = sub[r // p**k % p :: p].copy()
    return _pair_count(p, N, lo), _pair_count(p, N, hi)


def _zp_sweep(p: int, r: int, m: int, N: int) -> tuple[int, int]:
    q = p**N
    idx = np.arange(q, dtype=np.int64)
    grid = status_table(p, N)[(np.outer(idx, idx) + r) % q]
    # each a <= q/2 stands for {a, -a}; 2a = 0 marks the fixed points of negation
    half = idx[: q // 2 + 1]
    fixed = 2 * half % q == 0
    return tuple(
        _clique_count(B, m - 1, B[half[fixed]]) + 2 * _clique_count(B, m - 1, B[half[~fixed]])
        for B in (grid == 1, grid != -1)
    )


def _zp_triples(p: int, r: int, N: int) -> tuple[int, int]:
    """(lo, hi) triple counts over Z/p^N from square-class sums, shell by shell.

    Write a = p^k x with x in the unit group G: each a of shell k < N is hit
    by p^k units, and zero, shell N, by all |G|.  For a in shell k and b in
    shell l, ab + r = p^s xy + r with s = min(k + l, N), a function w_s of
    xy, so each shell triple is one `_class_triangles` sum over G divided by
    the product of the three hit counts, an exact integer; each first shell
    k is one stacked call over every (l, n, bound).  The class of a unit is
    its residue character for odd p, and (x mod 8) >> 1 for p = 2 (mod 4 at
    N = 2, a single class at N = 1): (Z/2^N)* / squares is (Z/8)*.
    """
    q = p**N
    units = np.flatnonzero(np.arange(q) % p)
    if p == 2:
        labels = units % min(8, q) >> 1
    else:
        labels = np.where(residue_tables(p).chi[units % p] == 1, 0, 1)
    c = int(labels.max()) + 1
    st = status_table(p, N)
    statuses = (st[(p**s * units + r) % q] for s in range(N + 1))  # sums[s, bound]: the lo and hi class sums of w_s
    sums = np.array([[np.bincount(labels[good], minlength=c) for good in (t == 1, t != -1)] for t in statuses])
    hits = np.array([p**k for k in range(N)] + [len(units)], object)
    l, n = np.ogrid[: N + 1, : N + 1]  # the second and third shells of a triple
    counts = 0
    for k in range(N + 1):
        hit = (hits[k] * hits[l] * hits[n])[..., None]
        total = _class_triangles(*(sums[np.minimum(i + j, N)] for i, j in ((k, l), (l, n), (n, k))))
        if (total % hit).any():
            l0, n0 = np.argwhere(total % hit)[0, :2].tolist()
            raise RuntimeError(f"shell triple {(k, l0, n0)} of Z/{p}^{N} has a non-integral count")
        counts += (total // hit).sum((0, 1))
    return int(counts[0]), int(counts[1])


def _census_fits(p: int, m: int, budget: int):
    """N -> p^(mN) <= budget, the one admission predicate of a Z/p^N m-tuple census; refuses a p or m none takes."""
    require_prime(p)
    require_order(m)
    return lambda N: _power_fits(p, m * N, budget)


def zp_precision(p: int, m: int, budget: int = DEFAULT_BUDGET) -> int:
    """The largest N whose census charge p^(mN) fits the budget; 0 when N = 1 does not."""
    return _largest_fitting(_census_fits(p, m, budget))


def zp_interval(
    p: int,
    r: int,
    m: int,
    N: int,
    budget: int = DEFAULT_BUDGET,
) -> MeasureInterval:
    """Rigorous [lo, hi] bracket of the D(r) m-tuple measure over Z_p.

    Pairs take the valuation-weight fast path, triples the shell route, and
    m >= 4 the general sweep.
    r must be nonzero; its class mod p^N may vanish.
    """
    require_nonzero_r(r)
    fits = _census_fits(p, m, budget)
    if N < 1:
        raise ValueError("need N >= 1")
    admit(f"census of Z/{p}^{N} at m = {m}", f"{p}^{m * N}", "N", N, fits, budget)
    r = r % p**N
    if m == 2:
        lo, hi = _zp_pair_fast(p, r, N)
    elif m == 3:
        lo, hi = _zp_triples(p, r, N)
    else:
        lo, hi = _zp_sweep(p, r, m, N)
    return _interval_from_counts(lo, hi, p ** (m * N), p, N, m)


def valuation_class_measures(p: int, rs, target_valuation: int, N: int) -> list[Fraction]:
    """Exact measure of pairs with v_p(ab + r) = target and ab + r a square, one per r of rs.

    Requires target_valuation + 3 <= N so that membership of every touched
    class is fully determined; the results are then independent of N.  The
    shell's square mask depends on no r: it is built and checked once, and
    every r is counted against it.
    """
    require_odd_prime(p)
    rs = list(rs)  # read twice: checked, then counted
    for r in rs:
        require_nonzero_r(r)
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
    squares = shell & (st == 1)
    deeper = ([int(np.count_nonzero(squares[r % p**k :: p**k])) for k in range(N + 1)] for r in rs)
    return [Fraction(_pair_count(p, N, counts), q * q) for counts in deeper]


def valuation_class_measure(p: int, r: int, target_valuation: int, N: int) -> Fraction:
    """The measure of one r: `valuation_class_measures` of a stack of one."""
    return valuation_class_measures(p, [r], target_valuation, N)[0]
