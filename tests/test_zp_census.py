import ast
import inspect
import tracemalloc
import types
from fractions import Fraction as Fr
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from dioptuples import closed_forms as cf
from dioptuples import zp_census
from dioptuples.arith import r_shape, vp
from dioptuples.audit import auto_rset
from dioptuples.closed_forms import series_consistency
from dioptuples.curves import dr_triples_distinct, extension_census, extension_dset
from dioptuples.fp_census import BudgetExceededError, _clique_count
from dioptuples.zp_census import (
    MeasureInterval,
    _vp_vector,
    _zp_pair_fast,
    _zp_sweep,
    _zp_triples,
    pair_product_weights,
    status_table,
    valuation_class_measure,
    valuation_class_measures,
    zp_interval,
    zp_precision,
)

from conftest import fresh_python


def scalar_status(p, N, value, squares):
    """The classification rule, one class at a time: 1 square, -1 not, 0 undetermined.

    A class with p^N | value carries no unit information; an odd valuation
    rules out every lift; an even one leaves the unit u known mod p^(N-k),
    which decides odd p by its residue mod p (squares: the squares mod p) and
    p = 2 once u is seen mod 8 (u = 3 mod 4 already rules out a square).
    """
    k = vp(value, p) if value else N
    if k >= N:
        return 0
    if k % 2:
        return -1
    unit, visible = value // p**k, N - k
    if p > 2:
        return 1 if unit % p in squares else -1
    if visible >= 3:
        return 1 if unit % 8 == 1 else -1
    return -1 if visible == 2 and unit % 4 == 3 else 0


# every branch of the build over its nonsquare fill: p = 2 at every N to 12,
# so the short shells (units seen mod 2 or mod 4) fall at both even and odd
# k; the square-class fills at p = 3, 5, 7; and the broadcast over a shell's
# rows from p = 11, where it starts, to 211
@pytest.mark.parametrize(
    "p,N", [(2, N) for N in range(1, 13)] + [(3, 4), (5, 3), (7, 2), (3, 7), (11, 3), (13, 3), (211, 2)]
)
def test_status_table_matches_scalar_classifier(p, N):
    table = status_table(p, N)
    squares = {x * x % p for x in range(p)}
    for v in range(p**N):
        assert table[v] == scalar_status(p, N, v, squares), (p, N, v)


@pytest.mark.parametrize("p,N", [(2, 4), (2, 6), (3, 3), (5, 2)])
def test_pair_weights_match_brute_counts(p, N):
    q = p**N
    counts = np.zeros(q, dtype=object)
    for a in range(q):
        for b in range(q):
            counts[(a * b) % q] += 1
    w = pair_product_weights(p, N)
    shell = [vp(t, p) if t else N for t in range(q)]
    assert len(w) == N + 1
    assert all(counts[t] == w[shell[t]] for t in range(q))
    assert sum(w[shell[t]] for t in range(q)) == q * q


@pytest.mark.parametrize("p,N", [(2, 8), (3, 5), (5, 3)])
def test_vp_vector_matches_scalar_valuation(p, N):
    v = _vp_vector(p, N)
    assert v[0] == 0
    assert all(v[t] == vp(t, p) for t in range(1, p**N))


@pytest.mark.parametrize("p,N", [(2, 16), (13, 4)])
def test_status_table_build_holds_one_byte_per_class(p, N):
    # the strided fills at p = 2 and the broadcast at p = 13 write in place:
    # no table-sized temporary (an np.where over the table would double it)
    status_table.__wrapped__(p, N)  # warms the character table and numpy's dispatch
    tracemalloc.start()
    try:
        status_table.__wrapped__(p, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= p**N + 4096


@pytest.mark.parametrize("table", [status_table, _vp_vector])
def test_cached_tables_are_read_only(table):
    t = table(3, 4)
    before = t.copy()
    with pytest.raises(ValueError):
        t[1] = 7
    with pytest.raises(ValueError):
        t += 1
    again = table(3, 4)
    assert again is t
    assert np.array_equal(again, before)


def test_union_bound_raises_under_optimize():
    # a width of 1 at p=3, N=5 breaks the bound 2 * 3^-3; -O strips bare asserts
    code = (
        "from dioptuples.zp_census import _interval_from_counts\n"
        "_interval_from_counts(0, 243, 243, 3, 5, 2)\n"
    )
    proc = fresh_python("-O", "-c", code, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "exceeds the union bound" in proc.stderr


@pytest.mark.parametrize("p,N,m", [(3, 6, 3), (3, 4, 4), (2, 5, 3), (5, 3, 3), (2, 4, 4), (3, 5, 4)])
def test_sweep_counts_equal_the_kernel_without_negation(p, N, m):
    # the sweep takes one a of each {a, -a}; negation fixes 0, and also 2^(N-1) when p = 2
    q = p**N
    for r in (1, 2):
        a = np.arange(q)
        grid = status_table(p, N)[(a[:, None] * a + r) % q]
        assert _zp_sweep(p, r, m, N) == (_clique_count(grid == 1, m), _clique_count(grid != -1, m)), r


# every N up to 7 at p = 2, where the unit classes are one, two and then four;
# p = 3, 5, 7 while the sweep's q x q grid stays at most 625^2
SHELL_SHAPES = [(p, N) for p, top in ((2, 7), (3, 5), (5, 4), (7, 3)) for N in range(1, top + 1)]


@pytest.mark.parametrize("p,N", SHELL_SHAPES)
def test_shell_triples_equal_the_sweep(p, N):
    # r = p and r = p^N: the classes of r mod p and mod p^N that vanish
    for r in sorted({1, 2, 3, 5, p, 2 * p, p**N}):
        r %= p**N
        assert _zp_triples(p, r, N) == _zp_sweep(p, r, 3, N), r


@pytest.mark.parametrize("p,N", SHELL_SHAPES)
def test_pair_fast_path_equals_the_sweep(p, N):
    for r in sorted({1, 2, 3, 5, p, 2 * p, p ** (N - 1), p**N}):
        r %= p**N
        assert _zp_pair_fast(p, r, N) == _zp_sweep(p, r, 2, N), r


# Z/3^11 has 177,147 values: the squares are counted over 2^16-value blocks, the last one partial
@pytest.mark.parametrize("p,N", [(2, 12), (3, 8), (5, 5), (13, 3), (3, 11)])
def test_pair_fast_path_equals_the_weighted_table(p, N):
    # past the sweep's reach: lo and hi weigh each value t = ab + r by the
    # number of products ab = t - r, read from the shell of t - r
    q = p**N
    st = status_table(p, N)
    w = np.array(pair_product_weights(p, N))
    t = np.arange(q)
    for r in [u * p**j for j in range(N) for u in (1, 2 * p - 1)] + [q]:  # units 1 and -1 mod p (3 at p = 2)
        ab = (t - r) % q
        shell = sum(ab % p**k == 0 for k in range(1, N + 1))  # v_p(ab), and N at ab = 0
        expected = int(w[shell][st == 1].sum()), int(w[shell][st != -1].sum())
        assert _zp_pair_fast(p, r % q, N) == expected, r


def test_shell_route_reads_no_closed_form():
    # zp_census imports one closed form, series_consistency, for the benchmark's
    # trace target alone; the routes name none of them
    tree = ast.parse(Path(zp_census.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "closed_forms"
        for alias in node.names
    }
    assert imported == {"series_consistency"}
    closed = {"closed_forms", "cf"} | imported

    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from names(const)

    for fn in (zp_census.zp_interval, zp_census._zp_triples, zp_census.status_table, zp_census._interval_from_counts):
        assert not closed & set(names(inspect.unwrap(fn).__code__)), fn.__name__


def test_shell_triples_make_one_engine_call_per_first_shell(monkeypatch):
    # a stacked call per first shell k: N + 1 calls, not one per shell triple and bound
    calls = []
    engine = zp_census._class_triangles
    monkeypatch.setattr(zp_census, "_class_triangles", lambda *W: calls.append(W) or engine(*W))
    zp_interval(3, 1, 3, 6)
    assert 0 < len(calls) <= 7


def test_shell_triples_run_in_linear_memory():
    zp_interval(3, 25, 3, 6)  # builds and caches the status table
    tracemalloc.start()
    try:
        zp_interval(3, 25, 3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5  # the sweep's 729 x 729 int64 grid alone is 4.25 MB


def brute_interval(p, r, m, N):
    q = p**N
    st = status_table(p, N)
    lo = hi = 0
    for t in product(range(q), repeat=m):
        worst = 1
        for i in range(m):
            for j in range(i + 1, m):
                worst = min(worst, st[(t[i] * t[j] + r) % q])
        if worst == 1:
            lo += 1
        if worst > -1:
            hi += 1
    return Fr(lo, q**m), Fr(hi, q**m)


@pytest.mark.parametrize("p,N,r", [(3, 2, 1), (3, 2, 2), (5, 1, 1), (3, 2, 3)])
def test_triple_sweep_matches_brute(p, N, r):
    interval = zp_interval(p, r, 3, N)
    lo, hi = brute_interval(p, r, 3, N)
    assert (interval.lo, interval.hi) == (lo, hi)


@pytest.mark.parametrize("p,N,r", [(p, N, r) for p, N in ((2, 2), (3, 2), (5, 1)) for r in sorted({1, 2, p})])
def test_quadruple_sweep_matches_brute(p, N, r):
    interval = zp_interval(p, r, 4, N)
    assert (interval.lo, interval.hi) == brute_interval(p, r, 4, N)


def test_quadruple_interval_budget():
    # the census refuses exactly when N exceeds zp_precision: 3^8 fits, 3^12 does not
    assert zp_interval(3, 1, 4, 2, budget=3**8) == zp_interval(3, 1, 4, 2)
    with pytest.raises(BudgetExceededError, match="^census of Z/3\\^3 at m = 4: charge 3\\^12 exceeds budget 177147; the largest N that fits is 2$"):
        zp_interval(3, 1, 4, 3, budget=3**11)


def test_interval_contains_true_values():
    assert Fr(1, 3) in zp_interval(2, 1, 2, 8)
    assert Fr(7, 12) in zp_interval(3, 1, 2, 6)
    assert Fr(1, 3) in zp_interval(5, 2, 2, 4)
    assert Fr(5, 18) in zp_interval(3, 3, 2, 6)


def test_interval_excludes_refuted_pair_value():
    interval = zp_interval(3, 1, 2, 7)
    assert Fr(7, 12) in interval
    assert Fr(91, 162) not in interval


def test_interval_nesting():
    for p, r in ((2, 1), (3, 1), (3, 3), (5, 2)):
        prev = zp_interval(p, r, 2, 2)
        for N in range(3, 6):
            cur = zp_interval(p, r, 2, N)
            assert prev.lo <= cur.lo <= cur.hi <= prev.hi, (p, r, N)
            prev = cur


def test_zp_interval_refuses_r_zero():
    with pytest.raises(ValueError, match="r = 0 is rejected"):
        zp_interval(3, 0, 2, 4)


def test_interval_budget():
    with pytest.raises(BudgetExceededError):
        zp_interval(3, 1, 2, 12, budget=10**6)


def reduction_consistency(p, r, m, N):
    """Every lower-bound tuple reduces to an F_p D(r) tuple when no pairwise
    product + r vanishes mod p (checked by explicit enumeration)."""
    q = p**N
    st = status_table(p, N)
    squares = {x * x % p for x in range(p)}
    for tup in product(range(q), repeat=m):
        pairs = [(tup[i] * tup[j] + r) % q for i in range(m) for j in range(i + 1, m)]
        if all(st[s] == 1 for s in pairs) and all(s % p for s in pairs):
            if not all((s % p) in squares for s in pairs):
                return False
    return True


def test_reduction_consistency_small():
    assert reduction_consistency(3, 1, 2, 2)
    assert reduction_consistency(3, 1, 3, 2)
    assert reduction_consistency(5, 2, 2, 2)


def test_valuation_class_measure_anchors():
    assert valuation_class_measure(5, 2, 0, 3) == Fr(8, 25)
    assert valuation_class_measure(3, 3, 2, 5) == Fr(4, 81)
    assert valuation_class_measure(5, 25, 2, 5) == Fr(29, 625)
    assert valuation_class_measure(5, 50, 2, 5) == Fr(24, 625)
    assert valuation_class_measure(5, 5, 1, 4) == 0


def test_valuation_class_measure_independent_of_precision():
    for p, r, v in ((3, 3, 2), (3, 1, 0), (5, 2, 2), (3, 9, 2)):
        a = valuation_class_measure(p, r, v, v + 3)
        b = valuation_class_measure(p, r, v, v + 4)
        assert a == b, (p, r, v)


def test_valuation_class_measure_matches_block_formulas():
    for p in (3, 5):
        for alpha in (0, 1, 2, 3):
            for s in (1, 2):  # 2 is the smallest nonresidue mod 3 and mod 5
                r = p**alpha * s
                shape = r_shape(r, p)
                for v in (0, 2, 4):
                    got = valuation_class_measure(p, r, v, 7)
                    if alpha == 0:
                        want = cf.mu_A_k(shape, v // 2)
                    else:
                        want = cf.mu_B_beta(shape, v)
                    assert got == want, (p, r, v)


@pytest.mark.parametrize("p,N", [(3, 3), (3, 4), (5, 3), (7, 3)])
def test_valuation_class_measure_matches_brute_pair_count(p, N):
    q = p**N
    a = np.arange(q)
    values = (a[:, None] * a) % q  # ab; ab + r is read per r below
    st = status_table(p, N)
    for r in sorted({1, 2, 3, p, 2 * p, p * p, 3 * p * p}):
        t = (values + r) % q
        for v in range(N - 2):
            hit = (t != 0) & (_vp_vector(p, N)[t] == v) & (st[t] == 1)
            assert valuation_class_measure(p, r, v, N) == Fr(int(hit.sum()), q * q), (r, v)


def test_valuation_class_measure_validation():
    with pytest.raises(ValueError):
        valuation_class_measure(3, 1, 3, 5)  # needs v + 3 <= N
    with pytest.raises(ValueError):
        valuation_class_measure(2, 1, 0, 5)  # odd p only


@pytest.mark.parametrize("p,N", [(3, 7), (5, 7)])
def test_stacked_valuation_measures_are_each_r_on_its_own(p, N):
    rs = auto_rset(p)
    for beta in range(N - 2):
        assert valuation_class_measures(p, rs, beta, N) == [valuation_class_measure(p, r, beta, N) for r in rs], beta


@pytest.mark.parametrize("args", [(3, 1, -1, 7), (3, 1, 3, 5), (2, 1, 0, 5), (4, 1, 0, 5)])
def test_stacked_valuation_measures_refuse_as_one_r_does(args):
    p, r, beta, N = args
    with pytest.raises(ValueError) as alone:
        valuation_class_measure(p, r, beta, N)
    with pytest.raises(ValueError) as stacked:
        valuation_class_measures(p, [r, 2 * r], beta, N)
    assert str(stacked.value) == str(alone.value)


def test_valuation_measures_refuse_an_undetermined_shell(monkeypatch):
    # no odd-p status table leaves a shell class undetermined, so plant one:
    # t = 9 lies in the valuation-2 shell of Z/3^5
    table = status_table(3, 5).copy()
    table[9] = 0
    monkeypatch.setattr(zp_census, "status_table", lambda p, N: table)
    for measure in (lambda: valuation_class_measures(3, [1, 2], 2, 5), lambda: valuation_class_measure(3, 1, 2, 5)):
        with pytest.raises(RuntimeError, match="^class membership is undetermined at this precision$"):
            measure()
    assert valuation_class_measures(3, [1, 2], 0, 5)  # the other shells stay determined


def test_series_consistency():
    assert series_consistency(3, 1, 1, 11) == cf.pair_measure(3, 1, 1) == Fr(5, 18)
    assert series_consistency(9, 0, 1, 6) == cf.pair_measure(9, 0, 1) == Fr(23, 45)
    assert series_consistency(5, 2, 1, 10) == cf.pair_measure(5, 2, 1) == Fr(46, 125)
    for q in (3, 5, 7, 9, 25, 27):
        for alpha in range(0, 7):
            for chi_s in (1, -1):
                assert series_consistency(q, alpha, chi_s, alpha + 4) == cf.pair_measure(q, alpha, chi_s), (q, alpha, chi_s)


def test_series_consistency_sums_blocks_without_the_pair_form(monkeypatch):
    # the block sum is a value of its own; the audit, not this sum, sets it against pair_measure
    def refuse(*args):
        raise AssertionError("series_consistency evaluated pair_measure")

    monkeypatch.setattr(cf, "pair_measure", refuse)
    assert series_consistency(3, 1, 1, 11) == Fr(5, 18)


def test_series_consistency_is_the_fraction_sum_of_its_blocks(monkeypatch):
    # the one integer sum over a common denominator equals the Fraction sum of
    # the blocks and the tail, and still evaluates each block once by name
    block = cf.mu_B_beta_q
    calls = []
    monkeypatch.setattr(cf, "mu_B_beta_q", lambda *args: calls.append(args) or block(*args))
    for q in (3, 5, 7, 9, 11, 25, 27, 49):
        for alpha in range(9):
            for chi_s in (1, -1):
                for beta_max in range(alpha + 4, alpha + 14):
                    evens = range(0, beta_max + 1, 2)
                    want = sum(block(q, alpha, chi_s, beta) for beta in evens) + cf.mu_B_tail(q, alpha, evens[-1] + 2)
                    calls.clear()
                    assert series_consistency(q, alpha, chi_s, beta_max) == want, (q, alpha, chi_s, beta_max)
                    assert calls == [(q, alpha, chi_s, beta) for beta in evens]


def test_series_consistency_validation():
    with pytest.raises(ValueError):
        series_consistency(5, 3, 1, 5)


# library calls -> the refusal each raises, for the checks no command reaches
LIBRARY_REFUSALS = [
    (cf.z2_block_measure, (-1,), "block index must be >= 0"),
    (cf.z2_block_tail, (0,), "tail starts at k >= 1"),
    (cf.mu_B_tail, (3, 1, 1), "tail requires an even beta_start above alpha"),
    (cf.mu_B_beta_claimed, (3, 0, 1, 0), "the stated block lemmas assume alpha > 0"),
    (cf.mu_B_beta_claimed, (3, 1, 1, 3), "blocks of odd valuation != alpha are empty; beta must be even"),
    (cf.mu_B_beta_claimed, (3, 1, 1, -2), "beta must be >= 0"),
    (cf.mu_B_beta_claimed, (3, 2, 0, 2), "chi(s) must be ±1"),
    (cf.mu_B_beta_q, (3, 0, 0, 0), "chi(s) must be ±1"),
    (MeasureInterval, (Fr(1, 2), Fr(1, 4)), "interval must satisfy 0 <= lo <= hi <= 1"),
    (valuation_class_measure, (3, 1, -1, 7), "target valuation must be >= 0"),
    (zp_precision, (4, 2), "4 is not prime"),
    (zp_precision, (-3, 2), "-3 is not prime"),
    (zp_precision, (3, 1), "m must be >= 2"),
    # the block forms refuse what their pair form refuses
    (cf.mu_B_beta_q, (3, -2, 1, 0), "alpha must be >= 0"),
    (cf.mu_B_beta_q, (4, 0, 1, 0), "expected an odd prime power, got 4"),
    (cf.mu_B_beta_q, (1, 0, 1, 0), "expected an odd prime power, got 1"),
    (cf.mu_B_tail, (3, -3, 2), "alpha must be >= 0"),
    (series_consistency, (4, 0, 1, 4), "expected an odd prime power, got 4"),
    (cf.mu_B_beta_claimed, (4, 1, 1, 2), "expected an odd prime power, got 4"),
    # a valuation is at a prime, and every D(r) count refuses r = 0 and a p that is not an odd prime
    (vp, (5, 0), "0 is not prime"),
    (vp, (12, 4), "4 is not prime"),
    (valuation_class_measure, (3, 0, 0, 3), "r = 0 is rejected (appending 0 extends any tuple trivially)"),
    (dr_triples_distinct, (13, 0), "r = 0 is rejected (appending 0 extends any tuple trivially)"),
    (extension_census, (13, 0), "r = 0 is rejected (appending 0 extends any tuple trivially)"),
    (extension_dset, (13, 1, 2, 3, 0), "r = 0 is rejected (appending 0 extends any tuple trivially)"),
    (cf.extension_count_envelope, (4,), "expected an odd prime, got 4"),
]


# each row is named by its call, and a call named before also by its arguments
REFUSAL_IDS = [
    f.__name__ + (str(args) if any(g is f for g, *_ in LIBRARY_REFUSALS[:i]) else "")
    for i, (f, args, _) in enumerate(LIBRARY_REFUSALS)
]


@pytest.mark.parametrize("refuse,args,message", LIBRARY_REFUSALS, ids=REFUSAL_IDS)
def test_refusals_no_command_reaches(refuse, args, message):
    with pytest.raises(ValueError) as refused:
        refuse(*args)
    assert str(refused.value) == message


def refused_in_fresh_process(code: str) -> str:
    """The stderr of code run under -O in a fresh process, which must exit 1 within 10 s."""
    proc = fresh_python("-O", "-c", code, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    return proc.stderr


@pytest.mark.parametrize("p,m,message", [(1, 2, "1 is not prime"), (3, 0, "m must be >= 2")])
def test_precision_refuses_a_search_that_would_not_end(p, m, message):
    # 1^(mN) and p^0 fit every budget, so the doubling search for the largest N
    # would never stop: the refusal must come first, checked in a fresh process
    stderr = refused_in_fresh_process(f"from dioptuples.zp_census import zp_precision\nzp_precision({p}, {m})\n")
    assert stderr.endswith(f"ValueError: {message}\n")


def test_shell_triples_refuse_a_non_integral_count():
    # a planted fault: one triangle too many in every class sum, which the first
    # hit count above 1 cannot divide
    stderr = refused_in_fresh_process(
        "from dioptuples import zp_census\n"
        "triangles = zp_census._class_triangles\n"
        "zp_census._class_triangles = lambda *sums: triangles(*sums) + 1\n"
        "zp_census._zp_triples(3, 1, 2)\n"
    )
    assert stderr.endswith("RuntimeError: shell triple (0, 0, 1) of Z/3^2 has a non-integral count\n")


@pytest.mark.parametrize("p", [1, -1])
def test_valuation_refuses_a_unit_base(p):
    # n % p == 0 always holds at p = ±1, so the division loop would never stop
    stderr = refused_in_fresh_process(f"from dioptuples import vp\nvp(5, {p})\n")
    assert stderr.endswith(f"ValueError: {p} is not prime\n")


@pytest.mark.parametrize("p,m,budget", [(2, 2, 10**3), (3, 2, 10**8), (3, 3, 10**9), (5, 4, 10**6), (7, 3, 100)])
def test_precision_is_the_largest_n_the_census_admits(p, m, budget):
    # one admission predicate: the census one step past zp_precision refuses, naming it
    N = zp_precision(p, m, budget)
    with pytest.raises(BudgetExceededError) as refused:
        zp_interval(p, 1, m, N + 1, budget)
    assert str(refused.value).endswith(f"; the largest N that fits is {N}")
