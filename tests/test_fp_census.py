import tracemalloc
from dataclasses import replace
from fractions import Fraction as Fr
from itertools import accumulate, product
from math import comb

import numpy as np
import pytest

from dioptuples import audit, fp_census
from dioptuples.arith import is_prime, legendre
from dioptuples.closed_forms import conic_sum_closed, main_term
from dioptuples.fp_census import (
    BudgetExceededError,
    _census_tables,
    _class_quadrangles,
    _class_triangles,
    _clique_count,
    _mul_table,
    census,
    censuses,
    conic_sum_direct,
    square_table,
)
from dioptuples.fq import fq_construct
from dioptuples.zp_census import zp_interval, zp_precision
from conftest import fresh_python
from test_fq import decode, elem, elements, one, quad_char_fq  # the scalar reference


def reference_census(p, r, m):
    """Independent reference: plain loops, squares via explicit root search."""
    squares = {(x * x) % p for x in range(p)}

    def member(t):
        return all((t[i] * t[j] + r) % p in squares for i in range(m) for j in range(i + 1, m))

    total = boundary = offdiag = interior = 0
    for t in product(range(p), repeat=m):
        if not member(t):
            continue
        total += 1
        if 0 in t:
            boundary += 1
        elif any((t[i] * t[j] + r) % p == 0 for i in range(m) for j in range(i + 1, m)):
            offdiag += 1
        else:
            interior += 1
    return total, boundary, offdiag, interior


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("m", [2, 3])
def test_census_matches_reference(p, m):
    for r in (1, 2, p - 1):
        got = census(p, r, m)
        want = reference_census(p, r % p, m)
        assert (got.total, got.boundary, got.offdiag, got.interior) == want, (p, r, m)


def test_census_matches_reference_m4_small():
    got = census(5, 1, 4)
    assert (got.total, got.boundary, got.offdiag, got.interior) == reference_census(5, 1, 4)
    got = census(7, 2, 4)
    assert (got.total, got.boundary, got.offdiag, got.interior) == reference_census(7, 2, 4)


def test_census_anchor_counts():
    assert census(5, 1, 2).total == 17
    c = census(3, 1, 3)
    assert (c.total, c.boundary, c.offdiag, c.interior) == (13, 13, 0, 0)
    c = census(5, 1, 3)
    assert (c.total, c.boundary, c.offdiag, c.interior) == (45, 37, 8, 0)
    assert census(7, 1, 3).interior == 8


def test_census_boundary_matches_closed_count():
    for p in (5, 7, 11, 13):
        for r in range(1, p):
            c = census(p, r, 3)
            if legendre(r, p) == 1:
                assert c.boundary == (3 * p * p - 1) // 2, (p, r)
            else:
                assert c.boundary == 0, (p, r)


def field_census_brute(field, r, m):
    """(total, boundary, offdiag, interior) by field arithmetic over every m-tuple."""
    elems = list(elements(field))
    shift = elem(field, [r % field.p])
    plus_r = [[x * y + shift for y in elems] for x in elems]
    total = boundary = offdiag = interior = 0
    for t in product(range(field.q), repeat=m):
        pairs = [plus_r[t[i]][t[j]] for i in range(m) for j in range(i + 1, m)]
        if any(quad_char_fq(v) == -1 for v in pairs):
            continue
        total += 1
        if 0 in t:
            boundary += 1
        elif any(v.is_zero() for v in pairs):
            offdiag += 1
        else:
            interior += 1
    return total, boundary, offdiag, interior


def test_census_shapes_match_field_brute_force():
    # m = 5 with r a square and with r a nonsquare, and F_27 with the nonsquare r = 2
    for p, f, r, m in (
        (13, 1, 1, 3), (7, 1, 1, 4), (3, 2, 1, 3), (13, 1, 2, 2),
        (5, 1, 1, 5), (7, 1, 3, 5), (3, 3, 2, 2),
    ):
        field = fq_construct(p, f)
        got = census(field, r, m)
        assert (got.total, got.boundary, got.offdiag, got.interior) == field_census_brute(field, r, m), (p, f, r, m)


def test_clique_count_matches_brute_force():
    rng = np.random.default_rng(2024)
    for n in range(13):
        upper = np.triu(rng.random((n, n)) < 0.6)
        B = upper | upper.T
        if n % 2:
            np.fill_diagonal(B, False)  # a tuple may then repeat no index
        for m in range(1, 6):
            want = sum(
                all(B[t[i], t[j]] for i in range(m) for j in range(i + 1, m))
                for t in product(range(n), repeat=m)
            )
            assert _clique_count(B, m) == want, (n, m)


def brute_masked_cliques(B, m, masks):
    """Ordered m-tuples inside each row's index set with all pairwise B true, summed over the rows, by loops."""
    return sum(
        all(B[t[i], t[j]] for i in range(m) for j in range(i + 1, m))
        for row in masks
        for t in product(np.flatnonzero(row).tolist(), repeat=m)
    )


def random_masks(rng, n):
    """Mask rows of equal popcount (one batch), of unequal popcount, and all false."""
    equal = [rng.permutation(n) < n // 2 for _ in range(3)]
    unequal = [rng.permutation(n) < k for k in range(n + 1)]
    return np.array([*equal, *unequal, np.zeros(n, bool)], dtype=bool)


def test_clique_count_with_masks_matches_brute_force():
    # symmetric tables with loops on the diagonal, so a tuple may repeat an index
    rng = np.random.default_rng(16)
    for n in range(10):
        upper = np.triu(rng.random((n, n)) < 0.7)
        B = upper | upper.T
        masks = random_masks(rng, n)
        for m in range(1, 6):
            assert _clique_count(B, m, masks) == brute_masked_cliques(B, m, masks), (n, m)
            assert _clique_count(B, m, masks[:0]) == 0, (n, m)


def test_clique_count_is_independent_of_its_work_bounds(monkeypatch):
    # one frontier row and one sub-table per chunk exercise every chunk boundary
    rng = np.random.default_rng(17)
    n = 9
    upper = np.triu(rng.random((n, n)) < 0.8)
    B = upper | upper.T
    masks = random_masks(rng, n)
    want = {m: _clique_count(B, m, masks) for m in range(1, 7)}
    monkeypatch.setattr(fp_census, "FRONTIER_ROWS", 1)
    monkeypatch.setattr(fp_census, "PRODUCT_CELLS", 1)
    assert {m: _clique_count(B, m, masks) for m in range(1, 7)} == want
    assert want[5] == brute_masked_cliques(B, 5, masks)


def test_clique_count_exact_at_depth():
    # the walk is m - 3 calls deep; every prefix is a frontier row, so the
    # joined pair, whose 2^m tuples are all leaves, stops at m = 20
    loop, joined, edgeless = np.ones((1, 1), bool), np.ones((2, 2), bool), np.zeros((3, 3), bool)
    for m in range(1, 61):
        assert _clique_count(loop, m) == 1, m
        assert _clique_count(edgeless, m) == (3 if m == 1 else 0), m
    for m in range(1, 21):
        assert _clique_count(joined, m) == 2**m, m


def test_clique_count_holds_one_chunk_per_level():
    # census(101, 1, 6) walks 50 masks two levels deep over a 100 x 100 table;
    # a walk that held every chunk of a level peaked at 8.0 MB, one that joined
    # them at 15.5 MB, and the walk over one chunk per level at 2.0 MB
    census(101, 1, 6, budget=10**13)  # builds and caches the field
    tracemalloc.start()
    try:
        census(101, 1, 6, budget=10**13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6


# (p, f, m): the benchmark's four census shapes and three smaller ones
FQ_SHAPES = [(1009, 1, 3), (211, 1, 4), (53, 1, 5), (3, 5, 3), (101, 1, 4), (13, 1, 6), (3, 2, 4)]


def kernel_counts(field, r, m):
    """(total, nonzero, interior) from the clique kernel alone, without negation, at every order."""
    zero, member, strict = _census_tables(field, r)
    nonzero = _clique_count(member, m)
    zero_terms = sum(comb(m, k) * (_clique_count(member, k) if k else 1) for k in range(m))
    return nonzero + zero * zero_terms, nonzero, _clique_count(strict, m)


def census_counts(c):
    return c.total, c.total - c.boundary, c.interior


@pytest.mark.parametrize("p,f,m", FQ_SHAPES)
def test_census_counts_equal_the_kernel_without_negation(p, f, m):
    # the census takes square-class sums at m <= 4 and halves the first
    # coordinate by negation at m >= 5; the kernel counts every tuple
    field = fq_construct(p, f)
    for r in (1, 2):
        assert census_counts(census(field, r, m, budget=10**10)) == kernel_counts(field, r, m), r


def run_optimized(code):
    return fresh_python("-O", "-c", code, capture_output=True, text=True, timeout=60)


def test_clique_count_refuses_inexact_sizes_under_optimize():
    # a broadcast view allocates nothing; -O strips bare asserts
    code = (
        "import numpy as np\n"
        "from dioptuples.fp_census import _clique_count\n"
        "B = np.broadcast_to(np.zeros(1, bool), (2**24, 2**24))\n"
        "try:\n"
        "    _clique_count(B, 3)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 0
    assert proc.stdout.count("exact only below 2^24") == 1


@pytest.mark.parametrize("fault,message", [
    (
        "import numpy as np\n"
        "from dioptuples.fp_census import square_table\n"
        "from dioptuples.fq import fq_construct\n"
        "field = fq_construct(5, 1)\n"
        "exp, log = field.exp_log\n"
        "field.exp_log = np.zeros_like(exp), log\n"
        "square_table(field)\n",
        "RuntimeError: square set of F_5 has 1 elements",
    ),
    (
        "from dioptuples.fp_census import CensusBreakdown\n"
        "CensusBreakdown(q=5, r=1, m=3, total=3, boundary=1, offdiag=1, interior=0)\n",
        "ValueError: boundary, off-diagonal and interior counts must sum to the total",
    ),
], ids=["square-count", "breakdown-partition"])
def test_soundness_guards_hold_under_optimize(fault, message):
    # a planted fault each: a square set of the wrong size, parts that miss the total
    proc = run_optimized(fault)
    assert proc.returncode == 1
    assert proc.stderr.endswith(message + "\n"), proc.stderr


def test_census_refuses_r_zero_mod_p():
    for p, r, m in ((5, 0, 3), (5, 5, 2)):
        with pytest.raises(ValueError, match="r = 0 is rejected"):
            census(p, r, m)
    # the error names the r given, not its residue
    for field, r, named in ((3, 3, "r = 3 is 0 in F_3: "), (fq_construct(3, 2), -6, "r = -6 is 0 in F_3: ")):
        with pytest.raises(ValueError, match=named + "r = 0 is rejected"):
            censuses(field, [1, r], 2)


def test_census_budget():
    with pytest.raises(BudgetExceededError):
        census(101, 1, 4, budget=10**6)
    with pytest.raises(ValueError, match="desk-scale"):  # the field refuses it first
        census(100_003, 1, 2, budget=10**11)


def test_budget_errors_say_what_fits():
    # 1000^3 = 10^9 fits at m = 3 and 1001^3 does not; 3^18 fits and 3^21 does not
    with pytest.raises(BudgetExceededError, match=r"^census of F_1009 at m = 3: charge 1009\^3 exceeds budget 1000000000; the largest q that fits is 1000$"):
        census(1009, 1, 3)
    with pytest.raises(BudgetExceededError, match=r": charge 5\^2 exceeds budget 0; the largest q that fits is 0$"):
        census(5, 1, 2, budget=0)
    with pytest.raises(BudgetExceededError, match=r"^census of Z/3\^9 at m = 3: charge 3\^27 exceeds budget 1000000000; the largest N that fits is 6$"):
        zp_interval(3, 1, 3, 9)
    with pytest.raises(BudgetExceededError, match=r"^census of Z/2\^2 at m = 3: charge 2\^6 exceeds budget 8; the largest N that fits is 1$"):
        zp_interval(2, 1, 3, 2, budget=8)


def largest_size_that_fits(charges, budget):
    """The brute-force largest k >= 1 with charges[k] <= budget; 0 when none."""
    return max((k for k in range(1, len(charges)) if charges[k] <= budget), default=0)


def refusal(run):
    """None when run() is admitted; else the message of its BudgetExceededError."""
    try:
        run()
    except BudgetExceededError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("budget", [-8, 0, 1, 26, 27, 28, 729, 6560, 6561, 10**4, 3**12])
def test_admission_rule_matches_the_exact_charge(budget):
    # every caller admits exactly when the exact charge is at most the budget,
    # and its refusal names the charge, the budget and the brute-force largest size
    def check(run, charge, name, size, charges):
        message = refusal(run)
        assert (message is None) == (charges[size] <= budget), (name, size)
        if message is not None:
            largest = largest_size_that_fits(charges, budget)
            assert message.endswith(f": charge {charge} exceeds budget {budget}; the largest {name} that fits is {largest}")

    for q, m in product((3, 5, 7, 13), (2, 3, 4)):
        check(lambda: censuses(q, [1, 2], m, budget), f"{q}^{m}", "q", q, [k**m for k in range(800)])
    for p, m in product((2, 3, 5), (2, 3, 4)):
        charges = [p ** (m * k) for k in range(30)]
        assert zp_precision(p, m, budget) == largest_size_that_fits(charges, budget)
        for N in (1, 2, 3):
            check(lambda: zp_interval(p, 1, m, N, budget), f"{p}^{m * N}", "N", N, charges)
    for cells, formula in ((lambda p: p**3, "p^3"), (lambda p: (p - 1) * p * p, "(p - 1)p^2")):
        charges = list(accumulate(cells(k) if k > 2 and is_prime(k) else 0 for k in range(200)))
        for pmax in (0, 2, 3, 5, 12, 13, 31):
            charge = f"sum of {formula} over the primes 3 <= p <= {pmax}"
            check(lambda: audit._charge("conic", pmax, cells, formula, budget), charge, "pmax", pmax, charges)


def test_census_over_extension_field():
    field = fq_construct(3, 2)
    # reference by explicit field arithmetic
    squares = {(x * x).encode() for x in elements(field)}
    relems = one(field)
    total = 0
    for a in elements(field):
        for b in elements(field):
            if ((a * b) + relems).encode() in squares:
                total += 1
    assert census(field, 1, 2).total == total
    c3 = census(field, 1, 3)
    assert c3.total == c3.boundary + c3.offdiag + c3.interior


def test_square_table_counts():
    for p in (3, 5, 7, 11):
        assert int(square_table(p).sum()) == (p + 1) // 2
    field = fq_construct(5, 2)
    assert int(square_table(field).sum()) == (field.q + 1) // 2


def test_conic_sum_direct_examples():
    assert conic_sum_direct(1, 0, 1, 5) == -1
    assert conic_sum_direct(1, 0, 0, 5) == 4
    assert conic_sum_direct(2, 0, 1, 7) == -1


def test_conic_direct_matches_closed_small():
    for p in (3, 5, 7):
        for a2 in range(1, p):
            for a1 in range(p):
                for a0 in range(p):
                    assert conic_sum_direct(a2, a1, a0, p) == conic_sum_closed(a2, a1, a0, p)


def test_conic_sum_direct_arrays_match_the_literal_sum():
    # every (a2, a1, a0) at every p <= 13, a2 = 0 included, in one array call
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(p)}
        coeffs = np.arange(p)
        got = conic_sum_direct(coeffs[:, None, None], coeffs[:, None], coeffs, p)
        assert got.shape == (p, p, p)
        for a2, a1, a0 in product(range(p), repeat=3):
            values = [(a2 * c * c + a1 * c + a0) % p for c in range(p)]
            want = sum(0 if v == 0 else 1 if v in squares else -1 for v in values)
            assert got[a2, a1, a0] == want, (p, a2, a1, a0)


# the last prime below 2^15, whose sums run in int32, and the last below 2^16,
# where a2 (c^2 mod p) + a1 c + a0 passes 2^31 and the sums run in int64
@pytest.mark.parametrize("p", [32749, 65521])
def test_conic_sum_direct_holds_the_largest_coefficients(p):
    for a2, a1, a0 in ((p - 1, p - 1, p - 1), (p - 2, 3, p - 1)):
        assert conic_sum_direct(a2, a1, a0, p) == conic_sum_closed(a2, a1, a0, p), (a2, a1, a0)


def test_z3_structure_check():
    # r = 1 mod 3: every D(r) triple over F_3 has a zero coordinate
    for r in (1, 4):
        result = census(3, r, 3)
        assert result.boundary == result.total
    # r = 2: a unit product ab is 1 or 2, so ab + 2 is 0 or 1, a square either
    # way, and all 2^3 all-unit triples count
    result = census(3, 2, 3)
    assert result.total - result.boundary == 8


def test_asymptotic_gap():
    assert abs(Fr(census(5, 1, 2).total, 5**2) - main_term(2)) == Fr(9, 50)  # |17/25 - 1/2|
    assert abs(Fr(census(3, 1, 2).total, 3**2) - main_term(2)) == Fr(5, 18)  # 7 of 9 pairs


@pytest.mark.parametrize("p,f", [(3, 2), (5, 2), (3, 3), (7, 1), (13, 1)])
def test_mul_table_matches_field_products(p, f):
    field = fq_construct(p, f)
    units = list(elements(field))[1:]
    want = [[(x * y).encode() for y in units] for x in units]
    assert _mul_table(field).tolist() == want
    if f == 1:
        assert _mul_table(p).tolist() == want


# fields of degree 1, 2, 3 and 5; in F_9 and F_25 every r in F_p is a square
HANKEL_FIELDS = [(7, 1), (13, 1), (101, 1), (3, 2), (5, 2), (3, 3), (3, 5)]


def hankel_rs(field):
    """r = 1, the smallest nonsquare r in F_p (else p - 1), and the smallest r with -r a square."""
    sq = square_table(field)
    p = field.p
    nonsquare = next((r for r in range(1, p) if not sq[r]), p - 1)
    return sorted({1, nonsquare, next(r for r in range(1, p) if sq[p - r])})


@pytest.mark.parametrize("p,f", HANKEL_FIELDS)
def test_log_coordinate_tables_match_the_product_table(p, f):
    field = fq_construct(p, f)
    exp, _ = field.exp_log
    n = field.q - 1
    sq = square_table(field)
    product_codes = _mul_table(field)[np.ix_(exp - 1, exp - 1)]  # row i, column j: g^i * g^j
    for r in hankel_rs(field):
        plus_r = np.array([(x + elem(field, [r])).encode() for x in elements(field)])
        shifted = plus_r[product_codes]
        zero, member, strict = _census_tables(field, r)
        assert zero == sq[r]
        assert np.array_equal(member, sq[shifted]), r
        assert np.array_equal(strict, sq[shifted] & (shifted != 0)), r
        for table in (member, strict):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = True
            base = table
            while getattr(base, "base", None) is not None:
                base = base.base
            assert base.size <= 2 * n


@pytest.mark.parametrize("p,f", HANKEL_FIELDS)
def test_census_negation_is_the_half_turn(p, f):
    # the census halves its first coordinate by -g^k = g^(k + (q-1)/2)
    field = fq_construct(p, f)
    exp, _ = field.exp_log
    n = field.q - 1
    minus_one = elem(field, [p - 1])
    for k in range(n):
        assert exp[(k + n // 2) % n] == (decode(field, int(exp[k])) * minus_one).encode(), k


# the HANKEL_FIELDS and four more prime fields
CLASS_SUM_FIELDS = [(7, 1), (11, 1), (13, 1), (101, 1), (211, 1), (1009, 1), (3, 2), (5, 2), (3, 3), (3, 5)]


@pytest.mark.parametrize("p,f", CLASS_SUM_FIELDS)
def test_order_three_censuses_equal_the_kernel(p, f):
    field = fq_construct(p, f)
    for r in hankel_rs(field):
        for m in (2, 3):
            assert census_counts(census(field, r, m, budget=10**10)) == kernel_counts(field, r, m), (r, m)


def test_order_three_censuses_build_no_table():
    # the peak of the class-sum route is O(q): no q x q table, no GEMM
    census(1009, 25, 3, budget=10**10)  # builds and caches the log tables
    tracemalloc.start()
    try:
        census(1009, 25, 3, budget=10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


# every field of prime order up to 31, and F_9, F_25, F_27 and F_243
STACK_FIELDS = [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)] + [(3, 2), (5, 2), (3, 3), (3, 5)]


@pytest.mark.parametrize("p,f", STACK_FIELDS)
def test_stacked_censuses_equal_the_census_of_each_r(p, f):
    # one stacked pass over every nonzero r of F_p; over an odd-degree field
    # the nonsquares of F_p stay nonsquares, so the zero bit is false there
    field = fq_construct(p, f)
    rs = list(range(1, p))
    assert {bool(square_table(field)[r]) for r in rs} == ({True} if f % 2 == 0 else {True, False})
    for m in (3, 4):
        stacked = censuses(field, rs, m, budget=10**13)
        assert stacked == [census(field, r, m, budget=10**13) for r in rs], m
        if field.q <= 31:  # the clique kernel, which shares no class-sum code
            assert [census_counts(c) for c in stacked] == [kernel_counts(field, r, m) for r in rs], m
    assert censuses(field, [], 3) == []
    # rs is read once: a generator gives what its list gives
    assert censuses(field, (r for r in [1, 2, p - 1]), 3) == censuses(field, [1, 2, p - 1], 3)
    # r is read mod p, in any order and with repeats
    assert censuses(field, [p + 1, 1, 2 * p + 1], 3) == [census(field, 1, 3)] * 3


def test_stacked_census_at_1009_holds_no_table_per_r():
    # every r of F_1009 at m = 3 in one call, about 10 bytes per (r, k): the
    # int32 gather index, the two vectors, their doubled buffers and the
    # copy the class sums read; no q x q table for any r
    rs = range(1, 1009)
    censuses(1009, rs, 3, budget=10**10)  # builds and caches the log tables
    tracemalloc.start()
    try:
        stacked = censuses(1009, rs, 3, budget=10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 1008 * len(rs)
    assert stacked == [census(1009, r, 3, budget=10**10) for r in rs]


def test_stacked_census_checks_every_r_before_any_work():
    with pytest.raises(ValueError, match="r = 0 is rejected"):
        censuses(31, [1, 2, 31], 3)
    with pytest.raises(BudgetExceededError, match="charge 31\\^3 exceeds budget 100; the largest q that fits is 4$"):
        censuses(31, [1, 2], 3, budget=100)


@pytest.mark.parametrize("p,f", [field for field in CLASS_SUM_FIELDS if field != (1009, 1)])
def test_class_quadrangles_equal_the_kernel(p, f):
    field = fq_construct(p, f)
    for r in hankel_rs(field):
        _, member, strict = _census_tables(field, r)
        for table in (member, strict):
            assert _class_quadrangles(table[0]) == _clique_count(table, 4), r


def test_class_quadrangles_equal_the_kernel_on_random_hankel_tables():
    # the identity holds for every vector v of even length, not only census ones
    rng = np.random.default_rng(11)
    for n in range(2, 24, 2):
        for density in (0.3, 0.7, 1.0):
            v = rng.random(n) < density
            table = np.ndarray((n, n), bool, np.concatenate([v, v]), strides=(1, 1))
            assert _class_quadrangles(v) == _clique_count(table, 4), (n, v)


def test_order_four_census_at_1009_is_pinned():
    # computed by the clique kernel before order 4 took the class-sum route
    c = census(1009, 1, 4, budget=10**13)
    assert (c.total, c.boundary, c.offdiag, c.interior) == (16710370237, 515148481, 191469082, 16003752674)


def test_order_four_censuses_build_no_table():
    # the class sums are two length-q convolutions: no q x q table, no GEMM
    census(1009, 25, 4, budget=10**13)  # builds and caches the log tables
    tracemalloc.start()
    try:
        census(1009, 25, 4, budget=10**13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1009**2 // 4


@pytest.mark.parametrize(
    "convolution,v",
    [
        # convolutions that drop every pair leave sum_s (E_s + O_s) short of (sum v)^2
        ("0 * convolve(a, b)", [1, 1, 1, 1]),
        # a part read one place late keeps that sum but gives s = 1 E_s = 1 and O_s = 0
        ("convolve(np.roll(a, 1), b)", [1, 1, 0, 0]),
    ],
    ids=["sum", "parity"],
)
def test_class_quadrangles_refuse_inconsistent_class_sums_under_optimize(convolution, v):
    code = (
        "import numpy as np\n"
        "from dioptuples import fp_census\n"
        "convolve = np.convolve\n"
        f"np.convolve = lambda a, b: {convolution}\n"
        f"fp_census._class_quadrangles(np.array({v}, bool))\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 1
    assert "RuntimeError: the class sums U_s break sum_s (E_s + O_s) = (sum v)^2 or E_s = O_s at odd s" in proc.stderr


# finite abelian groups as products of cyclic factors in log coordinates; the
# 2-groups (Z/8)* and (Z/16)* are also read as residues, x = (-1)^e 5^f mod 2^k
GROUP_SHAPES = {
    "Z3": ((3,), None),
    "Z6": ((6,), None),
    "Z4xZ3": ((4, 3), None),
    "units8": ((2, 2), 8),
    "units16": ((2, 4), 16),
    "Z2xZ2xZ2": ((2, 2, 2), None),
}


@pytest.mark.parametrize("orders,modulus", GROUP_SHAPES.values(), ids=GROUP_SHAPES)
def test_class_triangles_match_the_group_sum(orders, modulus):
    # a class label is the vector of parity bits of the even-order factors
    logs = list(product(*map(range, orders)))
    even = [i for i, n in enumerate(orders) if n % 2 == 0]
    labels = [sum((x[i] % 2) << bit for bit, i in enumerate(even)) for x in logs]
    if modulus:
        G = [(-1) ** e * 5**f % modulus for e, f in logs]
        assert sorted(G) == list(range(1, modulus, 2))

        def mul(x, y):
            return x * y % modulus

    else:
        G = logs

        def mul(x, y):
            return tuple((a + b) % n for a, b, n in zip(x, y, orders))

    rng = np.random.default_rng(5)
    for _ in range(10):
        w = [dict(zip(G, rng.integers(0, 4, len(G)).tolist())) for _ in range(3)]
        want = sum(w[0][mul(x, y)] * w[1][mul(y, z)] * w[2][mul(z, x)] for x, y, z in product(G, repeat=3))
        W = [[sum(we[x] for x, a in zip(G, labels) if a == c) for c in range(2 ** len(even))] for we in w]
        assert _class_triangles(*W) == want


def test_class_triangles_stack_over_leading_axes():
    # one count per stack entry, exact past int64 (the products reach 2^120)
    rng = np.random.default_rng(7)
    W = rng.integers(0, 2**40, size=(3, 2, 3, 4))
    got = _class_triangles(*W)
    assert got.shape == (2, 3)
    assert got.tolist() == [[_class_triangles(*W[:, i, j].tolist()) for j in range(3)] for i in range(2)]
    W1, W2, W3 = W[:, 1, 2].tolist()
    assert got[1, 2] == 4 * sum(W1[a] * W2[b] * W3[a ^ b] for a in range(4) for b in range(4))
    # one input passed three times is transformed once, to the same counts
    assert _class_triangles(W[0], W[0], W[0]).tolist() == _class_triangles(*W[[0, 0, 0]]).tolist()


def test_shell_quotients_must_be_integral_under_optimize():
    # a triangle sum the hit counts of its shells do not divide is refused with asserts stripped
    code = (
        "from dioptuples import zp_census\n"
        "zp_census._class_triangles = lambda *W: 1\n"
        "zp_census.zp_interval(3, 1, 3, 2)\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 1
    assert "RuntimeError: shell triple" in proc.stderr


def test_square_tables_match_character_and_squares_mod():
    for p, f in ((3, 2), (5, 2), (3, 3), (7, 2)):
        field = fq_construct(p, f)
        want = [quad_char_fq(x) != -1 for x in elements(field)]
        assert square_table(field).tolist() == want
    for p in (3, 5, 7, 11, 13, 101):
        assert set(map(int, square_table(p).nonzero()[0])) == {x * x % p for x in range(p)}


def test_census_over_f27_matches_field_arithmetic():
    field = fq_construct(3, 3)
    elems = list(elements(field))
    r = one(field)
    # plus_r_square[a][b]: a*b + 1 is 0 or a square, by the quadratic character
    plus_r_square = [[quad_char_fq(x * y + r) != -1 for y in elems] for x in elems]
    want = sum(
        plus_r_square[a][b] and plus_r_square[a][c] and plus_r_square[b][c]
        for a, b, c in product(range(field.q), repeat=3)
    )
    got = census(field, 1, 3)
    assert got.total == want
    assert got.r == 1 and got.q == 27


@pytest.mark.parametrize("m", [3, 4])
def test_census_is_one_breakdown_per_square_class_of_r(m):
    # r -> c^2 r with (a, b) -> (ca, cb) maps D(r) tuples onto D(c^2 r) ones,
    # so the census depends on r only through chi(r)
    for p in (q for q in range(3, 32, 2) if is_prime(q)):
        classes = {1: set(), -1: set()}
        for result in censuses(p, range(1, p), m):
            classes[legendre(result.r, p)].add(replace(result, r=None))
        assert [len(c) for c in classes.values()] == [1, 1], (p, classes)


def test_census_symmetry_under_coordinate_permutation():
    # counting with a permuted product table must not change anything
    c = census(7, 3, 3)
    seen = set()
    squares = {(x * x) % 7 for x in range(7)}
    for t in product(range(7), repeat=3):
        if all((t[i] * t[j] + 3) % 7 in squares for i in range(3) for j in range(i + 1, 3)):
            seen.add(t)
    for t in list(seen):
        assert tuple(reversed(t)) in seen
    assert len(seen) == c.total
