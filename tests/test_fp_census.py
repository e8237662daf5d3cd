import os
import subprocess
import sys
from fractions import Fraction as Fr
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import dioptuples
from dioptuples import fp_census
from dioptuples.arith import legendre, squares_mod
from dioptuples.closed_forms import conic_sum_closed, main_term
from dioptuples.fp_census import (
    BudgetExceededError,
    _census_tables,
    _clique_count,
    _mul_table,
    census,
    conic_sum_direct,
    square_table,
)
from dioptuples.fq import fq_construct, quad_char_fq


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
    elems = list(field.elements())
    shift = field.elem([r % field.p])
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


def random_involution(rng, n, fixed):
    """An involution of range(n) with `fixed` fixed points and the rest in 2-cycles."""
    pairs = rng.permutation(n)[fixed:].reshape(-1, 2)
    neg = np.arange(n)
    neg[pairs[:, 0]], neg[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    return neg


def test_clique_count_matches_brute_force():
    # each table also made invariant under a random involution with 0, 1 or 2
    # fixed points (Z/2^N has two: 0 and 2^(N-1)), counted with and without it
    rng = np.random.default_rng(2024)
    rng_neg = np.random.default_rng(7)
    for n in range(13):
        upper = np.triu(rng.random((n, n)) < 0.6)
        B = upper | upper.T
        if n % 2:
            np.fill_diagonal(B, False)  # a tuple may then repeat no index
        cases = [(B, None)]
        for fixed in (0, 1, 2):
            if fixed <= n and (n - fixed) % 2 == 0:
                neg = random_involution(rng_neg, n, fixed)
                cases.append((B | B[np.ix_(neg, neg)], neg))
        for S, neg in cases:
            for m in range(1, 6):
                want = sum(
                    all(S[t[i], t[j]] for i in range(m) for j in range(i + 1, m))
                    for t in product(range(n), repeat=m)
                )
                assert _clique_count(S, m) == want, (n, m)
                if neg is not None:
                    assert _clique_count(S, m, neg) == want, (n, m, neg)


# (p, f, m): the benchmark's four census shapes and three smaller ones
FQ_SHAPES = [(1009, 1, 3), (211, 1, 4), (53, 1, 5), (3, 5, 3), (101, 1, 4), (13, 1, 6), (3, 2, 4)]


@pytest.mark.parametrize("p,f,m", FQ_SHAPES)
def test_census_counts_equal_the_kernel_without_negation(monkeypatch, p, f, m):
    field = fq_construct(p, f)
    got = [census(field, r, m, budget=10**10) for r in (1, 2)]
    kernel, negations = fp_census._clique_count, []

    def without_negation(B, k, neg=None):
        negations.append(neg)
        return kernel(B, k)

    monkeypatch.setattr(fp_census, "_clique_count", without_negation)
    assert [census(field, r, m, budget=10**10) for r in (1, 2)] == got
    assert negations and all(neg is not None for neg in negations)


def run_optimized(code):
    env = {**os.environ, "PYTHONPATH": str(Path(dioptuples.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )


def test_clique_count_refuses_inexact_sizes_under_optimize():
    # broadcast views allocate nothing; -O strips bare asserts; the size is
    # refused before the negation map is read
    code = (
        "import numpy as np\n"
        "from dioptuples.fp_census import _clique_count\n"
        "B = np.broadcast_to(np.zeros(1, bool), (2**24, 2**24))\n"
        "for neg in (None, np.broadcast_to(np.zeros(1, int), (2**24,))):\n"
        "    try:\n"
        "        _clique_count(B, 3, neg)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 0
    assert proc.stdout.count("exact only below 2^24") == 2


@pytest.mark.parametrize(
    "neg,message",
    [([1, 0, 2], "the table is not invariant under neg"), ([1, 2, 0], "neg is not an involution")],
)
def test_clique_count_refuses_a_negation_the_table_lacks_under_optimize(neg, message):
    # B links 0 and 2 but not 1 and 2, so swapping 0 and 1 does not preserve it
    code = (
        "import numpy as np\n"
        "from dioptuples.fp_census import _clique_count\n"
        "B = np.zeros((3, 3), bool)\n"
        "B[0, 2] = B[2, 0] = True\n"
        f"_clique_count(B, 3, np.array({neg}))\n"
    )
    proc = run_optimized(code)
    assert proc.returncode == 1
    assert f"RuntimeError: {message}" in proc.stderr


def test_census_refuses_r_zero_mod_p():
    for p, r, m in ((5, 0, 3), (5, 5, 2)):
        with pytest.raises(ValueError, match="r = 0 is rejected"):
            census(p, r, m)


def test_census_budget():
    with pytest.raises(BudgetExceededError):
        census(101, 1, 4, budget=10**6)
    with pytest.raises(ValueError, match="desk-scale"):  # the field refuses it first
        census(100_003, 1, 2, budget=10**11)


def test_census_over_extension_field():
    field = fq_construct(3, 2)
    # reference by explicit field arithmetic
    squares = {(x * x).encode() for x in field.elements()}
    relems = field.one()
    total = 0
    for a in field.elements():
        for b in field.elements():
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
    units = list(field.elements())[1:]
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
        plus_r = np.array([(x + field.elem([r])).encode() for x in field.elements()])
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
def test_census_negation_is_the_half_turn(monkeypatch, p, f):
    field = fq_construct(p, f)
    exp, _ = field.exp_log
    minus_one = field.elem([p - 1])
    want = [(field.decode(int(code)) * minus_one).encode() for code in exp]
    kernel, negations = fp_census._clique_count, []

    def record(B, k, neg=None):
        negations.append(neg)
        return kernel(B, k, neg)

    monkeypatch.setattr(fp_census, "_clique_count", record)
    census(field, 1, 3)
    assert negations
    for neg in negations:
        assert exp[neg].tolist() == want  # index k of g^k goes to the index of -g^k


def test_square_tables_match_character_and_squares_mod():
    for p, f in ((3, 2), (5, 2), (3, 3), (7, 2)):
        field = fq_construct(p, f)
        want = [quad_char_fq(x) != -1 for x in field.elements()]
        assert square_table(field).tolist() == want
    for p in (3, 5, 7, 11, 13, 101):
        assert set(map(int, square_table(p).nonzero()[0])) == squares_mod(p)


def test_census_over_f27_matches_field_arithmetic():
    field = fq_construct(3, 3)
    elems = list(field.elements())
    r = field.one()
    # plus_r_square[a][b]: a*b + 1 is 0 or a square, by the quadratic character
    plus_r_square = [[quad_char_fq(x * y + r) != -1 for y in elems] for x in elems]
    want = sum(
        plus_r_square[a][b] and plus_r_square[a][c] and plus_r_square[b][c]
        for a, b, c in product(range(field.q), repeat=3)
    )
    got = census(field, 1, 3)
    assert got.total == want
    assert got.r == 1 and got.q == 27


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
