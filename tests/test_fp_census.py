import os
import subprocess
import sys
from fractions import Fraction as Fr
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import dioptuples
from dioptuples.arith import legendre, squares_mod
from dioptuples.closed_forms import conic_sum_closed, main_term
from dioptuples.fp_census import (
    BudgetExceededError,
    _clique_count,
    _mul_table,
    census,
    conic_sum_direct,
    is_dr_tuple,
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
    for p, f, r, m in ((13, 1, 1, 3), (7, 1, 1, 4), (3, 2, 1, 3), (13, 1, 2, 2)):
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


def test_clique_count_refuses_inexact_sizes_under_optimize():
    # a broadcast view allocates nothing; -O strips bare asserts
    code = (
        "import numpy as np\n"
        "from dioptuples.fp_census import _clique_count\n"
        "_clique_count(np.broadcast_to(np.zeros(1, bool), (2**24, 2**24)), 3)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dioptuples.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 1
    assert "exact only below 2^24" in proc.stderr


def test_census_budget():
    with pytest.raises(BudgetExceededError):
        census(101, 1, 4, budget=10**6)
    with pytest.raises(ValueError, match="desk-scale"):  # the field refuses it first
        census(100_003, 1, 2, budget=10**11)


def test_census_over_extension_field():
    field = fq_construct(3, 2)
    table = square_table(field)
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
        table = square_table(p)
        assert int(table.bitmap.sum()) == (p + 1) // 2
    field = fq_construct(5, 2)
    assert int(square_table(field).bitmap.sum()) == (field.q + 1) // 2


def test_is_dr_tuple_examples():
    table13 = square_table(13)
    assert is_dr_tuple((1, 3, 8, 3), 1, table13, 13)  # (1, 3, 8, 120) reduced mod 13
    table7 = square_table(7)
    assert is_dr_tuple((0, 0, 0, 0), 1, table7, 7)  # all products equal r, a square
    table3 = square_table(3)
    assert not is_dr_tuple((1, 1), 1, table3, 3)  # 1*1 + 1 = 2 is not a square mod 3


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
    elems = list(field.elements())
    want = [[(x * y).encode() for y in elems] for x in elems]
    assert _mul_table(field).tolist() == want
    if f == 1:
        assert _mul_table(p).tolist() == want


def test_square_tables_match_character_and_squares_mod():
    for p, f in ((3, 2), (5, 2), (3, 3), (7, 2)):
        field = fq_construct(p, f)
        want = [quad_char_fq(x) != -1 for x in field.elements()]
        assert square_table(field).bitmap.tolist() == want
    for p in (3, 5, 7, 11, 13, 101):
        assert set(map(int, square_table(p).bitmap.nonzero()[0])) == squares_mod(p)


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
