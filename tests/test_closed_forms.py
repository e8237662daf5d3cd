from fractions import Fraction as Fr

import numpy as np
import pytest

from dioptuples import closed_forms as cf
from dioptuples.arith import is_prime, legendre, r_shape


def test_z2_pair_value_and_blocks():
    assert cf.diop2_z2() == Fr(1, 3)
    assert cf.z2_block_measure(0) == Fr(5, 16)
    assert cf.z2_block_measure(1) == Fr(1, 64)
    assert cf.z2_block_tail(1) == Fr(1, 48)
    # partial sums increase toward 1/3
    partial = cf.z2_block_measure(0)
    last = partial
    for k in range(1, 8):
        partial += cf.z2_block_measure(k)
        assert partial > last
        last = partial
    assert partial < Fr(1, 3)


def test_pair_measure_unit_cases():
    assert cf.diop2_zp(r_shape(1, 3)) == Fr(7, 12)
    assert cf.diop2_zp(r_shape(3, 7)) == Fr(3, 8)  # chi(3 mod 7) = -1
    assert cf.pair_measure(9, 0, 1) == Fr(23, 45)
    assert cf.pair_measure(5, 0, -1) == Fr(1, 3)
    assert cf.pair_measure(5, 0, -1) == cf.diop2_zp(r_shape(2, 5))


def test_pair_measure_positive_valuation_census_anchored():
    # frozen from the Z/p^N interval oracle (see test_zp_census for the live check)
    assert cf.diop2_zp(r_shape(3, 3)) == Fr(5, 18)
    assert cf.diop2_zp(r_shape(9, 3)) == Fr(37, 108)
    assert cf.diop2_zp(r_shape(18, 3)) == Fr(11, 36)
    assert cf.diop2_zp(r_shape(25, 5)) == Fr(46, 125)
    assert cf.diop2_zp(r_shape(50, 5)) == Fr(9, 25)


def test_pair_measure_stated_text_values():
    # the five-case statement evaluates to these, verbatim
    assert cf.diop2_zp_claimed(r_shape(1, 3)) == Fr(7, 12)
    assert cf.diop2_zp_claimed(r_shape(3, 3)) == Fr(1, 3)
    assert cf.diop2_zp_claimed(r_shape(9, 3)) == Fr(109, 324)
    assert cf.diop2_zp_claimed(r_shape(18, 3)) == Fr(121, 324)
    # residue-field variant swaps the even-valuation branches
    assert cf.diop2_ok_claimed(3, 2, 1) == Fr(121, 324)
    assert cf.diop2_ok_claimed(3, 2, -1) == Fr(109, 324)
    # both variants agree with the validated form for unit r
    for q in (3, 5, 7, 9):
        for chi in (1, -1):
            assert cf.diop2_ok_claimed(q, 0, chi) == cf.pair_measure(q, 0, chi)
            assert cf.diop2_zp_claimed(r_shape(1, 3)) == cf.diop2_zp(r_shape(1, 3))


def test_block_measures():
    # the unit-r blocks: chi(2 mod 5) = -1, chi(1) = +1
    assert cf.mu_A_k(r_shape(2, 5), 0) == cf.mu_B_beta_q(5, 0, -1, 0) == Fr(8, 25)
    assert cf.mu_A_k(r_shape(1, 5), 0) == cf.mu_B_beta_q(5, 0, 1, 0) == Fr(13, 25)
    assert cf.mu_A_k(r_shape(1, 5), 1) == cf.mu_B_beta_q(5, 0, 1, 2) == Fr(16, 1250) == Fr(8, 625)
    assert cf.mu_B_beta_q(3, 1, 1, 2) == Fr(4, 81)
    assert cf.mu_B_beta_q(5, 3, 1, 2) == Fr(24, 625)
    assert cf.mu_B_beta_q(5, 2, 1, 2) == Fr(29, 625)
    assert cf.mu_B_beta_q(5, 2, -1, 2) == Fr(24, 625)
    assert cf.mu_B_beta_q(5, 1, 1, 1) == 0
    with pytest.raises(ValueError):
        cf.mu_B_beta_q(5, 2, 1, 3)  # odd beta != alpha
    with pytest.raises(ValueError, match="block index"):
        cf.mu_A_k(r_shape(1, 5), -1)
    with pytest.raises(ValueError, match="unit r"):
        cf.mu_A_k(r_shape(5, 5), 0)


def test_block_measures_stated_text_values():
    assert cf.mu_B_beta_claimed(3, 1, 1, 2) == Fr(8, 81)
    assert cf.mu_B_beta_claimed(5, 3, 1, 2) == Fr(24, 625)
    assert cf.mu_B_beta_claimed(5, 2, -1, 2) == Fr(29, 625)
    assert cf.mu_B_beta_claimed(5, 2, 1, 2) == Fr(24, 625)
    assert cf.mu_B_beta_claimed(5, 1, 1, 1) == 0


def test_block_series_sums_to_closed_form():
    # unit r: the alpha = 0 blocks B_2k with exact tail
    for q in (3, 5, 7, 11, 13, 9, 25, 27):
        for chi in (1, -1):
            total = sum(cf.mu_B_beta_q(q, 0, chi, 2 * k) for k in range(7))
            total += cf.mu_B_tail(q, 0, 14)
            assert total == cf.pair_measure(q, 0, chi), (q, chi)
    # positive valuation: B-blocks with exact tail
    for q in (3, 5, 7, 9, 25, 27):
        for alpha in range(1, 7):
            for chi_s in (1, -1):
                total = Fr(0)
                beta = 0
                while beta <= alpha + 8:
                    total += cf.mu_B_beta_q(q, alpha, chi_s, beta)
                    beta += 2
                total += cf.mu_B_tail(q, alpha, beta)
                assert total == cf.pair_measure(q, alpha, chi_s), (q, alpha, chi_s)


def _odd_prime_powers(bound):
    return sorted(p**f for p in range(3, bound + 1, 2) if is_prime(p) for f in range(1, 8) if p**f <= bound)


def test_pair_measure_even_odd_cases_extend_to_alpha_zero():
    # the even-alpha lines at alpha = 0 against the written-out unit-r expressions
    for q in _odd_prime_powers(243):
        base = Fr(q * q + 1, 2 * (q + 1) ** 2)
        assert base + Fr(1, q) - Fr(1, (q + 1) ** 2) == cf.pair_measure(q, 0, 1) == Fr(1, 2) + Fr(1, q * (q + 1)), q
        assert base - Fr(1, (q + 1) ** 2) == cf.pair_measure(q, 0, -1) == Fr(1, 2) - Fr(1, q + 1), q


def test_unit_r_blocks_are_the_alpha_zero_blocks():
    # the unit-r block and tail expressions, written out, against the alpha = 0 forms
    for q in _odd_prime_powers(243):
        assert cf.mu_B_beta_q(q, 0, 1, 0) == Fr(q * q + 1, 2 * q * q)
        assert cf.mu_B_beta_q(q, 0, -1, 0) == Fr((q - 1) ** 2, 2 * q * q)
        for k in range(1, 8):
            for chi in (1, -1):
                assert cf.mu_B_beta_q(q, 0, chi, 2 * k) == Fr((q - 1) ** 2, 2 * q ** (2 * k + 2))
            assert cf.mu_B_tail(q, 0, 2 * k) == Fr(q - 1, 2 * (q + 1) * q ** (2 * k))


def test_z3_mtuple_formulas():
    assert cf.diopm_z3_claimed(2) == Fr(91, 162)
    assert cf.diopm_z3_claimed(3) == Fr(43, 162)
    assert cf.diopm_z3_claimed(4) == Fr(28, 243)  # (16 + 284 + 36) / (36 * 81)
    assert cf.diopm_z3_consistent(2) == Fr(7, 12) == cf.diop2_zp(r_shape(1, 3))
    assert cf.diopm_z3_consistent(3) == Fr(31, 108)
    with pytest.raises(ValueError):
        cf.diopm_z3_claimed(1)


def test_z3_mtuple_numerator_is_integer_quadratic():
    for m in range(2, 12):
        scaled = cf.diopm_z3_claimed(m) * 36 * 3**m
        assert scaled.denominator == 1
        assert scaled == m * m + 71 * m + 36


def test_z3_case_recombinations():
    # the case densities: all-zero block 1/3^m, single-unit positions 2/3^m
    # each, and the two-unit pair core 1/36 (two ordered residue cells of 1/72)
    core = Fr(1, 36)
    for m in range(2, 13):
        head = Fr(1, 3**m) + m * Fr(2, 3**m)
        stated = head + m * (m - 1) * core * Fr(1, 3**m)  # ordered positions, core scaled 1/3^m
        consistent = head + m * (m - 1) // 2 * core * Fr(1, 3 ** (m - 2))  # unordered, (1/3)^(m-2)
        assert stated == cf.diopm_z3_claimed(m), m
        assert consistent == cf.diopm_z3_consistent(m), m
    assert cf.diopm_z3_consistent(2) == Fr(7, 12) == cf.diop2_zp(r_shape(1, 3))
    with pytest.raises(ValueError):
        cf.diopm_z3_consistent(1)


def test_triple_fp_stated_values():
    assert cf.tilde3_fp_claimed(7, 1) == Fr(8, 343)
    assert cf.count_boundary_claimed(5, 1) == 37
    assert cf.count_boundary_claimed(5, 2) == 0
    assert cf.diop3_fp_claimed(7, 1) == Fr(459, 1372)
    # documented pathologies of the stated forms
    assert (cf.diop3_fp_claimed(7, 1) * 7**3).denominator != 1
    assert cf.count_offdiag_claimed(5, 1) == Fr(89, 4)
    assert (cf.tilde3_fp_claimed(5, 1) * 5**3) == Fr(1, 2)
    with pytest.raises(ValueError):
        cf.diop3_fp_claimed(5, 10)


def test_triple_fp_stated_assembly():
    # the stated total is exactly boundary + offdiag + interior of the stated pieces
    for p in (5, 7, 11, 13):
        for r in range(1, p):
            total = (
                cf.count_boundary_claimed(p, r) / Fr(p**3)
                + cf.count_offdiag_claimed(p, r) / Fr(p**3)
                + cf.tilde3_fp_claimed(p, r)
            )
            assert total == cf.diop3_fp_claimed(p, r), (p, r)


def test_conic_sum_closed_examples():
    assert cf.conic_sum_closed(1, 0, 1, 5) == -1
    assert cf.conic_sum_closed(1, 0, 0, 5) == 4
    assert cf.conic_sum_closed(2, 0, 1, 7) == -1
    with pytest.raises(ValueError):
        cf.conic_sum_closed(5, 0, 1, 5)


def test_triple_fp_stated_forms_match_their_term_by_term_sums():
    # each stated form is one rational over a common denominator; the
    # reference is the statement's own sum of terms
    for p in (q for q in range(3, 32, 2) if is_prime(q)):
        for r in range(1, p):
            chi_r, chi_neg = legendre(r, p), legendre(-r, p)
            offdiag = Fr(3 * p * p + 3 * p + 4, 4) - Fr(3 * p + 3, 4) * chi_r + Fr(13, 4) * chi_neg
            tilde = (
                Fr(1, 8)
                - Fr(6 + 3 * chi_r, 8 * p)
                + Fr(15 + 12 * chi_r, 8 * p * p)
                - Fr(16 + 13 * chi_r + 2 * chi_neg, 8 * p**3)
            )
            total = (
                Fr(1, 8)
                + Fr(6 + 3 * chi_r, 8 * p)
                + Fr(21 + 6 * chi_r, 8 * p * p)
                + Fr(24 * chi_neg - 10 - 21 * chi_r, 8 * p**3)
            )
            assert cf.count_offdiag_claimed(p, r) == offdiag, (p, r)
            assert cf.tilde3_fp_claimed(p, r) == tilde, (p, r)
            assert cf.diop3_fp_claimed(p, r) == total, (p, r)


@pytest.mark.parametrize("p", [*(q for q in range(3, 32, 2) if is_prime(q)), 53, 101])
def test_triple_fp_stated_forms_take_one_value_per_square_class(p):
    # they read r only through chi(r) and chi(-r) = chi(-1) chi(r), so the
    # triples-fp suite evaluates them once per (p, chi(r))
    forms = (cf.count_boundary_claimed, cf.count_offdiag_claimed, cf.tilde3_fp_claimed, cf.diop3_fp_claimed)
    for form in forms:
        values = {1: set(), -1: set()}
        for r in range(1, p):
            values[legendre(r, p)].add(form(p, r))
        assert [len(v) for v in values.values()] == [1, 1], (form.__name__, values)


def test_conic_sum_closed_arrays_match_the_scalar_form():
    for p in (3, 5, 7, 11, 13):
        a1, a0 = np.arange(p)[:, None], np.arange(p)
        for a2 in range(1, p):
            got = cf.conic_sum_closed(a2, a1, a0, p)
            assert got.shape == (p, p)
            scalar = [[cf.conic_sum_closed(a2, b, c, p) for c in range(p)] for b in range(p)]
            assert got.tolist() == scalar, (p, a2)
            assert all(type(v) is int for row in scalar for v in row)


def test_main_term():
    assert cf.main_term(2) == Fr(1, 2)
    assert cf.main_term(3) == Fr(1, 8)
    assert cf.main_term(4) == Fr(1, 64)
    assert cf.main_term(5) == Fr(1, 1024)
