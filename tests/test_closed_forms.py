from fractions import Fraction as Fr

import pytest

from dioptuples import closed_forms as cf
from dioptuples.padic import r_shape


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
    assert cf.mu_A_k_q(5, -1, 0) == Fr(8, 25)
    assert cf.mu_A_k_q(5, 1, 0) == Fr(13, 25)
    assert cf.mu_A_k_q(5, 1, 1) == Fr(16, 1250) == Fr(8, 625)
    assert cf.mu_B_beta_q(3, 1, 1, 2) == Fr(4, 81)
    assert cf.mu_B_beta_q(5, 3, 1, 2) == Fr(24, 625)
    assert cf.mu_B_beta_q(5, 2, 1, 2) == Fr(29, 625)
    assert cf.mu_B_beta_q(5, 2, -1, 2) == Fr(24, 625)
    assert cf.mu_B_beta_q(5, 1, 1, 1) == 0
    with pytest.raises(ValueError):
        cf.mu_B_beta_q(5, 2, 1, 3)  # odd beta != alpha


def test_block_measures_stated_text_values():
    assert cf.mu_B_beta_claimed(3, 1, 1, 2) == Fr(8, 81)
    assert cf.mu_B_beta_claimed(5, 3, 1, 2) == Fr(24, 625)
    assert cf.mu_B_beta_claimed(5, 2, -1, 2) == Fr(29, 625)
    assert cf.mu_B_beta_claimed(5, 2, 1, 2) == Fr(24, 625)
    assert cf.mu_B_beta_claimed(5, 1, 1, 1) == 0


def test_block_series_sums_to_closed_form():
    # unit r: A-blocks with exact tail
    for q in (3, 5, 7, 11, 13, 9, 25, 27):
        for chi in (1, -1):
            total = cf.mu_A_k_q(q, chi, 0)
            total += sum(cf.mu_A_k_q(q, chi, k) for k in range(1, 7))
            total += cf.mu_A_tail(q, 7)
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


def test_pair_measure_even_odd_cases_extend_to_alpha_zero():
    for q in (3, 5, 7, 9):
        base = Fr(q * q + 1, 2 * (q + 1) ** 2)
        assert base + Fr(1, q) - Fr(1, (q + 1) ** 2) == cf.pair_measure(q, 0, 1)
        assert base - Fr(1, (q + 1) ** 2) == cf.pair_measure(q, 0, -1)


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
    case1 = cf.z3_case_all_zero(2)
    assert case1 == Fr(1, 9)
    stated = cf.diopm_z3_cases(
        2, case1, cf.z3_case_one_unit_each(2), cf.z3_case_mixed_pair(),
        ordered_pairs=True, rescale_pair_block=False,
    )
    assert stated == Fr(91, 162)
    consistent = cf.diopm_z3_cases(
        2, case1, cf.z3_case_one_unit_each(2), cf.z3_case_mixed_pair(),
        ordered_pairs=False, rescale_pair_block=True,
    )
    assert consistent == Fr(7, 12)
    alone = cf.diopm_z3_cases(2, case1, Fr(0), Fr(0), ordered_pairs=True, rescale_pair_block=False)
    assert alone == Fr(1, 9)


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


def test_main_term():
    assert cf.main_term(2) == Fr(1, 2)
    assert cf.main_term(3) == Fr(1, 8)
    assert cf.main_term(4) == Fr(1, 64)
    assert cf.main_term(5) == Fr(1, 1024)
