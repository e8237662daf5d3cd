"""Audit power: each row swaps one closed form for a slightly wrong one and
counts, per quantity, the gating records of `audit all` that then Disagree.

The audit calls `closed_forms.X` and the forms call each other through the
module's globals, so patching one attribute reaches every caller.  Mutants
touch closed forms only; the oracles are checked by their own brute-force
tests.  A gating quantity that no row reaches can pass with a wrong form.
"""

from collections import Counter
from fractions import Fraction as Fr

import pytest

from dioptuples import closed_forms as cf
from dioptuples.arith import legendre
from dioptuples.audit import DISAGREE, run_suite

# row id -> (closed form, its mutant built from the original, gating Disagree counts per quantity)
MUTANTS = {
    "count_boundary_claimed+1": (
        "count_boundary_claimed",
        lambda f: lambda p, r: f(p, r) + 1,
        {"triple_boundary_count": 148},
    ),
    "pair_measure+q^-(alpha+6)": (
        "pair_measure",
        lambda f: lambda q, alpha, chi_s: f(q, alpha, chi_s) + Fr(1, q ** (alpha + 6)),
        {"pair_density_zp": 4, "pair_density_block_series": 35, "pair_density_ok_series": 84},
    ),
    "pair_measure+q^-(alpha+4)": (
        "pair_measure",
        lambda f: lambda q, alpha, chi_s: f(q, alpha, chi_s) + Fr(1, q ** (alpha + 4)),
        {"pair_density_zp": 11, "pair_density_block_series": 35, "pair_density_ok_series": 84},
    ),
    "main_term(4)*2": (
        "main_term",
        lambda f: lambda m: f(m) * (2 if m == 4 else 1),
        {},
    ),
    "diop2_z2+2^-20": (
        "diop2_z2",
        lambda f: lambda: f() + Fr(1, 2**20),
        {"pair_density_z2_blocks": 1},
    ),
    "triple_density_leading+1/(8p)": (
        "triple_density_leading",
        lambda f: lambda p, r: f(p, r) + Fr(1, 8 * p),
        {"triple_density_envelope": 2},
    ),
    "mu_B_beta_q*(1+q^-6)": (
        "mu_B_beta_q",
        lambda f: lambda q, alpha, chi_s, beta: f(q, alpha, chi_s, beta) * (1 + Fr(1, q**6)),
        {"pair_block_A": 12, "pair_block_B": 36, "pair_density_block_series": 35, "pair_density_ok_series": 84},
    ),
    # (p - 1)chi(a2) becomes p chi(a2) at a zero discriminant
    "conic_sum_closed-zero-discriminant": (
        "conic_sum_closed",
        lambda f: lambda a2, a1, a0, p: f(a2, a1, a0, p) + legendre(a2, p) * ((a1 * a1 - 4 * a0 * a2) % p == 0),
        {"conic_sum": 5},
    ),
    "extension_count_envelope-ends-in-by-2": (
        "extension_count_envelope",
        lambda f: lambda p: (f(p)[0] + 2, f(p)[1] - 2),
        {"extension_count_envelope": 2},
    ),
    # the character of s or r swapped: each row reads one form at the other square class
    "pair_measure-at-minus-chi_s": (
        "pair_measure",
        lambda f: lambda q, alpha, chi_s: f(q, alpha, -chi_s),
        {"pair_density_zp": 18, "pair_density_block_series": 20, "pair_density_ok_series": 48},
    ),
    "mu_B_beta_q-at-minus-chi_s": (
        "mu_B_beta_q",
        lambda f: lambda q, alpha, chi_s, beta: f(q, alpha, -chi_s, beta),
        {"pair_block_A": 4, "pair_block_B": 4, "pair_density_block_series": 20, "pair_density_ok_series": 48},
    ),
    "diop2_zp-pair_measure-at-minus-chi_s": (
        "diop2_zp",
        lambda f: lambda shape: cf.pair_measure(shape.p, shape.alpha, -shape.chi_s),
        {"pair_density_zp": 18, "pair_density_block_series": 20, "pair_density_ok_vs_zp": 20},
    ),
    "triple_density_leading-at-minus-chi_r": (
        "triple_density_leading",
        lambda f: lambda p, r: cf.main_term(3) + Fr(6 - 3 * legendre(r, p), 8 * p),
        {"triple_density_envelope": 6},
    ),
    "conic_sum_closed-negated": (
        "conic_sum_closed",
        lambda f: lambda a2, a1, a0, p: -f(a2, a1, a0, p),
        {"conic_sum": 5},
    ),
    "count_boundary_claimed-chi_r-branches-swapped": (
        "count_boundary_claimed",
        lambda f: lambda p, r: Fr(3 * p * p - 1, 2) if legendre(r, p) == -1 else Fr(0),
        {"triple_boundary_count": 148},
    ),
}


@pytest.mark.parametrize("form,mutant,caught", MUTANTS.values(), ids=MUTANTS)
def test_mutant_disagrees_in_exactly(monkeypatch, form, mutant, caught):
    monkeypatch.setattr(cf, form, mutant(getattr(cf, form)))
    records = run_suite("all")
    assert Counter(r.quantity for r in records if r.must_agree and r.verdict == DISAGREE) == caught


def test_gating_quantities_no_mutant_reaches():
    # triple_partition, two_descent_equivalence and extension_census_crosscheck read
    # no closed form, and the Z_2 bracket and the 1/sqrt(p) main-term bound are too
    # wide for the mutants
    gating = {r.quantity for r in run_suite("all") if r.must_agree}
    reached = {quantity for *_, caught in MUTANTS.values() for quantity in caught}
    assert gating - reached == {
        "triple_partition",
        "pair_density_z2",
        "quadruple_density_main_term",
        "two_descent_equivalence",
        "extension_census_crosscheck",
    }
