"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is pinned here; nothing is deferred.
"""

import time
from fractions import Fraction as Fr

from dioptuples import closed_forms as cf
from dioptuples.closed_forms import extension_count_envelope, series_consistency
from dioptuples.arith import legendre, r_shape
from dioptuples.audit import (
    AGREE,
    DISAGREE,
    INCONCLUSIVE,
    auto_rset,
    ec_instances,
    exit_code_for,
    run_suite,
)
from dioptuples.curves import (
    dr_triples_distinct,
    extension_dset,
    two_descent_equiv,
    TripleCurve,
)
from dioptuples.fp_census import census, conic_sum_direct
from dioptuples.zp_census import valuation_class_measure, zp_interval, zp_precision
from test_curves import curve_order  # the scalar reference oracle


def _report(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_z2_pairs():
    t0 = time.monotonic()
    interval = zp_interval(2, 1, 2, 10)
    elapsed = time.monotonic() - t0
    assert interval.width <= Fr(1, 64)
    assert Fr(1, 3) in interval
    assert elapsed < 10
    _report(1, f"2-adic pair interval {interval.lo}..{interval.hi} "
               f"(width {interval.width}) contains 1/3 in {elapsed:.2f}s")


def test_criterion_02_pair_theorem_sweep():
    t0 = time.monotonic()
    checked = 0
    for p in (3, 5, 7, 11, 13):
        N = zp_precision(p, 2, 10**8)
        assert p ** (2 * N) <= 10**8
        for r in auto_rset(p):
            shape = r_shape(r, p)
            value = cf.diop2_zp(shape)
            assert value in zp_interval(p, r, 2, N), (p, r)
            assert series_consistency(p, shape.alpha, shape.chi_s, shape.alpha + 10) == value, (p, r)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(2, f"{checked} (p, r) shapes: closed form inside census interval and "
               f"block series exactly equal, in {elapsed:.1f}s")


def test_criterion_03_valuation_blocks_exact():
    N = 7
    checked = 0
    for p in (3, 5):
        nonres = 2  # smallest nonresidue mod 3 and mod 5
        for alpha in (0, 1, 2, 3):
            for s in (1, nonres):
                r = p**alpha * s
                shape = r_shape(r, p)
                betas = [b for b in range(0, N - 2, 2)]
                if alpha % 2 == 1:
                    betas.append(alpha)
                for beta in sorted(set(betas)):
                    oracle = valuation_class_measure(p, r, beta, N)
                    if alpha == 0:
                        formula = cf.mu_A_k(shape, beta // 2)
                    else:
                        formula = cf.mu_B_beta(shape, beta)
                    assert formula == oracle, (p, r, beta)
                    checked += 1
    _report(3, f"{checked} valuation blocks equal the census measures exactly")


def test_criterion_04_z3_adjudication():
    stated_m2 = cf.diopm_z3_claimed(2)      # 91/162
    pair_value = cf.diop2_zp(r_shape(1, 3))  # 7/12
    interval = zp_interval(3, 1, 2, 7)
    inside = [v for v in (stated_m2, pair_value) if v in interval]
    assert len(inside) == 1
    assert inside[0] == pair_value
    records = run_suite("z3-adjudicate")
    m2 = {r.quantity: r for r in records if r.params["m"] == 2}
    assert m2["mtuple_density_z3_stated"].verdict == DISAGREE
    assert m2["mtuple_density_z3_consistent"].verdict == AGREE
    m3 = {r.quantity: r for r in records if r.params["m"] == 3}
    for rec in m3.values():
        assert rec.verdict in (AGREE, DISAGREE, INCONCLUSIVE)
        assert "43/162" in rec.params["candidates"]
        assert "31/108" in rec.params["candidates"]
    _report(4, f"m=2: interval contains 7/12 only, stated 91/162 refuted; "
               f"m=3 verdicts: stated={m3['mtuple_density_z3_stated'].verdict}, "
               f"consistent={m3['mtuple_density_z3_consistent'].verdict}")


def test_criterion_05_z3_structure_lemma():
    rs = [r for r in range(1, 101) if r % 3 == 1]
    for r in rs:
        result = census(3, r, 3)
        assert result.boundary == result.total, r  # no all-units triple survives
    _report(5, f"all-units triples excluded over F_3 for all {len(rs)} r = 1 mod 3 in [1, 100]")


def test_criterion_06_conic_exhaustive():
    cases = 0
    for p in (3, 5, 7, 11, 13):
        for a2 in range(1, p):
            for a1 in range(p):
                for a0 in range(p):
                    assert conic_sum_direct(a2, a1, a0, p) == cf.conic_sum_closed(a2, a1, a0, p)
                    cases += 1
    _report(6, f"{cases} quadratic character sums: closed form equals direct sum, zero mismatches")


def test_criterion_07_boundary_counts():
    checked = 0
    for p in (5, 7, 11, 13, 17, 19, 23):
        for r in range(1, p):
            boundary = census(p, r, 3).boundary
            if legendre(r, p) == 1:
                assert boundary == (3 * p * p - 1) // 2, (p, r)
            else:
                assert boundary == 0, (p, r)
            checked += 1
    _report(7, f"{checked} boundary counts match (3p^2-1)/2 or 0 exactly")


def test_criterion_08_partition_and_anchors():
    for p in (5, 7, 11, 13):
        for r in (1, 2, 3):
            c = census(p, r, 3)
            assert c.total == c.boundary + c.offdiag + c.interior
    assert census(7, 1, 3).interior == 8
    assert census(5, 1, 3).interior == 0
    records = run_suite("triples-fp", pmax=31)
    assert exit_code_for(records) == 0
    emitted = {(r.quantity, r.params["p"], r.params["r"]) for r in records}
    primes = [p for p in range(3, 32, 2) if all(p % f for f in range(3, p, 2))]
    for p in primes:
        for r in range(1, p):
            for q in ("triple_offdiag_count", "triple_interior_density", "triple_density"):
                assert (q, p, r) in emitted
    n_disagree = sum(1 for r in records if r.verdict == DISAGREE)
    _report(8, f"partition holds on every run; interior anchors 8 and 0 exact; "
               f"triples audit emitted {len(records)} records ({n_disagree} documented "
               f"discrepancies) with exit code 0")


def test_criterion_09_triple_density_envelope():
    for p in (31, 61, 101):
        for r in (1, 2):
            total = census(p, r, 3).total
            target = Fr(1, 8) + Fr(6 + 3 * legendre(r, p), 8 * p)
            assert abs(Fr(total, p**3) - target) <= Fr(10, p * p), (p, r)
    _report(9, "triple density within 10/p^2 of 1/8 + (6+3chi)/(8p) at p = 31, 61, 101")


def test_criterion_10_curve_checks():
    instances = ec_instances(seed=20240)
    assert len(instances) == 100
    for p, a, b, c, r in instances:
        order = curve_order(TripleCurve(p, a, b, c, r))  # Hasse asserted inside
        assert order % 4 == 0
        v = two_descent_equiv(p, a, b, c, r)
        assert v.doubling_image_size == order // 4
        assert v.criterion_equal, (p, a, b, c, r)
        assert v.coset_identity_ok and v.coset_xset_matches_dset, (p, a, b, c, r)
    _report(10, "100 deterministic instances: Hasse, full 2-torsion order, quarter-size "
                "doubling image, and non-boundary square-criterion equality all hold")


def test_criterion_11_extension_count_bounds():
    t0 = time.monotonic()
    checked = 0
    for p in (13, 17, 29):
        lo, hi = extension_count_envelope(p)
        for r in (1, 2):
            for a, b, c in dr_triples_distinct(p, r):
                nd = len(extension_dset(p, a, b, c, r, include_boundary=False))
                assert lo <= 8 * nd <= hi, (p, r, a, b, c, nd)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(11, f"{checked} distinct-entry triples: 8*#extensions inside the integer "
                f"envelope of [p/8 - sqrt(p)/4 - 1, p/8 + sqrt(p)/4] in {elapsed:.1f}s")


def test_criterion_12_quadruple_main_term():
    t0 = time.monotonic()
    for p in (53, 101):
        for r in (1, 2):
            total = census(p, r, 4).total
            gap = abs(Fr(total, p**4) - Fr(1, 64))
            assert gap * gap <= Fr(1, p), (p, r)  # gap <= 1/sqrt(p), exactly
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _report(12, f"quadruple density within 1/sqrt(p) of 1/64 at p = 53, 101 in {elapsed:.1f}s")


def test_criterion_13_residue_field_specialization():
    for p in (3, 5, 7, 11, 13):
        for r in auto_rset(p):
            shape = r_shape(r, p)
            assert cf.pair_measure(p, shape.alpha, shape.chi_s) == cf.diop2_zp(shape), (p, r)
    checked = 0
    for q in (3, 5, 7, 9, 25, 27):
        for alpha in range(7):
            for chi_s in (1, -1):
                assert series_consistency(q, alpha, chi_s, alpha + 6) == cf.pair_measure(q, alpha, chi_s), (q, alpha, chi_s)
                checked += 1
    _report(13, f"residue-field forms specialize exactly; {checked} block series "
                f"identities hold with exact tails")
