import random

import pytest

from dioptuples.arith import legendre
from dioptuples.curves import (
    TripleCurve,
    add_points,
    curve_order,
    curve_points,
    double_point,
    doubling_image,
    dr_triples_distinct,
    extension_count_envelope,
    extension_dset,
    two_descent_equiv,
    two_torsion_xvals,
)
from dioptuples.fp_census import census


def test_curve_construction_and_roots():
    curve = TripleCurve(13, 1, 3, 8, 1)
    assert set(curve.roots) == {(-24) % 13, (-8) % 13, (-3) % 13}
    for e in curve.roots:
        assert curve.rhs(e) == 0
    with pytest.raises(ValueError):
        TripleCurve(13, 1, 1, 8, 1)  # repeated entry: singular
    with pytest.raises(ValueError):
        TripleCurve(13, 0, 3, 8, 1)
    with pytest.raises(ValueError):
        TripleCurve(13, 1, 3, 8, 0)


def test_curve_order_hasse_and_torsion():
    curve = TripleCurve(13, 1, 3, 8, 1)
    order = curve_order(curve)
    assert 7 <= order <= 21  # 13 + 1 ± 2*sqrt(13)
    assert order % 4 == 0
    assert order == len(curve_points(curve))


def test_doubling_basics_and_closure():
    curve = TripleCurve(13, 1, 3, 8, 1)
    assert double_point(curve, None) is None
    for e in curve.roots:
        assert double_point(curve, (e, 0)) is None
    for P in curve_points(curve):
        Q = double_point(curve, P)
        assert Q is None or (Q[1] * Q[1]) % curve.p == curve.rhs(Q[0])


def test_addition_against_scalar_doubling():
    curve = TripleCurve(17, 2, 5, 11, 3)
    pts = curve_points(curve)
    for P in pts:
        assert add_points(curve, P, None) == P
        assert add_points(curve, P, P) == double_point(curve, P)
    # associativity spot check
    rng = random.Random(5)
    for _ in range(50):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        left = add_points(curve, add_points(curve, P, Q), R)
        right = add_points(curve, P, add_points(curve, Q, R))
        assert left == right


def test_quarter_order():
    for p, a, b, c, r in ((13, 1, 3, 8, 1), (17, 2, 5, 11, 3), (29, 4, 9, 20, 2)):
        curve = TripleCurve(p, a, b, c, r)
        order = curve_order(curve)
        img = doubling_image(curve)
        assert len(img) == order // 4
        assert None in img  # infinity is always a double


def test_doubling_image_symmetry():
    curve = TripleCurve(13, 1, 3, 8, 1)
    img = doubling_image(curve)
    for P in img:
        if P is not None:
            assert (P[0], (-P[1]) % 13) in img


def test_extension_dset_examples():
    dset = extension_dset(13, 1, 3, 8, 1)
    assert 3 in dset  # 120 mod 13: squares 4, 10, 12
    assert 0 in dset  # chi(1) = 1
    dset_nr = extension_dset(13, 1, 3, 8, 2)
    assert (0 in dset_nr) == (legendre(2, 13) == 1)


def test_two_torsion_xvals_are_boundary():
    p = 13
    tors = two_torsion_xvals(p, 1, 3, 8, 1)
    for d in tors:
        vals = ((1 * d + 1) % p, (3 * d + 1) % p, (8 * d + 1) % p)
        assert 0 in vals


def test_two_descent_fermat_triple():
    v = two_descent_equiv(13, 1, 3, 8, 1)
    assert v.quarter_order_ok
    assert v.criterion_equal
    assert v.coset_identity_ok
    assert v.coset_xset_matches_dset
    assert 3 in v.dset_nonboundary
    # the naive identification fails here: the twist class is nontrivial
    assert v.twist != (1, 1, 1)
    assert not v.dset_matches_image


def test_two_descent_random_instances():
    rng = random.Random(99)
    primes = [13, 17, 19, 23, 29, 31]
    for _ in range(40):
        p = rng.choice(primes)
        a, b, c = rng.sample(range(1, p), 3)
        r = rng.randrange(1, p)
        v = two_descent_equiv(p, a, b, c, r)
        assert v.quarter_order_ok, (p, a, b, c, r)
        assert v.criterion_equal, (p, a, b, c, r)
        assert v.coset_identity_ok, (p, a, b, c, r)
        assert v.coset_xset_matches_dset, (p, a, b, c, r)
        assert v.dset_matches_image == (v.twist == (1, 1, 1)) or not v.dset_nonboundary


def test_extension_count_envelope():
    lo, hi = extension_count_envelope(29)
    assert (lo, hi) == (29 - 11 - 8, 29 + 11)
    assert lo <= 8 * 5 <= hi  # 8*5 = 40 = hi
    assert not lo <= 8 * 6 <= hi


def test_eqd_envelope_over_small_primes():
    for p, r in ((13, 1), (13, 2), (17, 1)):
        lo, hi = extension_count_envelope(p)
        for a, b, c in dr_triples_distinct(p, r):
            nd = len(extension_dset(p, a, b, c, r, include_boundary=False))
            assert lo <= 8 * nd <= hi, (p, r, a, b, c, nd)


def test_extension_sum_matches_restricted_quadruple_census():
    # sum over distinct-entry unit triples of the extension counts equals the
    # m = 4 census restricted to those triples (independent sweep)
    for p, r in ((13, 1), (11, 2)):
        squares = {(x * x) % p for x in range(p)}
        triples = dr_triples_distinct(p, r)
        total_ext = 0
        for a, b, c in triples:
            total_ext += 6 * len(extension_dset(p, a, b, c, r))  # 3! orderings
        brute = 0
        for a in range(1, p):
            for b in range(1, p):
                for c in range(1, p):
                    if len({a, b, c}) != 3:
                        continue
                    if any((x * y + r) % p not in squares for x, y in ((a, b), (a, c), (b, c))):
                        continue
                    for d in range(p):
                        if all((x * d + r) % p in squares for x in (a, b, c)):
                            brute += 1
        assert total_ext == brute, (p, r)
        assert census(p, r, 4).total >= brute
