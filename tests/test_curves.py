import json
import random
from dataclasses import asdict
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from dioptuples import curves
from dioptuples.arith import legendre
from dioptuples.closed_forms import extension_count_envelope
from dioptuples.curves import (
    TripleCurve,
    _chord_tangent,
    _Curves,
    curve_points,
    doubling_image,
    dr_triples_distinct,
    extension_counts,
    extension_dset,
    two_descent_equiv,
    two_descent_pass,
)
from dioptuples.fp_census import census

from conftest import fresh_python

# ---------------------------------------------------------------------------
# scalar reference oracle: one point at a time, plain Python integers; the
# library's array passes are checked against it

INFINITY = None  # reference points are None or (x, y) tuples


def rhs(curve, x):
    return (x * x * x + curve.A * x * x + curve.B * x + curve.C) % curve.p


def reference_points(curve):
    """All points, infinity first, by a direct x-sweep."""
    p = curve.p
    return [INFINITY] + [(x, y) for x in range(p) for y in range(p) if (y * y - rhs(curve, x)) % p == 0]


def curve_order(curve):
    """|E(F_p)| = 1 + sum_x (1 + chi(f(x))); raises if the Hasse bound fails."""
    p = curve.p
    order = 1 + sum(1 + legendre(rhs(curve, x), p) for x in range(p))
    if (order - p - 1) ** 2 > 4 * p:
        raise RuntimeError(f"Hasse bound violated: order {order} at p={p}")
    return order


def double_point(curve, P):
    """Chord-tangent doubling on the monic model; 2-torsion maps to infinity."""
    if P is INFINITY:
        return INFINITY
    x, y = P
    p = curve.p
    if y == 0:
        return INFINITY
    lam = (3 * x * x + 2 * curve.A * x + curve.B) * pow(2 * y, p - 2, p) % p
    x2 = (lam * lam - curve.A - 2 * x) % p
    y2 = (lam * (x - x2) - y) % p
    return (x2, y2)


def add_points(curve, P, Q):
    """Full chord law."""
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    p = curve.p
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return INFINITY
        return double_point(curve, P)
    lam = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (lam * lam - curve.A - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def two_torsion_xvals(p, a, b, c, r):
    """Original-coordinate X values of the 2-torsion: the d with some factor zero."""
    return {(-r) * pow(t, p - 2, p) % p for t in (a, b, c)}


def reference_extension_dset(p, a, b, c, r, include_boundary=True):
    squares = {(x * x) % p for x in range(p)}
    out = set()
    for d in range(p):
        vals = ((a * d + r) % p, (b * d + r) % p, (c * d + r) % p)
        if all(v in squares for v in vals) and (include_boundary or 0 not in vals):
            out.add(d)
    return out


@lru_cache(maxsize=None)  # shared by the one-row and the batched checks; callers only read it
def reference_two_descent(p, a, b, c, r):
    """The verdict from scalar sweeps: Legendre symbols and one point at a time."""
    curve = TripleCurve(p, a, b, c, r)
    a, b, c, r = curve.a, curve.b, curve.c, curve.r
    order = curve_order(curve)
    img = {double_point(curve, P) for P in reference_points(curve)}
    image_size = len(img)
    inv_abc = pow(curve.abc, p - 2, p)
    img_nb_monic = {P[0] for P in img if P is not INFINITY} - set(curve.roots)
    e = curve.roots
    crit = {x for x in range(p) if all(legendre(x - ei, p) == 1 for ei in e)}
    image_nb = frozenset(x * inv_abc % p for x in img_nb_monic)
    tors_x = two_torsion_xvals(p, a, b, c, r)
    dset = reference_extension_dset(p, a, b, c, r)
    dset_nb = frozenset(dset - tors_x)
    twist = (legendre(b * c, p), legendre(a * c, p), legendre(a * b, p))
    untwisted = 1 if twist == (1, 1, 1) else 0
    torsion_in_fiber = 0
    for i in range(3):
        cls = [legendre(e[i] - e[j], p) if j != i else 0 for j in range(3)]
        cls[i] = cls[(i + 1) % 3] * cls[(i + 2) % 3]
        torsion_in_fiber += tuple(cls) == twist
    if dset_nb:
        x0 = min(dset_nb) * curve.abc % p
        y0 = next(y for y in range(p) if (y * y) % p == rhs(curve, x0))
        coset = {add_points(curve, (x0, y0), P) for P in img}
        coset_x = {P[0] * inv_abc % p for P in coset if P is not INFINITY}
        coset_matches = coset_x - tors_x == set(dset_nb)
    else:
        coset_matches = torsion_in_fiber + untwisted == image_size
    image_all = {P[0] * inv_abc % p for P in img if P is not INFINITY}
    return dict(
        p=p, a=a, b=b, c=c, r=r,
        order=order,
        doubling_image_size=image_size,
        quarter_order_ok=order % 4 == 0 and image_size == order // 4,
        criterion_equal=crit == img_nb_monic,
        twist=twist,
        dset_nonboundary=dset_nb,
        image_nonboundary=image_nb,
        dset_matches_image=dset_nb == image_nb,
        coset_identity_ok=2 * len(dset_nb) + torsion_in_fiber + untwisted == image_size,
        coset_xset_matches_dset=coset_matches,
        boundary=tuple((d, d in dset, d in image_all) for d in sorted(tors_x)),
    )


def point_set(xs, ys):
    return set(zip(xs.tolist(), ys.tolist()))


# ---------------------------------------------------------------------------


def test_curve_construction_and_roots():
    curve = TripleCurve(13, 1, 3, 8, 1)
    assert set(curve.roots) == {(-24) % 13, (-8) % 13, (-3) % 13}
    for e in curve.roots:
        assert rhs(curve, e) == 0
    with pytest.raises(ValueError):
        TripleCurve(13, 1, 1, 8, 1)  # repeated entry: singular
    with pytest.raises(ValueError):
        TripleCurve(13, 0, 3, 8, 1)
    with pytest.raises(ValueError):
        TripleCurve(13, 1, 3, 8, 0)
    # the census's size bound: a prime above it is refused before any array is built
    assert TripleCurve(99991, 1, 3, 8, 1).p == 99991
    with pytest.raises(ValueError, match="desk-scale bound"):
        TripleCurve(100003, 1, 3, 8, 1)


def test_curve_order_hasse_and_torsion():
    curve = TripleCurve(13, 1, 3, 8, 1)
    order = curve_order(curve)
    assert 7 <= order <= 21  # 13 + 1 ± 2*sqrt(13)
    assert order % 4 == 0
    assert order == 1 + len(curve_points(curve)[0])


@pytest.mark.parametrize("p,a,b,c,r", [(13, 1, 3, 8, 1), (17, 2, 5, 11, 3), (5, 1, 2, 3, 1), (101, 3, 7, 50, 5)])
def test_curve_points_match_the_reference_sweep(p, a, b, c, r):
    curve = TripleCurve(p, a, b, c, r)
    xs, ys = curve_points(curve)
    assert xs.dtype == ys.dtype == np.int64
    assert len(xs) == len(point_set(xs, ys))
    assert point_set(xs, ys) == set(reference_points(curve)[1:])


def test_doubling_basics_and_closure():
    curve = TripleCurve(13, 1, 3, 8, 1)
    assert double_point(curve, None) is None
    for e in curve.roots:
        assert double_point(curve, (e, 0)) is None
    for P in reference_points(curve):
        Q = double_point(curve, P)
        assert Q is None or (Q[1] * Q[1]) % curve.p == rhs(curve, Q[0])


def test_addition_against_scalar_doubling():
    curve = TripleCurve(17, 2, 5, 11, 3)
    pts = reference_points(curve)
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


@pytest.mark.parametrize("p,a,b,c,r", [(13, 1, 3, 8, 1), (17, 2, 5, 11, 3), (29, 1, 4, 9, 2), (7, 1, 2, 3, 3)])
def test_array_chord_law_matches_scalar_addition(p, a, b, c, r):
    # every ordered pair of affine points, Q = P and Q = -P included
    curve = TripleCurve(p, a, b, c, r)
    xs, ys = curve_points(curve)
    i, j = np.divmod(np.arange(len(xs) ** 2), len(xs))
    x3, y3, finite = (v[0] for v in _chord_tangent(_Curves.of([curve]), xs[i], ys[i], xs[j], ys[j]))
    for k in range(len(i)):
        want = add_points(curve, (int(xs[i[k]]), int(ys[i[k]])), (int(xs[j[k]]), int(ys[j[k]])))
        got = (int(x3[k]), int(y3[k])) if finite[k] else None
        assert got == want, (k, want, got)


def test_quarter_order():
    for p, a, b, c, r in ((13, 1, 3, 8, 1), (17, 2, 5, 11, 3), (29, 4, 9, 20, 2)):
        curve = TripleCurve(p, a, b, c, r)
        order = curve_order(curve)
        xs, ys = doubling_image(curve, *curve_points(curve))
        assert 1 + len(xs) == order // 4  # infinity, always a double, is implicit
        reference = {double_point(curve, P) for P in reference_points(curve)}
        assert None in reference
        assert point_set(xs, ys) == reference - {None}
        assert list(xs * p + ys) == sorted(set((xs * p + ys).tolist()))


def test_doubling_image_symmetry():
    curve = TripleCurve(13, 1, 3, 8, 1)
    img = point_set(*doubling_image(curve, *curve_points(curve)))
    for x, y in img:
        assert (x, (-y) % 13) in img


def test_extension_dset_examples():
    dset = extension_dset(13, 1, 3, 8, 1)
    assert 3 in dset  # 120 mod 13: squares 4, 10, 12
    assert 0 in dset  # chi(1) = 1
    dset_nr = extension_dset(13, 1, 3, 8, 2)
    assert (0 in dset_nr) == (legendre(2, 13) == 1)
    assert all(type(d) is int for d in dset)


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


def _sample_instances():
    # every admissible instance at p = 13 with a < b < c (the other orders
    # permute the roots, which the seeded samples cover), and seeded samples
    yield from ((13, a, b, c, r) for a, b, c in combinations(range(1, 13), 3) for r in range(1, 13))
    rng = random.Random(1902)
    for p in (29, 61, 101):
        for _ in range(25):
            yield (p, *rng.sample(range(1, p), 3), rng.randrange(1, p))


def test_two_descent_matches_the_scalar_reference():
    for instance in _sample_instances():
        got = asdict(two_descent_equiv(*instance))
        want = reference_two_descent(*instance)
        assert got == want, instance
        # numpy scalars would print differently, or not serialize at all
        assert json.dumps(got, default=sorted) == json.dumps(want, default=sorted), instance


# mixed primes beyond the samples: the least p the curves admit, p = 7, and
# p = 211, the widest row; (5, 1, 2, 3, 2) has an empty extension set
EDGE_INSTANCES = [(5, 1, 2, 3, 2), (5, 1, 2, 4, 1), (5, 4, 3, 1, 3), (7, 1, 2, 3, 3), (7, 6, 2, 5, 1)] + [
    (211, *random.Random(211).sample(range(1, 211), 3), r) for r in (1, 2, 105, 210)
]


def test_batched_two_descent_matches_the_scalar_reference():
    # one pass over rows of p = 5 .. 211, each padded to 211 and reduced mod its own p
    instances = list(_sample_instances()) + EDGE_INSTANCES
    verdicts = two_descent_pass(instances)
    assert len(verdicts) == len(instances)
    for instance, verdict in zip(instances, verdicts):
        got, want = asdict(verdict), reference_two_descent(*instance)
        assert got == want, instance
        assert json.dumps(got, default=sorted) == json.dumps(want, default=sorted), instance
    assert two_descent_equiv(5, 1, 2, 3, 2).dset_nonboundary == frozenset()


def test_batched_two_descent_verdicts_ignore_their_batch_mates():
    rng = random.Random(5)
    instances = rng.sample(list(_sample_instances()), 40) + EDGE_INSTANCES
    want = two_descent_pass(instances)
    shuffled = rng.sample(range(len(instances)), len(instances))
    assert two_descent_pass([instances[i] for i in shuffled]) == [want[i] for i in shuffled]
    assert two_descent_pass(instances * 2) == want * 2
    assert [two_descent_pass([instance])[0] for instance in instances] == want
    assert [two_descent_equiv(*instance) for instance in instances] == want
    assert two_descent_pass([]) == []


def test_two_descent_refuses_an_order_past_the_hasse_bound():
    # a planted fault under -O: no affine point, so order 1 at p = 5
    proc = fresh_python(
        "-O", "-c",
        "import numpy as np\n"
        "from dioptuples import curves\n"
        "root_y = curves._Curves.root_y\n"
        "curves._Curves.root_y = lambda E: np.full_like(root_y(E), -1)\n"
        "curves.two_descent_pass([(5, 1, 2, 3, 1)])\n",
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.endswith("RuntimeError: Hasse bound violated: order 1 at p=5\n"), proc.stderr


def test_extension_count_envelope():
    lo, hi = extension_count_envelope(29)
    assert (lo, hi) == (29 - 11 - 8, 29 + 11)
    assert lo <= 8 * 5 <= hi  # 8*5 = 40 = hi
    assert not lo <= 8 * 6 <= hi


def reference_dr_triples_distinct(p, r):
    """The D(r) triples a < b < c of nonzero residues, by the plain triple loop."""
    ok = [legendre(x, p) >= 0 for x in range(p)]
    return [
        (a, b, c)
        for a in range(1, p)
        for b in range(a + 1, p)
        if ok[(a * b + r) % p]
        for c in range(b + 1, p)
        if ok[(a * c + r) % p] and ok[(b * c + r) % p]
    ]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_dr_triples_distinct_is_the_triple_loop(monkeypatch, p):
    # every r, in the loop's sorted order and as Python ints, which print without np.int64;
    # in one pass over every a, and in passes of two a each
    for cells in (curves.PRODUCT_CELLS, 2 * p * p):
        monkeypatch.setattr(curves, "PRODUCT_CELLS", cells)
        for r in range(1, p):
            triples = dr_triples_distinct(p, r)
            assert triples == reference_dr_triples_distinct(p, r), (cells, r)
            assert all(type(x) is int for triple in triples for x in triple)
    assert dr_triples_distinct(13, -1) == dr_triples_distinct(13, 12)


def test_eqd_envelope_over_small_primes():
    for p, r in ((13, 1), (13, 2), (17, 1)):
        lo, hi = extension_count_envelope(p)
        for a, b, c in dr_triples_distinct(p, r):
            nd = len(extension_dset(p, a, b, c, r, include_boundary=False))
            assert lo <= 8 * nd <= hi, (p, r, a, b, c, nd)


# the suite_eqd shapes and the census cross-check's cases
EXTENSION_SHAPES = [(p, r) for p in (13, 17, 29) for r in (1, 2)] + [(13, 1), (13, 2), (17, 1)]


@pytest.mark.parametrize("p,r", EXTENSION_SHAPES)
def test_batched_extension_counts_match_per_triple_sets(p, r):
    triples = dr_triples_distinct(p, r)
    for include_boundary in (True, False):
        counts = extension_counts(p, r, triples, include_boundary)
        assert all(type(n) is int for n in counts)
        for (a, b, c), n in zip(triples, counts):
            dset = extension_dset(p, a, b, c, r, include_boundary)
            assert dset == reference_extension_dset(p, a, b, c, r, include_boundary), (a, b, c)
            assert n == len(dset), (a, b, c, include_boundary)
    assert extension_counts(p, r, []) == []


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
