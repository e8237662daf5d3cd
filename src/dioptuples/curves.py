"""Elliptic-curve verification of the quadruple-extension argument.

A distinct-entry triple (a, b, c) with abc != 0 and a unit r defines the
curve Y^2 = (aX + r)(bX + r)(cX + r) over F_p.  The monic model uses
(x, y) = (abc*X, abc*Y), so the cubic has roots -rbc, -rac, -rab and the
root bookkeeping stays transparent.  The curve has full rational 2-torsion,
hence |2E| = |E|/4.

What is actually equivalent to membership in 2E (checked here by independent
sweeps, characters on one side and chord-tangent doubling on the other) is
the square criterion with leading-coefficient twists:

    (X, Y) in 2E, Y != 0   <=>   bc(aX+r), ac(bX+r), ab(cX+r) all nonzero squares.

The extension set {d : ad+r, bd+r, cd+r all squares} is instead the X-image
of a single coset of 2E, pinned by the twist class (chi(bc), chi(ac), chi(ab));
it equals the doubling image exactly when that class is trivial.  The coset
structure is verified through the exact count identity

    |2E| = [twist trivial] + #{2-torsion points in the coset} + 2 * #{nonboundary d}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .arith import legendre, require_odd_prime, squares_mod


@dataclass(frozen=True)
class TripleCurve:
    """y^2 = x^3 + A x^2 + B x + C over F_p, from a triple and a unit r."""

    p: int
    a: int
    b: int
    c: int
    r: int
    A: int = field(init=False)
    B: int = field(init=False)
    C: int = field(init=False)

    def __post_init__(self):
        require_odd_prime(self.p)
        p = self.p
        a, b, c, r = self.a % p, self.b % p, self.c % p, self.r % p
        if 0 in (a, b, c):
            raise ValueError("triple entries must be nonzero mod p")
        if len({a, b, c}) != 3:
            raise ValueError("triple entries must be distinct mod p (singular model)")
        if r == 0:
            raise ValueError("r must be nonzero mod p")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "A", r * (a * b + b * c + c * a) % p)
        object.__setattr__(self, "B", r * r * (a * b * c) * (a + b + c) % p)
        object.__setattr__(self, "C", pow(r, 3, p) * pow(a * b * c, 2, p) % p)

    @property
    def abc(self) -> int:
        return self.a * self.b * self.c % self.p

    @property
    def roots(self) -> tuple[int, int, int]:
        p, r = self.p, self.r
        return (-r * self.b * self.c % p, -r * self.a * self.c % p, -r * self.a * self.b % p)

    def rhs(self, x: int) -> int:
        return (x * x * x + self.A * x * x + self.B * x + self.C) % self.p


INFINITY = None  # curve points are None or (x, y) tuples


def curve_points(curve: TripleCurve) -> list:
    """All points, infinity first, by a direct x-sweep."""
    p = curve.p
    sqrt_of = [[] for _ in range(p)]
    for y in range(p):
        sqrt_of[(y * y) % p].append(y)
    pts = [INFINITY]
    for x in range(p):
        for y in sqrt_of[curve.rhs(x)]:
            pts.append((x, y))
    return pts


def curve_order(curve: TripleCurve) -> int:
    """|E(F_p)| = 1 + sum_x (1 + chi(f(x))); raises if the Hasse bound fails."""
    p = curve.p
    order = 1 + sum(1 + legendre(curve.rhs(x), p) for x in range(p))
    if (order - p - 1) ** 2 > 4 * p:
        raise RuntimeError(f"Hasse bound violated: order {order} at p={p}")
    return order


def double_point(curve: TripleCurve, P):
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


def add_points(curve: TripleCurve, P, Q):
    """Full chord law; needed once per instance to walk a coset of 2E."""
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


def doubling_image(curve: TripleCurve) -> set:
    """2E(F_p) as a point set, by doubling every point."""
    return {double_point(curve, P) for P in curve_points(curve)}


def two_torsion_xvals(p: int, a: int, b: int, c: int, r: int) -> set[int]:
    """Original-coordinate X values of the 2-torsion: the d with some factor zero."""
    return {(-r) * pow(t, p - 2, p) % p for t in (a, b, c)}


def extension_dset(p: int, a: int, b: int, c: int, r: int, include_boundary: bool = True) -> set[int]:
    """{d : ad+r, bd+r, cd+r all in the square set}.

    The square set includes 0 by convention; pass include_boundary=False for
    the strict variant (all three factors nonzero squares), which is the set
    the extension-count bounds are audited against.
    """
    require_odd_prime(p)
    sq = squares_mod(p)
    out = set()
    for d in range(p):
        vals = ((a * d + r) % p, (b * d + r) % p, (c * d + r) % p)
        if all(v in sq for v in vals):
            if include_boundary or 0 not in vals:
                out.add(d)
    return out


def _twist_class(p: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    return (legendre(b * c, p), legendre(a * c, p), legendre(a * b, p))


def _torsion_descent_class(curve: TripleCurve, i: int) -> tuple[int, int, int]:
    # descent class of the 2-torsion point over root e_i; the i-th coordinate
    # is the product of the differences to the other two roots
    p = curve.p
    e = curve.roots
    cls = [0, 0, 0]
    for j in range(3):
        if j != i:
            cls[j] = legendre(e[i] - e[j], p)
    off = [cls[j] for j in range(3) if j != i]
    cls[i] = off[0] * off[1]
    return tuple(cls)


@dataclass(frozen=True)
class TwoDescentVerdict:
    """Outcome of the doubling-image / square-criterion equivalence check."""

    p: int
    a: int
    b: int
    c: int
    r: int
    order: int
    doubling_image_size: int
    quarter_order_ok: bool
    criterion_equal: bool          # doubling image == twisted square criterion
    twist: tuple[int, int, int]    # (chi(bc), chi(ac), chi(ab))
    dset_nonboundary: frozenset
    image_nonboundary: frozenset   # original X coords, torsion removed
    dset_matches_image: bool       # naive reading; holds iff twist is trivial
    coset_identity_ok: bool        # |2E| = [twist=1] + torsion-in-fiber + 2|dset_nb|
    coset_xset_matches_dset: bool  # X-image of the witness coset equals dset_nb
    boundary: tuple                # (d, in_dset_with_zero_convention, in_image) per boundary d

    @property
    def ok(self) -> bool:
        """Every check holds; `dset_matches_image` records the naive reading and may fail."""
        return (
            self.quarter_order_ok
            and self.criterion_equal
            and self.coset_identity_ok
            and self.coset_xset_matches_dset
        )


def two_descent_equiv(p: int, a: int, b: int, c: int, r: int) -> TwoDescentVerdict:
    """Verify the square-criterion description of 2E and locate the extension set.

    Two independent sweeps: chord-tangent doubling on one side, quadratic
    characters on the other.  `criterion_equal` is the headline equivalence;
    `dset_matches_image` records how the naive (untwisted) reading fares, and
    the coset fields pin the extension set to its coset of 2E.
    """
    curve = TripleCurve(p, a, b, c, r)
    a, b, c, r = curve.a, curve.b, curve.c, curve.r
    order = curve_order(curve)
    img = doubling_image(curve)
    image_size = len(img)
    quarter_ok = order % 4 == 0 and image_size == order // 4

    inv_abc = pow(curve.abc, p - 2, p)
    img_x_monic = {P[0] for P in img if P is not INFINITY}
    tors_x_monic = set(curve.roots)
    img_nb_monic = img_x_monic - tors_x_monic

    # twisted square criterion, evaluated in monic coordinates: x - e_i all
    # nonzero squares (equivalently bc(aX+r) etc. for X = x/abc)
    e = curve.roots
    crit = {
        x
        for x in range(p)
        if all((x - ei) % p != 0 for ei in e)
        and all(legendre(x - ei, p) == 1 for ei in e)
    }
    criterion_equal = crit == img_nb_monic

    image_nb = frozenset((x * inv_abc) % p for x in img_nb_monic)
    tors_x = two_torsion_xvals(p, a, b, c, r)
    dset = extension_dset(p, a, b, c, r, include_boundary=True)
    dset_nb = frozenset(d for d in dset if d not in tors_x)
    twist = _twist_class(p, a, b, c)

    torsion_in_fiber = sum(1 for i in range(3) if _torsion_descent_class(curve, i) == twist)
    coset_ok = 2 * len(dset_nb) + torsion_in_fiber + (1 if twist == (1, 1, 1) else 0) == image_size

    # walk the witness coset and compare X-images (needs one addition per point)
    if dset_nb:
        d0 = min(dset_nb)
        x0 = d0 * curve.abc % p
        y0 = next(y for y in range(p) if (y * y) % p == curve.rhs(x0))
        coset = {add_points(curve, (x0, y0), P) for P in img}
        coset_x = {(P[0] * inv_abc) % p for P in coset if P is not INFINITY}
        coset_matches = {d for d in coset_x if d not in tors_x} == set(dset_nb)
    else:
        coset_matches = torsion_in_fiber + (1 if twist == (1, 1, 1) else 0) == image_size

    image_all = {(x * inv_abc) % p for x in img_x_monic}
    boundary = tuple((d, d in dset, d in image_all) for d in sorted(tors_x))
    return TwoDescentVerdict(
        p=p,
        a=a,
        b=b,
        c=c,
        r=r,
        order=order,
        doubling_image_size=image_size,
        quarter_order_ok=quarter_ok,
        criterion_equal=criterion_equal,
        twist=twist,
        dset_nonboundary=dset_nb,
        image_nonboundary=image_nb,
        dset_matches_image=dset_nb == image_nb,
        coset_identity_ok=coset_ok,
        coset_xset_matches_dset=coset_matches,
        boundary=boundary,
    )


def extension_count_envelope(p: int) -> tuple[int, int]:
    """Integer envelope [p - ceil(2 sqrt p) - 8, p + ceil(2 sqrt p)] for 8 * #{d}.

    Outward-rounded integer form of the stated p/8 - sqrt(p)/4 - 1 and
    p/8 + sqrt(p)/4 extension-count bounds.
    """
    s = isqrt(4 * p)
    ceil_2sqrt = s if s * s == 4 * p else s + 1
    return p - ceil_2sqrt - 8, p + ceil_2sqrt


def dr_triples_distinct(p: int, r: int) -> list[tuple[int, int, int]]:
    """All D(r) triples over F_p with distinct nonzero entries (sorted ascending)."""
    sq = squares_mod(p)
    out = []
    for a in range(1, p):
        for b in range(a + 1, p):
            if (a * b + r) % p not in sq:
                continue
            for c in range(b + 1, p):
                if (a * c + r) % p in sq and (b * c + r) % p in sq:
                    out.append((a, b, c))
    return out
