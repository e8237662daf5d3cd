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

Each sweep is one whole-array pass over F_p with the read-only tables of
`arith.residue_tables`.  The two sides stay independent: the point-law side
(points, doubling, the coset walk) reads only the square roots and the
inverses, and the criterion side (the square criterion, the extension sets,
the twist) reads only the character.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arith import require_odd_prime, residue_tables
from .fq import DESK_SCALE_BOUND


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
        p = self.p
        if p > DESK_SCALE_BOUND:  # before the prime test, so that every huge p gets this message
            raise ValueError(f"p = {p} exceeds the desk-scale bound {DESK_SCALE_BOUND}")
        require_odd_prime(p)
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


def curve_points(curve: TripleCurve) -> tuple[np.ndarray, np.ndarray]:
    """The affine points as arrays (x, y), by one sweep over x; infinity is left implicit.

    The cubic is evaluated by Horner's rule, reduced mod p after every
    product, so every intermediate stays below 3p^2: exact in int64 at
    desk scale.
    """
    p = curve.p
    x = np.arange(p, dtype=np.int64)
    f = (((x + curve.A) * x % p + curve.B) * x + curve.C) % p
    y = residue_tables(p).root[f]
    on = y >= 0
    twin = on & (y != 0)
    return np.concatenate([x[on], x[twin]]), np.concatenate([y[on], p - y[twin]])


def _chord_tangent(curve: TripleCurve, x1, y1, x2, y2):
    """P + Q over arrays of affine points: (x, y, finite), finite False where P + Q is infinity.

    Where x1 == x2, Q is P or -P: P + (-P), a doubled 2-torsion point
    included, is infinity, and P + P takes the tangent slope.
    """
    p = curve.p
    inv = residue_tables(p).inv
    chord = x1 != x2
    tangent = (3 * x1 * x1 + 2 * curve.A * x1 + curve.B) % p * inv[2 * y1 % p]
    lam = np.where(chord, (y2 - y1) % p * inv[(x2 - x1) % p], tangent) % p
    x3 = (lam * lam - curve.A - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return x3, y3, chord | ((y1 + y2) % p != 0)


def doubling_image(curve: TripleCurve, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The affine points of 2E(F_p) as arrays (x, y), sorted and distinct, by doubling every point.

    x, y are the curve's affine points, as `curve_points` gives them.
    Infinity, the double of the 2-torsion, is always in 2E and is left implicit.
    """
    x2, y2, finite = _chord_tangent(curve, x, y, x, y)
    # a Python sort of at most p codes: np.unique imports numpy.ma, and
    # np.sort pages in 256 KB of vectorized sort code, each raising peak RSS
    code = np.array(sorted(set((x2[finite] * curve.p + y2[finite]).tolist())), dtype=np.int64)
    return code // curve.p, code % curve.p


def two_torsion_xvals(p: int, a: int, b: int, c: int, r: int) -> set[int]:
    """Original-coordinate X values of the 2-torsion: the d with some factor zero."""
    return {(-r) * pow(t, p - 2, p) % p for t in (a, b, c)}


def _extension_rows(p: int, xs, r: int, include_boundary: bool) -> np.ndarray:
    """Bool table M[i, d] = [xs[i] d + r in the square set], nonzero too unless include_boundary."""
    chi = residue_tables(p).chi
    d = np.arange(p, dtype=np.int64)
    return chi[(np.asarray(xs, dtype=np.int64)[:, None] % p * d + r % p) % p] >= (0 if include_boundary else 1)


def extension_dset(p: int, a: int, b: int, c: int, r: int, include_boundary: bool = True) -> set[int]:
    """{d : ad+r, bd+r, cd+r all in the square set}.

    The square set includes 0 by convention; pass include_boundary=False for
    the strict variant (all three factors nonzero squares), which is the set
    the extension-count bounds are audited against.
    """
    mask = _extension_rows(p, (a, b, c), r, include_boundary).all(axis=0)
    return set(np.flatnonzero(mask).tolist())


def extension_counts(p: int, r: int, triples, include_boundary: bool = True) -> list[int]:
    """len(extension_dset(p, a, b, c, r, include_boundary)) for each (a, b, c) in triples.

    One p x p table M[x, d] serves every triple: the count is the number of
    d with M[a, d], M[b, d] and M[c, d] all true.
    """
    M = _extension_rows(p, range(p), r, include_boundary)
    index = np.asarray(triples, dtype=np.int64).reshape(-1, 3) % p
    return M[index].all(axis=1).sum(axis=1).tolist()


def _twist_class(chi: np.ndarray, p: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    return tuple(int(chi[t % p]) for t in (b * c, a * c, a * b))


def _torsion_descent_class(chi: np.ndarray, curve: TripleCurve, i: int) -> tuple[int, int, int]:
    # descent class of the 2-torsion point over root e_i: chi(e_i - e_j) at
    # j != i, and the product of those two at i
    p, e = curve.p, curve.roots
    cls = [int(chi[(e[i] - e[j]) % p]) for j in range(3)]
    cls[i] = cls[(i + 1) % 3] * cls[(i + 2) % 3]
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

    Two independent sweeps over F_p: chord-tangent doubling of every point on
    one side, quadratic characters on the other.  `criterion_equal` is the
    headline equivalence; `dset_matches_image` records how the naive
    (untwisted) reading fares, and the coset fields pin the extension set to
    its coset of 2E.  Every field holds Python values, never numpy scalars.
    """
    curve = TripleCurve(p, a, b, c, r)
    a, b, c, r = curve.a, curve.b, curve.c, curve.r
    chi, _, inv = residue_tables(p)
    pts_x, pts_y = curve_points(curve)
    order = 1 + len(pts_x)
    if (order - p - 1) ** 2 > 4 * p:
        raise RuntimeError(f"Hasse bound violated: order {order} at p={p}")
    img_x, img_y = doubling_image(curve, pts_x, pts_y)
    image_size = 1 + len(img_x)
    quarter_ok = order % 4 == 0 and image_size == order // 4

    inv_abc = int(inv[curve.abc])
    e = np.array(curve.roots)
    img_nb_monic = np.zeros(p, dtype=bool)
    img_nb_monic[img_x] = True
    img_nb_monic[e] = False

    # twisted square criterion, evaluated in monic coordinates: x - e_i all
    # nonzero squares (equivalently bc(aX+r) etc. for X = x/abc)
    crit = (chi[(np.arange(p)[:, None] - e) % p] == 1).all(axis=1)
    criterion_equal = bool(np.array_equal(crit, img_nb_monic))

    image_nb = frozenset((np.flatnonzero(img_nb_monic) * inv_abc % p).tolist())
    tors_x = two_torsion_xvals(p, a, b, c, r)
    dset = extension_dset(p, a, b, c, r, include_boundary=True)
    dset_nb = frozenset(dset - tors_x)
    twist = _twist_class(chi, p, a, b, c)
    untwisted = 1 if twist == (1, 1, 1) else 0

    torsion_in_fiber = sum(1 for i in range(3) if _torsion_descent_class(chi, curve, i) == twist)
    coset_ok = 2 * len(dset_nb) + torsion_in_fiber + untwisted == image_size

    # walk the witness coset P0 + 2E and compare X-images: one chord-law pass
    # over the affine points of 2E, plus P0 + infinity = P0
    if dset_nb:
        x0 = min(dset_nb) * curve.abc % p
        y0 = int(pts_y[np.flatnonzero(pts_x == x0)[0]])
        coset_x, _, finite = _chord_tangent(curve, x0, y0, img_x, img_y)
        coset_d = set((np.append(coset_x[finite], x0) * inv_abc % p).tolist())
        coset_matches = coset_d - tors_x == set(dset_nb)
    else:
        coset_matches = torsion_in_fiber + untwisted == image_size

    image_all = set((img_x * inv_abc % p).tolist())
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


def dr_triples_distinct(p: int, r: int) -> list[tuple[int, int, int]]:
    """All D(r) triples over F_p with distinct nonzero entries (sorted ascending)."""
    chi = residue_tables(p).chi.tolist()  # Python ints: the loop reads no numpy scalar
    out = []
    for a in range(1, p):
        for b in range(a + 1, p):
            if chi[(a * b + r) % p] < 0:
                continue
            for c in range(b + 1, p):
                if chi[(a * c + r) % p] >= 0 and chi[(b * c + r) % p] >= 0:
                    out.append((a, b, c))
    return out
