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

`two_descent_pass` checks every instance in one pass: the curves are the
rows of one array over x, padded to the largest p, and each row reads its
own prime's block of the concatenated `arith.residue_tables`, so each sweep
is one gather for all of them.  The two sides stay independent: the
point-law side (points, doubling, the coset walk) reads only the square
roots and the inverses, and the criterion side (the square criterion, the
extension sets, the twist) reads only the character.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .arith import require_nonzero_r, require_odd_prime, residue_tables
from .fp_census import PRODUCT_CELLS
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
        require_nonzero_r(self.r, p)
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


class _Curves:
    """TripleCurves side by side, one value of each per curve in `cols`.

    As `of` builds them the values are (K, 1) columns, so they broadcast
    along the rows of a (K, P) array over x = 0 .. P-1, P the largest p, and
    entries at x >= p of a row are padding; `at` lists them flat, one per
    point of a list of points.  The residue tables of every prime among the
    curves are concatenated, and a curve reads its own prime's block from
    its offset: one gather serves every curve.
    """

    # each curve's values in `cols`, in this order, then its three monic roots
    # e; the point law reads the first four
    _NAMES = ("p", "A", "B", "off", "C", "a", "b", "c", "r", "abc")

    def __init__(self, cols: np.ndarray, tables):
        self.cols = cols
        vars(self).update(zip(self._NAMES, cols))
        self.e = cols[len(self._NAMES):]
        self.tables = self.chi, self.root, self.inv = tables

    @classmethod
    def of(cls, curves) -> _Curves:
        primes = sorted({curve.p for curve in curves})
        start = dict(zip(primes, accumulate([0, *primes])))
        cols = np.array(
            [(c.p, c.A, c.B, start[c.p], c.C, c.a, c.b, c.c, c.r, c.abc, *c.roots) for c in curves], np.int64
        )
        return cls(cols.T[:, :, None], tuple(np.concatenate(t) for t in zip(*map(residue_tables, primes))))

    def at(self, k) -> _Curves:
        """The curves of rows k, flat, one per entry of k, with only the values the point law reads."""
        return _Curves(self.cols[:4, k, 0], self.tables)

    def read(self, table, v):
        """table[v] in each curve's own block, for v reduced mod the curve's p."""
        return table[self.off + v]

    def root_y(self) -> np.ndarray:
        """Y[k, x]: a root y of y^2 = f(x) on curve k, -1 where f(x) is no square and at padding.

        The cubic is evaluated by Horner's rule, reduced mod p after every
        product, so every intermediate stays below 3P^2: exact in int64 at
        desk scale.
        """
        p = self.p
        x = np.arange(int(p.max()))
        Y = self.read(self.root, (((x + self.A) * x % p + self.B) * x + self.C) % p)
        Y[x >= p] = -1
        return Y


def curve_points(curve: TripleCurve) -> tuple[np.ndarray, np.ndarray]:
    """The affine points as arrays (x, y), by one sweep over x; infinity is left implicit."""
    y = _Curves.of([curve]).root_y()[0]
    on, twin = y >= 0, y > 0
    x = np.arange(curve.p)
    return np.concatenate([x[on], x[twin]]), np.concatenate([y[on], curve.p - y[twin]])


def _chord_tangent(E: _Curves, x1, y1, x2, y2):
    """P + Q over arrays of affine points on the curves E: (x, y, finite), finite False where P + Q is infinity.

    Where x1 == x2, Q is P or -P: P + (-P), a doubled 2-torsion point
    included, is infinity, and P + P takes the tangent slope.
    """
    p = E.p
    chord = x1 != x2
    tangent = (3 * x1 * x1 + 2 * E.A * x1 + E.B) % p * E.read(E.inv, 2 * y1 % p)
    lam = np.where(chord, (y2 - y1) % p * E.read(E.inv, (x2 - x1) % p), tangent) % p
    x3 = (lam * lam - E.A - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return x3, y3, chord | ((y1 + y2) % p != 0)


def _doubles(E: _Curves, Y: np.ndarray, k, x, y) -> np.ndarray:
    """Mark M[k, x2, s] of 2E on each curve: the doubles (x2, y2) of the points (x, y) of curves k.

    Y is `E.root_y()`; s is 0 where y2 is the root Y[k, x2] and 1 where
    y2 = p - Y[k, x2], so a K x P x 2 mark holds 2E with no sort.  The
    tangent at (x, -y) has slope -lambda, so 2(x, -y) = (x2, -y2): each
    double marks its negation too.
    """
    x2, y2, finite = _chord_tangent(E.at(k), x, y, x, y)
    k, x2, y2 = k[finite], x2[finite], y2[finite]
    up = (y2 != Y[k, x2]).astype(np.intp)
    M = np.zeros((*Y.shape, 2), bool)
    M[k, x2, up] = True
    M[k, x2, (1 - up) * (y2 != 0)] = True
    return M


def doubling_image(curve: TripleCurve, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The affine points of 2E(F_p) as arrays (x, y), sorted and distinct, by doubling every point.

    x, y are the curve's affine points, as `curve_points` gives them.
    Infinity, the double of the 2-torsion, is always in 2E and is left implicit.
    """
    E = _Curves.of([curve])
    Y = E.root_y()
    xs, s = np.nonzero(_doubles(E, Y, np.zeros_like(x), x, y)[0])
    return xs, np.where(s, curve.p - Y[0, xs], Y[0, xs])


def _extension_rows(p: int, xs, r: int) -> np.ndarray:
    """Table T[i, d] = chi(xs[i] d + r) in {-1, 0, 1}."""
    chi = residue_tables(p).chi
    require_nonzero_r(r, p)
    d = np.arange(p, dtype=np.int64)
    return chi[(np.asarray(xs, dtype=np.int64)[:, None] % p * d + r % p) % p]


def extension_dset(p: int, a: int, b: int, c: int, r: int, include_boundary: bool = True) -> set[int]:
    """{d : ad+r, bd+r, cd+r all in the square set}.

    The square set includes 0 by convention; pass include_boundary=False for
    the strict variant (all three factors nonzero squares), which is the set
    the extension-count bounds are audited against.
    """
    mask = (_extension_rows(p, (a, b, c), r) >= (0 if include_boundary else 1)).all(axis=0)
    return set(np.flatnonzero(mask).tolist())


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


def _coset_walk(E: _Curves, Y: np.ndarray, M: np.ndarray, dset_nb: np.ndarray) -> np.ndarray:
    """Monic x-mask of the witness coset P0 + 2E of each curve whose row of dset_nb has a d, P0 over the least d.

    One chord-law pass over the affine points of 2E of every such curve, as
    the mark M of `_doubles` lists them, plus P0 + infinity = P0.
    """
    x0 = dset_nb.argmax(1) * E.abc[:, 0] % E.p[:, 0]
    coset = np.zeros(Y.shape, bool)
    coset[np.arange(len(x0)), x0] = True
    k, i, s = np.nonzero(M & dset_nb.any(1)[:, None, None])
    F = E.at(k)
    x3, _, finite = _chord_tangent(F, x0[k], Y[k, x0[k]], i, np.where(s, F.p - Y[k, i], Y[k, i]))
    coset[k[finite], x3[finite]] = True
    return coset


def _all_squares(E: _Curves, mask: np.ndarray, values) -> np.ndarray:
    """mask, where every (K, P) array of `values`, each reduced mod the row's p, is a nonzero square; one at a time."""
    for v in values:
        v += E.off
        mask = mask & (E.chi[v] == 1)
    return mask


def _row_sets(mask: np.ndarray) -> list[frozenset]:
    """The set entries of each row of a 2-D mask, one frozenset of Python ints per row."""
    d = np.nonzero(mask)[1].tolist()  # row by row
    ends = list(accumulate(np.count_nonzero(mask, 1).tolist()))
    return [frozenset(d[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def two_descent_pass(instances) -> list[TwoDescentVerdict]:
    """Verify the square-criterion description of 2E and locate the extension set, for each (p, a, b, c, r).

    Two independent sweeps over F_p per instance, all instances in one array
    pass (rows of different p padded to the largest): chord-tangent doubling
    of every point on one side, quadratic characters on the other.
    `criterion_equal` is the headline equivalence; `dset_matches_image`
    records how the naive (untwisted) reading fares, and the coset fields pin
    the extension set to its coset of 2E.  Each verdict depends on its own
    instance alone, and every field holds Python values, never numpy scalars.
    """
    curves = [TripleCurve(*instance) for instance in instances]
    if not curves:
        return []
    E = _Curves.of(curves)
    p, e = E.p, E.e

    # the point-law side reads only the roots and the inverses: every
    # affine point (x, Y[k, x]) with Y >= 0 of every curve, listed flat
    Y = E.root_y()
    x = np.arange(Y.shape[1])
    valid = x < p
    rows = np.arange(len(curves))[:, None]
    order = 1 + np.count_nonzero(Y >= 0, 1) + np.count_nonzero(Y > 0, 1)
    hasse = (order - p[:, 0] - 1) ** 2 > 4 * p[:, 0]
    if hasse.any():
        k = int(hasse.argmax())
        raise RuntimeError(f"Hasse bound violated: order {order[k]} at p={p[k, 0]}")
    on_k, on_x = np.nonzero(Y >= 0)
    M = _doubles(E, Y, on_k, on_x, Y[on_k, on_x])
    image_size = 1 + np.count_nonzero(M, (1, 2))
    image_x = M.any(2)
    torsion = (x == e[0]) | (x == e[1]) | (x == e[2])  # monic x of the 2-torsion
    image_nb_monic = image_x & ~torsion

    # twisted square criterion, evaluated in monic coordinates: x - e_i all
    # nonzero squares (equivalently bc(aX+r) etc. for X = x/abc)
    crit = _all_squares(E, valid, ((x - root) % p for root in e))
    criterion_equal = ~(crit ^ image_nb_monic).any(1)

    # the extension set over X = d in original coordinates, every factor a
    # nonzero square, so it holds no 2-torsion d
    dset_nb = _all_squares(E, valid, ((t * x + E.r) % p for t in (E.a, E.b, E.c)))

    # descent class of the 2-torsion point over root e_i: chi(e_i - e_j) at
    # j != i, and the product of those two at i
    D = E.read(E.chi, (e[:, None] - e) % p)
    cls = D.copy()
    for i in range(3):
        cls[i, i] = D[i, (i + 1) % 3] * D[i, (i + 2) % 3]
    twist = E.read(E.chi, np.array([E.b * E.c, E.a * E.c, E.a * E.b]) % p)
    in_fiber = (cls == twist).all(1).sum(0)[:, 0]
    untwisted = (twist == 1).all(0)[:, 0]
    coset_ok = 2 * np.count_nonzero(dset_nb, 1) + in_fiber + untwisted == image_size

    coset = _coset_walk(E, Y, M, dset_nb)

    # back to original coordinates: X = d reads the monic x = d abc
    monic = x * E.abc % p
    image_nb, tors_x, coset_d = (m[rows, monic] & valid for m in (image_nb_monic, torsion, coset))
    # with dset_nb empty there is no witness, and the coset check is the count identity at |dset_nb| = 0
    coset_matches = np.where(dset_nb.any(1), ~((coset_d & ~tors_x) ^ dset_nb).any(1), coset_ok)

    # the three boundary d of each row, ascending: each is in the extension
    # set with the zero convention when the other two factors are squares,
    # and in the image when its monic x is
    tors_d = np.nonzero(tors_x)[1].reshape(-1, 3)
    in_dset = np.all([E.read(E.chi, (t * tors_d + E.r) % p) >= 0 for t in (E.a, E.b, E.c)], axis=0)
    in_image = image_x[rows, tors_d * E.abc % p]
    columns = zip(
        curves, order.tolist(), image_size.tolist(), criterion_equal.tolist(), twist[..., 0].T.tolist(),
        _row_sets(dset_nb), _row_sets(image_nb), coset_ok.tolist(), coset_matches.tolist(),
        tors_d.tolist(), in_dset.tolist(), in_image.tolist(),
    )
    return [
        TwoDescentVerdict(
            curve.p, curve.a, curve.b, curve.c, curve.r,
            order=n, doubling_image_size=size, quarter_order_ok=n % 4 == 0 and size == n // 4,
            criterion_equal=crit_eq, twist=tuple(tw), dset_nonboundary=d_nb, image_nonboundary=i_nb,
            dset_matches_image=d_nb == i_nb, coset_identity_ok=c_ok, coset_xset_matches_dset=c_match,
            boundary=tuple(zip(ds, ds_in_dset, ds_in_image)),
        )
        for curve, n, size, crit_eq, tw, d_nb, i_nb, c_ok, c_match, ds, ds_in_dset, ds_in_image in columns
    ]


def two_descent_equiv(p: int, a: int, b: int, c: int, r: int) -> TwoDescentVerdict:
    """The verdict of one instance: `two_descent_pass` of a batch of one."""
    return two_descent_pass([(p, a, b, c, r)])[0]


def extension_census(p: int, r: int) -> tuple[list[tuple[int, int, int]], list[int], list[int]]:
    """The distinct-entry D(r) triples over F_p (sorted) and each one's extension count, zero convention and strict.

    One p x p table T[x, d] = chi(xd + r) serves all three: the triples come
    from one array pass over the upper triangle of T >= 0 per chunk of a,
    and a triple's counts from the least of its three rows, >= 0 and == 1.
    """
    T = _extension_rows(p, range(p), r)
    up = np.triu(T >= 0, 1)  # up[x, y]: x < y, and xy + r is a square or zero
    out = []
    step = max(1, PRODUCT_CELLS // (p * p))  # the a of one pass: at most PRODUCT_CELLS cells, or one a
    for start in range(1, p, step):
        rows = up[start : start + step]
        # (a, b, c) with up[a, b], up[a, c] and up[b, c], in sorted order, as Python ints (no np.int64 repr)
        a, b, c = np.nonzero(rows[:, :, None] & rows[:, None, :] & up)
        out += zip((a + start).tolist(), b.tolist(), c.tolist())
    least = T[np.array(out, dtype=np.int64).reshape(-1, 3)].min(axis=1)
    return out, (least >= 0).sum(axis=1).tolist(), (least == 1).sum(axis=1).tolist()


def dr_triples_distinct(p: int, r: int) -> list[tuple[int, int, int]]:
    """All D(r) triples over F_p with distinct nonzero entries (sorted ascending)."""
    # kept because the benchmark's traced run (bench/spans.py) times it by name
    return extension_census(p, r)[0]
