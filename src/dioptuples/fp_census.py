"""Exhaustive, formula-independent censuses of D(r) m-tuples over F_p and F_q.

This module is the authoritative oracle on finite fields: it never consults
a closed form.  Tuples are counted over the full cartesian power.  Orders
m <= 4 go through one square-class engine, `_class_triangles`: on a table
T[x, y] = w(xy) over a finite abelian group G, the map (x, y, z) ->
(xy, yz, zx) is |G[2]|-to-one onto the (s, t, u) with stu a square, so the
ordered triangles are c * sum W[a] W[b] W[a ^ b] over the c = |G/G^2|
square classes, where W[a] sums w over class a; the engine takes stacks of
class sums and gives one exact count per entry.  Over F_q* the classes are
the squares and the nonsquares, so order 3 reads one vector of length q - 1
and builds no q x q array.  Order 4 (`_class_quadrangles`) is one stacked
call, one entry per value of x1 x2 x3 x4, the product of each of K4's three
perfect matchings, in O(q^2) exact integer work and O(q) memory; the Z/p^N
shell triples of `zp_census` are the engine's third caller.  Orders m >= 5
go through one clique kernel, `_clique_count`, shared with the Z/p^N sweep,
depth first over chunks: a frontier holds one bool row per prefix, the index
set its next coordinate may take, and each further coordinate is one row
gather over a chunk of the frontier; the last three coordinates are the ordered
triangles inside each frontier row, one batched float32 matrix product per
row size, masked by the gathered sub-tables and summed exactly in int64.
The kernel counts the tuples inside each row of a mask; each caller halves
its first coordinate by its own negation: since (-a)(-b) = ab, a and -a
induce one sub-table, so the census passes the rows a < (q-1)/2 of the half
turn below as the masks, weighted 2.  A census runs in one process; the BLAS
product already uses every core.  The budget charges the q^m tuples.

Every field is an `fq.FqField` (a prime p is F_{p^1}), and every table is in
log coordinates of its primitive element g: index i stands for g^i.  Since
g^i g^j + r depends on i + j mod (q-1) alone, a table is the read-only Hankel
view T[i, j] = v[(i + j) mod (q-1)] of one vector, with no q x q product
table; g^i is a square exactly when i is even, and negation
(-1 = g^((q-1)/2)) is the half turn i -> i + (q-1)/2.  `censuses` stacks
the censuses of one field over many r: one R x (q-1) gather gives every
vector, the orders <= 3 of every r are one engine call, and orders >= 4 run
one r at a time inside the call; `census` is the stack of one.
The zero element is one bit: since 0*b + r = r, zero is compatible with every
element, itself included, when r is a square, and with none when it is not;
tuples with a zero coordinate follow from the nonzero counts.  The square set
includes 0; the interior/tilde class separately demands nonzero products.

The direct character sums `conic_sum_direct` read the character from
`arith.residue_tables`, never from a closed form, and take coefficient
arrays, so the `conic` audit gets the sums of a chunk of a2 from one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from .arith import require_nonzero_r, require_order, residue_tables
from .fq import FqField, fq_construct

DEFAULT_BUDGET = 10**9


class BudgetExceededError(ValueError):
    """Raised when a census would enumerate more residue tuples than allowed."""


def _power_fits(base: int, e: int, budget: int) -> bool:
    """base**e <= budget, with no power built once the bit lengths put it past the budget."""
    return (base.bit_length() - 1) * e < budget.bit_length() and base**e <= budget


def _largest_fitting(fits) -> int:
    """The largest k >= 0 with fits(k), for a fits that holds up to some k and fails past it; 0 when fits(1) fails."""
    lo, hi = 0, 1
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # fits(hi) fails, and fits(lo) holds unless lo = 0
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def admit(what: str, charge: str, size: str, k: int, fits, budget: int) -> None:
    """The one admission rule: refuse `what` at size k before any work unless fits(k), naming the charge
    symbolically (3^21, never its digits), the budget and the largest size that fits."""
    if not fits(k):
        raise BudgetExceededError(
            f"{what}: charge {charge} exceeds budget {budget}; the largest {size} that fits is {_largest_fitting(fits)}"
        )


def _as_field(field) -> FqField:
    """The one field representation: a prime p is F_{p^1}."""
    return field if isinstance(field, FqField) else fq_construct(field, 1)


def field_size(field) -> int:
    return _as_field(field).q


def _mul_table(field) -> np.ndarray:
    """Codes of the products a*b of nonzero codes a, b: the reference the census tables are tested against."""
    exp, log = _as_field(field).exp_log
    return exp[(log[1:, None] + log[1:]) % len(exp)]


def square_table(field) -> np.ndarray:
    """Membership bitmap of the square set, read-only: 0 and the even powers of the primitive element."""
    field = _as_field(field)
    q = field.q
    exp, _ = field.exp_log
    bitmap = np.zeros(q, dtype=bool)
    bitmap[0] = True
    bitmap[exp[::2]] = True
    count = int(bitmap.sum())
    if count != (q + 1) // 2:
        raise RuntimeError(f"square set of F_{q} has {count} elements")
    bitmap.flags.writeable = False
    return bitmap


# ---------------------------------------------------------------------------
# vectorized sweep


# Work bounds of the clique kernel: the cells of one batched product (its
# float32 sub-tables, their product and the int64 gather index stay near
# 1 MB), and the rows of one frontier chunk before the next level runs.
PRODUCT_CELLS = 2**16
FRONTIER_ROWS = 2**13


def _batched_triangles(Bf: np.ndarray, F: np.ndarray) -> int:
    """Ordered triangles of the C-ordered float32 table Bf inside the index set of each row of F, summed.

    The rows are grouped by popcount s with `np.bincount` (`np.unique` would
    import numpy.ma), and the s x s sub-tables of a group are gathered by one
    `take` into one float32 batched matmul, PRODUCT_CELLS cells at a time.
    Entry (i, j) of S @ S counts the 2-paths from i to j, at most s < 2^24,
    so it is exact in float32; masked by S and summed in int64, it counts the
    ordered triangles exactly.
    """
    n = F.shape[1]
    sizes = np.count_nonzero(F, axis=1)
    order = np.argsort(sizes, kind="stable")
    total = start = 0
    for s, count in enumerate(np.bincount(sizes).tolist()):
        rows = order[start : start + count]
        start += count
        if not s:  # an empty index set holds no triangle
            continue
        step = max(1, PRODUCT_CELLS // (s * s))
        for i in range(0, count, step):
            index = np.nonzero(F[rows[i : i + step]])[1].reshape(-1, s)
            S = Bf.take(index[:, :, None] * n + index[:, None, :])
            P = np.matmul(S, S)
            P *= S
            total += int(P.sum(dtype=np.int64))
    return total


def _clique_count(B: np.ndarray, m: int, masks: np.ndarray | None = None) -> int:
    """Ordered m-tuples with all pairwise B true inside the index set of each row of `masks`, summed over the rows.

    B must be symmetric; `masks` is a bool array with one row per index set,
    and None means the whole index set.  The count runs depth first over
    chunks: a frontier holds one row per prefix, the index set its next
    coordinate may take, and each chunk of it that extends to at most
    FRONTIER_ROWS rows (or is one parent row) goes one coordinate deeper in
    one row gather and is walked to its leaves before the next chunk, so one
    chunk per level is held.  The last three coordinates are the ordered
    triangles inside each frontier row, one batched float32 product per row
    size (`_batched_triangles`), exact while n < 2^24.  Callers halve the
    first coordinate by their ring's negation and pass its representatives
    as `masks` (see `_census_counts` and `zp_census._zp_sweep`).  The census
    counts orders <= 4 without this kernel (see `_class_triangles` and
    `_class_quadrangles`).
    """
    n = B.shape[0]
    if n >= 2**24:
        raise ValueError(f"{n} indices: float32 counts are exact only below 2^24")
    if m >= 3:
        levels, leaf = m - 3, partial(_batched_triangles, np.ascontiguousarray(B, np.float32))
    else:  # one coordinate is a popcount, and two are one level of row gathers
        levels, leaf = m - 1, np.count_nonzero
    step = max(1, FRONTIER_ROWS // max(1, n))  # a parent row has at most n set entries

    def walk(F, level):  # the tuples inside each row of F, depth first over its chunks
        if level >= levels:
            return int(leaf(F))
        total = 0
        for lo in range(0, len(F), step):
            P, Y = np.nonzero(F[lo : lo + step])  # row (P, y), for each y set in row P, is F[P] & B[y]
            chunk = F[lo : lo + step].take(P, 0)
            chunk &= B[Y]
            total += walk(chunk, level + 1)
        return total

    return walk(np.ones((1, n), bool) if masks is None else masks, 0)


def _class_triangles(W1, W2, W3) -> np.ndarray | int:
    """sum over x, y, z in G of w1(xy) w2(yz) w3(zx), from square-class sums, per stack entry.

    G is a finite abelian group whose c = |G/G^2| square classes are labelled
    0 .. c-1 so that the label of a product is the XOR of the labels, and
    W_e[..., a] sums w_e over class a; the leading axes stack independent
    sums.  The map (x, y, z) -> (xy, yz, zx) is |G[2]|-to-one onto the
    (s, t, u) with stu a square, |G[2]| = c, and stu is a square exactly when
    the label of u is the XOR of those of s and t, so each sum is
    c * sum over a, b of W1[a] W2[b] W3[a ^ b].  The characters of
    G/G^2 = (Z/2)^k turn that XOR convolution into a product: with
    hat W(x) = sum over a of (-1)^|a & x| W[a], it is the sum over x of
    hat W1(x) hat W2(x) hat W3(x), and each distinct input (the census and
    `_class_quadrangles` pass one W three times) is transformed once.  Exact
    in Python integers: an object array of counts, or one int for unstacked
    sums.
    """
    hats = {}
    for W in (W1, W2, W3):
        if id(W) not in hats:
            hats[id(W)] = _walsh_hadamard(np.asarray(W, object))
    return sum(x * y * z for x, y, z in zip(hats[id(W1)], hats[id(W2)], hats[id(W3)]))


def _walsh_hadamard(W: np.ndarray) -> list:
    """[hat W(x) for x in 0 .. c-1], hat W(x) = sum over a of (-1)^|a & x| W[..., a], by log2(c) butterfly passes."""
    hat = [W[..., a] for a in range(W.shape[-1])]
    h = 1
    while h < len(hat):
        for i in range(len(hat)):
            if not i & h:
                hat[i], hat[i | h] = hat[i] + hat[i | h], hat[i] - hat[i | h]
        h *= 2
    return hat


def _class_quadrangles(v: np.ndarray) -> int:
    """Ordered 4-cliques of the Hankel table T[i, j] = v[(i + j) mod n], n even, from square-class sums.

    In log coordinates the units are Z/n, written additively, and T is
    w(x + y) with w = v.  The map (x1, x2, x3, x4) -> (a, b, c, s) =
    (x1 + x2, x1 + x3, x1 + x4, x1 + x2 + x3 + x4) is 2-to-one onto the
    (a, b, c, s) with a + b + c - s even, and K4's three perfect matchings
    each sum to s, so the six pair sums are a, b, c, s - a, s - b and s - c.
    So the count sums one stacked `_class_triangles` call over the n stacks
    U_s = (E_s, O_s), the sums of u_s(a) = v[a] v[s - a] over the even and
    the odd a, whose c = 2 is the map's 2; the parity of s would relabel the
    third class, but at odd s, a -> s - a swaps the parities, so E_s = O_s.
    E and O are the int64 convolutions of the even and the odd part of v
    with v, folded mod n: nothing of size n^2 is built.  Since
    sum_s (E_s + O_s) = (sum v)^2, sums that break it or E_s = O_s at odd s
    raise RuntimeError.
    """
    n = len(v)
    w = v.astype(np.int64)
    U = np.empty((2, n), np.int64)  # U[c, s]: the a of parity c with v[a] v[s - a]
    for c in (0, 1):
        part = w.copy()
        part[1 - c::2] = 0
        full = np.convolve(part, w)  # full[t]: the a of parity c with v[a] v[t - a], 0 <= t - a < n
        U[c] = full[:n]
        U[c, :-1] += full[n:]
    if int(U.sum()) != int(np.count_nonzero(v)) ** 2 or not np.array_equal(*U[:, 1::2]):
        raise RuntimeError("the class sums U_s break sum_s (E_s + O_s) = (sum v)^2 or E_s = O_s at odd s")
    U = U.T  # one object passed three times, so the engine transforms it once
    return int(_class_triangles(U, U, U).sum())


@dataclass(frozen=True)
class CensusBreakdown:
    """Exact tuple counts split along the boundary / off-diagonal / interior cases."""

    q: int
    r: int
    m: int
    total: int
    boundary: int
    offdiag: int
    interior: int

    def __post_init__(self):
        if self.total != self.boundary + self.offdiag + self.interior:
            raise ValueError("boundary, off-diagonal and interior counts must sum to the total")


def _census_tables(field, r):
    """(zero, member, strict): whether r is a square, and the Hankel tables of the nonzero elements.

    member[i, j] = v[i + j] over v = [g^k + r is a square, 0 included] stored
    twice, so row i is a window of v; strict also asks g^k + r != 0.  r may
    be a sequence: its axis leads every table, one (n, n) table per r, all
    from one gather, and zero is then a list.
    """
    field = _as_field(field)
    p, n = field.p, field.q - 1
    sq = square_table(field)
    exp, _ = field.exp_log
    r = (np.asarray(r, np.int64) % p).astype(exp.dtype)  # below p, so the gather index stays int32
    shifted = exp + r[..., None]  # g^k + r: r moves only the lowest base-p digit
    shifted %= p
    shifted += exp - exp % p
    v = sq[shifted]
    member, strict = (np.ndarray((*r.shape, n, n), bool, np.concatenate([u, u], -1), strides=(2 * n,) * r.ndim + (1, 1))
                      for u in (v, v & (shifted != 0)))
    member.flags.writeable = strict.flags.writeable = False
    return sq[r].tolist(), member, strict


def _census_counts(field, rs, m: int) -> list[tuple[int, int, int]]:
    """(total, nonzero, interior) counts of D(r) m-tuples, for each r of rs.

    Tuples with k nonzero coordinates count only if the zero bit is set, and
    then as C(m, k) placements of a nonzero k-tuple.  Orders k <= 3 come from
    the square-class sums of row 0 of a table, which is its vector v: E and O
    count the set entries at even and odd logarithms (squares, nonsquares),
    so order 1 is q-1, order 2 is (q-1)(E+O) and order 3 is `_class_triangles`
    of (E, O), one call over both tables of every r.  Order 4 is
    `_class_quadrangles` of v, and orders k >= 5 go through the clique
    kernel, one r at a time.
    """
    zero, member, strict = _census_tables(field, rs)
    n = member.shape[-1]
    tables = (member, strict)
    v = np.array([member[:, 0], strict[:, 0]])  # v[t, i]: the vector of table t at the i-th r
    W = np.empty((*v.shape[:2], 2), np.int64)  # W[t, i]: (E, O)
    for c in (0, 1):
        np.add.reduce(v[..., c::2], -1, out=W[..., c])
    triangles = _class_triangles(W, W, W).tolist()
    W = W.tolist()

    def count(t, i, k):
        if k > 4:  # rows a and a + n/2 (-g^a) induce one sub-table, relabelled
            table = tables[t][i]
            return 2 * _clique_count(table, k - 1, table[: n // 2])
        if k == 4:
            return _class_quadrangles(v[t, i])
        return triangles[t][i] if k == 3 else (1, n, n * sum(W[t][i]))[k]

    out = []
    for i, z in enumerate(zero):
        nonzero = count(0, i, m)
        total = nonzero + (sum(comb(m, k) * count(0, i, k) for k in range(m)) if z else 0)
        out.append((total, nonzero, count(1, i, m)))
    return out


def censuses(field, rs, m: int, budget: int = DEFAULT_BUDGET) -> list[CensusBreakdown]:
    """Exhaustive D(r) m-tuple censuses of one field, one per r of rs, from one stacked pass.

    Each breakdown splits its total three ways.  boundary: some coordinate is
    zero.  offdiag: all coordinates nonzero but some pairwise product + r
    vanishes.  interior: the tilde condition (all coordinates and all
    pairwise products + r nonzero).  Every r must be nonzero in F_p (`arith.require_nonzero_r`); the
    budget caps each census at q^m tuples.
    """
    require_order(m)
    field = _as_field(field)
    rs = list(rs)  # read twice: checked, then reduced
    for r in rs:
        require_nonzero_r(r, field.p)
    rs = [r % field.p for r in rs]  # censuses only ever see r as an element of F_p
    q = field.q
    admit(f"census of F_{q} at m = {m}", f"{q}^{m}", "q", q, lambda k: _power_fits(k, m, budget), budget)
    return [
        CensusBreakdown(q=q, r=r, m=m, total=total, boundary=total - nz, offdiag=nz - interior, interior=interior)
        for r, (total, nz, interior) in zip(rs, _census_counts(field, rs, m))
    ]


def census(field, r: int, m: int, budget: int = DEFAULT_BUDGET) -> CensusBreakdown:
    """The census of one r: `censuses` of a stack of one."""
    return censuses(field, [r], m, budget)[0]


# ---------------------------------------------------------------------------
# direct character sums


def conic_sum_direct(a2, a1, a0, p: int):
    """Literal sum of chi(a2 c^2 + a1 c + a0) over all c in F_p.

    The coefficients may be integer arrays: they broadcast, and the result
    holds one sum per coefficient triple, summed over c one residue at a
    time, so memory stays at the broadcast size.  Scalar coefficients give a
    numpy integer.  Below p = 2^15 the work is in int32, which holds
    a2 (c^2 mod p) + a1 c + a0 < 2p^2 + p, in half the memory.
    """
    dtype = np.int32 if p < 2**15 else np.int64
    chi = residue_tables(p).chi.astype(dtype)
    a2, a1, a0 = ((np.asarray(t, dtype=np.int64) % p).astype(dtype) for t in (a2, a1, a0))
    return sum(chi[(a2 * (c * c % p) + a1 * c + a0) % p] for c in range(p))
