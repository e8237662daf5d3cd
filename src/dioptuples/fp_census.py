"""Exhaustive, formula-independent censuses of D(r) m-tuples over F_p and F_q.

This module is the authoritative oracle on finite fields: it never consults
a closed form.  Tuples are counted over the full cartesian power by one
clique kernel, `_clique_count`, which the Z/p^N sweep in `zp_census` shares:
the last three coordinates are one float32 matrix product (a GEMM) over the
q x q compatibility table, masked by the table and summed exactly in int64,
and each further coordinate is one loop over neighbourhoods.  Since
(-a)(-b) = ab, negation preserves every table, so the first coordinate runs
over one element of each {a, -a} pair, weighted 2, and over the fixed
points of negation, weighted 1: half the GEMM rows at m = 3 and half the
loop at m >= 4.  A census runs in one process; the BLAS product already uses
every core.  The budget charges the larger of q^m tuples and the table bytes.

Every field is an `fq.FqField`: a prime p is taken as F_{p^1}, so each table
has one body for every q.  The kernel counts tuples of nonzero codes only:
their products come from the field's log/antilog tables of a primitive
element.  The zero element is one bit.  Since 0*b + r = r, zero is compatible
with every element, itself included, when r is a square, and with none when
it is not; tuples with a zero coordinate follow from the nonzero counts.  The
square set is 0 and the even powers of the primitive element.  It includes 0
(`x*y + r = 0` satisfies the membership test); the interior/tilde class
separately demands nonzero products.

The direct character sums `conic_sum_direct` read the character from
`arith.residue_tables`, never from a closed form, and take coefficient
arrays, so the `conic` audit gets every sum of one p from one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .arith import residue_tables
from .fq import FqField, fq_construct
from .padic import require_nonzero_r

DEFAULT_BUDGET = 10**9
# tracemalloc peak of census(1009, 1, 3) over 1009^2: the census tables plus
# the float32 matrix and its square
TABLE_BYTES_PER_CELL = 12


class BudgetExceededError(ValueError):
    """Raised when a census would enumerate more residue tuples than allowed."""


def _as_field(field) -> FqField:
    """The one field representation: a prime p is F_{p^1}."""
    return field if isinstance(field, FqField) else fq_construct(field, 1)


def field_size(field) -> int:
    return _as_field(field).q


def _mul_table(field) -> np.ndarray:
    """Codes of the products a*b of nonzero codes a, b, as exp[log a + log b]."""
    exp, log = _as_field(field).exp_log
    return exp[log[1:, None] + log[1:]]


def _add_r_vector(field, r: int) -> np.ndarray:
    """Codes of x + r: r is the F_p constant r mod p, so only the lowest base-p digit moves."""
    field = _as_field(field)
    codes = np.arange(field.q, dtype=np.int32)
    low = codes % field.p
    return codes - low + (low + r % field.p) % field.p


def square_table(field) -> np.ndarray:
    """Membership bitmap of the square set: 0 and the even powers of the primitive element."""
    field = _as_field(field)
    q = field.q
    exp, _ = field.exp_log
    bitmap = np.zeros(q, dtype=bool)
    bitmap[0] = True
    bitmap[exp[: q - 1 : 2]] = True
    count = int(bitmap.sum())
    if count != (q + 1) // 2:
        raise RuntimeError(f"square set of F_{q} has {count} elements")
    return bitmap


# ---------------------------------------------------------------------------
# vectorized sweep


def _closed_paths(S: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Float32 matrix whose entry (i, j) counts the k with S[i, k], S[k, j] and S[i, j].

    One row per index i in `rows`, all by default: the 2-paths from i to j of
    S[rows] @ S, masked in place by row i of S.  Its sum is the ordered
    triangles through `rows`, taken without a boolean gather.  Every entry is
    an integer of at most n, exact in float32 while n < 2^24; callers sum in
    int64, which is exact.
    """
    f = S.astype(np.float32)
    fr = f[rows]
    P = fr @ f
    P *= fr
    return P


def _induced(S: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The sub-table S induces on the indices where the bool vector `row` is true.

    Two `take` calls: at the sizes the clique loop sees they copy several
    times faster than `S[np.ix_(row, row)]`.
    """
    index = np.flatnonzero(row)
    return S.take(index, 0).take(index, 1)


def _require_invariant(B: np.ndarray, neg: np.ndarray) -> None:
    """Raise unless neg is an involution of the index set with B[neg][:, neg] == B.

    For an involution that is B[neg[a], b] == B[a, neg[b]] for all a, b,
    compared a block of rows at a time, so the check allocates no n x n copy.
    """
    n = B.shape[0]
    if neg.shape != (n,) or not np.array_equal(neg[neg], np.arange(n)):
        raise RuntimeError("neg is not an involution of the index set")
    block = max(1, 2**16 // max(n, 1))
    for start in range(0, n, block):
        rows = slice(start, start + block)
        if not np.array_equal(B[neg[rows]], B[rows][:, neg]):
            raise RuntimeError("the table is not invariant under neg")


def _clique_count(B: np.ndarray, m: int, neg: np.ndarray | None = None) -> int:
    """Number of ordered m-tuples over the index set with all pairwise B true.

    B must be symmetric.  The count recurses over induced sub-matrices: the
    first coordinate picks a row, and the rest are counted inside its
    neighbourhood.  Three coordinates are the ordered triangles, summed from
    one float32 matrix product (see `_closed_paths`), exact while n < 2^24.

    neg, when given, is the ring's negation: an involution of the index set
    with B[neg][:, neg] == B, since (-a)(-b) = ab.  The neighbourhoods of a
    and neg[a] then induce isomorphic sub-tables, so the first coordinate
    runs over one representative a < neg[a] of each pair, weighted 2, and
    over each fixed point a == neg[a], weighted 1.  neg is read only when
    m >= 3, and then checked: a map that is not such an involution raises
    RuntimeError.
    """
    n = B.shape[0]
    if n >= 2**24:
        raise ValueError(f"{n} indices: float32 counts are exact only below 2^24")

    def g(k: int, S: np.ndarray) -> int:
        if k == 1:
            return S.shape[0]
        if k == 2:
            return int(np.count_nonzero(S))
        if k == 3:
            return int(_closed_paths(S).sum(dtype=np.int64))
        return sum(g(k - 1, _induced(S, row)) for row in S)

    if neg is None or m < 3:
        return g(m, B)
    _require_invariant(B, neg)
    rows = np.flatnonzero(np.arange(n) <= neg)
    weight = np.where(rows < neg[rows], 2, 1)
    if m == 3:
        return int(weight @ _closed_paths(B, rows).sum(axis=1, dtype=np.int64))
    return sum(int(w) * g(m - 1, _induced(B, B[a])) for a, w in zip(rows, weight))


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


def _census_tables(field, r: int):
    """(zero, member, strict): whether r is a square, and the nonzero-code tables."""
    sq = square_table(field)
    addr = _add_r_vector(field, r)
    shifted = addr[_mul_table(field)]  # a*b + r for nonzero a, b
    member = sq[shifted]  # member[a, b] <=> a*b + r in squares (0 included)
    strict = member & (shifted != 0)
    return bool(sq[addr[0]]), member, strict


def _census_counts(field, r: int, m: int) -> tuple[int, int, int]:
    """(total, nonzero, interior) counts of D(r) m-tuples.

    Tuples with k nonzero coordinates count only if the zero bit is set, and
    then as C(m, k) placements of a nonzero k-tuple.
    """
    zero, member, strict = _census_tables(field, r)
    exp, log = field.exp_log
    neg = exp[log[1:] + (field.q - 1) // 2] - 1  # -1 = g^((q-1)/2); index = code - 1
    nonzero = _clique_count(member, m, neg)
    total = nonzero
    if zero:
        total += sum(comb(m, k) * (_clique_count(member, k, neg) if k else 1) for k in range(m))
    return total, nonzero, _clique_count(strict, m, neg)


def census(field, r: int, m: int, budget: int = DEFAULT_BUDGET) -> CensusBreakdown:
    """Exhaustive D(r) m-tuple census with the three-way breakdown.

    boundary: some coordinate is zero.  offdiag: all coordinates nonzero but
    some pairwise product + r vanishes.  interior: the tilde condition (all
    coordinates and all pairwise products + r nonzero).  r must be nonzero
    mod p.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    field = _as_field(field)
    r %= field.p  # censuses only ever see r as an element of F_p
    require_nonzero_r(r)
    q = field.q
    charge = max(q**m, TABLE_BYTES_PER_CELL * q * q)
    if charge > budget:
        raise BudgetExceededError(
            f"census charge {charge} (max of {q}^{m} tuples, {TABLE_BYTES_PER_CELL}*{q}^2 table bytes) exceeds budget {budget}"
        )
    total, nz, interior = _census_counts(field, r, m)
    return CensusBreakdown(
        q=q,
        r=r,
        m=m,
        total=total,
        boundary=total - nz,
        offdiag=nz - interior,
        interior=interior,
    )


# ---------------------------------------------------------------------------
# direct character sums


def conic_sum_direct(a2, a1, a0, p: int):
    """Literal sum of chi(a2 c^2 + a1 c + a0) over all c in F_p.

    The coefficients may be integer arrays: they broadcast, and the result
    holds one sum per coefficient triple, summed over c one residue at a
    time, so memory stays at the broadcast size.  Scalar coefficients give a
    numpy integer.
    """
    chi = residue_tables(p).chi
    a2, a1, a0 = (np.asarray(t, dtype=np.int64) % p for t in (a2, a1, a0))
    return sum(chi[(a2 * (c * c) + a1 * c + a0) % p] for c in range(p))
