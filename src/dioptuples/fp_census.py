"""Exhaustive, formula-independent censuses of D(r) m-tuples over F_p and F_q.

This module is the authoritative oracle on finite fields: it never consults
a closed form.  Tuples are enumerated over the full cartesian power by one
clique kernel, `_clique_count`, which the Z/p^N sweep in `zp_census` shares:
the last two coordinates are folded into vectorized boolean algebra (a
precomputed per-element compatibility row and one matrix-vector product),
which keeps q^3 sweeps at q around 300 under a second without changing what
is counted.  With jobs > 1 the outermost coordinate is split into row chunks,
each counted by the same `_census_counts` as the serial path.

The square set includes 0 throughout (`x*y + r = 0` satisfies the membership
test); the interior/tilde class separately demands nonzero products.  Prime
field square sets come from `arith.squares_mod`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .arith import legendre, require_odd_prime, squares_mod
from .closed_forms import main_term
from .fq import FqField

DEFAULT_BUDGET = 10**9


class BudgetExceededError(ValueError):
    """Raised when a census would enumerate more residue tuples than allowed."""


def field_size(field) -> int:
    if isinstance(field, FqField):
        return field.q
    require_odd_prime(field)
    return field


def reduce_r(field, r: int) -> int:
    """Encoding of the integer r inside the field; censuses only ever see this."""
    if isinstance(field, FqField):
        return field.from_int(r).encode()
    return r % field


def _mul_table(field) -> np.ndarray:
    if isinstance(field, FqField):
        q = field.q
        table = np.empty((q, q), dtype=np.int64)
        elems = [field.decode(i) for i in range(q)]
        for i in range(q):
            for j in range(i, q):
                code = (elems[i] * elems[j]).encode()
                table[i, j] = code
                table[j, i] = code
        return table
    p = field
    idx = np.arange(p, dtype=np.int64)
    return (np.outer(idx, idx)) % p


def _add_r_vector(field, r_enc: int) -> np.ndarray:
    q = field_size(field)
    if isinstance(field, FqField):
        radd = field.decode(r_enc)
        return np.array([(field.decode(i) + radd).encode() for i in range(q)], dtype=np.int64)
    return (np.arange(q, dtype=np.int64) + r_enc) % q


@dataclass(frozen=True)
class SquareTable:
    """Membership bitmap of the square set (zero included) of a field."""

    q: int
    bitmap: np.ndarray

    def __contains__(self, code: int) -> bool:
        return bool(self.bitmap[code])


def square_table(field) -> SquareTable:
    q = field_size(field)
    bitmap = np.zeros(q, dtype=bool)
    if isinstance(field, FqField):
        for x in field.elements():
            bitmap[(x * x).encode()] = True
    else:
        bitmap[list(squares_mod(q))] = True
    count = int(bitmap.sum())
    if count != (q + 1) // 2:
        raise RuntimeError(f"square set of F_{q} has {count} elements")
    return SquareTable(q=q, bitmap=bitmap)


def is_dr_tuple(values, r: int, table: SquareTable, field) -> bool:
    """Membership test: every pairwise product plus r lies in the square set.

    `values` are element encodings (plain residues for a prime field).
    """
    if field_size(field) != table.q:
        raise ValueError("square table does not match the field")
    r_enc = reduce_r(field, r)
    addr = _add_r_vector(field, r_enc)
    if isinstance(field, FqField):
        elems = [field.decode(v) for v in values]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if not table.bitmap[addr[(elems[i] * elems[j]).encode()]]:
                    return False
        return True
    p = field
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if not table.bitmap[addr[(values[i] * values[j]) % p]]:
                return False
    return True


# ---------------------------------------------------------------------------
# vectorized sweep


def _clique_count(B: np.ndarray, m: int, rows=None) -> int:
    """Number of ordered m-tuples over the index set with all pairwise B true.

    B must be symmetric.  The outermost coordinate runs over `rows` (default:
    every index; a pool worker passes its chunk).  The last two coordinates
    are evaluated as a quadratic form against B; the ones between recurse.
    """
    Bf = B.astype(np.float64)

    def g(k: int, vec: np.ndarray) -> int:
        if k == 1:
            return int(np.count_nonzero(vec))
        if k == 2:
            vf = vec.astype(np.float64)
            return int(round(float(vf @ (Bf @ vf))))
        return sum(g(k - 1, vec & B[a]) for a in np.flatnonzero(vec))

    return sum(g(m - 1, B[a]) for a in (range(B.shape[0]) if rows is None else rows))


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

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "r": self.r,
            "m": self.m,
            "total": self.total,
            "boundary": self.boundary,
            "offdiag": self.offdiag,
            "interior": self.interior,
        }


def _census_tables(field, r: int):
    sq = square_table(field).bitmap
    addr = _add_r_vector(field, reduce_r(field, r))
    mul = _mul_table(field)
    member = sq[addr[mul]]  # member[a, b] <=> a*b + r in squares (0 included)
    strict = member & (addr[mul] != 0)
    return member, strict


def _census_counts(field, r: int, m: int, rows=None) -> tuple[int, int, int]:
    """(total, nonzero, interior) counts with the outermost coordinate in `rows`."""
    member, strict = _census_tables(field, r)
    nz_rows = None if rows is None else [a - 1 for a in rows if a]  # rows of member[1:, 1:]
    return (
        _clique_count(member, m, rows),
        _clique_count(member[1:, 1:], m, nz_rows),
        _clique_count(strict[1:, 1:], m, nz_rows),
    )


def census(field, r: int, m: int, budget: int = DEFAULT_BUDGET, jobs: int = 1) -> CensusBreakdown:
    """Exhaustive D(r) m-tuple census with the three-way breakdown.

    boundary: some coordinate is zero.  offdiag: all coordinates nonzero but
    some pairwise product + r vanishes.  interior: the tilde condition (all
    coordinates and all pairwise products + r nonzero).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    q = field_size(field)
    if q**m > budget:
        raise BudgetExceededError(f"census size {q}^{m} exceeds budget {budget}")
    if jobs > 1:
        bounds = np.linspace(0, q, jobs + 1, dtype=int).tolist()
        chunks = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(partial(_census_counts, field, r, m), chunks))
        total, nz, interior = (sum(col) for col in zip(*parts))
    else:
        total, nz, interior = _census_counts(field, r, m)
    return CensusBreakdown(
        q=q,
        r=reduce_r(field, r),
        m=m,
        total=total,
        boundary=total - nz,
        offdiag=nz - interior,
        interior=interior,
    )


# ---------------------------------------------------------------------------
# direct character sums and structural checks


def conic_sum_direct(a2: int, a1: int, a0: int, p: int) -> int:
    """Literal sum of chi(a2 c^2 + a1 c + a0) over all c in F_p."""
    require_odd_prime(p)
    sq = squares_mod(p)
    chi = [0] + [1 if x in sq else -1 for x in range(1, p)]
    return sum(chi[(a2 * c * c + a1 * c + a0) % p] for c in range(p))


def z3_structure_check(r: int) -> bool:
    """Over F_3 with r = 1 mod 3: every all-units triple must fail the D(r) test."""
    if legendre(r, 3) != 1:
        raise ValueError("structure check applies to r = 1 mod 3 only")
    table = square_table(3)
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                if is_dr_tuple((a, b, c), r, table, 3):
                    return False
    return True


def asymptotic_gap(field, r: int, m: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact |census density - 2^(-C(m,2))| for the main-term audit."""
    q = field_size(field)
    result = census(field, r, m, budget=budget)
    return abs(Fraction(result.total, q**m) - main_term(m))
