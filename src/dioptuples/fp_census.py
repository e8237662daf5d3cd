"""Exhaustive, formula-independent censuses of D(r) m-tuples over F_p and F_q.

This module is the authoritative oracle on finite fields: it never consults
a closed form.  Tuples are enumerated over the full cartesian power by one
clique kernel, `_clique_count`, which the Z/p^N sweep in `zp_census` shares:
the last two coordinates are folded into vectorized boolean algebra (a
precomputed per-element compatibility row and one matrix-vector product),
which keeps q^3 sweeps at q around 300 under a second without changing what
is counted.  With jobs > 1 the outermost coordinate is split into row chunks,
each counted by the same `_census_counts` as the serial path.

Every field is an `fq.FqField`: a prime p is taken as F_{p^1}, so each table
has one body for every q.  Products come from the field's log/antilog tables
of a primitive element, and the square set is 0 and the even powers of that
element.  The square set includes 0 throughout (`x*y + r = 0` satisfies the
membership test); the interior/tilde class separately demands nonzero
products.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .arith import legendre, require_odd_prime, squares_mod
from .fq import FqField, fq_construct

DEFAULT_BUDGET = 10**9


class BudgetExceededError(ValueError):
    """Raised when a census would enumerate more residue tuples than allowed."""


def _as_field(field) -> FqField:
    """The one field representation: a prime p is F_{p^1}."""
    return field if isinstance(field, FqField) else fq_construct(field, 1)


def field_size(field) -> int:
    return _as_field(field).q


def _mul_table(field) -> np.ndarray:
    """Codes of all products a*b, as exp[log a + log b] off the zero row and column."""
    exp, log = _as_field(field).exp_log
    table = exp[log[:, None] + log]
    table[0] = 0
    table[:, 0] = 0
    return table


def _add_r_vector(field, r: int) -> np.ndarray:
    """Codes of x + r: r is the F_p constant r mod p, so only the lowest base-p digit moves."""
    field = _as_field(field)
    codes = np.arange(field.q, dtype=np.int32)
    low = codes % field.p
    return codes - low + (low + r % field.p) % field.p


@dataclass(frozen=True)
class SquareTable:
    """Membership bitmap of the square set (zero included) of a field."""

    q: int
    bitmap: np.ndarray

    def __contains__(self, code: int) -> bool:
        return bool(self.bitmap[code])


def square_table(field) -> SquareTable:
    """0 and the even powers of the primitive element."""
    field = _as_field(field)
    q = field.q
    exp, _ = field.exp_log
    bitmap = np.zeros(q, dtype=bool)
    bitmap[0] = True
    bitmap[exp[: q - 1 : 2]] = True
    count = int(bitmap.sum())
    if count != (q + 1) // 2:
        raise RuntimeError(f"square set of F_{q} has {count} elements")
    return SquareTable(q=q, bitmap=bitmap)


def is_dr_tuple(values, r: int, table: SquareTable, field) -> bool:
    """Membership test: every pairwise product plus r lies in the square set.

    `values` are element encodings (plain residues for a prime field).
    """
    field = _as_field(field)
    if field.q != table.q:
        raise ValueError("square table does not match the field")
    addr = _add_r_vector(field, r)
    exp, log = field.exp_log
    for a, b in combinations(values, 2):
        product = exp[log[a] + log[b]] if a and b else 0
        if not table.bitmap[addr[product]]:
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
    shifted = _add_r_vector(field, r)[_mul_table(field)]  # a*b + r
    member = sq[shifted]  # member[a, b] <=> a*b + r in squares (0 included)
    strict = member & (shifted != 0)
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
    field = _as_field(field)
    q = field.q
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
        r=r % field.p,  # censuses only ever see r as an element of F_p
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

