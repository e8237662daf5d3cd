"""Exhaustive, formula-independent censuses of D(r) m-tuples over F_p and F_q.

This module is the authoritative oracle on finite fields: it never consults
a closed form.  Tuples are counted over the full cartesian power by one
clique kernel, `_clique_count`, which the Z/p^N sweep in `zp_census` shares:
the last three coordinates are one float32 matrix product (a GEMM) over the
q x q compatibility table, and each further coordinate is one loop over
neighbourhoods.  A census runs in one process; the BLAS product already uses
every core.  The budget charges the larger of q^m tuples and the table bytes.

Every field is an `fq.FqField`: a prime p is taken as F_{p^1}, so each table
has one body for every q.  Products come from the field's log/antilog tables
of a primitive element, and the square set is 0 and the even powers of that
element.  The square set includes 0 throughout (`x*y + r = 0` satisfies the
membership test); the interior/tilde class separately demands nonzero
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arith import require_odd_prime, squares_mod
from .fq import FqField, fq_construct

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


def _clique_count(B: np.ndarray, m: int) -> int:
    """Number of ordered m-tuples over the index set with all pairwise B true.

    B must be symmetric.  The count recurses over induced sub-matrices: the
    first coordinate picks a row, and the rest are counted inside its
    neighbourhood.  Three coordinates are trace(S^3), one float32 matrix
    product whose entries are integers of at most n, so it is exact while
    n < 2^24.
    """
    if B.shape[0] >= 2**24:
        raise ValueError(f"{B.shape[0]} indices: float32 counts are exact only below 2^24")

    def g(k: int, S: np.ndarray) -> int:
        if k == 1:
            return S.shape[0]
        if k == 2:
            return int(np.count_nonzero(S))
        if k == 3:
            f = S.astype(np.float32)
            return int((f @ f)[S].sum(dtype=np.int64))
        return sum(g(k - 1, S[np.ix_(row, row)]) for row in S)

    return g(m, B)


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


def _census_counts(field, r: int, m: int) -> tuple[int, int, int]:
    """(total, nonzero, interior) counts; the last two drop the zero row and column."""
    member, strict = _census_tables(field, r)
    return (
        _clique_count(member, m),
        _clique_count(member[1:, 1:], m),
        _clique_count(strict[1:, 1:], m),
    )


def census(field, r: int, m: int, budget: int = DEFAULT_BUDGET) -> CensusBreakdown:
    """Exhaustive D(r) m-tuple census with the three-way breakdown.

    boundary: some coordinate is zero.  offdiag: all coordinates nonzero but
    some pairwise product + r vanishes.  interior: the tilde condition (all
    coordinates and all pairwise products + r nonzero).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    field = _as_field(field)
    q = field.q
    charge = max(q**m, TABLE_BYTES_PER_CELL * q * q)
    if charge > budget:
        raise BudgetExceededError(
            f"census charge {charge} (max of {q}^{m} tuples, {TABLE_BYTES_PER_CELL}*{q}^2 table bytes) exceeds budget {budget}"
        )
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
# direct character sums


def conic_sum_direct(a2: int, a1: int, a0: int, p: int) -> int:
    """Literal sum of chi(a2 c^2 + a1 c + a0) over all c in F_p."""
    require_odd_prime(p)
    sq = squares_mod(p)
    chi = [0] + [1 if x in sq else -1 for x in range(1, p)]
    return sum(chi[(a2 * c * c + a1 * c + a0) % p] for c in range(p))
