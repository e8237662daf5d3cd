"""p-adic valuations, residue classes mod p^N, and the square classifier.

The central primitive is `square_status`: given only a residue class mod p^N,
decide whether every Z_p lift of the class is a square (SQUARE), no lift is
(NONSQUARE), or both kinds of lift exist (UNDETERMINED).  Interval censuses
are rigorous exactly because this classification is three-valued.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arith import is_prime, legendre


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined; handle the zero class explicitly")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class SquareStatus(enum.Enum):
    SQUARE = "Square"
    NONSQUARE = "NonSquare"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class ResidueClass:
    """An element of Z/p^N with its prime and precision."""

    p: int
    N: int
    value: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.N < 1:
            raise ValueError("precision must be >= 1")
        if not 0 <= self.value < self.p**self.N:
            raise ValueError("value out of range for the stated precision")


def square_status(c: ResidueClass) -> SquareStatus:
    """Classify a residue class as a Z_p square.

    Odd p: nonzero classes are decided outright (the unit part is visible
    mod p at least).  p = 2: SQUARE needs the unit visible mod 8; NONSQUARE
    is returned as soon as any visible congruence rules out all lifts.  The
    zero class carries no unit information and is always UNDETERMINED.
    """
    p, N, value = c.p, c.N, c.value
    if value == 0:
        return SquareStatus.UNDETERMINED
    k = vp(value, p)
    if k >= N:
        return SquareStatus.UNDETERMINED
    if k % 2 == 1:
        return SquareStatus.NONSQUARE
    unit = value // p**k
    if p == 2:
        visible = N - k  # unit is known mod 2^visible
        if visible >= 3:
            return SquareStatus.SQUARE if unit % 8 == 1 else SquareStatus.NONSQUARE
        if visible == 2 and unit % 4 == 3:
            return SquareStatus.NONSQUARE
        return SquareStatus.UNDETERMINED
    return SquareStatus.SQUARE if legendre(unit, p) == 1 else SquareStatus.NONSQUARE


@dataclass(frozen=True)
class RShape:
    """The p-adic shape of a nonzero parameter r: valuation, unit part, characters."""

    r: int
    p: int
    alpha: int
    s: int
    chi_s: int
    chi_r: int
    chi_neg_r: int


def require_nonzero_r(r: int) -> None:
    """r must be nonzero in the ring whose measure is computed."""
    if r == 0:
        raise ValueError("r = 0 is rejected (appending 0 extends any tuple trivially)")


def r_shape(r: int, p: int) -> RShape:
    """Package r = p^alpha * s with its quadratic characters."""
    require_nonzero_r(r)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    alpha = vp(r, p)
    s = r // p**alpha
    if p == 2:
        return RShape(r=r, p=p, alpha=alpha, s=s, chi_s=0, chi_r=0, chi_neg_r=0)
    return RShape(
        r=r,
        p=p,
        alpha=alpha,
        s=s,
        chi_s=legendre(s, p),
        chi_r=legendre(r, p),
        chi_neg_r=legendre(-r, p),
    )
