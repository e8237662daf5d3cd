"""Exact integer helpers: primality, Legendre symbol, residue tables, rational formatting.

All measures in this package are `fractions.Fraction` values; helpers here
keep the "num/den" wire format in one place.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np


def smallest_factor(n: int) -> int:
    """The smallest prime factor of n >= 2, by trial division over 2 and the odd numbers (desk scale)."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk scale), cached per n."""
    return n >= 2 and smallest_factor(n) == n


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")


def odd_prime_power(q: int) -> tuple[int, int]:
    """Factor q = p^f with p an odd prime, or raise ValueError."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"expected an odd prime power, got {q}")
    p, f, m = smallest_factor(q), 0, q
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, f


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} via Euler's criterion."""
    require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


class ResidueTables(NamedTuple):
    """Read-only int64 lookup tables over F_p, indexed by the residue 0..p-1."""

    chi: np.ndarray   # the Legendre symbol (x/p)
    root: np.ndarray  # the square root in [0, (p-1)/2] of a square x; -1 for a nonsquare
    inv: np.ndarray   # the inverse of a unit x, and 0 at x = 0


@lru_cache(maxsize=32)  # one `audit all` reads 24 primes
def residue_tables(p: int) -> ResidueTables:
    """The character, square-root and inverse tables of F_p, built once per odd prime p."""
    require_odd_prime(p)
    x = np.arange(p, dtype=np.int64)
    half = x[: (p + 1) // 2]  # y and p - y have one square; these y give each square once
    root = np.full(p, -1, dtype=np.int64)
    root[half * half % p] = half
    chi = np.where(root >= 0, 1, -1)
    chi[0] = 0
    inv = np.array([0] + [pow(u, -1, p) for u in range(1, p)], dtype=np.int64)
    for table in (chi, root, inv):
        table.flags.writeable = False
    return ResidueTables(chi, root, inv)


def format_rational(x) -> str:
    """Canonical string for exact values: "num/den", or "num" when den == 1."""
    if type(x) is int:  # not bool, whose str is "True"
        return str(x)
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
