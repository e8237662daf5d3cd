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
    """The smallest prime factor of n >= 2, by trial division over 2 and the odd numbers.

    Desk scale only: `fq` factors q - 1 with it, q at most 10^5.
    """
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


# Miller-Rabin to the first 13 prime bases decides every n below the bound,
# which is the least strong pseudoprime to all 13 (Sorenson and Webster,
# Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality test, cached per n.

    A factor among the Miller-Rabin bases decides n at any size; any other
    n must lie below PRIMALITY_BOUND, where those bases are proven to
    suffice, or ValueError is raised.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:  # no prime factor up to 41
        return True
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"{n} is past the proven primality bound {PRIMALITY_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, exactly, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def odd_prime_power(q: int) -> tuple[int, int]:
    """Factor q = p^f with p an odd prime, or raise ValueError."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"expected an odd prime power, got {q}")
    for f in range(q.bit_length(), 0, -1):  # f = 1 always has the root q
        p = _iroot(q, f)
        if p**f == q:
            break
    # f is the largest exponent with q = p^f, so q is a prime power exactly when p is prime
    if not is_prime(p):
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
