"""p-adic valuations and the p-adic shape of a parameter r.

The three-valued square classifier on Z/p^N, which the interval censuses
rest on, is `zp_census.status_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import legendre, require_odd_prime


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


@dataclass(frozen=True)
class RShape:
    """The p-adic shape of a nonzero r = p^alpha * s at an odd prime p: alpha and chi_s, the character of s.

    chi(r) is chi_s when r is a unit (alpha = 0) and 0 otherwise.
    """

    p: int
    alpha: int
    chi_s: int


def require_nonzero_r(r: int, p: int = 0) -> None:
    """r must be nonzero in the ring whose measure is computed: F_p when p is given."""
    if (r % p if p else r) == 0:
        given = f"r = {r} is 0 in F_{p}: " if r else ""
        raise ValueError(given + "r = 0 is rejected (appending 0 extends any tuple trivially)")


def r_shape(r: int, p: int) -> RShape:
    """The shape of r = p^alpha * s, p an odd prime: alpha and the quadratic character of s."""
    require_nonzero_r(r)
    require_odd_prime(p)
    alpha = vp(r, p)
    return RShape(p=p, alpha=alpha, chi_s=legendre(r // p**alpha, p))
