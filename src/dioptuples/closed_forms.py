"""Closed-form evaluators for D(r) tuple densities.

Two families live here and are kept strictly apart:

* validated forms (`pair_measure`, `mu_A_k`, `mu_B_beta`, ...): the closed
  forms that the exhaustive censuses confirm.  All series identities hold
  for these with exact rational arithmetic.

* claimed forms (`*_claimed`): formulas reproduced exactly as stated in the
  source being audited, kept verbatim even where the censuses refute them.
  Truth-tracking lives in audit verdicts, never in these evaluators.

The pair-density background: for odd q and r = q^alpha * s (s a unit), the
density of pairs (a, b) with a*b + r a square decomposes over the valuation
beta of a*b + r.  Writing mu(B_beta) for the density of pairs with that
valuation whose value is a square:

    beta < alpha, beta even:   (beta+1)(q-1)^2 / (2 q^(beta+2))
    beta = alpha, alpha even:  chi(s) = +1: (alpha(q-1)^2 + q^2 + 1) / (2 q^(alpha+2))
                               chi(s) = -1: (alpha+1)(q-1)^2 / (2 q^(alpha+2))
    beta > alpha, beta even:   (alpha+1)(q-1)^2 / (2 q^(beta+2))
    beta odd:                  0

A unit r is alpha = 0: its blocks A_k are these B_2k, so one formula serves.
Summing the geometric tail in closed form gives `pair_measure`; the audit
sets that sum, `series_consistency`, against it exactly.  The claimed
variants differ in the beta > alpha numerator ((q-1)(q^(alpha+1)-1)) and in
the orientation of the two beta = alpha branches; the interval censuses
adjudicate pointwise.

Every formula an audit record compares against lives here, each under one
name; no oracle consults one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

from .arith import legendre, odd_prime_power, require_odd_prime
from .padic import RShape, require_nonzero_r

# ---------------------------------------------------------------------------
# 2-adic pairs


def z2_block_measure(k: int) -> Fraction:
    """Density of pairs with v_2(ab+1) = 2k and ab+1 a square; k = 0 gives 5/16."""
    if k < 0:
        raise ValueError("block index must be >= 0")
    if k == 0:
        return Fraction(5, 16)
    return Fraction(1, 2 ** (2 * k + 4))


def z2_block_tail(kmin: int = 1) -> Fraction:
    """Exact geometric tail sum_{k >= kmin} z2_block_measure(k), kmin >= 1."""
    if kmin < 1:
        raise ValueError("tail starts at k >= 1")
    # sum 2^-(2k+4) = 2^-(2*kmin+4) * 1/(1 - 1/4)
    return Fraction(1, 2 ** (2 * kmin + 4)) * Fraction(4, 3)


def diop2_z2() -> Fraction:
    """Density of Diophantine pairs over the 2-adic integers: exactly 1/3, as stated, not summed from the blocks."""
    return Fraction(1, 3)


# ---------------------------------------------------------------------------
# odd-q pairs: per-valuation blocks (validated)


def mu_A_k(shape: RShape, k: int) -> Fraction:
    """Density of the valuation-2k square block for a unit r: the alpha = 0 block B_2k."""
    if shape.alpha != 0:
        raise ValueError("A_k blocks require a unit r; use mu_B_beta for alpha > 0")
    if k < 0:
        raise ValueError("block index must be >= 0")
    return mu_B_beta_q(shape.p, 0, shape.chi_s, 2 * k)


def mu_B_beta(shape: RShape, beta: int) -> Fraction:
    """Density of the valuation-beta square block for r = p^alpha * s, alpha > 0."""
    if shape.alpha == 0:
        raise ValueError("B_beta blocks require alpha > 0; use mu_A_k for a unit r")
    return mu_B_beta_q(shape.p, shape.alpha, shape.chi_s, beta)


def _require_block_args(alpha: int, chi_s: int, beta: int) -> None:
    """The arguments every valuation block takes: beta >= 0, chi(s) = ±1, and beta even unless it is alpha."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if chi_s not in (-1, 1):
        raise ValueError("chi(s) must be ±1")
    if beta % 2 == 1 and beta != alpha:
        raise ValueError("blocks of odd valuation != alpha are empty; beta must be even")


def mu_B_beta_q(q: int, alpha: int, chi_s: int, beta: int) -> Fraction:
    _require_block_args(alpha, chi_s, beta)
    if beta == alpha:
        if alpha % 2 == 1:
            return Fraction(0)
        if chi_s == 1:
            return Fraction(alpha * (q - 1) ** 2 + q * q + 1, 2 * q ** (alpha + 2))
        return Fraction((alpha + 1) * (q - 1) ** 2, 2 * q ** (alpha + 2))
    if beta < alpha:
        return Fraction((beta + 1) * (q - 1) ** 2, 2 * q ** (beta + 2))
    return Fraction((alpha + 1) * (q - 1) ** 2, 2 * q ** (beta + 2))


def mu_B_tail(q: int, alpha: int, beta_start: int) -> Fraction:
    """Exact tail over even beta >= beta_start, beta_start even and > alpha."""
    if beta_start <= alpha or beta_start % 2 == 1:
        raise ValueError("tail requires an even beta_start above alpha")
    # sum over even beta of (alpha+1)(q-1)^2 / (2 q^(beta+2))
    return Fraction((alpha + 1) * (q - 1), 2 * (q + 1) * q**beta_start)


def mu_B_beta_claimed(q: int, alpha: int, chi_s: int, beta: int) -> Fraction:
    """The valuation-block density exactly as stated in the audited text.

    Differs from `mu_B_beta_q` in the beta > alpha numerator and in the
    orientation of the beta = alpha branches.
    """
    if alpha < 1:
        raise ValueError("the stated block lemmas assume alpha > 0")
    _require_block_args(alpha, chi_s, beta)
    if beta == alpha:
        if alpha % 2 == 1:
            return Fraction(0)
        if chi_s == 1:
            return Fraction((alpha + 1) * (q - 1) ** 2, 2 * q ** (alpha + 2))
        return Fraction(alpha * (q - 1) ** 2 + q * q + 1, 2 * q ** (alpha + 2))
    if beta < alpha:
        return Fraction((beta + 1) * (q - 1) ** 2, 2 * q ** (beta + 2))
    return Fraction((q - 1) * (q ** (alpha + 1) - 1), 2 * q ** (beta + 2))


# ---------------------------------------------------------------------------
# odd-q pairs: assembled five-case closed forms


def _require_pair_args(q: int, alpha: int, chi_s: int) -> None:
    odd_prime_power(q)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if chi_s not in (-1, 1):
        raise ValueError("chi(s) must be ±1")


def pair_measure(q: int, alpha: int, chi_s: int) -> Fraction:
    """Validated pair density for odd prime power q and r = q^alpha * s.

    chi_s is the quadratic character of the unit part s (so chi_s = chi(r)
    when alpha = 0).  The five cases collapse to:

        alpha = 0, chi(r) = +1:  1/2 + 1/(q(q+1))
        alpha = 0, chi(r) = -1:  1/2 - 1/(q+1)
        alpha odd:               (q^2+1)(1 - q^-(alpha+1)) / (2(q+1)^2)
        alpha even, chi(s)=+1:   (q^2+1)/(2(q+1)^2) + (1/q - 1/(q+1)^2) / q^alpha
        alpha even, chi(s)=-1:   (q^2+1)/(2(q+1)^2) - 1/((q+1)^2 q^alpha)

    The even-alpha lines at alpha = 0 are the first two, so they compute
    those too.
    """
    _require_pair_args(q, alpha, chi_s)
    base = Fraction(q * q + 1, 2 * (q + 1) ** 2)
    if alpha % 2 == 1:
        return base * (1 - Fraction(1, q ** (alpha + 1)))
    if chi_s == 1:
        return base + (Fraction(1, q) - Fraction(1, (q + 1) ** 2)) / q**alpha
    return base - Fraction(1, (q + 1) ** 2 * q**alpha)


def series_consistency(q: int, alpha: int, chi_s: int, beta_max: int) -> Fraction:
    """Sum the valuation-block densities with an exact geometric tail past
    beta_max; the audit sets the sum against `pair_measure`.

    The blocks of odd valuation are empty, so the sum runs over even beta,
    for a unit r (alpha = 0) as for any other.
    """
    if beta_max < alpha + 4:
        raise ValueError("need beta_max >= alpha + 4")
    evens = range(0, beta_max + 1, 2)
    return sum(mu_B_beta_q(q, alpha, chi_s, beta) for beta in evens) + mu_B_tail(q, alpha, evens[-1] + 2)


def pair_measure_claimed(q: int, alpha: int, chi_s: int, even_branch_plus_is_linear: bool) -> Fraction:
    """The five-case pair density exactly as stated in the audited text.

    The two stated variants disagree on which chi(s) sign takes the
    (alpha+1)(q-1)^2 block at beta = alpha: pass True for the variant where
    chi(s) = +1 does (the p-adic statement), False for the residue-field
    statement, which swaps them.
    """
    _require_pair_args(q, alpha, chi_s)
    if alpha == 0:
        if chi_s == 1:
            return Fraction(1, 2) + Fraction(1, q * (q + 1))
        return Fraction(1, 2) - Fraction(1, q + 1)
    D = 2 * (q + 1) ** 2
    if alpha % 2 == 1:
        return (
            Fraction(1, 2)
            - Fraction(q - 1, D)
            - Fraction(alpha + 2, D * q ** (alpha - 1))
            - Fraction(1, D * q**alpha)
            + Fraction(alpha - 1, D * q ** (alpha + 1))
        )
    linear = Fraction((alpha + 1) * (q - 1) ** 2, 2 * q ** (alpha + 2))
    quadratic = Fraction(alpha * (q - 1) ** 2 + q * q + 1, 2 * q ** (alpha + 2))
    block = linear if ((chi_s == 1) == even_branch_plus_is_linear) else quadratic
    return (
        Fraction(1, 2)
        - Fraction(2 * q - 1, D)
        + Fraction(1, D * q)
        - Fraction(alpha + 1, D * q ** (alpha - 2))
        + Fraction(alpha - 1, D * q**alpha)
        - Fraction(1, D * q ** (alpha + 1))
        - Fraction(1, D * q ** (alpha + 2))
        + block
    )


def diop2_zp(shape: RShape) -> Fraction:
    """Validated pair density over Z_p, from the shape of r; Z_2 is `diop2_z2`."""
    return pair_measure(shape.p, shape.alpha, shape.chi_s)


def diop2_zp_claimed(shape: RShape) -> Fraction:
    """The p-adic five-case statement, verbatim."""
    return pair_measure_claimed(shape.p, shape.alpha, shape.chi_s, even_branch_plus_is_linear=True)


def diop2_ok_claimed(q: int, alpha: int, chi_s: int) -> Fraction:
    """The residue-field five-case statement, verbatim (even-alpha branches swapped)."""
    return pair_measure_claimed(q, alpha, chi_s, even_branch_plus_is_linear=False)


# ---------------------------------------------------------------------------
# 3-adic m-tuples


def diopm_z3_claimed(m: int) -> Fraction:
    """The stated m-tuple density over Z_3 for chi(r) = 1: (m^2+71m+36)/(36*3^m)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return Fraction(m * m + 71 * m + 36, 36 * 3**m)


def diopm_z3_consistent(m: int) -> Fraction:
    """The m-tuple density over Z_3 for a unit r = 1 (mod 3), proved for every m >= 2: (m^2+15m+8)/(8*3^m).

    Such an r is a square in Z_3, so a -> s*a with s^2 = r maps D(1) tuples
    onto D(r) tuples and keeps the measure; take r = 1.  A non-unit a has
    ab + 1 = 1 (mod 3) against every b, a square, so non-units constrain
    nothing.  Two units need ab = -1 (mod 3), since 2 is a nonsquare mod 3;
    ab + 1 is then uniform on 3Z_3 and a square with probability
    sum_{j >= 1} (2/3)(1/3)^(2j-1)/2 = 1/8, so a unit pair counts
    (4/9)(1/2)(1/8) = 1/36.  No three units have pairwise opposite residues,
    so a D(1) tuple has at most two unit coordinates.  Summing no unit, one
    unit in m positions and a unit pair in C(m, 2) positions:

        1/3^m + m(2/3^m) + (m(m-1)/2)(1/36)/3^(m-2) = (m^2 + 15m + 8)/(8*3^m).

    The stated `diopm_z3_claimed` equals it only where 7m^2 = 7m, so at no m >= 2.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    return Fraction(m * m + 15 * m + 8, 8 * 3**m)


# ---------------------------------------------------------------------------
# F_p triples: stated counts and densities


def _require_unit_r(p: int, r: int) -> int:
    require_odd_prime(p)
    require_nonzero_r(r, p)
    return legendre(r, p)


def count_boundary_claimed(p: int, r: int) -> Fraction:
    """Stated count of D(r) triples over F_p with a zero coordinate.

    (3p^2 - 1)/2 when chi(r) = 1, and 0 when chi(r) = -1.
    """
    chi = _require_unit_r(p, r)
    if chi == 1:
        return Fraction(3 * p * p - 1, 2)
    return Fraction(0)


def count_offdiag_claimed(p: int, r: int) -> Fraction:
    """Stated count of D(r) triples with unit coordinates and a vanishing pair product.

    Evaluates non-integrally for some p; the census adjudicates pointwise.
    """
    chi_r = _require_unit_r(p, r)
    chi_neg = legendre(-r % p, p)
    # stated term by term as (3p^2 + 3p + 4)/4 - (3p + 3)chi(r)/4 + 13 chi(-r)/4
    return Fraction(3 * p * p + 3 * p + 4 - (3 * p + 3) * chi_r + 13 * chi_neg, 4)


def tilde3_fp_claimed(p: int, r: int) -> Fraction:
    """Stated interior (all-units, all-products-nonzero) triple density over F_p."""
    chi_r = _require_unit_r(p, r)
    chi_neg = legendre(-r % p, p)
    # stated term by term as 1/8 - (6 + 3chi(r))/8p + (15 + 12chi(r))/8p^2 - (16 + 13chi(r) + 2chi(-r))/8p^3
    return Fraction(
        p**3 - (6 + 3 * chi_r) * p * p + (15 + 12 * chi_r) * p - (16 + 13 * chi_r + 2 * chi_neg), 8 * p**3
    )


def diop3_fp_claimed(p: int, r: int) -> Fraction:
    """Stated total D(r) triple density over F_p (sum of the three stated pieces)."""
    chi_r = _require_unit_r(p, r)
    chi_neg = legendre(-r % p, p)
    # stated term by term as 1/8 + (6 + 3chi(r))/8p + (21 + 6chi(r))/8p^2 + (24chi(-r) - 10 - 21chi(r))/8p^3
    return Fraction(
        p**3 + (6 + 3 * chi_r) * p * p + (21 + 6 * chi_r) * p + 24 * chi_neg - 10 - 21 * chi_r, 8 * p**3
    )


def extension_count_envelope(p: int) -> tuple[int, int]:
    """Integer envelope [p - ceil(2 sqrt p) - 8, p + ceil(2 sqrt p)] for 8 * #{d}.

    Outward-rounded integer form of the stated p/8 - sqrt(p)/4 - 1 and
    p/8 + sqrt(p)/4 bounds on the number of d extending a distinct-entry
    D(r) triple over F_p.
    """
    s = isqrt(4 * p)
    ceil_2sqrt = s if s * s == 4 * p else s + 1
    return p - ceil_2sqrt - 8, p + ceil_2sqrt


# ---------------------------------------------------------------------------
# quadratic character sums


def conic_sum_closed(a2: int, a1, a0, p: int):
    """Closed form of sum_c chi(a2 c^2 + a1 c + a0) over F_p, a2 a unit.

    -chi(a2) when the discriminant a1^2 - 4 a0 a2 is nonzero, else (p-1) chi(a2).
    a1 and a0 may be integer arrays, which broadcast to one value per pair;
    scalar coefficients give a Python int.
    """
    chi = legendre(a2, p)
    if chi == 0:
        raise ValueError(f"leading coefficient must be a unit mod {p}")
    return chi * (p * ((a1 * a1 - 4 * a0 * a2) % p == 0) - 1)


# ---------------------------------------------------------------------------
# large-m main term


def main_term(m: int) -> Fraction:
    """Independence heuristic main term 2^(-C(m,2)) for m-tuple densities."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return Fraction(1, 2 ** comb(m, 2))


def triple_density_leading(p: int, r: int) -> Fraction:
    """The stated F_p triple density to order 1/p: main_term(3) + (6 + 3 chi(r))/(8p)."""
    return main_term(3) + Fraction(6 + 3 * _require_unit_r(p, r), 8 * p)
