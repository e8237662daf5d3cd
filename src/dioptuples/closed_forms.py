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

Summing the geometric tail in closed form gives `pair_measure`, and
`series_consistency` checks that sum against it exactly.  The claimed
variants differ in the beta > alpha numerator ((q-1)(q^(alpha+1)-1)) and in
the orientation of the two beta = alpha branches; the interval censuses
adjudicate pointwise.

Every formula an audit record compares against lives here, each under one
name; no oracle consults one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .arith import legendre, odd_prime_power
from .padic import RShape

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
    """Density of Diophantine pairs over the 2-adic integers: exactly 1/3."""
    return z2_block_measure(0) + z2_block_tail(1)


# ---------------------------------------------------------------------------
# odd-q pairs: per-valuation blocks (validated)


def mu_A_k(shape: RShape, k: int) -> Fraction:
    """Density of the valuation-2k square block for a unit r (alpha = 0)."""
    if shape.alpha != 0:
        raise ValueError("A_k blocks require a unit r; use mu_B_beta for alpha > 0")
    return mu_A_k_q(shape.p, shape.chi_r, k)


def mu_A_k_q(q: int, chi_r: int, k: int) -> Fraction:
    if k < 0:
        raise ValueError("block index must be >= 0")
    if chi_r not in (-1, 1):
        raise ValueError("chi(r) must be ±1 for a unit r")
    if k == 0:
        if chi_r == 1:
            return Fraction(q * q + 1, 2 * q * q)
        return Fraction((q - 1) ** 2, 2 * q * q)
    return Fraction((q - 1) ** 2, 2 * q ** (2 * k + 2))


def mu_A_tail(q: int, kmin: int) -> Fraction:
    """Exact tail sum_{k >= kmin} mu_A_k_q(q, chi, k), kmin >= 1 (chi-independent)."""
    if kmin < 1:
        raise ValueError("tail starts at k >= 1")
    # sum (q-1)^2 / (2 q^(2k+2)) telescopes to (q-1)/(2(q+1) q^(2kmin))
    return Fraction(q - 1, 2 * (q + 1) * q ** (2 * kmin))


def mu_B_beta(shape: RShape, beta: int) -> Fraction:
    """Density of the valuation-beta square block for r = p^alpha * s, alpha > 0."""
    if shape.alpha == 0:
        raise ValueError("B_beta blocks require alpha > 0; use mu_A_k for a unit r")
    return mu_B_beta_q(shape.p, shape.alpha, shape.chi_s, beta)


def mu_B_beta_q(q: int, alpha: int, chi_s: int, beta: int) -> Fraction:
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if chi_s not in (-1, 1):
        raise ValueError("chi(s) must be ±1")
    if beta == alpha:
        if alpha % 2 == 1:
            return Fraction(0)
        if chi_s == 1:
            return Fraction(alpha * (q - 1) ** 2 + q * q + 1, 2 * q ** (alpha + 2))
        return Fraction((alpha + 1) * (q - 1) ** 2, 2 * q ** (alpha + 2))
    if beta % 2 == 1:
        raise ValueError("blocks of odd valuation != alpha are empty; beta must be even")
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
    if beta == alpha:
        if alpha % 2 == 1:
            return Fraction(0)
        if chi_s == 1:
            return Fraction((alpha + 1) * (q - 1) ** 2, 2 * q ** (alpha + 2))
        return Fraction(alpha * (q - 1) ** 2 + q * q + 1, 2 * q ** (alpha + 2))
    if beta % 2 == 1:
        raise ValueError("blocks of odd valuation != alpha are empty; beta must be even")
    if beta < alpha:
        return Fraction((beta + 1) * (q - 1) ** 2, 2 * q ** (beta + 2))
    return Fraction((q - 1) * (q ** (alpha + 1) - 1), 2 * q ** (beta + 2))


# ---------------------------------------------------------------------------
# odd-q pairs: assembled five-case closed forms


def pair_measure(q: int, alpha: int, chi_s: int) -> Fraction:
    """Validated pair density for odd prime power q and r = q^alpha * s.

    chi_s is the quadratic character of the unit part s (so chi_s = chi(r)
    when alpha = 0).  The five cases collapse to:

        alpha = 0, chi(r) = +1:  1/2 + 1/(q(q+1))
        alpha = 0, chi(r) = -1:  1/2 - 1/(q+1)
        alpha odd:               (q^2+1)(1 - q^-(alpha+1)) / (2(q+1)^2)
        alpha even, chi(s)=+1:   (q^2+1)/(2(q+1)^2) + (1/q - 1/(q+1)^2) / q^alpha
        alpha even, chi(s)=-1:   (q^2+1)/(2(q+1)^2) - 1/((q+1)^2 q^alpha)

    The even/odd cases extend continuously to alpha = 0, where they agree
    with the first two lines.
    """
    odd_prime_power(q)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if chi_s not in (-1, 1):
        raise ValueError("chi(s) must be ±1")
    if alpha == 0:
        if chi_s == 1:
            return Fraction(1, 2) + Fraction(1, q * (q + 1))
        return Fraction(1, 2) - Fraction(1, q + 1)
    base = Fraction(q * q + 1, 2 * (q + 1) ** 2)
    if alpha % 2 == 1:
        return base * (1 - Fraction(1, q ** (alpha + 1)))
    if chi_s == 1:
        return base + (Fraction(1, q) - Fraction(1, (q + 1) ** 2)) / q**alpha
    return base - Fraction(1, (q + 1) ** 2 * q**alpha)


@dataclass(frozen=True)
class SeriesVerdict:
    """Outcome of summing valuation-block closed forms against the pair density."""

    q: int
    alpha: int
    chi_s: int
    beta_max: int
    block_sum: Fraction
    closed_form: Fraction


def series_consistency(q: int, alpha: int, chi_s: int, beta_max: int) -> SeriesVerdict:
    """Sum the valuation-block densities with an exact geometric tail and
    compare against the assembled five-case closed form, exactly.

    The blocks of odd valuation are empty, so the sum runs over even beta.
    """
    if beta_max < alpha + 4:
        raise ValueError("need beta_max >= alpha + 4")
    if alpha == 0:
        kmax = beta_max // 2
        total = sum(mu_A_k_q(q, chi_s, k) for k in range(kmax + 1)) + mu_A_tail(q, kmax + 1)
    else:
        evens = range(0, beta_max + 1, 2)
        total = sum(mu_B_beta_q(q, alpha, chi_s, beta) for beta in evens) + mu_B_tail(q, alpha, evens[-1] + 2)
    return SeriesVerdict(q, alpha, chi_s, beta_max, total, pair_measure(q, alpha, chi_s))


def _pair_measure_claimed_tail(q: int, alpha: int) -> Fraction:
    # shared alpha-even tail of the claimed five-case expression
    D = 2 * (q + 1) ** 2
    return (
        Fraction(1, 2)
        - Fraction(2 * q - 1, D)
        + Fraction(1, D * q)
        - Fraction(alpha + 1, D * q ** (alpha - 2))
        + Fraction(alpha - 1, D * q**alpha)
        - Fraction(1, D * q ** (alpha + 1))
        - Fraction(1, D * q ** (alpha + 2))
    )


def pair_measure_claimed(q: int, alpha: int, chi_s: int, even_branch_plus_is_linear: bool) -> Fraction:
    """The five-case pair density exactly as stated in the audited text.

    The two stated variants disagree on which chi(s) sign takes the
    (alpha+1)(q-1)^2 block at beta = alpha: pass True for the variant where
    chi(s) = +1 does (the p-adic statement), False for the residue-field
    statement, which swaps them.
    """
    odd_prime_power(q)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if chi_s not in (-1, 1):
        raise ValueError("chi(s) must be ±1")
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
    return _pair_measure_claimed_tail(q, alpha) + block


def diop2_zp(shape: RShape) -> Fraction:
    """Validated pair density over Z_p for odd p, from the shape of r."""
    if shape.p == 2:
        raise ValueError("p = 2 is handled by diop2_z2 (r = 1 only)")
    return pair_measure(shape.p, shape.alpha, shape.chi_s)


def diop2_zp_claimed(shape: RShape) -> Fraction:
    """The p-adic five-case statement, verbatim."""
    if shape.p == 2:
        raise ValueError("p = 2 is handled by diop2_z2 (r = 1 only)")
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


def z3_case_all_zero(m: int) -> Fraction:
    """Density of the all-coordinates-divisible-by-3 block: 1/3^m."""
    return Fraction(1, 3) ** m


def z3_case_one_unit_each(m: int) -> Fraction:
    """Per-position density with exactly one unit coordinate: 2/3^m."""
    return 2 * Fraction(1, 3) ** m


def z3_case_mixed_pair() -> Fraction:
    """Stated pair-core density for the two-unit block with distinct residues: 1/36.

    As a density over Z_3^2 conditioned on nothing, the two ordered residue
    cells contribute 1/72 each; 1/36 is their unordered total.
    """
    return Fraction(1, 36)


def diopm_z3_cases(
    m: int,
    case1: Fraction,
    case2_each: Fraction,
    case3_pair: Fraction,
    *,
    ordered_pairs: bool,
    rescale_pair_block: bool,
) -> Fraction:
    """Recombine the three case densities into an m-tuple density.

    case1 is the all-zero block as a full m-tuple density; case2_each the
    per-position single-unit density; case3_pair the two-unit pair core.
    `ordered_pairs` counts pair positions as m(m-1) instead of m(m-1)/2;
    `rescale_pair_block` scales the pair core by (1/3)^(m-2) (the remaining
    coordinates) instead of (1/3)^m.  The two recombinations under audit:

        ordered + 1/3^m scaling     -> the stated combination
        unordered + (1/3)^(m-2)     -> the self-consistent combination
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    npairs = m * (m - 1) if ordered_pairs else m * (m - 1) // 2
    scale = Fraction(1, 3 ** (m - 2)) if rescale_pair_block else Fraction(1, 3**m)
    return case1 + m * case2_each + npairs * case3_pair * scale


def diopm_z3_consistent(m: int) -> Fraction:
    """The recombination that matches the pair theorem at m = 2: (m^2+15m+8)/(8*3^m)."""
    return diopm_z3_cases(
        m,
        z3_case_all_zero(m),
        z3_case_one_unit_each(m),
        z3_case_mixed_pair(),
        ordered_pairs=False,
        rescale_pair_block=True,
    )


# ---------------------------------------------------------------------------
# F_p triples: stated counts and densities


def _require_unit_r(p: int, r: int) -> int:
    chi = legendre(r, p)
    if chi == 0:
        raise ValueError(f"p = {p} divides r = {r}")
    return chi


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
    return (
        Fraction(3 * p * p + 3 * p + 4, 4)
        - Fraction(3 * p + 3, 4) * chi_r
        + Fraction(13, 4) * chi_neg
    )


def tilde3_fp_claimed(p: int, r: int) -> Fraction:
    """Stated interior (all-units, all-products-nonzero) triple density over F_p."""
    chi_r = _require_unit_r(p, r)
    chi_neg = legendre(-r % p, p)
    return (
        Fraction(1, 8)
        - Fraction(6 + 3 * chi_r, 8 * p)
        + Fraction(15 + 12 * chi_r, 8 * p * p)
        - Fraction(16 + 13 * chi_r + 2 * chi_neg, 8 * p**3)
    )


def diop3_fp_claimed(p: int, r: int) -> Fraction:
    """Stated total D(r) triple density over F_p (sum of the three stated pieces)."""
    chi_r = _require_unit_r(p, r)
    chi_neg = legendre(-r % p, p)
    return (
        Fraction(1, 8)
        + Fraction(6 + 3 * chi_r, 8 * p)
        + Fraction(21 + 6 * chi_r, 8 * p * p)
        + Fraction(24 * chi_neg - 10 - 21 * chi_r, 8 * p**3)
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


def conic_sum_closed(a2: int, a1: int, a0: int, p: int) -> int:
    """Closed form of sum_c chi(a2 c^2 + a1 c + a0) over F_p, a2 a unit.

    -chi(a2) when the discriminant a1^2 - 4 a0 a2 is nonzero, else (p-1) chi(a2).
    """
    if legendre(a2, p) == 0:
        raise ValueError(f"leading coefficient must be a unit mod {p}")
    disc = (a1 * a1 - 4 * a0 * a2) % p
    if disc == 0:
        return (p - 1) * legendre(a2, p)
    return -legendre(a2, p)


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
