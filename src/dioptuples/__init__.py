"""Exact D(r) tuple densities over p-adic rings and finite fields, audited
against exhaustive brute-force oracles."""

from types import ModuleType as _ModuleType

from .arith import format_rational, is_prime, legendre
from .closed_forms import (
    conic_sum_closed,
    diop2_ok,
    diop2_ok_claimed,
    diop2_z2,
    diop2_zp,
    diop2_zp_claimed,
    diop3_fp_claimed,
    diopm_z3_cases,
    diopm_z3_claimed,
    diopm_z3_consistent,
    main_term,
    mu_A_k,
    mu_B_beta,
    mu_B_beta_claimed,
    pair_measure,
    tilde3_fp_claimed,
)
from .curves import TripleCurve, curve_order, extension_dset, two_descent_equiv
from .fp_census import (
    BudgetExceededError,
    CensusBreakdown,
    SquareTable,
    census,
    conic_sum_direct,
    is_dr_tuple,
    square_table,
)
from .fq import FqElem, FqField, fq_construct, quad_char_fq
from .padic import ResidueClass, RShape, SquareStatus, r_shape, square_status, vp
from .zp_census import (
    MeasureInterval,
    series_consistency,
    valuation_class_measure,
    zp_interval,
)

__all__ = [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)]
