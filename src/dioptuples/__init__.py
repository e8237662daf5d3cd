"""Exact D(r) tuple densities over p-adic rings and finite fields, audited
against exhaustive brute-force oracles."""

from types import ModuleType as _ModuleType

from .arith import format_rational, is_prime, legendre
from .closed_forms import (
    conic_sum_closed,
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
    series_consistency,
    tilde3_fp_claimed,
)
from .curves import TripleCurve, extension_dset, two_descent_equiv
from .fp_census import (
    BudgetExceededError,
    CensusBreakdown,
    census,
    conic_sum_direct,
    square_table,
)
from .fq import FqField, fq_construct
from .padic import RShape, r_shape, vp
from .zp_census import (
    MeasureInterval,
    valuation_class_measure,
    zp_interval,
)

__all__ = [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)]
