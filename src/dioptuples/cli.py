"""Command-line front end: measure, census, audit, ec-check.

Output contract: values print as exact rationals ("num/den", denominator 1
elided); JSON objects have sorted keys and rationals as strings, so identical
arguments produce byte-identical output.  Diagnostics go to stderr.  Exit
codes: 0 success (and no gating Disagree in audits), 1 usage/verdict failure,
2 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import closed_forms as cf
from .arith import format_rational
from .audit import SUITE_NAMES, exit_code_for, run_suite, suite_parameters
from .curves import two_descent_equiv
from .fp_census import DEFAULT_BUDGET, BudgetExceededError, census
from .fq import fq_construct
from .padic import r_shape
from .zp_census import zp_interval


def _print_value(value, decimal: bool) -> None:
    out = format_rational(value)
    if decimal:
        out += f" ({float(value):.12g})"
    print(out)


# measure quantity -> its evaluator on the parsed flags
_MEASURES = {
    "z2-pair": lambda a: cf.diop2_z2(),
    "pair": lambda a: cf.diop2_zp(r_shape(a.r, a.p)),
    "pair-stated": lambda a: cf.diop2_zp_claimed(r_shape(a.r, a.p)),
    "pair-ok": lambda a: cf.diop2_ok(a.q, a.alpha, a.chi_s),
    "pair-ok-stated": lambda a: cf.diop2_ok_claimed(a.q, a.alpha, a.chi_s),
    "block-a": lambda a: cf.mu_A_k(r_shape(a.r, a.p), a.k),
    "block-b": lambda a: cf.mu_B_beta(r_shape(a.r, a.p), a.beta),
    "z3": lambda a: cf.diopm_z3_claimed(a.m),
    "z3-consistent": lambda a: cf.diopm_z3_consistent(a.m),
    "triple-fp": lambda a: cf.diop3_fp_claimed(a.p, a.r),
    "tilde-fp": lambda a: cf.tilde3_fp_claimed(a.p, a.r),
    "boundary-fp": lambda a: cf.count_boundary_claimed(a.p, a.r),
    "offdiag-fp": lambda a: cf.count_offdiag_claimed(a.p, a.r),
    "conic": lambda a: Fraction(cf.conic_sum_closed(a.a2, a.a1, a.a0, a.p)),
    "main-term": lambda a: cf.main_term(a.m),
    "ram3": lambda a: cf.ram3_mtuple_claimed(a.m),
}


def _measure(args) -> int:
    try:
        value = _MEASURES[args.quantity](args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_value(value, args.decimal)
    return 0


def _emit(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return
    buf = io.StringIO()
    fields = sorted({k for row in rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: json.dumps(v, sort_keys=True) if isinstance(v, dict) else v for k, v in row.items()})
    sys.stdout.write(buf.getvalue())


def _ignore_jobs(args, runs: str) -> None:
    """`--jobs N` stays accepted; every command runs in one process."""
    if args.jobs > 1:
        print(f"note: {runs} runs in one process; --jobs {args.jobs} is ignored", file=sys.stderr)


def _census(args) -> int:
    _ignore_jobs(args, "a census")
    try:
        if args.mode == "fp":
            field = fq_construct(args.p, args.f)
            result = census(field, args.r, args.m, budget=args.budget)
            _emit([result.to_dict()], args.format)
        else:
            interval = zp_interval(args.p, args.r, args.m, args.precision, budget=args.budget)
            row = {
                "p": args.p,
                "r": args.r,
                "m": args.m,
                "N": args.precision,
                "lo": format_rational(interval.lo),
                "hi": format_rational(interval.hi),
                "width": format_rational(interval.width),
            }
            _emit([row], args.format)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _int_list(text):
    return tuple(int(x) for x in text.split(","))


# audit flag -> (the suite keyword it sets, the conversion of its value)
_AUDIT_FLAGS = {
    "p": ("ps", _int_list),
    "rset": ("rset", lambda text: None if text == "auto" else _int_list(text)),
    "pmax": ("pmax", int),
    "precision": ("N", int),
    "seed": ("seed", int),
    "budget": ("cap", lambda budget: min(10**8, budget)),
}


def _audit(args) -> int:
    _ignore_jobs(args, "an audit")
    if args.suite not in SUITE_NAMES:
        print(f"error: unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}", file=sys.stderr)
        return 1
    given = {flag: value for flag in _AUDIT_FLAGS if (value := getattr(args, flag)) is not None}
    taken = suite_parameters(args.suite)
    refused = [f"--{flag}" for flag in given if _AUDIT_FLAGS[flag][0] not in taken]
    if refused:
        print(f"error: audit {args.suite} takes no {', '.join(refused)}", file=sys.stderr)
        return 1
    try:
        kwargs = {_AUDIT_FLAGS[flag][0]: _AUDIT_FLAGS[flag][1](value) for flag, value in given.items()}
        records = run_suite(args.suite, **kwargs)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit([rec.to_dict() for rec in records], args.format)
    return exit_code_for(records)


def _ec_check(args) -> int:
    try:
        v = two_descent_equiv(args.p, args.a, args.b, args.c, args.r)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    row = {
        "p": v.p,
        "a": v.a,
        "b": v.b,
        "c": v.c,
        "r": v.r,
        "order": v.order,
        "doubling_image_size": v.image_size,
        "quarter_order_ok": v.quarter_order_ok,
        "criterion_equal": v.criterion_equal,
        "twist": list(v.twist),
        "dset_nonboundary": sorted(v.dset_nonboundary),
        "image_nonboundary": sorted(v.image_nonboundary),
        "dset_matches_image": v.dset_matches_image,
        "coset_identity_ok": v.coset_identity_ok,
        "coset_xset_matches_dset": v.coset_xset_matches_dset,
        "boundary": [list(b) for b in v.boundary],
    }
    print(json.dumps(row, sort_keys=True))
    return 0 if v.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dioptuples",
        description="Exact D(r) tuple densities and their brute-force audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="print a closed-form value exactly")
    m.add_argument("quantity", choices=_MEASURES)
    m.add_argument("--p", type=int, default=3)
    m.add_argument("--q", type=int, default=3)
    m.add_argument("--r", type=int, default=1)
    m.add_argument("--m", type=int, default=2)
    m.add_argument("--k", type=int, default=0)
    m.add_argument("--beta", type=int, default=0)
    m.add_argument("--alpha", type=int, default=0)
    m.add_argument("--chi-s", dest="chi_s", type=int, default=1, choices=(-1, 1))
    m.add_argument("--a2", type=int, default=1)
    m.add_argument("--a1", type=int, default=0)
    m.add_argument("--a0", type=int, default=0)
    m.add_argument("--decimal", action="store_true", help="append a decimal approximation")
    m.set_defaults(func=_measure)

    c = sub.add_parser("census", help="run an exhaustive census")
    c.add_argument("mode", choices=["fp", "zp"])
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--f", type=int, default=1, help="extension degree for fp mode")
    c.add_argument("--r", type=int, default=1)
    c.add_argument("--m", type=int, default=2)
    c.add_argument("--precision", "-N", type=int, default=4, help="zp mode precision")
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    c.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    c.set_defaults(func=_census)

    a = sub.add_parser("audit", help="run a formula-vs-oracle audit suite")
    a.add_argument("suite")
    a.add_argument("--p", type=str, help="comma-separated prime list")
    a.add_argument("--rset", type=str, help='comma-separated r list, or "auto"')
    a.add_argument("--pmax", type=int)
    a.add_argument("--precision", "-N", type=int)
    a.add_argument("--seed", type=int)
    a.add_argument("--format", choices=["json", "csv"], default="json")
    a.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    a.add_argument("--budget", type=int, help="caps the pairs-zp censuses at min(10^8, budget)")
    a.set_defaults(func=_audit)

    e = sub.add_parser("ec-check", help="two-descent verdict for one instance")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--a", type=int, required=True)
    e.add_argument("--b", type=int, required=True)
    e.add_argument("--c", type=int, required=True)
    e.add_argument("--r", type=int, required=True)
    e.set_defaults(func=_ec_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:  # console-script shim
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`| head`); devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
