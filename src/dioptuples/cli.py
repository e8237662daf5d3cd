"""Command-line front end: measure, census, audit, ec-check.

Output contract: values print as exact rationals ("num/den", denominator 1
elided); JSON objects have sorted keys and rationals as strings, so identical
arguments produce byte-identical output.  Diagnostics go to stderr.  Every
command refuses a flag it does not read.  Exit codes, all decided in `main`:
0 success (and no gating Disagree in audits); 1 bad input of any kind (usage
errors included), a gating Disagree, or a failed ec-check; 2 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import gc
import inspect
import io
import json
import os
import sys
from dataclasses import asdict

from . import closed_forms as cf
from .arith import format_rational
from .audit import SUITE_NAMES, exit_code_for, run_suite, suite_parameters
from .curves import two_descent_equiv
from .fp_census import DEFAULT_BUDGET, BudgetExceededError, census
from .fq import fq_construct
from .padic import r_shape
from .zp_census import zp_interval


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so `main` gives them the exit code of any bad input."""

    def error(self, message):
        raise ValueError(message)


def _given(args, flags, taken, command: str) -> dict:
    """The `flags` set on the command line; raise for one `command` does not read."""
    given = {flag: value for flag in flags if (value := getattr(args, flag)) is not None}
    refused = [f"--{flag.replace('_', '-')}" for flag in given if flag not in taken]
    if refused:
        raise ValueError(f"{command} takes no {', '.join(refused)}")
    return given


def _print_value(value, decimal: bool) -> None:
    out = format_rational(value)
    if decimal:
        out += f" ({float(value):.12g})"
    print(out)


# measure flag -> its default
_MEASURE_FLAGS = {
    "p": 3, "q": 3, "r": 1, "m": 2, "k": 0, "beta": 0, "alpha": 0, "chi_s": 1, "a2": 1, "a1": 0, "a0": 0,
}

# measure quantity -> its evaluator, whose parameters are the flags it reads
_MEASURES = {
    "z2-pair": cf.diop2_z2,
    "pair": lambda p, r: cf.diop2_zp(r_shape(r, p)),
    "pair-stated": lambda p, r: cf.diop2_zp_claimed(r_shape(r, p)),
    "pair-ok": cf.diop2_ok,
    "pair-ok-stated": cf.diop2_ok_claimed,
    "block-a": lambda p, r, k: cf.mu_A_k(r_shape(r, p), k),
    "block-b": lambda p, r, beta: cf.mu_B_beta(r_shape(r, p), beta),
    "z3": cf.diopm_z3_claimed,
    "z3-consistent": cf.diopm_z3_consistent,
    "triple-fp": cf.diop3_fp_claimed,
    "tilde-fp": cf.tilde3_fp_claimed,
    "boundary-fp": cf.count_boundary_claimed,
    "offdiag-fp": cf.count_offdiag_claimed,
    "conic": cf.conic_sum_closed,
    "main-term": cf.main_term,
    "ram3": cf.ram3_mtuple_claimed,
}


def _measure(args) -> int:
    evaluate = _MEASURES[args.quantity]
    taken = inspect.signature(evaluate).parameters
    given = _given(args, _MEASURE_FLAGS, taken, f"measure {args.quantity}")
    _print_value(evaluate(**{flag: given.get(flag, _MEASURE_FLAGS[flag]) for flag in taken}), args.decimal)
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
    taken = ("f",) if args.mode == "fp" else ("precision",)
    given = _given(args, ("f", "precision"), taken, f"census {args.mode}")
    if args.mode == "fp":
        row = asdict(census(fq_construct(args.p, given.get("f", 1)), args.r, args.m, budget=args.budget))
    else:
        N = given.get("precision", 4)
        interval = zp_interval(args.p, args.r, args.m, N, budget=args.budget)
        row = {
            "p": args.p,
            "r": args.r,
            "m": args.m,
            "N": N,
            "lo": format_rational(interval.lo),
            "hi": format_rational(interval.hi),
            "width": format_rational(interval.width),
        }
    _emit([row], args.format)
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
        raise ValueError(f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}")
    keywords = suite_parameters(args.suite)
    taken = [flag for flag, (keyword, _) in _AUDIT_FLAGS.items() if keyword in keywords]
    given = _given(args, _AUDIT_FLAGS, taken, f"audit {args.suite}")
    kwargs = {_AUDIT_FLAGS[flag][0]: _AUDIT_FLAGS[flag][1](value) for flag, value in given.items()}
    records = run_suite(args.suite, **kwargs)
    _emit([rec.to_dict() for rec in records], args.format)
    return exit_code_for(records)


def _ec_check(args) -> int:
    verdict = two_descent_equiv(args.p, args.a, args.b, args.c, args.r)
    row = {field: sorted(v) if isinstance(v, frozenset) else v for field, v in asdict(verdict).items()}
    print(json.dumps(row, sort_keys=True))
    return 0 if verdict.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dioptuples",
        description="Exact D(r) tuple densities and their brute-force audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="print a closed-form value exactly")
    m.add_argument("quantity", choices=_MEASURES)
    for flag, default in _MEASURE_FLAGS.items():
        m.add_argument(f"--{flag.replace('_', '-')}", type=int, help=f"default {default}")
    m.add_argument("--decimal", action="store_true", help="append a decimal approximation")
    m.set_defaults(func=_measure)

    c = sub.add_parser("census", help="run an exhaustive census")
    c.add_argument("mode", choices=["fp", "zp"])
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--f", type=int, help="extension degree, fp mode only (default 1)")
    c.add_argument("--r", type=int, default=1)
    c.add_argument("--m", type=int, default=2)
    c.add_argument("--precision", "-N", type=int, help="precision, zp mode only (default 4)")
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
    # what import left behind lives to exit: collections skip it, so whether a
    # command pays a generation-1 pass over it no longer depends on import
    gc.freeze()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceededError as exc:  # a ValueError too, so it comes first
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


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
