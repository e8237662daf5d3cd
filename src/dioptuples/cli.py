"""Command-line front end: measure, census, audit, ec-check.

Output contract: values print as exact rationals ("num/den", denominator 1
elided); JSON objects have sorted keys and rationals as strings, so identical
arguments produce byte-identical output.  Diagnostics go to stderr.  Every
command refuses a flag it does not read.  Exit codes, all decided in `main`:
0 success (and no gating Disagree in audits); 1 bad input of any kind (usage
errors included), a gating Disagree, or a failed ec-check; 2 budget exceeded.

Arguments are read against one table, `_COMMANDS`, which `-h`/`--help` prints
as usage.  A flag's value follows it (`--p 5`, `-N 5`) or is attached
(`--p=5`, `-N5`), and may be negative (`--alpha -1`).  An abbreviated
(`--prec`) or repeated flag is refused, never guessed at.
"""

from __future__ import annotations

import csv
import gc
import inspect
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


def _given(given: dict, taken, command: str) -> None:
    """Raise for a flag in `given` that `command` does not read."""
    refused = [f"--{flag.replace('_', '-')}" for flag in given if flag not in taken]
    if refused:
        raise ValueError(f"{command} takes no {', '.join(refused)}")


# measure quantity -> its evaluator, whose parameters are the flags it reads;
# the one ledger of the names under which the closed forms are printed
_MEASURES = {
    "z2-pair": cf.diop2_z2,
    "pair": lambda p, r: cf.diop2_zp(r_shape(r, p)),
    "pair-stated": lambda p, r: cf.diop2_zp_claimed(r_shape(r, p)),
    "pair-ok": cf.pair_measure,
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
    "ram3": cf.diopm_z3_claimed,
}


def _measure(quantity, opts, given) -> int:
    evaluate = _MEASURES[quantity]
    taken = inspect.signature(evaluate).parameters
    _given(given, {*taken, "decimal"}, f"measure {quantity}")
    value = evaluate(**{flag: opts[flag] for flag in taken})
    print(format_rational(value) + (f" ({float(value):.12g})" if opts["decimal"] else ""))
    return 0


def _emit(rows: list[dict], fmt: str) -> None:
    # line by line, never one joined string: a single large write to a pipe
    # whose reader has left can end without the BrokenPipeError `entry` reports
    encode = json.JSONEncoder(sort_keys=True).encode
    if fmt == "json":
        sys.stdout.writelines(encode(row) + "\n" for row in rows)
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=sorted({k for row in rows for k in row}))
    writer.writeheader()
    writer.writerows({k: encode(v) if isinstance(v, dict) else v for k, v in row.items()} for row in rows)


def _ignore_jobs(jobs: int, runs: str) -> None:
    """`--jobs N` stays accepted for N >= 1; every command runs in one process."""
    if jobs < 1:
        raise ValueError(f"argument --jobs: must be at least 1, got {jobs}")
    if jobs > 1:
        print(f"note: {runs} runs in one process; --jobs {jobs} is ignored", file=sys.stderr)


def _census(mode, opts, given) -> int:
    _ignore_jobs(opts["jobs"], "a census")
    _given(given, set(opts) - {"precision" if mode == "fp" else "f"}, f"census {mode}")
    p, r, m, budget = opts["p"], opts["r"], opts["m"], opts["budget"]
    if mode == "fp":
        row = asdict(census(fq_construct(p, opts["f"]), r, m, budget=budget))
    else:
        N = opts["precision"]
        interval = zp_interval(p, r, m, N, budget=budget)
        row = {
            "p": p,
            "r": r,
            "m": m,
            "N": N,
            "lo": format_rational(interval.lo),
            "hi": format_rational(interval.hi),
            "width": format_rational(interval.width),
        }
    _emit([row], opts["format"])
    return 0


# audit flag -> the suite keyword it sets, where the two names differ
_SUITE_KEYWORD = {"p": "ps", "precision": "N"}


def _audit(suite, opts, given) -> int:
    _ignore_jobs(opts["jobs"], "an audit")
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    keywords = {"format", "jobs", *suite_parameters(suite)}
    _given(given, {flag for flag in opts if _SUITE_KEYWORD.get(flag, flag) in keywords}, f"audit {suite}")
    kwargs = {_SUITE_KEYWORD.get(flag, flag): value for flag, value in given.items() if flag not in ("format", "jobs")}
    records = run_suite(suite, **kwargs)
    _emit([rec.to_dict() for rec in records], opts["format"])
    return exit_code_for(records)


def _ec_check(_, opts, given) -> int:
    verdict = two_descent_equiv(*(opts[flag] for flag in "pabcr"))
    row = {field: sorted(v) if isinstance(v, frozenset) else v for field, v in asdict(verdict).items()}
    print(json.dumps(row, sort_keys=True))
    return 0 if verdict.ok else 1


def _int_list(text):
    return tuple(int(x) for x in text.split(","))


_REQUIRED = object()  # the default of a flag that must be given
_FORMAT = (("json", "csv"), "json")  # a tuple converts a value by choice from it

# command -> (its positional argument, that argument's choices (None: any),
#             {flag: (conversion of its value (None: a switch), default)})
_COMMANDS = {
    "measure": ("quantity", _MEASURES, {
        **{flag: (int, default) for flag, default in dict(
            p=3, q=3, r=1, m=2, k=0, beta=0, alpha=0, chi_s=1, a2=1, a1=0, a0=0,
        ).items()},
        "decimal": (None, False),
    }),
    "census": ("mode", ("fp", "zp"), {
        "p": (int, _REQUIRED), "f": (int, 1), "r": (int, 1), "m": (int, 2), "precision": (int, 4),
        "format": _FORMAT, "budget": (int, DEFAULT_BUDGET), "jobs": (int, 1),
    }),
    "audit": ("suite", None, {
        "p": (_int_list, None), "rset": (lambda text: None if text == "auto" else _int_list(text), None),
        "pmax": (int, None), "precision": (int, None), "seed": (int, None), "format": _FORMAT,
        "jobs": (int, 1), "budget": (int, None),
    }),
    "ec-check": (None, None, dict.fromkeys("pabcr", (int, _REQUIRED))),
}

_HANDLERS = {"measure": _measure, "census": _census, "audit": _audit, "ec-check": _ec_check}


def _usage(commands) -> str:
    """One line per command; a flag not required is bracketed, with its default if it has one."""
    lines = ["usage:"]
    for command in commands:
        positional, choices, flags = _COMMANDS[command]
        words = [f"  dioptuples {command}", "{" + ",".join(choices) + "}" if choices else (positional or "").upper()]
        for flag, (convert, default) in flags.items():
            word = f"--{flag.replace('_', '-')}" + ("/-N" if flag == "precision" else "")
            if convert is not None:
                word += f" {flag.upper()}" if default in (None, _REQUIRED) else f"={default}"
            words.append(word if default is _REQUIRED else f"[{word}]")
        lines.append(" ".join(filter(None, words)))
    return "\n".join(lines)


def _choose(name: str, text: str, choices):
    if text not in choices:
        raise ValueError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
    return text


def _is_word(token: str) -> bool:
    """A positional argument or a flag's value, not a flag: "-1" is a word."""
    return token[:1] != "-" or token[1:].isdigit()


def _parse(argv: list[str]):
    """(command, its positional argument, {flag: value} for each flag given)."""
    if not argv:
        raise ValueError("the following arguments are required: command")
    positional, choices, flags = _COMMANDS[_choose("command", argv[0], _COMMANDS)]
    names = {f"--{flag.replace('_', '-')}": flag for flag in flags} | ({"-N": "precision"} if "precision" in flags else {})
    words, given, extra = [], {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            words += tokens
            continue
        if _is_word(token):
            words.append(token)
            continue
        name, eq, value = token.partition("=")
        if not eq:  # --p, -N or -N5
            name, value = (token, None) if token[:2] == "--" else (token[:2], token[2:] or None)
        flag = names.get(name)
        if flag is None:
            longer = [spelled for spelled in names if spelled.startswith(name) and len(name) > 2]
            if longer:
                raise ValueError(f"flag {name} is abbreviated; write {' or '.join(longer)} in full")
            extra.append(token)
            continue
        if flag in given:
            raise ValueError(f"argument {name}: given more than once")
        convert = flags[flag][0]
        if convert is None:
            if value is not None:
                raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
            given[flag] = True
            continue
        if value is None:
            value = next(tokens, None)
            if value is None or not _is_word(value):
                raise ValueError(f"argument {name}: expected one argument")
        if isinstance(convert, tuple):
            given[flag] = _choose(name, value, convert)
            continue
        try:
            given[flag] = convert(value)
        except ValueError:
            raise ValueError(f"argument {name}: invalid int value: {value!r}") from None
    missing = [positional] if positional and not words else []
    missing += [f"--{flag}" for flag, (_, default) in flags.items() if default is _REQUIRED and flag not in given]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    choice = words.pop(0) if positional else None
    if choices is not None:
        _choose(positional, choice, choices)
    if extra or words:
        raise ValueError(f"unrecognized arguments: {' '.join(extra + words)}")
    return argv[0], choice, given


def main(argv=None) -> int:
    # what import left behind lives to exit: collections skip it, so whether a
    # command pays a generation-1 pass over it no longer depends on import
    gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(_usage(argv[:1] if argv[0] in _COMMANDS else _COMMANDS))
        return 0
    try:
        command, choice, given = _parse(argv)
        opts = {flag: default for flag, (_, default) in _COMMANDS[command][2].items()} | given
        return _HANDLERS[command](choice, opts, given)
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
