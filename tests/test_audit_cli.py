import ast
import csv
import importlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest

import dioptuples
from dioptuples import audit
from dioptuples.arith import PRIMALITY_BOUND, format_rational, residue_tables
from dioptuples.audit import (
    AGREE,
    DISAGREE,
    INCONCLUSIVE,
    AuditRecord,
    auto_rset,
    canonical_order,
    exit_code_for,
    run_suite,
    smallest_nonresidue,
    verdict_for,
)
from dioptuples.cli import main
from dioptuples.curves import dr_triples_distinct
from dioptuples.fp_census import BudgetExceededError
from dioptuples.zp_census import MeasureInterval, zp_precision

import pins  # tests/pins.py
from conftest import fresh_python


def test_smallest_nonresidue_and_auto_rset():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3
    assert auto_rset(3) == [1, 2, 3, 6, 9, 18, 27]
    assert auto_rset(7) == [1, 3, 7, 21, 49, 147, 343]


def test_interval_precision():
    assert zp_precision(3, 2, 10**8) == 8  # 3^16 <= 1e8 < 3^18
    assert zp_precision(5, 2, 10**8) == 5
    assert zp_precision(7, 2, 10**8) == 4
    assert zp_precision(11, 2, 10**8) == 3
    assert zp_precision(13, 2, 10**8) == 3


def test_verdict_rules():
    box = MeasureInterval(Fr(1, 4), Fr(1, 2))
    assert verdict_for(Fr(1, 3), box) == AGREE
    assert verdict_for(Fr(2, 3), box) == DISAGREE
    assert verdict_for(Fr(1, 3), box, competitors=(Fr(1, 3), Fr(2, 5))) == INCONCLUSIVE
    assert verdict_for(Fr(1, 3), box, competitors=(Fr(1, 3), Fr(2, 3))) == AGREE
    assert verdict_for(Fr(1, 2), Fr(1, 2)) == AGREE
    assert verdict_for(Fr(1, 2), Fr(1, 3)) == DISAGREE


def test_suite_conic_all_agree():
    records = run_suite("conic", pmax=7)
    assert records and all(r.verdict == AGREE for r in records)
    assert exit_code_for(records) == 0


def test_suite_conic_memory_is_one_slice():
    # direct sums over chunks of a2 of at most PRODUCT_CELLS terms each, not the
    # (p - 1) p^2 array of every a2 at once, which peaked near 1 MB at pmax 31
    tracemalloc.start()
    try:
        records = run_suite("conic", pmax=31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 10 and all(r.verdict == AGREE for r in records)
    assert peak < 2**17


def test_suite_conic_chunks_count_what_one_a2_at_a_time_counts(monkeypatch):
    # a closed form off by one at every zero discriminant, so each prime has
    # mismatches to count, and chunks small enough to split inside primes
    from dioptuples import closed_forms as cf
    from dioptuples.fp_census import conic_sum_direct

    closed = cf.conic_sum_closed

    def mutant(a2, a1, a0, p):
        return closed(a2, a1, a0, p) + ((a1 * a1 - 4 * a0 * a2) % p == 0)

    calls = []
    direct = audit.conic_sum_direct
    monkeypatch.setattr(cf, "conic_sum_closed", mutant)
    monkeypatch.setattr(audit, "PRODUCT_CELLS", 5000)
    monkeypatch.setattr(audit, "conic_sum_direct", lambda a2, a1, a0, p: calls.append(p) or direct(a2, a1, a0, p))
    records = run_suite("conic", pmax=31)
    want = {}
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        a1, a0 = np.arange(p)[:, None], np.arange(p)
        want[p] = sum(
            int(np.count_nonzero(conic_sum_direct(a2, a1, a0, p) != mutant(a2, a1, a0, p))) for a2 in range(1, p)
        )
    assert {rec.params["p"]: rec.oracle_value for rec in records} == want
    assert all(want.values())
    assert [calls.count(p) for p in want] == [1, 1, 1, 3, 6, 16, 18, 22, 28, 30]


def test_suite_z2():
    records = run_suite("z2", N=8)
    assert all(r.verdict == AGREE for r in records)


def test_suite_z2_checks_the_blocks_against_the_stated_value(monkeypatch):
    # the pair density is the stated 1/3, not the block sum, so a wrong tail disagrees
    monkeypatch.setattr(audit.cf, "z2_block_tail", lambda kmin=1: Fr(1, 64))
    verdicts = {r.quantity: r.verdict for r in audit.suite_z2()}
    assert verdicts == {"pair_density_z2": AGREE, "pair_density_z2_blocks": DISAGREE}


def test_suite_valuation_classes_is_charged_before_any_table(monkeypatch):
    # the default primes and precision are charged 3^7 + 5^7 = 80312 status-table cells
    assert run_suite("valuation-classes", budget=80312)
    built = []
    monkeypatch.setattr(audit, "valuation_class_measures", lambda *args: built.append(args))
    with pytest.raises(BudgetExceededError) as refused:
        run_suite("valuation-classes", budget=80311)
    assert str(refused.value) == (
        "audit valuation-classes --precision 7: charge 3^7 + 5^7 exceeds budget 80311; the largest N that fits is 6"
    )
    assert built == []


def test_suite_valuation_classes_counts_every_r_of_one_shell_at_once(monkeypatch):
    # one stacked call per (p, beta): beta = 0..4 at N = 7 for each of p = 3, 5
    stacks = []
    measures = audit.valuation_class_measures
    monkeypatch.setattr(audit, "valuation_class_measures", lambda p, rs, *a: stacks.append((p, rs)) or measures(p, rs, *a))
    records = run_suite("valuation-classes")
    assert len(stacks) == 10
    assert sum(len(rs) for _, rs in stacks) == len({(r.params["p"], r.params["r"], r.params["beta"]) for r in records})


def test_suite_pairs_zp_small():
    records = run_suite("pairs-zp", ps=(3,), budget=3**10)
    assert records and all(r.verdict == AGREE for r in records)
    quantities = {r.quantity for r in records}
    assert quantities == {"pair_density_zp", "pair_density_block_series"}


def test_suite_z3_adjudicate_documents_discrepancy():
    records = run_suite("z3-adjudicate")
    assert all(not r.must_agree for r in records)
    assert exit_code_for(records) == 0  # adjudication never gates
    by_key = {(r.quantity, r.params["m"]): r for r in records}
    stated_m2 = by_key[("mtuple_density_z3_stated", 2)]
    consistent_m2 = by_key[("mtuple_density_z3_consistent", 2)]
    assert stated_m2.verdict == DISAGREE
    assert consistent_m2.verdict == AGREE
    assert stated_m2.claimed_value == Fr(91, 162)
    assert consistent_m2.claimed_value == Fr(7, 12)
    # both candidate values ride along in the detail text
    assert "91/162" in stated_m2.detail and "7/12" in stated_m2.detail
    m3 = by_key[("mtuple_density_z3_stated", 3)]
    assert "43/162" in m3.detail and "31/108" in m3.detail
    assert m3.verdict in (DISAGREE, INCONCLUSIVE)


def test_gating_is_decided_by_the_quantity():
    # the quantities emitted as non-gating are exactly ADJUDICATIONS, each emitted,
    # and no quantity is emitted both ways
    records = run_suite("all")
    assert {r.quantity for r in records if not r.must_agree} == audit.ADJUDICATIONS
    assert all(r.must_agree == (r.quantity not in audit.ADJUDICATIONS) for r in records)


def test_suite_valuation_classes_gating_records_agree():
    records = run_suite("valuation-classes", ps=(3,), N=6)
    gating = [r for r in records if r.must_agree]
    assert gating and all(r.verdict == AGREE for r in gating)
    stated = [r for r in records if not r.must_agree]
    assert stated and all(r.verdict == DISAGREE for r in stated)


def test_suite_triples_fp_partition_and_boundary_gate():
    records = run_suite("triples-fp", pmax=7)
    assert exit_code_for(records) == 0
    for r in records:
        if r.quantity in ("triple_partition", "triple_boundary_count"):
            assert r.verdict == AGREE
    interior = {
        (r.params["p"], r.params["r"]): r
        for r in records
        if r.quantity == "triple_interior_density"
    }
    assert interior[(7, 1)].verdict == AGREE
    assert interior[(5, 1)].verdict == DISAGREE  # stated 1/250 vs census 0


def test_records_are_recomputable():
    # competing candidates travel inside params, so the verdict is a pure
    # function of the record's own fields
    for rec in run_suite("z3-adjudicate"):
        competitors = tuple(
            Fr(*map(int, c.split("/"))) if "/" in c else Fr(int(c))
            for c in rec.params["candidates"].split(",")
        )
        assert rec.verdict == verdict_for(rec.claimed_value, rec.oracle_value, competitors)
    for rec in run_suite("conic", pmax=5):
        assert rec.verdict == verdict_for(rec.claimed_value, rec.oracle_value)


def test_run_suite_unknown():
    with pytest.raises(KeyError):
        run_suite("unknown-suite")


def test_run_suite_all_passes_each_suite_only_its_arguments(monkeypatch):
    seen = {}

    def one(pmax=0):
        seen["one"] = pmax
        return [audit._record("one", audit._point({"pmax": pmax}), Fr(0), Fr(0))]

    def two(N=0, depth=1):
        seen["two"] = (N, depth)
        return [audit._record("two", audit._point({"N": N, "depth": depth}), Fr(0), Fr(0))]

    monkeypatch.setattr(audit, "SUITES", {"one": one, "two": two})
    assert [rec.quantity for rec in run_suite("all", pmax=5, depth=2)] == ["one", "two"]
    assert seen == {"one": 5, "two": (0, 2)}
    with pytest.raises(TypeError, match="seed"):
        run_suite("all", seed=1)


def test_audit_all_makes_one_stacked_pass_per_oracle(monkeypatch):
    # one census call per (suite, p, m), over every r that suite reads at p,
    # and every ec instance in one two-descent pass
    from dioptuples import curves, fp_census

    suite = [None]
    census_calls, descent_calls = [], []
    stacked, descent = audit.censuses, audit.two_descent_pass

    def count_censuses(field, rs, m, *args):
        census_calls.append((suite[0], field, m, tuple(rs)))
        return stacked(field, rs, m, *args)

    def count_descents(instances):
        descent_calls.append((suite[0], len(instances)))
        return descent(instances)

    passes = {"census": 0, "descent": 0}  # the array passes under every entry point

    def counted(key, fn):
        def wrapper(*args):
            passes[key] += 1
            return fn(*args)
        return wrapper

    for name, fn in audit.SUITES.items():
        def tagged(*args, _name=name, _fn=fn, **kwargs):
            suite[0] = _name
            return _fn(*args, **kwargs)
        monkeypatch.setitem(audit.SUITES, name, tagged)
    monkeypatch.setattr(audit, "censuses", count_censuses)
    monkeypatch.setattr(audit, "two_descent_pass", count_descents)
    monkeypatch.setattr(fp_census, "_census_counts", counted("census", fp_census._census_counts))
    monkeypatch.setattr(curves._Curves, "of", counted("descent", curves._Curves.of))
    records = run_suite("all")
    assert len(records) == 1135
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert census_calls == (
        [("triples-fp", p, 3, tuple(range(1, p))) for p in primes]
        + [("asymptotics", p, m, (1, 2)) for m, p in ((3, 31), (3, 61), (3, 101), (4, 53), (4, 101))]
    )
    assert descent_calls == [("ec", 100)]
    assert passes == {"census": len(census_calls), "descent": 1}


@pytest.mark.parametrize("suite,cells", [("conic", "(p - 1)p^2"), ("triples-fp", "p^3")], ids=["conic", "triples-fp"])
def test_audit_pmax_is_charged_before_any_work(suite, cells):
    # the cells summed over the primes first pass the default budget of 10^8
    # at p = 223, for either suite
    proc = run_module("audit", suite, "--pmax", "500", timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(
        f"audit {suite} --pmax 500: charge sum of {cells} over the primes 3 <= p <= 500 exceeds budget 100000000; "
        "the largest pmax that fits is 222\n"
    )


def test_audit_pmax_charge_names_the_largest_pmax_that_fits(capsys):
    # the cells of every prime are summed: 3^3 + 5^3 + ... + 29^3 = 52351 fits
    # a budget of 52351, and adding 31^3 = 29791 does not
    code, out, err = run_cli(capsys, "audit", "triples-fp", "--pmax", "31", "--budget", "52351")
    assert (code, out) == (2, "")
    assert (
        "charge sum of p^3 over the primes 3 <= p <= 31 exceeds budget 52351; the largest pmax that fits is 30\n"
    ) in err
    code, out, err = run_cli(capsys, "audit", "triples-fp", "--pmax", "30", "--budget", "52351")
    assert (code, err) == (0, "") and len(out.splitlines()) == 5 * sum(p - 1 for p in (3, 5, 7, 11, 13, 17, 19, 23, 29))
    # no prime fits: the least pmax with a prime to charge is 3, whose 2 * 3^2 = 18 cells pass 17
    code, out, err = run_cli(capsys, "audit", "conic", "--pmax", "13", "--budget", "17")
    assert (code, out) == (2, "")
    assert "charge sum of (p - 1)p^2 over the primes 3 <= p <= 13 exceeds budget 17; the largest pmax that fits is 2" in err


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_measure_examples(capsys):
    code, out, _ = run_cli(capsys, "measure", "pair", "--p", "3", "--r", "1")
    assert code == 0 and out.strip() == "7/12"
    code, out, _ = run_cli(capsys, "measure", "z2-pair")
    assert code == 0 and out.strip() == "1/3"
    code, out, _ = run_cli(capsys, "measure", "z3", "--m", "4")
    assert code == 0 and out.strip() == "28/243"
    code, out, _ = run_cli(capsys, "measure", "boundary-fp", "--p", "5", "--r", "1")
    assert code == 0 and out.strip() == "37"
    code, out, _ = run_cli(capsys, "measure", "pair", "--p", "3", "--r", "1", "--decimal")
    assert code == 0 and out.startswith("7/12 (0.58333")


# exit code and stdout of every measure quantity at its default flags
MEASURE_DEFAULTS = [
    ("z2-pair", 0, "1/3\n"),
    ("pair", 0, "7/12\n"),
    ("pair-stated", 0, "7/12\n"),
    ("pair-ok", 0, "7/12\n"),
    ("pair-ok-stated", 0, "7/12\n"),
    ("block-a", 0, "5/9\n"),
    ("block-b", 1, ""),
    ("z3", 0, "91/162\n"),
    ("z3-consistent", 0, "7/12\n"),
    ("triple-fp", 0, "67/108\n"),
    ("tilde-fp", 0, "0\n"),
    ("boundary-fp", 0, "13\n"),
    ("offdiag-fp", 0, "15/4\n"),
    ("conic", 0, "2\n"),
    ("main-term", 0, "1/2\n"),
    ("ram3", 0, "91/162\n"),
]


@pytest.mark.parametrize("quantity,code,out", MEASURE_DEFAULTS)
def test_cli_measure_every_quantity_at_defaults(capsys, quantity, code, out):
    got_code, got_out, err = run_cli(capsys, "measure", quantity)
    assert (got_code, got_out) == (code, out)
    if code:
        assert err == "error: B_beta blocks require alpha > 0; use mu_A_k for a unit r\n"


def test_cli_measure_invalid_params(capsys):
    code, _, err = run_cli(capsys, "measure", "pair", "--p", "4", "--r", "1")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "measure", "triple-fp", "--p", "5", "--r", "10")
    assert code == 1 and "error" in err
    for argv in (("pair-ok-stated", "--alpha", "-1"), ("pair-ok-stated", "--alpha", "-2"), ("z3-consistent", "--m", "-1")):
        code, out, err = run_cli(capsys, "measure", *argv)
        assert (code, out) == (1, "") and err.startswith("error:")


# argv -> exit code, stdout, and a fragment of stderr: every failure is decided in `main`
CLI_CONTRACT = [
    (("census", "fp", "--m", "3"), 1, "", "required: --p"),
    (("measure", "nosuch"), 1, "", "invalid choice: 'nosuch'"),
    (("audit", "nosuch"), 1, "", "error: argument suite: invalid choice: 'nosuch' (choose from 'pairs-zp', 'z2', "),
    (("audit",), 1, "", "required: suite"),
    (("measure", "pair-ok", "--p", "5"), 1, "", "measure pair-ok takes no --p"),
    (("measure", "z2-pair", "--p", "7"), 1, "", "measure z2-pair takes no --p"),
    (("census", "zp", "--p", "3", "--f", "3"), 1, "", "census zp takes no --f"),
    (("census", "fp", "--p", "3", "-N", "9"), 1, "", "census fp takes no --precision"),
    (("census", "zp", "--p", "3", "--m", "3", "-N", "9"), 2, "", "exceeds budget"),
    (("audit", "pairs-zp", "--p", "3", "--budget", "0"), 2, "", "exceeds budget 0"),
    (("census", "fp", "--m", "4", "--p", "211"), 2, "", "charge 211^4 exceeds budget 1000000000; the largest q that fits is 177"),
    (
        ("audit", "valuation-classes", "--p", "101", "--precision", "9"), 2, "",
        "error: audit valuation-classes --precision 9: charge 101^9 exceeds budget 100000000; the largest N that fits is 3\n",
    ),
    # a huge precision is weighed by bit length, never built
    (
        ("audit", "valuation-classes", "--precision", "100000000000"), 2, "",
        "charge 3^100000000000 + 5^100000000000 exceeds budget 100000000; the largest N that fits is 11\n",
    ),
    (("census", "zp", "--p", "9"), 1, "", "9 is not prime"),
    (("census", "fp", "--p", "9", "--m", "2"), 1, "", "expected an odd prime, got 9"),
    # the suites that search for a nonresidue refuse p <= 2 as every odd-prime input is refused
    (("audit", "pairs-zp", "--p", "2"), 1, "", "expected an odd prime, got 2"),
    (("audit", "pairs-zp", "--p", "1"), 1, "", "expected an odd prime, got 1"),
    # a given rset reaches the census precision, which must come after the refusal of p
    (("audit", "pairs-zp", "--p", "1", "--rset", "1"), 1, "", "expected an odd prime, got 1"),
    (("audit", "pairs-zp", "--p", "-3"), 1, "", "expected an odd prime, got -3"),
    (("audit", "valuation-classes", "--p", "2"), 1, "", "expected an odd prime, got 2"),
    # an r-shape is for odd p, so every pair measure refuses p = 2 through the same rule
    (("measure", "pair", "--p", "2"), 1, "", "error: expected an odd prime, got 2\n"),
    (("measure", "pair-stated", "--p", "2"), 1, "", "error: expected an odd prime, got 2\n"),
    (("measure", "block-a", "--p", "2", "--r", "1"), 1, "", "error: expected an odd prime, got 2\n"),
    (("measure", "block-b", "--p", "2", "--r", "2", "--beta", "2"), 1, "", "error: expected an odd prime, got 2\n"),
    (("measure", "triple-fp", "--p", "1", "--r", "1"), 1, "", "error: expected an odd prime, got 1\n"),
    # r = 0 in F_p is refused by the one zero-r rule, as `census fp --p 5 --r 10` refuses it
    (("measure", "triple-fp", "--p", "5", "--r", "10"), 1, "", "error: r = 10 is 0 in F_5: r = 0 is rejected"),
    (("ec-check", "--p", "13", "--a", "1", "--b", "3", "--c", "8", "--r", "13"), 1, "", "error: r = 13 is 0 in F_13: "),
    (("census", "fp", "--p", "5", "--r", "10"), 1, "", "error: r = 10 is 0 in F_5: r = 0 is rejected"),
    # the pair forms' and blocks' own argument checks
    (("measure", "block-b", "--p", "3", "--r", "3", "--beta", "-2"), 1, "", "error: beta must be >= 0\n"),
    (("measure", "pair-ok", "--chi-s", "0"), 1, "", "error: chi(s) must be ±1\n"),
    (("measure", "pair-ok-stated", "--chi-s", "0"), 1, "", "error: chi(s) must be ±1\n"),
    (("measure", "pair-ok", "--alpha", "-1"), 1, "", "error: alpha must be >= 0\n"),
    (("census", "fp", "--p", "3", "--f", "0"), 1, "", "error: extension degree must be >= 1\n"),
    (("census", "fp", "--p", "3", "--m", "1"), 1, "", "error: m must be >= 2\n"),
    (("census", "zp", "--p", "3", "--m", "1"), 1, "", "error: m must be >= 2\n"),
    (("measure", "pair-ok", "--q", "15"), 1, "", "15 is not a prime power"),
    (("measure", "conic", "--p", "5", "--a1", "1"), 0, "-1\n", ""),
    # an audit that checked nothing fails
    (("audit", "conic", "--pmax", "2"), 1, "", "audit conic produced no records"),
    (("audit", "triples-fp", "--pmax", "-1"), 1, "", "audit triples-fp produced no records"),
    # the census's size bound holds for the curve sweeps too
    (("ec-check", "--p", "100003", "--a", "1", "--b", "3", "--c", "8", "--r", "1"), 1, "", "desk-scale bound 100000"),
    # usage errors, in the wording argparse gave them
    ((), 1, "", "the following arguments are required: command"),
    (("frob",), 1, "", "argument command: invalid choice: 'frob' (choose from 'measure', 'census', 'audit', 'ec-check')"),
    (("census", "fp", "--p", "5", "--nosuch", "1"), 1, "", "unrecognized arguments: --nosuch 1"),
    (("census", "fp", "--p"), 1, "", "argument --p: expected one argument"),
    (("census", "fp", "--p", "five"), 1, "", "argument --p: invalid int value: 'five'"),
    (("census", "fp", "--p", "5", "--format", "xml"), 1, "", "argument --format: invalid choice: 'xml'"),
    # a flag is spelled in full and given once, never guessed at
    (("census", "zp", "--p", "3", "--prec", "4"), 1, "", "flag --prec is abbreviated; write --precision in full"),
    (("census", "fp", "--p", "5", "--p", "7"), 1, "", "argument --p: given more than once"),
    (("measure", "pair", "--decimal=1"), 1, "", "argument --decimal: ignored explicit argument '1'"),
    # after "--" every token is a word, so a flag there is left over
    (("census", "fp", "--p", "5", "--", "--r", "2"), 1, "", "unrecognized arguments: --r 2"),
    (("census", "fp", "--p", "5", "--", "-h"), 1, "", "unrecognized arguments: -h"),
    # a list names each value once
    (("audit", "pairs-zp", "--p", "3,3"), 1, "", "argument --p: 3 given more than once"),
    (("audit", "valuation-classes", "--p", "5,5"), 1, "", "argument --p: 5 given more than once"),
    (("audit", "pairs-zp", "--p", "3", "--rset", "1,-1,1"), 1, "", "argument --rset: 1 given more than once"),
]


@pytest.mark.parametrize("argv,code,out,err_part", CLI_CONTRACT, ids=[" ".join(c[0]) for c in CLI_CONTRACT])
def test_cli_exit_code_contract(capsys, argv, code, out, err_part):
    got_code, got_out, err = run_cli(capsys, *argv)
    assert (got_code, got_out) == (code, out)
    assert err_part in err
    assert err.startswith("error: ") if code else err == ""


def test_cli_attached_values_read_like_spaced_ones(capsys):
    for attached, spaced in [
        ("census fp --p=5", "census fp --p 5"),
        ("census zp --p 3 -N3", "census zp --p 3 -N 3"),
        ("audit pairs-zp --p=3,5", "audit pairs-zp --p 3,5"),
        ("audit z2 -N6", "audit z2 -N 6"),
        # a negative int list is a value: a token is a flag only when no digit follows its "-"
        ("audit pairs-zp --p 3 --rset=-1,2", "audit pairs-zp --p 3 --rset -1,2"),
        ("audit pairs-zp --p 3 --rset=-1,-2", "audit pairs-zp --p 3 --rset -1,-2"),
    ]:
        code, out, err = run_cli(capsys, *spaced.split())
        assert (code, err) == (0, "") and out, spaced
        assert run_cli(capsys, *attached.split()) == (0, out, ""), attached


def test_cli_double_dash_ends_the_flags(capsys):
    want = run_cli(capsys, "measure", "pair", "--p", "5")
    assert want[0] == 0 and want[1]
    assert run_cli(capsys, "measure", "--p", "5", "--", "pair") == want


def test_cli_audit_budget_is_the_pairs_census_budget(capsys):
    # used as given: 3^18 <= 10^9 < 3^20, so the census runs at N = 9
    code, out, err = run_cli(capsys, "audit", "pairs-zp", "--p", "3", "--rset", "1", "--budget", "1000000000")
    assert (code, err) == (0, "")
    precisions = [json.loads(line)["params"].get("N") for line in out.splitlines()]
    assert precisions == [None, "9"]  # the block-series record has no N


def test_cli_help_names_every_command(capsys):
    code, out, err = run_cli(capsys, "-h")
    assert (code, err) == (0, "")
    for command in ("measure", "census", "audit", "ec-check"):
        assert f"dioptuples {command} " in out, command


def test_cli_census_fp_json(capsys):
    code, out, _ = run_cli(capsys, "census", "fp", "--p", "5", "--r", "1", "--m", "3")
    assert code == 0
    row = json.loads(out)
    assert row == {
        "boundary": 37, "interior": 0, "m": 3, "offdiag": 8, "q": 5, "r": 1, "total": 45,
    }
    assert list(row) == sorted(row)


@pytest.mark.parametrize(
    "argv,want",
    [
        (("fp", "--p", "5", "--m", "3"), "boundary,interior,m,offdiag,q,r,total\r\n37,0,3,8,5,1,45\r\n"),
        (("fp", "--p", "3", "--f", "2", "--r", "2", "--m", "3"), "boundary,interior,m,offdiag,q,r,total\r\n121,26,3,38,9,2,185\r\n"),
        (("zp", "--p", "3", "--r", "2", "--m", "2", "-N", "4"), "N,hi,lo,m,p,r,width\r\n4,62/243,20/81,2,3,2,2/243\r\n"),
    ],
    ids=["fp-prime", "fp-extension", "zp"],
)
def test_cli_census_csv(capsys, argv, want):
    # the one row, a header of sorted keys over its cells, as csv writes them
    assert run_cli(capsys, "census", *argv, "--format", "csv") == (0, want, "")


def test_cli_census_zp(capsys):
    code, out, _ = run_cli(capsys, "census", "zp", "--p", "2", "--r", "1", "--m", "2", "-N", "8")
    assert code == 0
    row = json.loads(out)
    lo = Fr(*map(int, row["lo"].split("/")))
    hi = Fr(*map(int, row["hi"].split("/")))
    assert lo <= Fr(1, 3) <= hi


def test_cli_census_refuses_r_zero(capsys):
    code, out, err = run_cli(capsys, "census", "fp", "--p", "5", "--r", "5")
    assert (code, out) == (1, "") and "r = 0 is rejected" in err
    # a nonzero r whose class mod p^N vanishes is a valid Z_p constant
    code, _, _ = run_cli(capsys, "census", "zp", "--p", "3", "--r", "27", "-N", "3")
    assert code == 0


def test_cli_census_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "census", "fp", "--p", "101", "--r", "1", "--m", "4", "--budget", "1000",
    )
    assert code == 2 and "budget" in err


def test_cli_census_table_memory_exceeds_budget(capsys):
    # 30011^2 tuples fit the default budget, and an m = 2 census builds no q x q table
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "census", "fp", "--p", "30011", "--m", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < 10**6


def test_cli_census_jobs_runs_in_one_process(capsys):
    for argv in (("fp", "--p", "13", "--m", "3"), ("zp", "--p", "3", "--m", "2", "-N", "4")):
        code, out, err = run_cli(capsys, "census", *argv)
        assert (code, err) == (0, "")
        code2, out2, err2 = run_cli(capsys, "census", *argv, "--jobs", "2")
        assert (code2, out2) == (0, out)
        assert err2 == "note: a census runs in one process; --jobs 2 is ignored\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "fp", "--p", "3", "--m", "2", "--jobs", "0"),
        ("census", "fp", "--p", "3", "--m", "2", "--jobs", "-4"),
        ("audit", "z2", "--jobs", "0"),
    ],
)
def test_cli_refuses_jobs_below_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: argument --jobs: must be at least 1, got {argv[-1]}\n"


def test_cli_audit_jobs_runs_in_one_process(capsys):
    code, out, err = run_cli(capsys, "audit", "all")
    assert (code, err) == (0, "")
    code2, out2, err2 = run_cli(capsys, "audit", "all", "--jobs", "2")
    assert (code2, out2) == (0, out)
    assert err2 == "note: an audit runs in one process; --jobs 2 is ignored\n"
    assert "jobs" not in audit.suite_parameters("all")


def test_cli_audit_refuses_flags_the_suite_does_not_take(capsys):
    code, out, err = run_cli(capsys, "audit", "z2", "--p", "3", "--pmax", "7")
    assert (code, out) == (1, "")
    assert "--p" in err and "--pmax" in err
    code, out, err = run_cli(capsys, "audit", "conic", "--pmax", "5", "--seed", "1")
    assert (code, out) == (1, "") and "--seed" in err and "--pmax" not in err
    code, _, err = run_cli(capsys, "audit", "z2", "--precision", "0")
    assert code == 1 and "error" in err


def test_cli_audit_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "audit", "conic", "--pmax", "5")
    code2, out2, _ = run_cli(capsys, "audit", "conic", "--pmax", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.strip().splitlines():
        row = json.loads(line)
        assert list(row) == sorted(row)
        assert row["verdict"] == "Agree"


def record_dict(rec):
    """The record as a dict of the cells `json_line` prints: the reference its template is checked against."""
    oracle = rec.oracle_value
    if isinstance(oracle, MeasureInterval):
        oracle = {"lo": format_rational(oracle.lo), "hi": format_rational(oracle.hi)}
    else:
        oracle = format_rational(oracle)
    return {
        "quantity": rec.quantity,
        "params": {k: str(v) for k, v in sorted(rec.params.items())},
        "claimed_value": None if rec.claimed_value is None else format_rational(rec.claimed_value),
        "oracle_value": oracle,
        "verdict": rec.verdict,
        "detail": rec.detail,
        "must_agree": rec.must_agree,
    }


def json_order_key(rec):
    """The canonical order's key, from `json.dumps` of the params as `record_dict` prints them."""
    return rec.quantity, json.dumps({k: str(v) for k, v in rec.params.items()}, sort_keys=True)


def test_cli_audit_all_lines_are_each_records_json_in_canonical_order(capsys):
    # each line is the record's `json.dumps`, in the order of its params' JSON:
    # an encoding change fails here by name, not only through the anchor's hash
    code, out, _ = run_cli(capsys, "audit", "all")
    assert code == 0
    # `audit all` is each suite's records in turn, each suite's sorted on its own
    records = [rec for suite in audit.SUITES.values() for rec in sorted(suite(), key=json_order_key)]
    assert out.splitlines() == [json.dumps(record_dict(rec), sort_keys=True) for rec in records]


# strings JSON must escape, in the detail, a str param and the quantity; every
# oracle shape; an absent claim; and params whose JSON puts "10" before "9" or
# orders strings otherwise than a sort of the unescaped values would
ODD = 'a "quote", a back\\slash, a new\nline, a\ttab, χ ≤ 1'
BOX = MeasureInterval(Fr(1, 4), Fr(1, 2))


def odd_record(quantity, params, claimed, oracle, verdict, detail="", must_agree=True):
    """A record built outside any suite, its params encoded as `audit._point` encodes them."""
    return AuditRecord(quantity, params, claimed, oracle, verdict, detail, must_agree, audit._params_json(params))


ODD_RECORDS = [
    odd_record("pair", {"p": 9, "s": ODD}, Fr(1, 3), BOX, AGREE, detail=ODD),
    odd_record("pair", {"p": 10, "s": "≤"}, None, Fr(-2, 3), DISAGREE, must_agree=False),
    odd_record("pair", {"10": 1, "9": 2}, Fr(5), 5, AGREE),
    odd_record("pair", {"9": 1}, Fr(0), 0, AGREE, detail="χ"),
    odd_record('q"χ\\', {}, Fr(7, 2), BOX, INCONCLUSIVE, must_agree=False),
    odd_record("count", {"p": 3, "r": -1}, Fr(0), 12, DISAGREE, detail="\n"),
    odd_record("count", {"p": 3, "r": -1}, Fr(1), 12, DISAGREE),
    # escaped, "χ" sorts before "z"; and '"' sorts before "#" as a string ends
    *(odd_record("count", {"p": 3, "s": s}, Fr(1), 1, AGREE) for s in ("z", "χ", "a#", "a")),
]


def test_record_line_template_is_json_dumps_and_orders_like_it():
    for rec in ODD_RECORDS:
        assert rec.json_line == json.dumps(record_dict(rec), sort_keys=True), rec

    for seed in range(5):
        shuffled = random.Random(seed).sample(ODD_RECORDS, len(ODD_RECORDS))
        assert canonical_order(shuffled) == sorted(shuffled, key=json_order_key)


def test_audit_all_encodes_each_records_params_once(monkeypatch):
    # one encoding per parameter point, which the sort key and the line of every
    # record made at that point read: triples-fp's five records per (p, r),
    # valuation-classes' block and stated pair, z3-adjudicate's two
    encoded = []
    encode = audit._params_json
    monkeypatch.setattr(audit, "_params_json", lambda params: encoded.append(params) or encode(params))
    records = run_suite("all")
    lines = [rec.json_line for rec in records]
    assert len(records) == len(lines) == 1135
    assert len(encoded) == 521


def test_audit_all_records_carry_their_own_params_encoding():
    # a shared encoding can never go stale: each record's is its own params' encoding
    records = run_suite("all")
    assert len(records) == 1135
    assert all(rec.params_json == audit._params_json(rec.params) for rec in records)


def assert_csv_is_lines_decoded(out, lines):
    """The CSV rows are the JSON lines decoded, in order and cell by cell, under a header of their sorted keys."""
    rows = [json.loads(line) for line in lines]
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == sorted(rows[0])
    # a nested object as its JSON, null as an empty cell, a boolean as True or False
    cell = {dict: lambda v: json.dumps(v, sort_keys=True), type(None): lambda v: "", bool: str, str: str}
    assert list(reader) == [{k: cell[type(v)](v) for k, v in row.items()} for row in rows]


def test_cli_audit_csv_rows_are_its_json_lines_decoded(capsys, monkeypatch):
    # JSON mode prints each line as the record writes it, decoding none
    loads, decoded = json.loads, []
    monkeypatch.setattr(dioptuples.cli.json, "loads", lambda line: decoded.append(line) or loads(line))
    code, lines, _ = run_cli(capsys, "audit", "all")
    assert (code, decoded) == (0, [])
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "audit", "all", "--format", "csv")
    assert code == 0
    assert_csv_is_lines_decoded(out, lines.splitlines())
    # records `audit all` does not print: an absent claim, and strings JSON escapes
    dioptuples.cli._emit((rec.json_line for rec in ODD_RECORDS), "csv")
    assert_csv_is_lines_decoded(capsys.readouterr().out, [rec.json_line for rec in ODD_RECORDS])


# every output pin, tests/pins.json and the benchmark's recorded invocations, as
# one argv -> (exit, sha256) table; tests/pins.py runs each in a fresh process
# under -O, and this test in this process without it
PIN_TABLE, RECORDED = pins.tables()
PINS = pins.merge(PIN_TABLE, RECORDED)


@pytest.mark.parametrize("argv", PINS)
def test_output_pin(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert pins.mismatch(argv, PINS[argv], code, out.encode()) == ""


def test_pin_table_entries_are_well_formed():
    assert PIN_TABLE
    for argv, entry in PIN_TABLE.items():
        assert set(entry) == {"exit", "sha256", "why"}, argv
        assert entry["exit"] in (0, 1, 2), argv
        sha256 = entry["sha256"]
        assert sha256 is None or (len(sha256) == 64 and set(sha256) <= set("0123456789abcdef")), argv
        assert entry["why"].strip(), argv
        assert argv.split()[0] in dioptuples.cli._COMMANDS, argv


def test_pin_tables_refuse_one_argv_pinned_two_ways():
    one = {"audit z2": {"exit": 0, "sha256": "0" * 64, "why": "a pin"}}
    for other in ({"exit": 0, "sha256": "1" * 64}, {"exit": 1, "sha256": "0" * 64}, {"exit": 0, "sha256": None}):
        with pytest.raises(ValueError, match="^audit z2: pinned as both"):
            pins.merge(one, {"audit z2": other, "audit ec": other})
    assert pins.merge(one, one, {"audit ec": {"exit": 1, "sha256": None}}) == {"audit z2": (0, "0" * 64), "audit ec": (1, None)}


def test_benchmark_trace_targets_exist():
    # bench/spans.py wraps these by name and fails a traced run on a missing one
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "spans.py").read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    assert targets
    names = [(mod, name) for mod, fns in targets.items() for name in fns] + [("fp_census", "field_size")]
    for mod, name in names:
        module = importlib.import_module(f"dioptuples.{mod}")
        assert callable(getattr(module, name, None)), f"{mod}.{name}"


def test_audit_all_builds_each_residue_table_once():
    residue_tables.cache_clear()
    run_suite("all")
    assert residue_tables.cache_info().misses == 24  # the distinct primes one `audit all` reads


def test_cli_audit_csv(capsys):
    code, out, _ = run_cli(capsys, "audit", "z2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("claimed_value,")
    assert len(lines) == 3


def test_cli_audit_pairs_with_explicit_args(capsys):
    code, out, _ = run_cli(capsys, "audit", "pairs-zp", "--p", "3,5", "--rset", "1,2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["verdict"] == "Agree" for r in rows)


# (p, a, b, c, r) -> the full ec-check stdout, recorded before the curve sweeps
# became array passes; (7, 1, 2, 3, 3) has no nonboundary extension, so its
# coset check takes the branch without a witness point
EC_CHECK_ROWS = {
    (13, 1, 3, 8, 1): (
        '{"a": 1, "b": 3, "boundary": [[4, false, false], [8, true, false], [12, false, false]], '
        '"c": 8, "coset_identity_ok": true, "coset_xset_matches_dset": true, "criterion_equal": true, '
        '"doubling_image_size": 5, "dset_matches_image": false, "dset_nonboundary": [0, 3], '
        '"image_nonboundary": [6, 10], "order": 20, "p": 13, "quarter_order_ok": true, "r": 1, '
        '"twist": [-1, -1, 1]}\n'
    ),
    (17, 2, 5, 11, 3): (
        '{"a": 2, "b": 5, "boundary": [[7, false, false], [9, false, true], [13, false, false]], '
        '"c": 11, "coset_identity_ok": true, "coset_xset_matches_dset": true, "criterion_equal": true, '
        '"doubling_image_size": 6, "dset_matches_image": false, "dset_nonboundary": [3, 6, 16], '
        '"image_nonboundary": [5, 11], "order": 24, "p": 17, "quarter_order_ok": true, "r": 3, '
        '"twist": [1, -1, -1]}\n'
    ),
    (29, 1, 4, 9, 2): (
        '{"a": 1, "b": 4, "boundary": [[3, false, false], [14, false, false], [27, true, true]], '
        '"c": 9, "coset_identity_ok": true, "coset_xset_matches_dset": true, "criterion_equal": true, '
        '"doubling_image_size": 6, "dset_matches_image": true, "dset_nonboundary": [7, 23], '
        '"image_nonboundary": [7, 23], "order": 24, "p": 29, "quarter_order_ok": true, "r": 2, '
        '"twist": [1, 1, 1]}\n'
    ),
    (101, 3, 7, 50, 5): (
        '{"a": 3, "b": 7, "boundary": [[10, false, false], [32, false, false], [57, false, false]], '
        '"c": 50, "coset_identity_ok": true, "coset_xset_matches_dset": true, "criterion_equal": true, '
        '"doubling_image_size": 27, "dset_matches_image": true, '
        '"dset_nonboundary": [0, 17, 22, 25, 39, 42, 50, 60, 67, 72, 83, 85, 99], '
        '"image_nonboundary": [0, 17, 22, 25, 39, 42, 50, 60, 67, 72, 83, 85, 99], "order": 108, '
        '"p": 101, "quarter_order_ok": true, "r": 5, "twist": [1, 1, 1]}\n'
    ),
    (7, 1, 2, 3, 3): (
        '{"a": 1, "b": 2, "boundary": [[2, false, true], [4, true, false], [6, true, false]], '
        '"c": 3, "coset_identity_ok": true, "coset_xset_matches_dset": true, "criterion_equal": true, '
        '"doubling_image_size": 2, "dset_matches_image": true, "dset_nonboundary": [], '
        '"image_nonboundary": [], "order": 8, "p": 7, "quarter_order_ok": true, "r": 3, '
        '"twist": [-1, -1, 1]}\n'
    ),
}


def test_cli_ec_check(capsys):
    for instance, row in EC_CHECK_ROWS.items():
        argv = [x for flag, v in zip("pabcr", instance) for x in (f"--{flag}", str(v))]
        assert run_cli(capsys, "ec-check", *argv) == (0, row, ""), instance
    code, _, err = run_cli(capsys, "ec-check", "--p", "13", "--a", "1", "--b", "1", "--c", "8", "--r", "1")
    assert code == 1 and "error" in err


def test_package_all_exports_no_modules():
    assert dioptuples.__all__
    for name in dioptuples.__all__:
        assert not isinstance(getattr(dioptuples, name), types.ModuleType), name


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, and every soundness check must still run
    src = Path(dioptuples.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_each_argument_rule_is_raised_from_one_site():
    # each rule the public forms share is one function, so its message is one raise in src/
    src = Path(dioptuples.__file__).parent
    raises = [
        [c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise)
    ]
    rules = (
        "m must be >= 2",
        "chi(s) must be ±1",
        "alpha must be >= 0",
        "r = 0 is rejected",
        "expected an odd prime,",
        "expected an odd prime power",
        "is not prime",
    )
    for message in rules:
        assert sum(any(message in text for text in texts) for texts in raises) == 1, message


def test_oracle_modules_never_import_closed_forms():
    # the oracles must not consult a closed form, nor may arith, which every
    # oracle reads; zp_census may import series_consistency alone, which the
    # benchmark's traced run times under that module's name
    src = Path(dioptuples.__file__).parent
    allowed = {("zp_census", ("closed_forms", "series_consistency"))}
    found = []
    for name in ("arith", "curves", "fp_census", "fq", "zp_census"):
        path = src / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            else:
                continue
            if any("closed_forms" in name.split(".") for name in names) and (name, tuple(names)) not in allowed:
                found.append(f"{name}:{node.lineno}")
    assert found == []


# the measures that no audit record judges yet, each with the ROADMAP item
# that gives it an oracle
MEASURES_WITHOUT_ORACLE = {"pair-stated": 12, "pair-ok-stated": 12, "ram3": 9}


def test_every_measure_meets_a_closed_form_the_audit_calls(monkeypatch):
    # a measure meets the audit when a closed form its evaluator calls
    # directly is one that `audit all` calls; a stated form reached only
    # through another form's body does not count
    from dioptuples import cli
    from dioptuples import closed_forms as cf

    public = {
        name: fn
        for name, fn in vars(cf).items()
        if inspect.isfunction(fn) and fn.__module__ == cf.__name__ and name[0] != "_"
    }
    calls, depth = [], [0]

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, depth[0]))
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    wrappers = {fn: wrap(name, fn) for name, fn in public.items()}
    for fn, wrapper in wrappers.items():
        monkeypatch.setattr(cf, fn.__name__, wrapper)
    run_suite("all")
    called = {name for name, _ in calls}
    defaults = {flag: default for flag, (_, default) in cli._COMMANDS["measure"][2].items()}
    reached = {}
    for quantity, evaluate in cli._MEASURES.items():
        opts = defaults | ({"r": 3} if quantity == "block-b" else {})  # block-b needs p | r
        calls.clear()
        wrappers.get(evaluate, evaluate)(**{flag: opts[flag] for flag in inspect.signature(evaluate).parameters})
        reached[quantity] = {name for name, d in calls if d == 0}
    assert all(reached.values()), reached
    unmet = {quantity for quantity, names in reached.items() if not names & called}
    assert unmet <= set(MEASURES_WITHOUT_ORACLE), unmet
    # ram3 prints diopm_z3_claimed, which z3-adjudicate judges over Z_3; its
    # claim is over Z_3[sqrt 3], which no record reaches, and a call trace
    # cannot tell the two rings apart
    assert reached["ram3"] == reached["z3"]
    assert unmet == set(MEASURES_WITHOUT_ORACLE) - {"ram3"}  # an entry goes when its oracle comes
    assert set(public) - called == {"diop2_zp_claimed", "diop2_ok_claimed", "pair_measure_claimed"}


def run_module(*argv, stdout=subprocess.PIPE, module="dioptuples", timeout=60):
    # the child runs under -O, as the soundness checks must hold without asserts;
    # this process is not optimised, so its own asserts still run
    return fresh_python("-O", "-m", module, *argv, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout)


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "fp", "--p", "2305843009213693951", "--m", "2"),
        ("ec-check", "--p", "2305843009213693951", "--a", "1", "--b", "2", "--c", "3", "--r", "1"),
    ],
    ids=["census", "ec-check"],
)
def test_desk_scale_bound_refuses_a_huge_prime_at_once(argv):
    # 2^61 - 1 is prime, so trial division before the bound check would run for hours
    proc = run_module(*argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "exceeds the desk-scale bound 100000" in proc.stderr


HUGE_PRIME = str(2**61 - 1)


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (("census", "zp", "--p", HUGE_PRIME, "--m", "2"), 2, "exceeds budget"),
        (("measure", "pair", "--p", HUGE_PRIME, "--r", "1"), 0, ""),
        (("measure", "pair-ok", "--q", HUGE_PRIME), 0, ""),
        (("measure", "block-a", "--p", HUGE_PRIME, "--r", "1"), 0, ""),
        (("audit", "pairs-zp", "--p", HUGE_PRIME, "--rset", "1"), 2, "exceeds budget"),
        (("census", "fp", "--p", "3", "--f", "100000000", "--m", "2"), 1, "exceeds the desk-scale bound 100000"),
        (("measure", "pair", "--p", str(PRIMALITY_BOUND)), 1, "past the proven primality bound"),
        (("census", "fp", "--p", "3", "--m", "100000000"), 2, ": charge 3^100000000 exceeds budget "),
        # the digits of 3^10000 pass int-to-str's limit of 4300
        (("census", "fp", "--p", "3", "--m", "10000"), 2, ": charge 3^10000 exceeds budget "),
        (("census", "zp", "--p", "3", "--m", "1000000000", "-N", "2"), 2, ": charge 3^2000000000 exceeds budget "),
        (("audit", "triples-fp", "--pmax", "100000000"), 2, ": charge sum of p^3 over the primes 3 <= p <= 100000000 "),
        (("audit", "conic", "--pmax", "10000000"), 2, ": charge sum of (p - 1)p^2 over the primes 3 <= p <= 10000000 "),
        # an exponent past 14285 = ceil(4300 log2 10) is refused before its power is built
        (("measure", "z3", "--m", "10000000"), 1, "argument --m: 10000000 gives a value of more than 4300 digits"),
        (("measure", "z3", "--m", "100000000"), 1, "argument --m: 100000000 gives a value of more than 4300 digits"),
        (("measure", "main-term", "--m", "30000"), 1, "argument --m: 30000 gives a value of more than 4300 digits"),
        (("measure", "main-term", "--m", "1000000"), 1, "argument --m: 1000000 gives a value of more than 4300 digits"),
        # main-term's denominator is 2^C(m, 2): C(170, 2) = 14365 is past the bound
        (("measure", "main-term", "--m", "170"), 1, "argument --m: 170 gives a value of more than 4300 digits"),
        (("measure", "main-term", "--m", "14285"), 1, "argument --m: 14285 gives a value of more than 4300 digits"),
        (("measure", "pair-ok", "--q", "3", "--alpha", "10000000"), 1, "argument --alpha: 10000000 gives a value"),
        (("measure", "pair-ok-stated", "--q", "3", "--alpha", "10000000"), 1, "argument --alpha: 10000000 gives a value"),
        (("measure", "block-a", "--p", "3", "--r", "1", "--k", "5000000"), 1, "argument --k: 5000000 gives a value"),
        (("measure", "block-b", "--p", "3", "--r", "3", "--beta", "20000"), 1, "argument --beta: 20000 gives a value"),
        # below the bound, a value of 4772 digits is refused as it is printed
        (("measure", "z3", "--m", "10000"), 1, "error: the value has more than 4300 digits\n"),
    ],
    ids=[
        "census-zp", "pair", "pair-ok", "block-a", "audit-pairs-zp", "census-fp-huge-f", "past-the-bound",
        "census-fp-huge-m", "census-fp-4772-digits", "census-zp-huge-m", "triples-fp-huge-pmax", "conic-huge-pmax",
        "z3-huge-m", "z3-huger-m", "main-term-huge-m", "main-term-huger-m", "main-term-170", "main-term-14285",
        "pair-ok-huge-alpha", "pair-ok-stated-huge-alpha", "block-a-huge-k", "block-b-huge-beta", "z3-4772-digits",
    ],
)
def test_huge_inputs_end_at_once(argv, code, message):
    # primality is Miller-Rabin, FqField weighs f before computing p**f, and the
    # admission rule weighs a power by bit length and sums the pmax charge only
    # up to the first prime past the budget, writing the charge symbolically
    proc = run_module(*argv, timeout=10)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr
    assert Fr(proc.stdout.strip()) > 0 if code == 0 else proc.stdout == ""


def test_measure_prints_a_value_below_the_digit_limit():
    # (m^2 + 15m + 8)/(8 * 3^m) at m = 9000 has a denominator of 4295 digits
    proc = run_module("measure", "z3-consistent", "--m", "9000", timeout=10)
    want = Fr(9000**2 + 15 * 9000 + 8, 8 * 3**9000)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{want.numerator}/{want.denominator}\n", "")


def test_main_term_prints_below_the_bound_and_refuses_m_below_two(capsys):
    # C(169, 2) = 14196: a denominator of 4274 digits still prints
    assert run_cli(capsys, "measure", "main-term", "--m", "169") == (0, f"1/{2**14196}\n", "")
    for m in ("1", "0", "-1000"):
        assert run_cli(capsys, "measure", "main-term", "--m", m) == (1, "", "error: m must be >= 2\n"), m


def test_python_m_runs_cli_and_ends_quietly_on_broken_pipe():
    for module in ("dioptuples", "dioptuples.cli"):
        proc = run_module("measure", "pair", "--p", "3", "--r", "1", module=module)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "7/12\n", ""), module
        # a pipe whose read end is already closed: every write to it fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_module("audit", "z2", stdout=write_end, module=module)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, ""), module


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_python_m_exits_1_when_the_reader_leaves_mid_output(fmt):
    # `audit all | head -c 100`: 1135 lines overflow the pipe, so a later write
    # fails; one joined write of them all could end with exit 0 instead
    proc = fresh_python(
        "-m", "dioptuples", "audit", "all", "--format", fmt,
        run=subprocess.Popen, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.communicate()
    assert (proc.returncode, stderr) == (1, b"")


def test_cli_import_loads_no_process_pool():
    # start-up cost of every CLI call: nothing may pull in a worker pool
    code = (
        "import sys\n"
        "import dioptuples.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = fresh_python("-c", code, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("argv", [
    "census fp --m 5 --p 53",
    "census zp --m 4 --p 3 -N 3",
])
def test_kernel_censuses_leave_numpy_ma_unimported(argv):
    # np.unique imports numpy.ma, which costs a fresh process about 15 ms
    code = (
        "import sys\n"
        "from dioptuples.cli import main\n"
        f"code = main({argv.split()!r})\n"
        "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    proc = fresh_python("-c", code, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "0 False\n")


@pytest.mark.parametrize("argv", ["census fp --m 3 --p 5", "audit z2"])
def test_cli_leaves_argparse_gettext_and_locale_unimported(argv):
    # building an argparse parser cost each invocation about 3.5 ms, more than a small census
    code = (
        "import sys\n"
        "from dioptuples.cli import main\n"
        f"code = main({argv.split()!r})\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = fresh_python("-c", code, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "0 []\n")


def reference_quadruple_count(p, r):
    """Ordered (a, b, c, d): a, b, c distinct pairwise-D(r) units, d any residue
    with ad + r, bd + r, cd + r all squares (0 included); plain loops."""
    squares = {x * x % p for x in range(p)}
    count = 0
    for a in range(1, p):
        for b in range(1, p):
            if b == a or (a * b + r) % p not in squares:
                continue
            for c in range(1, p):
                if c in (a, b):
                    continue
                if (a * c + r) % p not in squares or (b * c + r) % p not in squares:
                    continue
                count += sum(
                    1 for d in range(p) if all((x * d + r) % p in squares for x in (a, b, c))
                )
    return count


@pytest.mark.parametrize("p,r", [(13, 1), (13, 2), (17, 1), (7, 3), (11, 1), (19, 5), (23, 2)])
def test_extension_crosscheck_counts_quadruples_like_plain_loops(p, r):
    [record] = audit._extension_census_crosscheck({(p, r): dr_triples_distinct(p, r)})
    assert record.oracle_value == reference_quadruple_count(p, r)
