"""Formula-vs-oracle audit suites with machine-readable verdict records.

Each suite sweeps a parameter family, evaluates claimed closed forms against
the matching exhaustive oracle, and emits one record per quantity.  Records
marked must_agree gate the process exit code; adjudication records document
discrepancies in known-suspect statements and never gate.  Verdicts are
recomputable from the record fields alone.  Every formula a record compares
against comes from `closed_forms`.  Every suite runs serially in one process.
"""

from __future__ import annotations

import inspect
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import closed_forms as cf
from .arith import format_rational, is_prime, legendre
from .curves import dr_triples_distinct, extension_counts, two_descent_equiv
from .fp_census import _census_tables, _clique_count, census, conic_sum_direct
from .padic import r_shape
from .zp_census import MeasureInterval, valuation_class_measure, zp_interval, zp_precision

AGREE = "Agree"
DISAGREE = "Disagree"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class AuditRecord:
    quantity: str
    params: dict
    claimed_value: object  # Fraction or None
    oracle_value: object   # Fraction, int, or MeasureInterval
    verdict: str
    detail: str = ""
    must_agree: bool = True

    def to_dict(self) -> dict:
        oracle = self.oracle_value
        if isinstance(oracle, MeasureInterval):
            oracle = {"lo": format_rational(oracle.lo), "hi": format_rational(oracle.hi)}
        else:
            oracle = format_rational(oracle)
        return {
            "quantity": self.quantity,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "claimed_value": None
            if self.claimed_value is None
            else format_rational(self.claimed_value),
            "oracle_value": oracle,
            "verdict": self.verdict,
            "detail": self.detail,
            "must_agree": self.must_agree,
        }


def verdict_for(claimed, oracle, competitors=()) -> str:
    """Agree / Disagree / Inconclusive from the record's own fields.

    Against an interval oracle, Inconclusive means the interval contains the
    claimed value together with at least one competing candidate.
    """
    if isinstance(oracle, MeasureInterval):
        if claimed not in oracle:
            return DISAGREE
        if any(comp in oracle for comp in competitors if comp != claimed):
            return INCONCLUSIVE
        return AGREE
    return AGREE if claimed == oracle else DISAGREE


def _record(quantity, params, claimed, oracle, competitors=(), must_agree=True, detail=""):
    return AuditRecord(
        quantity=quantity,
        params=params,
        claimed_value=claimed,
        oracle_value=oracle,
        verdict=verdict_for(claimed, oracle, competitors),
        detail=detail,
        must_agree=must_agree,
    )


def smallest_nonresidue(p: int) -> int:
    for n in range(2, p):
        if legendre(n, p) == -1:
            return n
    raise ValueError(f"no quadratic nonresidue below {p}")


def auto_rset(p: int) -> list[int]:
    """r values covering all five pair-density cases: unit square and
    nonsquare, odd valuation, and both even-valuation unit characters."""
    n = smallest_nonresidue(p)
    return [1, n, p, p * n, p * p, p * p * n, p**3]


def _pmap(fn, items):
    # one serial map, kept as a function only because the benchmark's traced
    # run (bench/spans.py) times `audit._pmap` by name
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# suites


def _pairs_zp_item(args):
    p, r, budget = args
    shape = r_shape(r, p)
    N = max(1, zp_precision(p, 2, budget))  # below p^2 the census itself refuses
    interval = zp_interval(p, r, 2, N, budget)
    return [
        _record(
            "pair_density_zp",
            {"p": p, "r": r, "alpha": shape.alpha, "chi_s": shape.chi_s, "N": N},
            cf.diop2_zp(shape),
            interval,
        ),
        _record(
            "pair_density_block_series",
            {"p": p, "r": r, "alpha": shape.alpha, "chi_s": shape.chi_s},
            cf.series_consistency(p, shape.alpha, shape.chi_s, shape.alpha + 10).block_sum,
            cf.diop2_zp(shape),
            detail="valuation-block sum with exact geometric tail vs closed form",
        ),
    ]


def suite_pairs_zp(ps=(3, 5, 7, 11, 13), rset=None, budget=10**8):
    items = [(p, r, budget) for p in ps for r in (rset if rset is not None else auto_rset(p))]
    return [rec for recs in _pmap(_pairs_zp_item, items) for rec in recs]


def suite_z2(N: int = 10):
    interval = zp_interval(2, 1, 2, N)
    return [
        _record("pair_density_z2", {"p": 2, "r": 1, "N": N}, cf.diop2_z2(), interval),
        _record(
            "pair_density_z2_blocks",
            {"p": 2, "r": 1},
            cf.z2_block_measure(0) + cf.z2_block_tail(1),
            cf.diop2_z2(),
            detail="5/16 head plus 1/48 geometric tail",
        ),
    ]


def suite_z3_adjudicate():
    records = []
    for m, N in ((2, 7), (3, 5)):
        interval = zp_interval(3, 1, m, N)
        claimed = cf.diopm_z3_claimed(m)
        consistent = cf.diopm_z3_consistent(m)
        candidates = (claimed, consistent)
        detail = (
            f"candidates: stated {format_rational(claimed)} vs "
            f"pair-consistent recombination {format_rational(consistent)}"
        )
        params = {
            "p": 3,
            "r": 1,
            "m": m,
            "N": N,
            "candidates": ",".join(format_rational(x) for x in candidates),
        }
        for quantity, value in (
            ("mtuple_density_z3_stated", claimed),
            ("mtuple_density_z3_consistent", consistent),
        ):
            records.append(
                _record(
                    quantity,
                    params,
                    value,
                    interval,
                    competitors=candidates,
                    must_agree=False,
                    detail=detail,
                )
            )
    return records


def _primes_upto(n):
    return [p for p in range(3, n + 1, 2) if is_prime(p)]


def _triples_fp_item(args):
    p, r = args
    result = census(p, r, 3)
    p3 = p**3
    return [
        _record(
            "triple_boundary_count",
            {"p": p, "r": r},
            cf.count_boundary_claimed(p, r),
            result.boundary,
        ),
        _record(
            "triple_partition",
            {"p": p, "r": r},
            Fraction(result.boundary + result.offdiag + result.interior),
            result.total,
            detail="boundary + offdiag + interior vs total",
        ),
        _record(
            "triple_offdiag_count",
            {"p": p, "r": r},
            cf.count_offdiag_claimed(p, r),
            result.offdiag,
            must_agree=False,
            detail="stated off-diagonal count vs census (known suspect)",
        ),
        _record(
            "triple_interior_density",
            {"p": p, "r": r},
            cf.tilde3_fp_claimed(p, r),
            Fraction(result.interior, p3),
            must_agree=False,
            detail="stated interior density vs census (known suspect)",
        ),
        _record(
            "triple_density",
            {"p": p, "r": r},
            cf.diop3_fp_claimed(p, r),
            Fraction(result.total, p3),
            must_agree=False,
            detail="stated total density vs census (known suspect)",
        ),
    ]


def suite_triples_fp(pmax: int = 31):
    items = [(p, r) for p in _primes_upto(pmax) for r in range(1, p)]
    return [rec for recs in _pmap(_triples_fp_item, items) for rec in recs]


def suite_conic(pmax: int = 13):
    records = []
    for p in _primes_upto(pmax):
        coeffs = np.arange(p)
        # direct[a2 - 1][a1][a0]: every direct sum of this p from one array pass
        direct = conic_sum_direct(coeffs[1:, None, None], coeffs[:, None], coeffs, p).tolist()
        mismatches = sum(
            direct[a2 - 1][a1][a0] != cf.conic_sum_closed(a2, a1, a0, p)
            for a2 in range(1, p)
            for a1 in range(p)
            for a0 in range(p)
        )
        records.append(
            _record(
                "conic_sum",
                {"p": p, "cases": (p - 1) * p * p},
                Fraction(0),
                mismatches,
                detail="closed-form vs direct-sum mismatches over all (a2, a1, a0)",
            )
        )
    return records


def suite_valuation_classes(ps=(3, 5), N: int = 7):
    records = []
    for p in ps:
        n = smallest_nonresidue(p)
        for alpha in range(4):
            for s in (1, n):
                r = p**alpha * s
                shape = r_shape(r, p)
                for v in range(N - 2):
                    if v % 2 == 1 and v != alpha:
                        continue
                    oracle = valuation_class_measure(p, r, v, N)
                    if alpha == 0:
                        claimed = cf.mu_A_k(shape, v // 2)
                        quantity = "pair_block_A"
                    else:
                        claimed = cf.mu_B_beta(shape, v)
                        quantity = "pair_block_B"
                    params = {
                        "p": p, "r": r, "alpha": alpha, "chi_s": shape.chi_s, "beta": v, "N": N,
                    }
                    records.append(_record(quantity, params, claimed, oracle))
                    if alpha > 0:
                        stated = cf.mu_B_beta_claimed(p, alpha, shape.chi_s, v)
                        if stated != claimed:
                            records.append(
                                _record(
                                    "pair_block_B_stated",
                                    params,
                                    stated,
                                    oracle,
                                    must_agree=False,
                                    detail="stated block density differs from the validated one here",
                                )
                            )
    return records


def suite_ok_series(qs=(3, 5, 7, 9, 25, 27), alpha_max: int = 6):
    records = []
    for q in qs:
        for alpha in range(alpha_max + 1):
            for chi_s in (1, -1):
                verdict = cf.series_consistency(q, alpha, chi_s, alpha + 6)
                records.append(
                    _record(
                        "pair_density_ok_series",
                        {"q": q, "alpha": alpha, "chi_s": chi_s, "beta_max": alpha + 6},
                        verdict.block_sum,
                        verdict.closed_form,
                        detail="block series with closed-form tail vs five-case density",
                    )
                )
    for p in (3, 5, 7, 11, 13):
        for r in auto_rset(p):
            shape = r_shape(r, p)
            records.append(
                _record(
                    "pair_density_ok_vs_zp",
                    {"p": p, "r": r, "alpha": shape.alpha, "chi_s": shape.chi_s},
                    cf.pair_measure(p, shape.alpha, shape.chi_s),
                    cf.diop2_zp(shape),
                    detail="residue-field specialization q = p against the p-adic form",
                )
            )
    return records


def ec_instances(seed: int, count: int):
    """Deterministic pseudo-random admissible (p, a, b, c, r) instances."""
    rng = random.Random(seed)
    primes = [p for p in _primes_upto(101) if p >= 13]
    out = []
    while len(out) < count:
        p = rng.choice(primes)
        a, b, c = rng.sample(range(1, p), 3)
        r = rng.randrange(1, p)
        out.append((p, a, b, c, r))
    return out


def suite_ec(seed: int = 20240, count: int = 100):
    records = []
    for p, a, b, c, r in ec_instances(seed, count):
        v = two_descent_equiv(p, a, b, c, r)
        records.append(
            _record(
                "two_descent_equivalence",
                {"p": p, "a": a, "b": b, "c": c, "r": r},
                Fraction(1),
                Fraction(1 if v.ok else 0),
                detail=(
                    f"order={v.order} |2E|={v.doubling_image_size} twist={v.twist} "
                    f"naive_dset_eq_image={v.dset_matches_image}"
                ),
            )
        )
    records.extend(suite_eqd())
    records.extend(_extension_census_crosscheck((13, 1), (13, 2), (17, 1)))
    return records


def _extension_census_crosscheck(*cases):
    # ordered quadruple count with distinct unit first-three, two ways:
    # summed extension sets vs the census kernel, which counts the triangles
    # of distinct units inside the neighbourhood of each fourth coordinate;
    # a zero fourth coordinate is compatible with every unit or with none
    records = []
    for p, r in cases:
        ext_total = 6 * sum(extension_counts(p, r, dr_triples_distinct(p, r)))
        zero, member, _ = _census_tables(p, r)
        units = member.copy()
        np.fill_diagonal(units, False)
        direct = zero * _clique_count(units, 3) + _clique_count(units, 3, member)
        records.append(
            _record(
                "extension_census_crosscheck",
                {"p": p, "r": r},
                Fraction(ext_total),
                direct,
                detail="summed extension sets vs direct restricted quadruple sweep",
            )
        )
    return records


def _eqd_item(args):
    p, r = args
    lo, hi = cf.extension_count_envelope(p)
    triples = dr_triples_distinct(p, r)
    counts = extension_counts(p, r, triples, include_boundary=False)
    violations = [(*abc, nd) for abc, nd in zip(triples, counts) if not lo <= 8 * nd <= hi]
    return _record(
        "extension_count_envelope",
        {"p": p, "r": r, "lo": lo, "hi": hi},
        Fraction(0),
        len(violations),
        detail=f"triples violating the integer envelope on 8*#extensions: {violations[:5]}",
    )


def suite_eqd(ps=(13, 17, 29), rs=(1, 2)):
    return _pmap(_eqd_item, [(p, r) for p in ps for r in rs])


def _asymptotics_item(args):
    kind, p, r = args
    if kind == "m3":
        result = census(p, r, 3)
        density = Fraction(result.total, p**3)
        gap = abs(density - cf.triple_density_leading(p, r))
        bound = Fraction(10, p * p)
        return _record(
            "triple_density_envelope",
            {"p": p, "r": r, "m": 3},
            Fraction(0),
            Fraction(0 if gap <= bound else 1),
            detail=f"|density - 1/8 - (6+3chi)/8p| = {format_rational(gap)} vs 10/p^2",
        )
    result = census(p, r, 4)
    density = Fraction(result.total, p**4)
    gap = abs(density - cf.main_term(4))
    ok = gap * gap <= Fraction(1, p)  # gap <= 1/sqrt(p), exactly
    return _record(
        "quadruple_density_main_term",
        {"p": p, "r": r, "m": 4},
        Fraction(0),
        Fraction(0 if ok else 1),
        detail=f"|density - 1/64| = {format_rational(gap)}; bound 1/sqrt({p})",
    )


def suite_asymptotics():
    items = [("m3", p, r) for p in (31, 61, 101) for r in (1, 2)]
    items += [("m4", p, r) for p in (53, 101) for r in (1, 2)]
    return _pmap(_asymptotics_item, items)


SUITES = {
    "pairs-zp": suite_pairs_zp,
    "z2": suite_z2,
    "z3-adjudicate": suite_z3_adjudicate,
    "triples-fp": suite_triples_fp,
    "conic": suite_conic,
    "valuation-classes": suite_valuation_classes,
    "ok-series": suite_ok_series,
    "ec": suite_ec,
    "asymptotics": suite_asymptotics,
}
SUITE_NAMES = (*SUITES, "all")


def suite_parameters(name: str) -> set[str]:
    """Keyword arguments suite `name` takes; for "all", those any suite takes."""
    names = SUITES if name == "all" else (name,)
    return {param for n in names for param in inspect.signature(SUITES[n]).parameters}


def run_suite(name: str, **kwargs) -> list:
    """Run one named suite (or "all") and return records in canonical order.

    "all" passes each suite only the arguments it takes, and refuses an
    argument that no suite takes.  A suite that produces no records checked
    nothing, so it raises ValueError.
    """
    if name == "all":
        unused = set(kwargs) - suite_parameters(name)
        if unused:
            raise TypeError(f"no audit suite takes {', '.join(sorted(unused))}")
        records = []
        for suite_name in SUITES:
            taken = suite_parameters(suite_name)
            records.extend(run_suite(suite_name, **{k: v for k, v in kwargs.items() if k in taken}))
        return records
    if name not in SUITES:
        raise KeyError(name)
    records = SUITES[name](**kwargs)
    if not records:
        raise ValueError(f"audit {name} produced no records")
    return canonical_order(records)


def canonical_order(records):
    """Sorted by quantity, then by the JSON of the params as `to_dict` prints them."""
    encode = json.JSONEncoder(sort_keys=True).encode
    return sorted(records, key=lambda r: (r.quantity, encode({k: str(v) for k, v in r.params.items()})))


def exit_code_for(records) -> int:
    return 0 if all(r.verdict != DISAGREE for r in records if r.must_agree) else 1
