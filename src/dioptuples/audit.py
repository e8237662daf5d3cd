"""Formula-vs-oracle audit suites with machine-readable verdict records.

Each suite is one loop over its parameter family: it evaluates claimed
closed forms against the matching exhaustive oracle and emits one record per
quantity.  The quantities in `ADJUDICATIONS` document discrepancies in
known-suspect statements and never gate; every other quantity gates the
process exit code.  Verdicts are recomputable from the record fields alone.
Every formula a record compares against comes from `closed_forms`.  Every
suite runs serially in one process.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

import numpy as np

from . import closed_forms as cf
from .arith import format_rational, is_prime, legendre, r_shape, require_odd_prime
from .curves import dr_triples_distinct, extension_counts, two_descent_pass
from .fp_census import PRODUCT_CELLS, _census_tables, _clique_count, _power_fits, admit, censuses, conic_sum_direct
from .zp_census import MeasureInterval, valuation_class_measures, zp_interval, zp_precision

AGREE = "Agree"
DISAGREE = "Disagree"
INCONCLUSIVE = "Inconclusive"
AUDIT_BUDGET = 10**8  # the default `audit --budget` of every suite that takes one

# the quantities that never gate: each sets a known-suspect statement against its oracle
ADJUDICATIONS = frozenset({
    "mtuple_density_z3_stated",
    "mtuple_density_z3_consistent",
    "triple_offdiag_count",
    "triple_interior_density",
    "triple_density",
    "pair_block_B_stated",
})


def _params_json(params: dict) -> str:
    """The params as a record prints them, {k: str(v)}, in JSON with sorted keys."""
    return "{" + ", ".join([f"{_json_str(k)}: {_json_str(str(v))}" for k, v in sorted(params.items())]) + "}"


class AuditRecord(NamedTuple):
    quantity: str
    params: dict
    claimed_value: object  # Fraction or None
    oracle_value: object   # Fraction, int, or MeasureInterval
    verdict: str
    detail: str
    must_agree: bool
    params_json: str  # `_params_json(params)`, shared by every record of one `_point`

    @property
    def json_line(self) -> str:
        """The record as JSON with sorted keys, written in that key order without a dict or an encoder.

        A rational prints as digits, "-" and "/", which JSON never escapes;
        every other string is escaped as `json.dumps` escapes it.
        """
        oracle = self.oracle_value
        if isinstance(oracle, MeasureInterval):
            oracle = f'{{"hi": "{format_rational(oracle.hi)}", "lo": "{format_rational(oracle.lo)}"}}'
        else:
            oracle = f'"{format_rational(oracle)}"'
        claimed = "null" if self.claimed_value is None else f'"{format_rational(self.claimed_value)}"'
        return (
            f'{{"claimed_value": {claimed}, "detail": {_json_str(self.detail)}, '
            f'"must_agree": {"true" if self.must_agree else "false"}, "oracle_value": {oracle}, '
            f'"params": {self.params_json}, "quantity": {_json_str(self.quantity)}, '
            f'"verdict": {_json_str(self.verdict)}}}'
        )


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


def _point(params: dict) -> tuple:
    """(params, their JSON): one encoding for every record at this point."""
    return params, _params_json(params)


def _record(quantity, point, claimed, oracle, competitors=(), detail=""):
    verdict, must_agree = verdict_for(claimed, oracle, competitors), quantity not in ADJUDICATIONS
    return AuditRecord(quantity, point[0], claimed, oracle, verdict, detail, must_agree, point[1])


def smallest_nonresidue(p: int) -> int:
    require_odd_prime(p)  # p <= 2 leaves the search below empty, so refuse it as `legendre` would
    return next(n for n in range(2, p) if legendre(n, p) == -1)


def auto_rset(p: int) -> list[int]:
    """r values covering all five pair-density cases: unit square and
    nonsquare, odd valuation, and both even-valuation unit characters."""
    n = smallest_nonresidue(p)
    return [1, n, p, p * n, p * p, p * p * n, p**3]


def _pmap(fn, items):
    # one serial map that no suite calls, kept only because the benchmark's
    # traced run (bench/spans.py) times `audit._pmap` by name
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# suites


def suite_pairs_zp(ps=(3, 5, 7, 11, 13), rset=None, budget=AUDIT_BUDGET):
    # every p's automatic rset first, so it refuses a bad p before any census
    rsets = [(p, auto_rset(p) if rset is None else rset) for p in ps]
    records = []
    for p, rs in rsets:
        for r in rs:
            shape = r_shape(r, p)
            N = max(1, zp_precision(p, 2, budget))  # below p^2 the census itself refuses
            density = cf.diop2_zp(shape)
            params = {"p": p, "r": r, "alpha": shape.alpha, "chi_s": shape.chi_s}
            records += [
                _record("pair_density_zp", _point({**params, "N": N}), density, zp_interval(p, r, 2, N, budget)),
                _record(
                    "pair_density_block_series",
                    _point(params),
                    cf.series_consistency(p, shape.alpha, shape.chi_s, shape.alpha + 10),
                    density,
                    detail="valuation-block sum with exact geometric tail vs closed form",
                ),
            ]
    return records


def suite_z2(N: int = 10):
    interval = zp_interval(2, 1, 2, N)
    return [
        _record("pair_density_z2", _point({"p": 2, "r": 1, "N": N}), cf.diop2_z2(), interval),
        _record(
            "pair_density_z2_blocks",
            _point({"p": 2, "r": 1}),
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
        point = _point({"p": 3, "r": 1, "m": m, "N": N, "candidates": ",".join(map(format_rational, candidates))})
        for quantity, value in (
            ("mtuple_density_z3_stated", claimed),
            ("mtuple_density_z3_consistent", consistent),
        ):
            records.append(_record(quantity, point, value, interval, competitors=candidates, detail=detail))
    return records


def _primes_upto(n):
    return (p for p in range(3, n + 1, 2) if is_prime(p))


def _charge(suite: str, pmax: int, cells, formula: str, budget: int):
    """The odd primes up to pmax, once their cells(p), written formula, fit the budget summed; refused if not.
    The prime walk stops at the first prime whose running sum passes the budget, so a huge pmax lists no more."""
    def fits(k):
        return all(total <= budget for total in accumulate(map(cells, _primes_upto(k)), initial=0))

    admit(f"audit {suite} --pmax {pmax}", f"sum of {formula} over the primes 3 <= p <= {pmax}", "pmax", pmax, fits, budget)
    return _primes_upto(pmax)


def suite_triples_fp(pmax: int = 31, budget: int = AUDIT_BUDGET):
    forms = (cf.count_boundary_claimed, cf.count_offdiag_claimed, cf.tilde3_fp_claimed, cf.diop3_fp_claimed)
    records = []
    # charged p^3 cells per prime, the tuples of its census as `census` counts
    # them, above the (p - 1)^2 cells of the stacked pass over every r
    for p in _charge("triples-fp", pmax, lambda p: p**3, "p^3", budget):
        # the stated forms read r only through chi(r): one evaluation per square class
        stated = {legendre(r, p): [form(p, r) for form in forms] for r in (1, smallest_nonresidue(p))}
        p3 = p**3
        for result in censuses(p, range(1, p), 3, budget):
            boundary, offdiag, interior, density = stated[legendre(result.r, p)]
            point = _point({"p": p, "r": result.r})
            for quantity, claimed, oracle, detail in (
                ("triple_boundary_count", boundary, result.boundary, ""),
                (
                    "triple_partition",
                    result.boundary + result.offdiag + result.interior,
                    result.total,
                    "boundary + offdiag + interior vs total",
                ),
                ("triple_offdiag_count", offdiag, result.offdiag, "stated off-diagonal count vs census (known suspect)"),
                (
                    "triple_interior_density",
                    interior,
                    Fraction(result.interior, p3),
                    "stated interior density vs census (known suspect)",
                ),
                ("triple_density", density, Fraction(result.total, p3), "stated total density vs census (known suspect)"),
            ):
                records.append(_record(quantity, point, claimed, oracle, detail=detail))
    return records


def suite_conic(pmax: int = 13, budget: int = AUDIT_BUDGET):
    records = []
    # charged the (p - 1) p^2 cells of each prime's direct sums
    for p in _charge("conic", pmax, lambda p: (p - 1) * p * p, "(p - 1)p^2", budget):
        a1, a0 = np.arange(p)[:, None], np.arange(p)
        mismatches = 0
        # direct sums in chunks of a2 of at most PRODUCT_CELLS terms (p^3 per a2), or one a2
        for a2s in np.array_split(np.arange(1, p), min(p - 1, -(-(p - 1) * p**3 // PRODUCT_CELLS))):
            direct = conic_sum_direct(a2s[:, None, None], a1, a0, p)
            for a2, sums in zip(a2s.tolist(), direct):
                mismatches += int(np.count_nonzero(sums != cf.conic_sum_closed(a2, a1, a0, p)))
        records.append(
            _record(
                "conic_sum",
                _point({"p": p, "cases": (p - 1) * p * p}),
                0,
                mismatches,
                detail="closed-form vs direct-sum mismatches over all (a2, a1, a0)",
            )
        )
    return records


def suite_valuation_classes(ps=(3, 5), N: int = 7, budget: int = AUDIT_BUDGET):
    nonresidues = [smallest_nonresidue(p) for p in ps]  # refuses a p that is not an odd prime first
    # charged the p^N cells of each prime's status table, before any table is built
    admit(
        f"audit valuation-classes --precision {N}", " + ".join(f"{p}^{N}" for p in ps), "N", N,
        lambda k: all(_power_fits(p, k, budget) for p in ps) and sum(p**k for p in ps) <= budget, budget,
    )
    records = []
    for p, n in zip(ps, nonresidues):
        shapes = {p**alpha * s: r_shape(p**alpha * s, p) for alpha in range(4) for s in (1, n)}
        for v in range(N - 2):
            # an odd valuation is checked only at v = alpha, its one nonempty block
            rs = [r for r, shape in shapes.items() if v % 2 == 0 or v == shape.alpha]
            for r, oracle in zip(rs, valuation_class_measures(p, rs, v, N)):
                shape = shapes[r]
                alpha = shape.alpha
                if alpha == 0:
                    claimed = cf.mu_A_k(shape, v // 2)
                    quantity = "pair_block_A"
                else:
                    claimed = cf.mu_B_beta(shape, v)
                    quantity = "pair_block_B"
                point = _point({"p": p, "r": r, "alpha": alpha, "chi_s": shape.chi_s, "beta": v, "N": N})
                records.append(_record(quantity, point, claimed, oracle))
                if alpha > 0:
                    stated = cf.mu_B_beta_claimed(p, alpha, shape.chi_s, v)
                    if stated != claimed:
                        records.append(
                            _record(
                                "pair_block_B_stated",
                                point,
                                stated,
                                oracle,
                                detail="stated block density differs from the validated one here",
                            )
                        )
    return records


def suite_ok_series():
    records = []
    for q in (3, 5, 7, 9, 25, 27):
        for alpha in range(7):
            for chi_s in (1, -1):
                records.append(
                    _record(
                        "pair_density_ok_series",
                        _point({"q": q, "alpha": alpha, "chi_s": chi_s, "beta_max": alpha + 6}),
                        cf.series_consistency(q, alpha, chi_s, alpha + 6),
                        cf.pair_measure(q, alpha, chi_s),
                        detail="block series with closed-form tail vs five-case density",
                    )
                )
    for p in (3, 5, 7, 11, 13):
        for r in auto_rset(p):
            shape = r_shape(r, p)
            records.append(
                _record(
                    "pair_density_ok_vs_zp",
                    _point({"p": p, "r": r, "alpha": shape.alpha, "chi_s": shape.chi_s}),
                    cf.pair_measure(p, shape.alpha, shape.chi_s),
                    cf.diop2_zp(shape),
                    detail="residue-field specialization q = p against the p-adic form",
                )
            )
    return records


def ec_instances(seed: int):
    """100 deterministic pseudo-random admissible (p, a, b, c, r) instances."""
    rng = random.Random(seed)
    primes = [p for p in _primes_upto(101) if p >= 13]
    out = []
    while len(out) < 100:
        p = rng.choice(primes)
        a, b, c = rng.sample(range(1, p), 3)
        r = rng.randrange(1, p)
        out.append((p, a, b, c, r))
    return out


def suite_ec(seed: int = 20240):
    records = []
    instances = ec_instances(seed)
    for (p, a, b, c, r), v in zip(instances, two_descent_pass(instances)):
        records.append(
            _record(
                "two_descent_equivalence",
                _point({"p": p, "a": a, "b": b, "c": c, "r": r}),
                1,
                1 if v.ok else 0,
                detail=(
                    f"order={v.order} |2E|={v.doubling_image_size} twist={v.twist} "
                    f"naive_dset_eq_image={v.dset_matches_image}"
                ),
            )
        )
    triples = {(p, r): dr_triples_distinct(p, r) for p in (13, 17, 29) for r in (1, 2)}
    records.extend(suite_eqd(triples))
    records.extend(_extension_census_crosscheck({case: triples[case] for case in ((13, 1), (13, 2), (17, 1))}))
    return records


def _extension_census_crosscheck(triples):
    # ordered quadruple count with distinct unit first-three, two ways:
    # summed extension sets vs the census kernel, which counts the triangles
    # of distinct units inside the neighbourhood of each fourth coordinate;
    # a zero fourth coordinate is compatible with every unit or with none
    records = []
    for (p, r), distinct in triples.items():
        ext_total = 6 * sum(extension_counts(p, r, distinct))
        zero, member, _ = _census_tables(p, r)
        units = member.copy()
        np.fill_diagonal(units, False)
        direct = zero * _clique_count(units, 3) + _clique_count(units, 3, member)
        records.append(
            _record(
                "extension_census_crosscheck",
                _point({"p": p, "r": r}),
                ext_total,
                direct,
                detail="summed extension sets vs direct restricted quadruple sweep",
            )
        )
    return records


def suite_eqd(triples):
    records = []
    envelopes = {p: cf.extension_count_envelope(p) for p in {p for p, _ in triples}}
    for (p, r), distinct in triples.items():
        lo, hi = envelopes[p]
        counts = extension_counts(p, r, distinct, include_boundary=False)
        violations = [(*abc, nd) for abc, nd in zip(distinct, counts) if not lo <= 8 * nd <= hi]
        records.append(
            _record(
                "extension_count_envelope",
                _point({"p": p, "r": r, "lo": lo, "hi": hi}),
                0,
                len(violations),
                detail=f"triples violating the integer envelope on 8*#extensions: {violations[:5]}",
            )
        )
    return records


def _asymptotics_item(result):
    p, r = result.q, result.r
    if result.m == 3:
        density = Fraction(result.total, p**3)
        gap = abs(density - cf.triple_density_leading(p, r))
        bound = Fraction(10, p * p)
        return _record(
            "triple_density_envelope",
            _point({"p": p, "r": r, "m": 3}),
            0,
            int(gap > bound),
            detail=f"|density - 1/8 - (6+3chi)/8p| = {format_rational(gap)} vs 10/p^2",
        )
    gap = abs(Fraction(result.total, p**4) - cf.main_term(4))
    return _record(
        "quadruple_density_main_term",
        _point({"p": p, "r": r, "m": 4}),
        0,
        int(gap * gap > Fraction(1, p)),  # gap > 1/sqrt(p), exactly
        detail=f"|density - 1/64| = {format_rational(gap)}; bound 1/sqrt({p})",
    )


def suite_asymptotics():
    shapes = [(3, p) for p in (31, 61, 101)] + [(4, p) for p in (53, 101)]
    return [_asymptotics_item(result) for m, p in shapes for result in censuses(p, (1, 2), m)]


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
    """Run one named suite and return its records in canonical order; for "all",
    each suite's records in its canonical order, one suite after another in
    `SUITES` order, as `audit all` prints them.

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
    """Sorted by quantity, then by the JSON of the params as `json_line` prints them."""
    return sorted(records, key=lambda r: (r.quantity, r.params_json))


def exit_code_for(records) -> int:
    return 0 if all(r.verdict != DISAGREE for r in records if r.must_agree) else 1
