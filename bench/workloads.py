"""The benchmark's workloads: which `dioptuples` invocations one pass runs.

An invocation is a CLI argv.  Census invocations take `--r` from a fixed
pool, drawn per pass by the seeded generator.  Every pool entry is the
square of an integer prime to 6, so it is a nonzero square in every field
and a unit square in every ring used here (in F_{3^5} every entry maps to 1).
The outputs differ by r, while the work done (the clique structure, the
number of matrix-vector products) does not.  Seeds change inputs, not cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

R_POOL = (1, 25, 49, 121, 169, 289)

# sha256 and line count of `audit all` stdout; any --jobs value must match it.
AUDIT_ANCHOR = "7555188612de39a6b2830aedef448f19011947c4d5d28e97af0cbe6977ede18f"
AUDIT_ANCHOR_LINES = 1135


@dataclass(frozen=True)
class Invocation:
    """One CLI call shape.  `budget_reason` says why argv carries --budget."""

    name: str
    argv: tuple[str, ...]
    r_pool: tuple[int, ...] = ()
    budget_reason: str = ""

    def all_argvs(self) -> list[list[str]]:
        if not self.r_pool:
            return [list(self.argv)]
        return [[*self.argv, "--r", str(r)] for r in self.r_pool]

    def draw(self, rng: random.Random) -> list[str]:
        if not self.r_pool:
            return list(self.argv)
        return [*self.argv, "--r", str(rng.choice(self.r_pool))]


def _fp(m, p, *extra, budget=None, reason="", f=None):
    argv = ["census", "fp", "--m", str(m), "--p", str(p)]
    if f is not None:
        argv += ["--f", str(f)]
    argv += list(extra)
    if budget is not None:
        argv += ["--budget", str(budget)]
    q = p**f if f else p
    jobs = "-jobs2" if "--jobs" in extra else ""
    return Invocation(f"fp-m{m}-q{q}{jobs}", tuple(argv), R_POOL, reason)


def _zp(m, p, N, reason=""):
    argv = ("census", "zp", "--m", str(m), "--p", str(p), "-N", str(N))
    if reason:
        argv += ("--budget", str(10**13))
    return Invocation(f"zp-m{m}-p{p}-N{N}", argv, R_POOL, reason)


_FP_1009 = "1009^3 = 1.03e9 residue triples exceed the default budget of 1e9"
_FP_211 = "211^4 = 1.98e9 residue quadruples exceed the default budget of 1e9"
_PAIR = (
    "the pair fast path is charged p^(2N) = {charge} although it touches only "
    "p^N residues; 1e13 admits the call under either charge"
)

AUDIT = Invocation("audit-all", ("audit", "all"))
AUDIT_POOLED = Invocation("audit-all-jobs2", ("audit", "all", "--jobs", "2"))
FP_M3_1009 = _fp(3, 1009, budget=10**10, reason=_FP_1009)
FP_M3_1009_POOLED = _fp(3, 1009, "--jobs", "2", budget=10**10, reason=_FP_1009)

# Each workload runs its invocations serially and, where a pool exists, with
# --jobs 2, so removing a pool moves the pooled invocations' own figures.
WORKLOADS: dict[str, list[Invocation]] = {
    "audit": [AUDIT, AUDIT_POOLED],
    "census": [
        FP_M3_1009,
        _fp(4, 211, budget=10**10, reason=_FP_211),
        _fp(5, 53),
        _fp(3, 3, f=5),
        _zp(2, 2, 20, _PAIR.format(charge="2^40 = 1.1e12")),
        _zp(2, 3, 12, _PAIR.format(charge="3^24 = 2.8e11")),
        # 3^18 triples, within the default budget; q x q grids of q = 729
        _zp(3, 3, 6),
        _fp(4, 211, "--jobs", "2", budget=10**10, reason=_FP_211),
        _fp(5, 53, "--jobs", "2"),
    ],
}

# Not a gated workload: pooled vs serial F_p census at m=3 p=1009, the case
# where BLAS threads in every pool worker oversubscribe the cores.  The
# traced `census` run prints its spread.
DIAGNOSTIC = (FP_M3_1009, FP_M3_1009_POOLED)

# Census shapes whose time the traced run reports one by one (m, q).
CENSUS_SHAPES = ("m3-q1009", "m4-q211", "m5-q53", "m3-q243")


def every_invocation() -> list[Invocation]:
    seen = {}
    for inv in [i for w in WORKLOADS.values() for i in w] + list(DIAGNOSTIC):
        seen.setdefault(inv.name, inv)
    return list(seen.values())
