"""Spans around the calls into each layer of `dioptuples`, for traced runs.

`install` replaces module-level functions with timing wrappers at every
import site (`audit.census` as well as `fp_census.census`), and each entry of
`audit.SUITES`.  A wrapper records one span per call: name, start, end,
parent span and op id.  Spans stay in memory; `summarize` turns one
invocation's spans into per-layer totals when the invocation ends.

`arith` and `padic` are scalar helpers: a wrapper would cost more than the
call, so their time stays in the caller's self time.  Calls made inside pool
workers are not seen; their wall time lands in the span that waits on them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "dioptuples"

# Named targets fail loudly when missing, so a rename cannot zero a layer.
TARGETS = {
    "cli": ("main", "_emit"),
    "audit": ("run_suite", "canonical_order", "_pmap"),
    "zp_census": (
        "status_table",
        "pair_product_weights",
        "zp_interval",
        "valuation_class_measure",
        "series_consistency",
        "_vp_vector",
        "_zp_pair_fast",
        "_zp_sweep",
    ),
    "fp_census": (
        "census",
        "_census_tables",
        "_census_counts",
        "_clique_count",
        "_mul_table",
        "square_table",
        "conic_sum_direct",
    ),
    "fq": ("fq_construct", "find_irreducible"),
    "curves": (
        "two_descent_equiv",
        "extension_dset",
        "dr_triples_distinct",
        "curve_points",
        "doubling_image",
    ),
}
# Every function defined in these modules is wrapped; only their total is reported.
WHOLE_MODULES = ("closed_forms",)
LAYERS = tuple(TARGETS) + WHOLE_MODULES

# Bytes of the q x q arrays `_zp_sweep` keeps alive at once: the int64
# product grid, two bool masks and their two float64 copies.
SWEEP_BYTES_PER_CELL = 8 + 1 + 1 + 8 + 8


class Tracer:
    """Span recorder for one process.  A span is [name, start, end, parent, op, note]."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, op_id = self.spans, self._stack, self.op_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, op_id,
                    note(*args, **kwargs) if note else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper


def _notes():
    """Per-target argument summaries the per-layer counters need."""
    from dioptuples import fp_census

    def census(field, r, m, *_, **__):
        return {"q": fp_census.field_size(field), "m": m}

    return {
        "fp_census.census": census,
        "zp_census.zp_interval": lambda p, r, m, N, *_, **__: {"p": p, "m": m, "N": N},
        "zp_census.status_table": lambda p, N, **__: {"p": p, "N": N},
        "zp_census._zp_sweep": lambda p, r, m, N: {"q": p**N},
    }


def _replace_everywhere(original, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer, targets=None, whole_modules=WHOLE_MODULES) -> None:
    """Wrap every target at every import site, and every audit suite.

    Raises LookupError, before wrapping anything, when a named target is
    missing from its module.
    """
    targets = TARGETS if targets is None else targets
    notes = _notes()
    plan = []
    for mod_name, names in targets.items():
        mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
        for name in names:
            fn = getattr(mod, name, None)
            if not callable(fn):
                raise LookupError(f"trace target {PACKAGE}.{mod_name}.{name} is missing")
            plan.append((f"{mod_name}.{name}", fn))
    for mod_name in whole_modules:
        mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
        plan += [
            (f"{mod_name}.{name}", fn)
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__
        ]
    for name, fn in plan:
        _replace_everywhere(fn, tracer.wrap(name, fn, notes.get(name)))
    suites = importlib.import_module(f"{PACKAGE}.audit").SUITES
    for suite, fn in suites.items():
        suites[suite] = tracer.wrap(f"audit.suite.{suite}", fn)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span[3], []).append(span)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children.get(i, ()), key=lambda s: s[1]):
            lo, hi = max(child[1], reach), min(child[2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per-invocation totals: for each span name [calls, inclusive s, self s],
    self time per layer, and the counters the per-layer metrics need."""
    selfs = self_times(spans)
    fns: dict[str, list] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    census_shape_s: dict[str, float] = {}
    fp_tuples = zp_tuples = grid_bytes = 0
    status_keys = set()
    for i, (name, start, end, parent, _op, note) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        stats = fns.setdefault(name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[2] += selfs[i]
        layer_self[layer] += selfs[i]
        layer_calls[layer] += 1
        ancestors = _ancestor_names(spans, parent)
        if name not in ancestors:
            stats[1] += dur
        if not any(a.split(".", 1)[0] == layer for a in ancestors):
            layer_s[layer] += dur
        if name == "fp_census.census":
            fp_tuples += note["q"] ** note["m"]
            shape = f"m{note['m']}-q{note['q']}"
            census_shape_s[shape] = census_shape_s.get(shape, 0.0) + dur
        elif name == "zp_census.zp_interval":
            zp_tuples += note["p"] ** (note["m"] * note["N"])
        elif name == "zp_census.status_table":
            status_keys.add((note["p"], note["N"]))
        elif name == "zp_census._zp_sweep":
            grid_bytes += SWEEP_BYTES_PER_CELL * note["q"] ** 2
    return {
        "fns": fns,
        "layer_self": layer_self,
        "layer_s": layer_s,
        "layer_calls": layer_calls,
        "census_shape_s": census_shape_s,
        "fp_tuples": fp_tuples,
        "zp_tuples": zp_tuples,
        "grid_bytes": grid_bytes,
        "status_keys": sorted(status_keys),
        "self_sum": sum(selfs),
        "spans": len(spans),
    }


def _ancestor_names(spans, parent: int) -> set:
    names = set()
    while parent != -1:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names


def selfcheck() -> None:
    """Check the self-time arithmetic and that a missing target fails; raise RuntimeError if not."""
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 2.0, 3.0, 1, 0, None],
        ["c", 5.0, 9.0, 0, 0, None],
    ]
    got = self_times(spans)
    if got != [3.0, 2.0, 1.0, 4.0] or sum(got) != 10.0:
        raise RuntimeError(f"self-time arithmetic is wrong: {got}")
    try:
        install(Tracer(), targets={"fp_census": ("no_such_function",)}, whole_modules=())
    except LookupError:
        pass
    else:
        raise RuntimeError("a missing trace target was not reported")
