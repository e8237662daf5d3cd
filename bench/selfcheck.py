"""Checks of the benchmark harness itself.

    python3 bench/selfcheck.py

- Self-time arithmetic on a hand-built nested span, and a trace target
  missing from its module fails loudly (`spans.selfcheck`).
- The tail percentile keeps 10 samples beyond it.
- A corrupted expected hash gives fail_ratio 1 and a nonzero exit, through
  a real one-second run of the audit workload.
- BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import spans

sys.path.insert(0, str(run.SRC))


def check(condition: bool, what: str) -> None:
    if not condition:
        sys.exit(f"selfcheck FAILED: {what}")
    print(f"ok: {what}")


def main() -> int:
    spans.selfcheck()
    print("ok: self-time arithmetic; a missing trace target raises")

    value, pct, beyond = run.tail([float(i) for i in range(30)])
    check((value, beyond) == (19.0, 10) and abs(pct - 200 / 3) < 1e-9, "tail of 30 samples is p66.7")
    check(run.tail([3.0, 1.0, 2.0])[0] == 2.0, "tail of 3 samples is their median")

    corrupted = {k: {**v, "sha256": "0" * 64} for k, v in run.load_expected().items()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "audit", "--seed", "0", "--seconds", "1"], expected=corrupted)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code != 0, "a corrupted expected hash gives a nonzero exit")
    check(
        result["attempted"] > 0 and result["failed"] == result["attempted"] and not result["correct"],
        "a corrupted expected hash gives fail_ratio 1",
    )

    nested = [
        ["cli.main", 0.0, 2.0, -1, 0, None],
        ["fp_census.census", 0.5, 1.5, 0, 0, {"q": 5, "m": 3}],
    ]
    summary = spans.summarize(nested)
    plain = {"op_s": 1.0, "ref_s": 0.1, "setup_s": 0.1, "rss_mb": 10.0, "tuples": 125}
    e2e, _ = run.end_to_end([[plain]])
    layers, _ = run.per_layer([(False, [plain]), (True, [{**plain, "trace": summary}])])
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(list(e2e) == [m["name"] for m in bench["end_to_end"]], "BENCHMARK.json end_to_end matches run.py")
    check(list(layers) == [m["name"] for m in bench["per_layer"]], "BENCHMARK.json per_layer matches run.py")
    check(
        all(m["unit"] == e2e[m["name"]][1] for m in bench["end_to_end"])
        and all(m["unit"] == layers[m["name"]][1] for m in bench["per_layer"]),
        "BENCHMARK.json units match run.py",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
