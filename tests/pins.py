"""Check every output pin in a fresh process: `python tests/pins.py`.

A pin is an argv of `dioptuples` with the exit code and the stdout sha256
(null: the exit code alone) it must give.  The pins are tests/pins.json and,
read as they are, the benchmark's recorded invocations in bench/expected.json;
an argv in both must pin the same (exit, sha256), and runs once.  Each argv
runs as `python -O -m dioptuples ARGV`, since the soundness checks raise
rather than assert, and must end within 10 s.  Every failure prints with its
argv, and any failure exits 1.  Standard library only.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 10


def tables():
    """The pin table and the benchmark's recorded invocations, each argv -> {"exit", "sha256", ...}."""
    pins = json.loads((ROOT / "tests" / "pins.json").read_text(encoding="utf-8"))
    recorded = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))["invocations"]
    return pins, recorded


def merge(*sources):
    """argv -> (exit, sha256) over every table; raise for an argv two tables pin differently."""
    merged = {}
    for table in sources:
        for argv, entry in table.items():
            want = (entry["exit"], entry["sha256"])
            if merged.setdefault(argv, want) != want:
                raise ValueError(f"{argv}: pinned as both {merged[argv]} and {want}")
    return merged


def mismatch(argv, want, code, stdout: bytes) -> str:
    """The failure line of a pin that ended with `code` and `stdout`, or "" if it holds."""
    got = (code, hashlib.sha256(stdout).hexdigest())
    if got[0] == want[0] and want[1] in (None, got[1]):
        return ""
    return f"FAILED {argv}: exit {got[0]}, sha256 {got[1]}; pinned exit {want[0]}, sha256 {want[1]}"


def main() -> int:
    pins = merge(*tables())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failed = 0
    for argv, want in pins.items():
        try:
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "dioptuples", *argv.split()],
                capture_output=True, env=env, timeout=TIMEOUT_S,
            )
            failure = mismatch(argv, want, proc.returncode, proc.stdout)
            if failure and proc.stderr.strip():
                failure += "\n  " + proc.stderr.decode(errors="replace").strip().splitlines()[-1]
        except subprocess.TimeoutExpired:
            failure = f"FAILED {argv}: still running after {TIMEOUT_S} s"
        if failure:
            print(failure, file=sys.stderr)
            failed += 1
    print(f"{len(pins) - failed} of {len(pins)} pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
