"""Record every benchmark invocation's expected exit code and stdout hash.

    python3 bench/record.py

Runs each invocation of every workload, for every r in its pool, once
untraced and once traced, in fresh children, and writes bench/expected.json:
exit code, stdout sha256 and line count, and the residue tuples its censuses
enumerate (q^m per F_q census, p^(mN) per Z/p^N interval), as the traced run
counts them.  Fails if tracing changes an output, or if `audit all` with or
without --jobs misses the audit anchor.  Re-record only when outputs change
on purpose.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from run import EXPECTED, ROOT, Runner, check_anchor
from workloads import every_invocation


def main() -> int:
    runner = Runner({}, time.monotonic() + 3600)
    records = {}
    for inv in every_invocation():
        for argv in inv.all_argvs():
            plain = runner.spawn(argv)
            traced = runner.spawn(argv, trace=True)
            for report in (plain, traced):
                if "error" in report:
                    sys.exit(f"{' '.join(argv)}: {report['error']}")
            if traced["sha256"] != plain["sha256"] or traced["exit"] != plain["exit"]:
                sys.exit(f"{' '.join(argv)}: tracing changed the output")
            summary = traced["trace"]
            records[" ".join(argv)] = {
                "exit": plain["exit"],
                "sha256": plain["sha256"],
                "lines": plain["lines"],
                "tuples": summary["fp_tuples"] + summary["zp_tuples"],
            }
            print(f"{' '.join(argv)}: exit {plain['exit']} {plain['sha256'][:16]} {plain['op_s']:.3f} s")
    check_anchor(records)
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    EXPECTED.write_text(json.dumps({"recorded_at": rev, "invocations": records}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
