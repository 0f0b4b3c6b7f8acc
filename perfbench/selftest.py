"""Self-test: two traced runs must report identical counts.

    python3 perfbench/selftest.py

Runs `run.py --trace 1 --seed 0` twice per workload (one untraced and
one traced pass each) and compares the input digests, the command and failure
counts and every per-layer metric whose unit is a count, a ratio of
counts or bytes.  Those repeat exactly for identical input, which is
what lets a later change claim a count.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_UNITS = ("count", "ratio", "bytes")


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in EXACT_UNITS}
    counts.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    counts["inputs"] = [line for line in lines if line.startswith("input: ")]
    return counts


def main() -> int:
    ok = True
    for workload in W.WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        diff = sorted(k for k in first if first[k] != second.get(k))
        ok = ok and not diff
        print(f"{workload}: {len(first)} counts compared, "
              + (f"DIFFER: {', '.join(diff)}" if diff else "identical"))
        for key in diff:
            print(f"  {key}: {first[key]} vs {second.get(key)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
