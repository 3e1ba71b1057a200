"""Negative controls: the output check must fail on a perturbed input.

Runs ``run.py --perturb`` once per workload.  The measured run then uses a
timer interval shifted by one cycle (cycle workloads) or equal preemption
costs from ``CostModel.scaled`` (event workload), while the naive reference
keeps the original input.  Each control passes only if the benchmark reports
``correct: false`` with at least one failed run and exits non-zero.

Usage::

    python3 perfbench/negative_controls.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--perturb"],
            cwd=os.path.dirname(HERE),
            capture_output=True,
            text=True,
            timeout=300,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = proc.returncode == 1 and result.get("correct") is False and result["failed"] > 0
        ok = ok and caught
        verdict = "check failed as required" if caught else "NOT CAUGHT"
        print(f"{workload}: {verdict} (exit {proc.returncode}, "
              f"failed {result.get('failed')} of {result.get('attempted')})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
