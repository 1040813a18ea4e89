"""Show that every output check fails on a corrupted output.

Usage, from the root of a checkout of the repository:

    python3 perfbench/selftest.py [--seed N]

Runs one pass of each workload, checks the real outputs, then applies each
corruption in ``checks.CORRUPTIONS`` (a flipped jsonl answer, a win rate
moved past 4 sigma, a missing histogram cell, a dropped certificate index,
...) and prints whether its check caught it.  Exits 1 if a real output fails
its check or a corrupted one passes.  ``run.py`` makes the same test on its
first pass of every run.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import RUNS_DIR, SRC, Runner


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    RUNS_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=RUNS_DIR))
    ok = True
    try:
        runner = Runner(out_dir)
        for workload in workloads.WORKLOADS:
            calls = workloads.build(workload, args.seed)
            _, outputs = runner.run_pass(calls)
            runner.check(calls, outputs)
            ok &= runner.correct and runner.failed == 0
            print(f"{workload}: {len(outputs)} of {len(calls)} outputs pass their checks: "
                  f"{'yes' if runner.correct else 'NO'}")
            for name, caught in checks.self_test(calls, outputs, runner.context):
                ok &= caught
                print(f"  corrupted ({name}): {'caught' if caught else 'NOT CAUGHT'}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
