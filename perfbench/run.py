#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chern_koszul --seed 1 --seconds 35 --trace 0

Run from the repository root.  One client runs the jobs one at a time (a
closed loop): a round is the seeded job list run once, and rounds repeat
until ``--seconds`` are used.  Every job's output is compared with its
pinned digest in ``reference.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, at least one of each, and prints the per-layer
metrics (per traced round) and the tracing overhead: the traced job list
time minus the untraced one, each the sum over jobs of the job's median
time.  The last line of standard output is one
JSON object; the lines before it, each starting with ``#``, give the same
numbers for people, and the cache state.
"""
import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    start = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mfchern" / "__init__.py").is_file():
        print(f"error: no mfchern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the CLI prints document paths relative to the root
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(ROOT / "src")]
    import harness

    return harness.run(args, start)


if __name__ == "__main__":
    sys.exit(main())
