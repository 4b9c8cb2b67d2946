#!/usr/bin/env python3
"""Write reference.json: the output digest of every job in every pool.

    python3 perfbench/pin.py

Run from the repository root on the commit whose outputs are the
reference.  Every workload is pinned again, so all pins come from that one
commit.  A job that fails or a CLI check that does not exit 0 stops the
pinning, and reference.json is left as it was.
"""
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import WORKLOADS, digest  # noqa: E402


def main():
    reference = {}
    for name, workload in sorted(WORKLOADS.items()):
        t0 = time.perf_counter()
        pins = {}
        # The cache is left warm between jobs: it changes speed, not output.
        for job in workload.prepare(workload.pool()):
            out = job.render(job.fn())
            if out.startswith("exit ") and not out.startswith("exit 0\n"):
                raise SystemExit(f"{job.key}: {out}")
            pins[job.key] = digest(out)
        reference[name] = dict(sorted(pins.items()))
        print(f"{name}: {len(pins)} jobs in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
