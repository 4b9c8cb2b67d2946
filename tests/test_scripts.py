"""The example scripts run from any directory and exit cleanly."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mfchern import CHECK_SUITES

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["chern_demo.py", "verify_identities.py"])
def test_script_exits_zero(script, tmp_path):
    # away from the repository root and with no PYTHONPATH, the script has
    # only its own path to find the package by
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "verify_identities.py":
        assert "\n0 failure(s)" in proc.stdout
        # one pass line per corpus entry and suite of the shared table, plus
        # connection independence, which has no suite
        lines = proc.stdout.splitlines()
        labels = [line.split(": ch = ")[0] for line in lines if ": ch = " in line]
        props = [*CHECK_SUITES, "connection independence"]
        assert labels
        assert [line for line in lines if line.endswith(": pass")] == [
            f"{label}: {prop}: pass" for label in labels for prop in props
        ]
