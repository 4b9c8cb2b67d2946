"""The example scripts run from the repository root and exit cleanly."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["chern_demo.py", "verify_identities.py"])
def test_script_exits_zero(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "verify_identities.py":
        assert "\n0 failure(s)" in proc.stdout
