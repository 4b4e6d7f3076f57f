"""The command-line checks of the scripts under tools/."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("pairs", ["0", "-2", "x"])
def test_ab_rejects_pair_counts_below_one(pairs):
    proc = subprocess.run(
        [sys.executable, "tools/ab.py", "--parent", "HEAD", "--pr", "test",
         "--pairs", pairs], cwd=ROOT, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2
    assert "--pairs" in proc.stderr and "Traceback" not in proc.stderr
