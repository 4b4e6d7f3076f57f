"""Smoke test: the decoding demo runs as a script and prints a transcript."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ctc_beam_decode_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "05_ctc_beam_decode.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "lm_weight=2.0: best 3 of" in proc.stdout
    assert "'hello'" in proc.stdout
