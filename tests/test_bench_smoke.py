"""Smoke test of the benchmark harness against the package as it is.

One shortest round of the ``decode`` workload, untraced and traced: every
check passes, no operation fails, and every metric ``BENCHMARK.json``
declares is reported.  The traced run reads ``lstm_step``'s arguments and
the rows of the tapes it returns, so a change of the kernel's interface or
tape layout that the tracer cannot follow fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_one_decode_round_is_correct_and_complete(trace, declared):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decode", "--seed",
         "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    missing = {m["name"] for m in SPEC[declared]} - set(result["metrics"])
    assert not missing
