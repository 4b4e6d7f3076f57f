"""Smoke tests: the demos run as scripts and print what they promise."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name, lines", [
    ("01_clocked_cells.py", ["(bit-identical: True )",
                             "(history gone, equals a fresh cell: True )",
                             "suffix outputs identical: True"]),
    ("02_hierarchical_network.py", ["streaming == whole-sequence forward: True",
                                    "cloned state branches independently: "
                                    "True"]),
    ("04_evaluate_perplexity.py", ["zeroed 4x4  740       2.0000  16.0",
                                   "byte-mode floor: 8.005625 = log2(257) = "
                                   "8.005625"]),
])
def test_cell_and_network_demos_run(name, lines):
    out = run_demo(name)
    for line in lines:
        assert line in out, (line, out)
    assert "False" not in out


def test_train_and_sample_demo_memorizes_its_corpus():
    lines = run_demo("03_train_and_sample.py").splitlines()
    first_line = lines[lines.index("training corpus:") + 1]
    final = next(line for line in lines if line.startswith("final train BPC:"))
    assert float(final.split()[3]) < 0.1, final
    greedy = lines[next(i for i, line in enumerate(lines)
                        if line.startswith("greedy continuation")) + 1]
    assert greedy.split()[:5] == first_line.split()[:5], (greedy, first_line)


def test_ctc_beam_decode_demo_runs():
    out = run_demo("05_ctc_beam_decode.py")
    assert "lm_weight=2.0: best 3 of" in out
    assert "'hello'" in out
