"""The command-line checks of the scripts under tools/."""

import importlib.util
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


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools/ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


ab = _load_ab()


def _stats(better, parent, change):
    """A ``summarize`` entry for pairs of runs."""
    wins = sum((c - p) * (-1 if better == "lower" else 1) > 0
               for p, c in zip(parent, change))
    return {"better": better, "parent": ab.quartiles(parent),
            "change": ab.quartiles(change), "wins": wins,
            "pairs": len(parent)}


PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


@pytest.mark.parametrize("better, change, want", [
    # 10/10 wins, median 110 against a parent IQR of about 2
    ("higher", [p * 1.1 for p in PARENT], "gain"),
    # 9/10 wins is enough
    ("higher", [p * 1.1 for p in PARENT[:9]] + [90.0], "gain"),
    # every pair won, but by less than the parent's q3 - q1
    ("higher", [p + 0.5 for p in PARENT], "within"),
    # 8/10 wins is not a gain, however large
    ("higher", [p * 1.5 for p in PARENT[:8]] + [50.0, 50.0], "within"),
    # a 30% loss is past the 0.25 bound; a 20% loss is not
    ("higher", [p * 0.7 for p in PARENT], "worse"),
    ("higher", [p * 0.8 for p in PARENT], "within"),
    # lower is better: smaller is the gain, 30% larger is worse
    ("lower", [p * 0.9 for p in PARENT], "gain"),
    ("lower", [p * 1.3 for p in PARENT], "worse"),
    ("lower", [p * 1.1 for p in PARENT], "within"),
])
def test_ab_verdict(better, change, want):
    assert ab.verdict(_stats(better, PARENT, change), 0.25) == want


def test_ab_verdict_table_has_a_line_per_metric():
    stats = _stats("higher", PARENT, [p * 1.1 for p in PARENT])
    results = {"w": {"metrics": {"m": {**stats, "median_ratio": 1.1}}}}
    header, line = ab.verdict_table(results, {"m": 0.25, "absent": 0.1})
    assert line.split()[:2] == ["w", "m"] and line.endswith("gain")
    assert "10/10" in line


def test_digest_reruns_print_the_same_line():
    cmd = [sys.executable, "tools/digest.py", "--workload", "train_small",
           "--seed", "3"]
    lines = [subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                            timeout=120, check=True).stdout
             for _ in range(2)]
    assert lines[0] == lines[1]
    workload, seed, *digests = lines[0].split()
    assert (workload, seed) == ("train_small", "3")
    assert [len(d) for d in digests] == [64, 64]


def test_digest_rejects_an_unknown_workload():
    proc = subprocess.run(
        [sys.executable, "tools/digest.py", "--workload", "nope"], cwd=ROOT,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "nope" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("blocks", ["0", "-1", "x"])
def test_stepab_rejects_block_counts_below_one(blocks):
    proc = subprocess.run(
        [sys.executable, "tools/stepab.py", "--parent", "HEAD", "--blocks",
         blocks], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--blocks" in proc.stderr and "Traceback" not in proc.stderr


def _load_stepab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # stepab imports ab
    spec = importlib.util.spec_from_file_location("stepab",
                                                  ROOT / "tools/stepab.py")
    stepab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stepab)
    return stepab


def test_stepab_cases(monkeypatch):
    """Each case names its unit and times one block of its work."""
    import hrnnlm
    cases = _load_stepab(monkeypatch).cases(hrnnlm)
    assert {name: unit for name, (unit, _) in cases.items()} == {
        "step H16": "us/step", "step H64": "us/step", "train H16": "ms/call",
        "train H64": "ms/call", "fwd H16": "ms/call", "fwd H64": "ms/call",
        "bpc H64": "ms/call",
        "sample H64": "us/char", "beam16 H64": "ms/frame",
        "beam512 H64": "ms/frame", "take K16": "us/call",
        "take K512": "us/call"}
    assert cases["train H16"][1]() > 0.0
    assert cases["take K16"][1]() > 0.0
    assert cases["fwd H16"][1]() > 0.0
    assert cases["sample H64"][1]() > 0.0
    assert cases["beam16 H64"][1]() > 0.0


def test_stepab_summary(monkeypatch):
    stepab = _load_stepab(monkeypatch)
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [11.0, 11.0, 12.0, 12.0, 15.0]  # faster in blocks 2 and 4
    stats = stepab.summarize(parent, change)
    assert stats["median"] == {"parent": 12.0, "change": 12.0}
    assert stats["p10"] == pytest.approx({"parent": 10.4, "change": 11.0})
    assert stats["ratio"] == 1.0
    assert (stats["wins"], stats["blocks"]) == (2, 5)
    line = stepab.format_line("step H16", "us/step", stats)
    assert line.split() == ["step", "H16", "us/step", "12.00", "10.40",
                            "12.00", "11.00", "1.000", "2/5"]


def test_untested_lists_the_lines_a_run_never_reaches():
    proc = subprocess.run(
        [sys.executable, "tools/untested.py", "-q", "tests/test_blas.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("  cli.main: ") for line in lines)
    # The run reached blas.py, so only some of its lines are listed.
    missed, total = next(line for line in lines
                         if line.startswith("src/hrnnlm/blas.py: ")
                         ).split()[1:4:2]
    assert 0 < int(missed) < int(total)
