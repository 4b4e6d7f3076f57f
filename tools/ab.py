"""A/B benchmark: alternating parent/change pairs of ``bench/run.py``.

    python3 tools/ab.py --parent REV --pr N [--pairs 10] [--seed 9000]
                        [--workload NAME ...]

The change is this checkout's working tree.  The parent is the committed
files of REV, unpacked with ``git archive`` into a temporary directory and
removed at the end: a plain copy, like the checkout the benchmark itself
runs in, that leaves the repository's ``.git`` untouched (a ``git
worktree`` would register itself there and leave a stale entry behind if
the run were cut).  Every workload in ``BENCHMARK.json`` runs untraced for
the benchmark's ``run_seconds``; ``--workload NAME``, which may be
repeated, pairs only the named ones, say while iterating on one.  Pair i
runs both sides with seed ``--seed`` + i, the parent first on even pairs
and the change first on odd ones, so that a drift in the machine's speed
does not favour one side.
Each run's last line of output is its JSON result.

``BENCH_<pr>.json`` is written at the root of the checkout: per workload
and metric, the median and quartiles of each side, the median ratio
change / parent, and the pairs the change won (better in the metric's
direction, from ``BENCHMARK.json``); whether every run was correct and how
many operations failed; and the environment: Python, numpy, the BLAS
build and the thread variables.

Then one line per workload and end-to-end metric is printed: both
medians, their ratio, the pairs won, the parent's interquartile range as a
share of its median, and a verdict (``verdict``): ``gain``, ``worse`` or
``within``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced ``bench/run.py`` run in ``checkout``: its JSON result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"ab: {' '.join(cmd)} in {checkout} printed no "
                         f"result (exit {proc.returncode}):\n{proc.stderr}")


def quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list, better: dict) -> dict:
    """Per-metric statistics of a workload's pairs of runs."""
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        sign = -1.0 if better.get(name) == "lower" else 1.0
        p, c = quartiles(parent), quartiles(change)
        out[name] = {
            "better": better.get(name),
            "parent": p,
            "change": c,
            "median_ratio": (c["median"] / p["median"] if p["median"]
                             else None),
            "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "pairs": len(runs),
            "parent_runs": parent,
            "change_runs": change,
        }
    return out


def verdict(stats: dict, bound: float) -> str:
    """``gain`` when the change won at least 9 in 10 pairs and its median
    beats the parent's by more than the parent's q3 - q1; ``worse`` when
    its median is worse than the parent's by more than ``bound``, a share
    of the parent's median; else ``within``.  ``stats`` is one metric's
    entry of ``summarize``."""
    sign = -1.0 if stats["better"] == "lower" else 1.0
    p, c = stats["parent"], stats["change"]
    if (10 * stats["wins"] >= 9 * stats["pairs"]
            and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]):
        return "gain"
    if sign * (p["median"] - c["median"]) > bound * abs(p["median"]):
        return "worse"
    return "within"


def verdict_table(results: dict, bounds: dict) -> list:
    """The printed lines: per workload, one per end-to-end metric."""
    lines = [f"{'workload':<12} {'metric':<20} {'parent':>10} {'change':>10} "
             f"{'ratio':>6} {'wins':>5} {'IQR':>6}  verdict"]
    for wl, res in results.items():
        for name, bound in bounds.items():
            stats = res["metrics"].get(name)
            if stats is None:
                continue
            p = stats["parent"]
            ratio = stats["median_ratio"]
            iqr = (p["q3"] - p["q1"]) / p["median"] if p["median"] else 0.0
            lines.append(
                f"{wl:<12} {name:<20} {p['median']:>10.4g} "
                f"{stats['change']['median']:>10.4g} "
                f"{'-' if ratio is None else format(ratio, '.3f'):>6} "
                f"{stats['wins']:>2}/{stats['pairs']:<2} {iqr:>6.1%}  "
                f"{verdict(stats, bound)}")
    return lines


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        **{v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def git(*args: str, text: bool = True):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=text).stdout


def pair_count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision of the parent")
    ap.add_argument("--pr", required=True, help="writes BENCH_<pr>.json")
    ap.add_argument("--pairs", type=pair_count, default=10)
    ap.add_argument("--seed", type=int, default=9000)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workload", action="append", choices=names,
                    help="pair only this workload (repeatable; default: "
                    "every workload in BENCHMARK.json)")
    args = ap.parse_args(argv)
    workloads = [w for w in names if w in (args.workload or names)]

    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"]

    parent_rev = git("rev-parse", args.parent).strip()
    results = {}
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as parent_dir:
        archive = git("archive", "--format=tar", parent_rev, text=False)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_dir, filter="data")
        for wl in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                pair = {"seed": seed}
                sides = [("parent", parent_dir), ("change", ROOT)]
                for name, checkout in sides[::1 if i % 2 == 0 else -1]:
                    pair[name] = run_bench(checkout, wl, seed, seconds)
                runs.append(pair)
                print(f"ab: {wl} pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
            every = [r[s] for r in runs for s in ("parent", "change")]
            results[wl] = {
                "correct": all(r["correct"] for r in every),
                "failed": sum(r["failed"] for r in every),
                "seeds": [r["seed"] for r in runs],
                "metrics": summarize(runs, better),
            }

    record = {
        "parent": parent_rev,
        "change": git("rev-parse", "HEAD").strip() + (
            " + working tree" if git("status", "--porcelain",
                                     "--untracked-files=no").strip()
            else ""),
        "command": (f"python3 bench/run.py --workload W --seed N "
                    f"--seconds {seconds} --trace 0"),
        "pairs": args.pairs,
        "environment": environment(),
        "workloads": results,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"ab: wrote {out}", file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("\n".join(verdict_table(results, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
