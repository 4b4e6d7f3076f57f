"""Digests of a checkout's benchmark outputs, to compare them bit for bit.

    python3 tools/digest.py [--checkout DIR] [--workload NAME ...]
                            [--seed N ...]

For each workload (``--workload``, repeatable; every workload of the
benchmark when omitted) and each seed (``--seed``, repeatable; 1 when
omitted), one round of the benchmark's pipeline runs through
``bench/run.py``'s own ``run_round`` in a temporary work directory, and one
line is printed:

    <workload> <seed> <sha256 of repr(fingerprint(round))> <sha256 of flat>

``fingerprint`` is ``bench/run.py``'s: every output value of the round
(training metrics, evaluation, the sample, the decoder's n-best lists).
``flat`` is the trained network's parameter buffer.  ``bench/`` and
``src/`` are imported from ``--checkout`` (this checkout when omitted), and
nothing is written there.  To show that a change keeps every output bit for
bit, diff the lines of the parent and of the change:

    git archive REV | tar -x -C DIR
    python3 tools/digest.py --checkout DIR --seed 1 --seed 2 > parent.txt
    python3 tools/digest.py --seed 1 --seed 2 > change.txt
    diff parent.txt change.txt

A round that fails prints its traceback and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_bench(checkout: Path):
    """``bench/run.py`` of the checkout, imported with its sibling modules,
    and the ``hrnnlm`` package of the checkout's ``src/``."""
    bench = checkout / "bench"
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(bench))
    spec = importlib.util.spec_from_file_location("run", bench / "run.py")
    run = sys.modules["run"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run, run.import_package()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(run, hr, workload: str, seed: int) -> str:
    """The line of one round of ``workload`` at ``seed``."""
    wl = run.WORKLOADS[workload]
    inp = run.build_inputs(wl, seed)
    with tempfile.TemporaryDirectory() as work:
        rnd = run.run_round(hr, wl, inp, seed, Path(work), sample=False)
    if rnd.fingerprint is None:
        raise SystemExit(f"digest: the {workload} round of seed {seed} "
                         "failed")
    flat = np.ascontiguousarray(rnd.out["result"].network.flat, dtype="<f8")
    return (f"{workload} {seed} {sha256(repr(rnd.fingerprint).encode())} "
            f"{sha256(flat.tobytes())}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, action="append")
    args = ap.parse_args(argv)
    if not (args.checkout / "bench" / "run.py").is_file():
        ap.error(f"--checkout: no bench/run.py under {args.checkout}")
    run, hr = load_bench(args.checkout.resolve())
    workloads = args.workload or sorted(run.WORKLOADS)
    unknown = sorted(set(workloads) - set(run.WORKLOADS))
    if unknown:
        ap.error(f"--workload: unknown {', '.join(unknown)}; expected one of "
                 f"{', '.join(sorted(run.WORKLOADS))}")
    for workload in workloads:
        for seed in args.seed or [1]:
            print(digest(run, hr, workload, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
