"""hrnnlm benchmark: training, scoring, sampling and LM-fused CTC decoding.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each round of a run sets up (vocabulary, tokens,
network), trains a fixed number of epochs with held-out scoring and a
checkpoint, evaluates the held-out lines, samples text, reloads the
checkpoint and decodes the workload's utterances with it.  Rounds repeat
until ``--seconds`` is spent.  Outputs are then checked against references
computed here (``checks``), outside the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  The exit code is 1 when a check fails and 2 when the
package cannot be found.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from inputs import (BEAM_WIDTH, BPTT, CLIP_NORM, INIT_SEED, MOMENTUM,
                    SAMPLE_LEN, WORKLOADS, build_inputs, text_counts)
from tracer import Tracer, per_layer, unit_of

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

PROBE_STEPS = 100
PROBE_NOMINAL_S = 0.002
PROBE_PERIOD_S = 0.05
# Each round repeats both set-up blocks this many times; setup_s is built
# from medians over every repetition, since one set-up takes only ~10 ms.
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_tok_per_s": "tok/s",
    "eval_tok_per_s": "tok/s",
    "sample_chars_per_s": "chars/s",
    "decode_frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import hrnnlm from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hrnnlm
    except ImportError as e:
        print(f"bench: cannot import hrnnlm from {src}: {e}", file=sys.stderr)
        sys.exit(2)
    if Path(hrnnlm.__file__).resolve().parent.parent != src:
        print(f"bench: hrnnlm was imported from {hrnnlm.__file__}, not from "
              f"{src}", file=sys.stderr)
        sys.exit(2)
    return hrnnlm


def thread_affinities() -> dict:
    """CPUs each thread of this process may run on, by thread id and name."""
    out = {}
    for tid in sorted(int(t) for t in os.listdir("/proc/self/task")):
        try:
            comm = Path(f"/proc/self/task/{tid}/comm").read_text().strip()
            out[f"{tid} {comm}"] = sorted(os.sched_getaffinity(tid))
        except OSError:  # the thread ended meanwhile
            pass
    return out


def environment(cpus: list) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": cpus,
        "main_thread_cpu": cpus[0],
    }


def probe_seconds() -> float:
    """Wall time of a fixed numpy and Python kernel of the benchmark's own.

    The kernel mimics the program's per-step work (small products,
    nonlinearities, masked selects and Python dispatch) on arrays too small
    for BLAS threading, and takes about 2 ms.
    """
    rng = np.random.default_rng(0)
    W = rng.standard_normal((64, 42)) * 0.2
    x = rng.standard_normal((2, 42))
    keep = np.array([True, False])[:, None]
    t0 = time.perf_counter()
    for _ in range(PROBE_STEPS):
        z = x @ W.T
        i = 1.0 / (1.0 + np.exp(-z[:, :16]))
        g = np.tanh(z[:, 16:32])
        m = np.where(keep, i * g, np.tanh(z[:, 32:48]))
        x = np.concatenate([m, np.tanh(z[:, 48:]), x[:, 32:]], axis=1)
    return time.perf_counter() - t0


class Timer:
    """Accumulates the wall seconds of timed calls per key, raw and scaled.

    This machine's speed drifts by up to 2x within seconds, with load from
    other tenants.  While a call runs, a SIGALRM every PROBE_PERIOD_S runs
    the probe kernel; the probe's own time is taken out of the call's.  The
    scaled time is the call's time x PROBE_NOMINAL_S over the mean probe
    time (probes just before and after the call included): the call's time
    on a machine that runs the probe in PROBE_NOMINAL_S.  Both are kept,
    summed per key, and each call's scaled time is kept in ``each``; the
    metrics use the scaled times.  ``sample=False`` leaves out the
    in-call probes (traced rounds, whose spans must not contain them).
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.raw: dict = {}
        self.scaled: dict = {}
        self.each: dict = {}

    @contextmanager
    def __call__(self, key: str):
        probes = [probe_seconds()]
        spent = 0.0
        busy = False

        def on_alarm(signum, frame):
            nonlocal spent, busy
            if busy:
                return
            busy = True
            t0 = time.perf_counter()
            probes.append(probe_seconds())
            spent += time.perf_counter() - t0
            busy = False

        if self.sample:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S,
                             PROBE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        probes.append(probe_seconds())
        dt -= spent
        scaled = dt * PROBE_NOMINAL_S / statistics.fmean(probes)
        self.raw[key] = self.raw.get(key, 0.0) + dt
        self.scaled[key] = self.scaled.get(key, 0.0) + scaled
        self.each.setdefault(key, []).append(scaled)


@dataclass
class Round:
    """Timings and outputs of one round."""

    timer: Timer = field(default_factory=Timer)
    ops: dict = field(default_factory=dict)      # op -> [attempted, failed]
    out: dict = field(default_factory=dict)      # kept for the last round
    fingerprint: object = None                   # set when the round ends


def run_round(hr, wl, inp, seed: int, work: Path, sample: bool) -> Round:
    """One pass of the pipeline; a failed call fails the rest of the round."""
    rnd = Round(timer=Timer(sample))
    rnd.ops = {"epoch": [wl.epochs, 0], "evaluate": [1, 0], "sample": [1, 0],
               "beam_search": [len(inp.utterances), 0]}
    ckpt = work / "checkpoint.bin"
    timed = rnd.timer
    phase = "setup"
    try:
        for _ in range(SETUP_REPEATS):
            with timed("setup"):
                vocab = hr.build_vocab(inp.train_text)
                train_seqs = hr.tokenize_lines(inp.train_text, vocab)
                heldout = hr.tokenize_lines(inp.heldout_text, vocab)
                spec = hr.NetworkSpec.for_vocab("hlstm_b", vocab,
                                                hidden_dim=wl.hidden)
                net = hr.build_network(spec, rng_seed=INIT_SEED)

        phase = "epoch"
        config = hr.TrainConfig(bptt_length=BPTT, batch_size=wl.batch,
                                max_epochs=wl.epochs, seed=INIT_SEED,
                                momentum=MOMENTUM, clip_norm=CLIP_NORM)
        with timed("train"):
            result = hr.train(spec, train_seqs, config, heldout=heldout,
                              vocab=vocab, checkpoint_path=ckpt,
                              metrics_path=work / "metrics.csv",
                              network=net)

        phase = "evaluate"
        with timed("evaluate"):
            report = hr.evaluate(result.network, heldout)

        phase = "sample"
        with timed("sample"):
            text = hr.sample(result.network, vocab, length=SAMPLE_LEN,
                             seed=seed)

        phase = "beam_search"
        for _ in range(SETUP_REPEATS):
            with timed("decode_setup"):
                lm, lm_vocab = hr.load_checkpoint(ckpt)
                posts = []
                for k, u in enumerate(inp.utterances):
                    path = work / f"utterance{k}.post"
                    hr.write_posteriors_text(
                        path, hr.PosteriorMatrix(u.labels, u.probs))
                    posts.append(hr.read_posteriors(path))

        decode = hr.DecodeConfig(beam_width=BEAM_WIDTH)
        with timed("beam_search"):
            decoded = [hr.beam_search(p, lm, lm_vocab, decode) for p in posts]
    except Exception:  # a failing call is counted, not fatal to the run
        traceback.print_exc()
        failing = False
        for op in rnd.ops:
            failing = failing or op == phase or phase == "setup"
            if failing:
                rnd.ops[op][1] = rnd.ops[op][0]
        return rnd
    rnd.out = dict(vocab=vocab, heldout=heldout, result=result,
                   report=report, text=text, lm=lm, lm_vocab=lm_vocab,
                   posts=posts, decoded=decoded, decode=decode)
    rnd.fingerprint = fingerprint(rnd.out)
    return rnd


def fingerprint(o: dict):
    """Every output value of a round, for comparing rounds exactly."""
    return (
        [(m.train_bpc, m.heldout_bpc) for m in o["result"].metrics],
        o["result"].best_heldout_bpc,
        (o["report"].bpc, o["report"].word_ppl),
        o["text"],
        [[(r.prefix, r.score, r.ctc_logp, r.lm_logp) for r in res]
         for res in o["decoded"]],
    )


def run_checks(hr, wl, inp, seed: int, rounds: list) -> list:
    """Every correctness check; returns the failure messages."""
    done = [r for r in rounds if r.fingerprint is not None]
    if not done:
        return ["no round completed"]
    o = done[-1].out
    result, report, vocab = o["result"], o["report"], o["vocab"]
    net = result.network
    fails = []
    for i, r in enumerate(done[1:], start=1):
        if r.fingerprint != done[0].fingerprint:
            fails.append(f"round {i} produced outputs that differ from "
                         "round 0")

    fails += checks.check_training(result.metrics, vocab.size)
    held_ids = [s.ids for s in o["heldout"]]
    n_chars, n_words, n_preds = text_counts(inp.heldout_text)
    bits, preds = checks.fold_bits(net, held_ids)
    if preds != n_preds:
        fails.append(f"{preds} held-out predictions, the text affords "
                     f"{n_preds}")
    ref = bits / preds
    fails += checks.check_bpc("train() held-out", result.metrics[-1]
                              .heldout_bpc, ref)
    fails += checks.check_report(report, ref, n_chars, n_words)
    bits, preds = checks.fold_bits(o["lm"], held_ids)
    fails += checks.check_bpc("reloaded checkpoint", bits / preds,
                              result.best_heldout_bpc)

    ids = np.asarray(held_ids[0][:32])
    fails += checks.gradient_spot_check(
        net, ids, checks.analytic_grads(net, ids), seed)

    if len(o["text"]) != SAMPLE_LEN:
        fails.append(f"sample() returned {len(o['text'])} characters, "
                     f"asked for {SAMPLE_LEN}")
    again = hr.sample(net, vocab, length=SAMPLE_LEN, seed=seed)
    if again != o["text"]:
        fails.append("sample() with the same seed gave different text")

    d = o["decode"]
    for k, (post, res) in enumerate(zip(o["posts"], o["decoded"])):
        fails += [f"utterance {k}: {m}" for m in checks.check_decode(
            res, post.probs, post.labels, o["lm"], o["lm_vocab"],
            d.beam_width, d.lm_weight, d.insertion_bonus)]
    return fails


def end_to_end(wl, inp, rounds: list, peak_rss_mb: float) -> dict:
    """Throughputs are the work of all rounds over their summed scaled
    seconds; ``setup_s`` is the sum of the two set-up blocks' medians over
    every repetition of every round."""
    finished = [r.timer for r in rounds if r.fingerprint is not None]
    if not finished:
        return {}
    done = [t.scaled for t in finished]
    work = {
        "train_tok_per_s": ("train",
                            wl.epochs * text_counts(inp.train_text)[2]),
        "eval_tok_per_s": ("evaluate", text_counts(inp.heldout_text)[2]),
        "sample_chars_per_s": ("sample", SAMPLE_LEN),
        "decode_frames_per_s": ("beam_search", sum(
            u.probs.shape[0] for u in inp.utterances)),
    }
    values = {"setup_s": sum(
        statistics.median(x for t in finished for x in t.each[key])
        for key in ("setup", "decode_setup"))}
    for metric, (key, per_round) in work.items():
        values[metric] = per_round * len(done) / sum(s[key] for s in done)
    values["peak_rss_mb"] = peak_rss_mb
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    hr = import_package()
    # The probe and the timed calls must see the same CPU, so the main
    # thread is pinned to one.  Threads that exist by now (numpy's BLAS
    # pool) keep the machine's default placement, but a thread the program
    # starts later inherits the pin; the affinity of every thread at the
    # end of the run is recorded to show it.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    wl = WORKLOADS[args.workload]
    inp = build_inputs(wl, args.seed)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    tracer = Tracer(hr) if args.trace else None

    rounds: list[Round] = []
    started = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            gc.collect()
            if traced:
                tracer.current_round = len(rounds)
                tracer.install()
            t0 = time.perf_counter()
            try:
                rounds.append(run_round(hr, wl, inp, args.seed, work,
                                        sample=not traced))
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            if rounds[-1].out:  # only the last outputs are checked in full
                for r in rounds[:-1]:
                    r.out = {}
            elapsed = time.perf_counter() - started
            need = 2 if tracer else 1
            if len(rounds) >= need and elapsed + wall > args.seconds:
                break
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        fails = run_checks(hr, wl, inp, args.seed, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops: dict = {}
    for r in rounds:
        for op, (a, f) in r.ops.items():
            ops.setdefault(op, [0, 0])
            ops[op][0] += a
            ops[op][1] += f
    attempted = sum(a for a, _ in ops.values())
    failed = sum(f for _, f in ops.values())

    if tracer:
        spans = tracer.arrays()
        frames = sum(u.probs.shape[0] for u in inp.utterances)
        layer = per_layer(spans, frames, BEAM_WIDTH, SETUP_REPEATS)
        # Timed seconds of traced (odd) over untraced (even) rounds.
        spent = [sum(r.timer.scaled.values()) for r in rounds]
        layer["trace.overhead_share"] = (statistics.median(spent[1::2])
                                         / statistics.median(spent[0::2])
                                         - 1.0)
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(layer.items())}
        tracer.save(RESULTS / f"trace-{wl.name}-seed{args.seed}.npz")
    else:
        metrics = end_to_end(wl, inp, rounds, peak_rss_mb)

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(cpus),
        "thread_affinity_at_end": thread_affinities(),
        "rounds": len(rounds),
        "round_seconds": [r.timer.raw for r in rounds],
        "round_scaled_seconds": [r.timer.scaled for r in rounds],
        "operations": {op: {"attempted": a, "failed": f}
                       for op, (a, f) in ops.items()},
        "check_failures": fails, "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"# python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas'].get('name')} {env['blas'].get('version')}, "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, "
          f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']}, "
          f"{env['cpu_count']} CPUs, {len(env['cpus_usable'])} usable, "
          f"main thread on CPU {cpus[0]}, "
          f"{len(record['thread_affinity_at_end'])} threads at the end")
    print(f"# {wl.name}: {len(rounds)} rounds; " + ", ".join(
        f"{op} {a} attempted {f} failed" for op, (a, f) in ops.items()))
    for msg in fails:
        print(f"# CHECK FAILED: {msg}")
    for k, m in metrics.items():
        print(f"# {k:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
