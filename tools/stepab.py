"""In-process A/B of the streaming step: a parent revision against this
checkout.

    python3 tools/stepab.py --parent REV [--blocks N]

REV's ``src/hrnnlm`` is unpacked with ``git archive`` into a temporary
directory as a second package, ``hrnnlm_parent``, and imported next to
this checkout's ``src/hrnnlm``.  Each side builds the same untrained
hlstm_b networks, H 16 and 64, on the vocabulary of a short text with word
and sentence boundaries.  Then, with OpenBLAS on one thread, the two sides
run ``--blocks`` timed blocks of each case in turn, the parent first in
even blocks and the change first in odd ones:

* ``step H16``, ``step H64``: a one-row ``Network.step`` per token of the
  text, state carried on, in µs per step;
* ``train H16``, ``train H64``: one taped pass over the text's lines in
  windows of 64, 2 streams at H 16 and 1 at H 64 (the batch sizes of the
  ``train_small`` and ``decode`` workloads), with ``cross_entropy`` and
  ``Network.backward`` per window, in ms per pass;
* ``fwd H16``, ``fwd H64``: the same taped pass without ``cross_entropy``
  and ``backward``, in ms per pass: the forward's share of ``train``;
* ``bpc H64``: one ``bpc`` call over the text's lines, in ms;
* ``sample H64``: one ``evaluation.sample`` call drawing 500 characters,
  in µs per character;
* ``beam16 H64``, ``beam512 H64``: one ``decoding.beam_search`` call at
  beam 16 or 512 over a fixed 8-word utterance of the text's words, whose
  posteriors ``bench/inputs.py`` makes as it makes the ``decode``
  workload's, in ms per frame;
* ``take K16``, ``take K512``: the state work of a beam frame, without
  the step: one ``NetworkState.take`` of K rows (seeded, repeats
  included) of an H 64 state, and the write-back of a K/2-row state into
  every other row of the result, as the side's decoder writes stepped
  rows back, in µs per call;
* ``ingest``: ``build_vocab`` and ``tokenize_lines`` over a fixed corpus
  of about 1 MB, 6,000 lines of the overfit words that ``bench/inputs.py``'s
  ``word_lines`` draws with seed 0, in ms per call.

One line per case is printed: each side's median and 10th percentile, the
ratio of the medians (change / parent; above 1 is slower) and the blocks
the change won (took less time).  Both sides run in one process on one
CPU, so a difference of a few percent in a per-step cost shows here long
before it shows in ``bench/run.py``'s end-to-end rates.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

from ab import ROOT, git, pair_count

TEXT = ("the quick brown fox jumps over the lazy dog\n"
        "a clocked word module steps only on word boundaries\n"
        "pack my box with five dozen liquor jugs\n") * 3
SIZES = (16, 64)
SAMPLE_CHARS = 500
BEAMS = (16, 512)
TAKES = {16: 400, 512: 20}  # rows taken: calls per timed block
TRAIN_BATCH = {16: 2, 64: 1}
TRAIN_WINDOW = 64
INGEST_LINES = 6000


@functools.cache
def bench_inputs():
    """The benchmark's input generators, ``bench/inputs.py`` (no bytecode
    is written there)."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(inputs)
    finally:
        sys.dont_write_bytecode = write
    return inputs


def utterance():
    """(labels, probs) of a fixed 8-word utterance of TEXT's words, from
    the benchmark's posterior generator."""
    chars = sorted(set(TEXT) - set(" \n"))
    utt = bench_inputs().make_utterance(np.random.default_rng(0),
                                        sorted(set(TEXT.split())), 8, chars)
    return utt.labels, utt.probs


@functools.cache
def ingest_text() -> str:
    """The ``ingest`` case's corpus: INGEST_LINES lines, about 1 MB."""
    inputs = bench_inputs()
    return inputs.word_lines(np.random.default_rng(0), inputs.OVERFIT_WORDS,
                             inputs.uneven_lengths(INGEST_LINES, 4, 30))


def import_parent(rev: str, into: str):
    """REV's ``src/hrnnlm``, unpacked into ``into`` and imported as
    ``hrnnlm_parent``."""
    archive = git("archive", "--format=tar", rev, "src/hrnnlm", text=False)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    Path(into, "src", "hrnnlm").rename(Path(into, "hrnnlm_parent"))
    sys.path.insert(0, into)
    import hrnnlm_parent
    return hrnnlm_parent


def cases(hr) -> dict:
    """Name -> (unit, timed function) of one side, built with package hr."""
    vocab = hr.corpus.build_vocab(TEXT)
    lines = hr.corpus.tokenize_lines(TEXT, vocab)
    ids = [int(i) for seq in lines for i in seq.ids]
    out = {}
    for H in SIZES:
        net = hr.hierarchy.build_network(
            hr.hierarchy.NetworkSpec.for_vocab("hlstm_b", vocab, H))

        def steps(net=net):
            state = net.init_state(1)
            t0 = time.perf_counter()
            for tok in ids:
                _, state = net.step(state, tok)
            return (time.perf_counter() - t0) / len(ids) * 1e6
        out[f"step H{H}"] = ("us/step", steps)

        def train(net=net, batch=TRAIN_BATCH[H]):
            tr = hr.training
            t0 = time.perf_counter()
            for b, probs, tape in tr._forward_windows(
                    net, lines, batch, TRAIN_WINDOW, collect_tape=True):
                _, n, d_logits = tr.cross_entropy(probs, b.targets, b.active)
                net.backward(tape, d_logits / max(n, 1))
            return (time.perf_counter() - t0) * 1e3
        out[f"train H{H}"] = ("ms/call", train)

        def fwd(net=net, batch=TRAIN_BATCH[H]):
            t0 = time.perf_counter()
            for _ in hr.training._forward_windows(
                    net, lines, batch, TRAIN_WINDOW, collect_tape=True):
                pass
            return (time.perf_counter() - t0) * 1e3
        out[f"fwd H{H}"] = ("ms/call", fwd)

    def score(net=net):
        t0 = time.perf_counter()
        hr.training.bpc(net, lines)
        return (time.perf_counter() - t0) * 1e3
    out[f"bpc H{SIZES[-1]}"] = ("ms/call", score)

    def draw(net=net):
        t0 = time.perf_counter()
        hr.evaluation.sample(net, vocab, SAMPLE_CHARS, seed=0)
        return (time.perf_counter() - t0) / SAMPLE_CHARS * 1e6
    out[f"sample H{SIZES[-1]}"] = ("us/char", draw)

    post = hr.decoding.PosteriorMatrix(*utterance())
    for beam in BEAMS:
        def decode(net=net, config=hr.decoding.DecodeConfig(beam_width=beam)):
            t0 = time.perf_counter()
            hr.decoding.beam_search(post, net, vocab, config)
            return (time.perf_counter() - t0) / post.frames * 1e3
        out[f"beam{beam} H{SIZES[-1]}"] = ("ms/frame", decode)

    for K, calls in TAKES.items():
        state = net.init_state(K)
        rng = np.random.default_rng(K)
        for cell in state.layers.values():
            cell.m[...] = rng.normal(size=cell.m.shape)
            cell.h[...] = rng.normal(size=cell.h.shape)
        rows, half = rng.integers(0, K, K), np.arange(0, K, 2)
        stepped = state.take(half)

        def take(state=state, rows=rows, half=half, stepped=stepped,
                 calls=calls):
            t0 = time.perf_counter()
            for _ in range(calls):
                write_back(state.take(rows), half, stepped)
            return (time.perf_counter() - t0) / calls * 1e6
        out[f"take K{K}"] = ("us/call", take)

    def ingest(text=ingest_text()):
        t0 = time.perf_counter()
        hr.corpus.tokenize_lines(text, hr.corpus.build_vocab(text))
        return (time.perf_counter() - t0) * 1e3
    out["ingest"] = ("ms/call", ingest)
    return out


def write_back(state, rows, stepped) -> None:
    """Write the rows of ``stepped`` into ``rows`` of ``state`` as that
    side's ``beam_search`` does: one buffer, or a layer at a time."""
    if hasattr(state, "buf"):
        state.buf[rows] = stepped.buf
        return
    for name, cell in stepped.layers.items():
        state.layers[name].m[rows] = cell.m
        state.layers[name].h[rows] = cell.h


def summarize(parent: list, change: list) -> dict:
    """Per side the median and 10th percentile of its block times; the
    ratio of the medians, change / parent; and the blocks (pairs) in which
    the change took less time than the parent."""
    p10 = {}
    median = {}
    for side, values in (("parent", parent), ("change", change)):
        p10[side], median[side] = np.percentile(values, [10, 50]).tolist()
    return {"median": median, "p10": p10,
            "ratio": median["change"] / median["parent"],
            "wins": sum(c < p for p, c in zip(parent, change)),
            "blocks": len(parent)}


def format_line(name: str, unit: str, stats: dict) -> str:
    m, p = stats["median"], stats["p10"]
    return (f"{name:<10} {unit:<8} {m['parent']:>9.2f} {p['parent']:>9.2f} "
            f"{m['change']:>9.2f} {p['change']:>9.2f} "
            f"{stats['ratio']:>6.3f} {stats['wins']:>3}/{stats['blocks']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision of the parent")
    ap.add_argument("--blocks", type=pair_count, default=30,
                    help="timed blocks per side and case (default 30)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hrnnlm
    from hrnnlm.blas import one_blas_thread

    with tempfile.TemporaryDirectory(prefix="stepab-") as tmp:
        parent = import_parent(args.parent, tmp)
        sides = {"parent": cases(parent), "change": cases(hrnnlm)}
    times = {name: {"parent": [], "change": []} for name in sides["change"]}
    order = ("parent", "change")
    with one_blas_thread():
        for name in times:  # one untimed warm-up block per side
            for side in order:
                sides[side][name][1]()
        for b in range(args.blocks):
            for name in times:
                for side in order[::1 if b % 2 == 0 else -1]:
                    times[name][side].append(sides[side][name][1]())
    print(f"{'case':<10} {'unit':<8} {'parent':>9} {'p10':>9} {'change':>9} "
          f"{'p10':>9} {'ratio':>6} wins")
    for name, t in times.items():
        unit = sides["change"][name][0]
        print(format_line(name, unit, summarize(t["parent"], t["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
