"""one_blas_thread: OpenBLAS on one thread inside the block, the previous
count restored after it, and every public entry point that runs the
recurrence runs inside it."""

import threading

import numpy as np
import pytest

from hrnnlm import blas
from hrnnlm.corpus import build_vocab, tokenize_lines
from hrnnlm.decoding import (BLANK_LABEL, DecodeConfig, PosteriorMatrix,
                             beam_search)
from hrnnlm.evaluation import evaluate, sample
from hrnnlm.hierarchy import NetworkSpec, build_network
from hrnnlm.training import TrainConfig, train


def _threads():
    """OpenBLAS's thread count, or None when numpy's BLAS is not found."""
    return None if blas._CONTROLS is None else blas._CONTROLS[0]()


def test_one_thread_inside_and_restored_after():
    before = _threads()
    with blas.one_blas_thread():
        inside = _threads()
    assert _threads() == before
    if before is not None:
        assert inside == 1


def test_restored_after_an_error():
    before = _threads()
    with pytest.raises(RuntimeError):
        with blas.one_blas_thread():
            raise RuntimeError("inside")
    assert _threads() == before


def _run_beam_search(net, vocab):
    probs = np.array([[0.2, 0.5, 0.3]] * 4)
    beam_search(PosteriorMatrix([BLANK_LABEL, "a", "b"], probs), net, vocab,
                DecodeConfig(beam_width=4))


def _run_train(net, vocab):
    seqs = tokenize_lines("ab ba\nba ab\n", vocab)
    train(net.spec, seqs, TrainConfig(bptt_length=4, batch_size=2,
                                      max_epochs=1),
          heldout=seqs[:1], vocab=vocab, record_timing=False, network=net)


@pytest.mark.parametrize("run", [
    _run_beam_search,
    _run_train,
    lambda net, vocab: evaluate(net, tokenize_lines("ab ba\n", vocab)),
    lambda net, vocab: sample(net, vocab, length=5, seed=1),
], ids=["beam_search", "train", "evaluate", "sample"])
def test_the_recurrence_runs_on_one_thread(run):
    vocab = build_vocab("ab ba\n")
    net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab,
                                              hidden_dim=8), rng_seed=1)
    seen = []
    for name in ("forward", "step"):
        def recording(*args, _call=getattr(net, name), **kwargs):
            seen.append(_threads())
            return _call(*args, **kwargs)
        setattr(net, name, recording)
    before = _threads()
    run(net, vocab)
    assert seen, "the network never ran"
    assert _threads() == before
    if before is not None:
        assert set(seen) == {1}


@pytest.mark.skipif(blas._CONTROLS is None, reason="no OpenBLAS found")
def test_overlapping_blocks_of_two_threads_restore_the_count():
    """Thread A enters, B enters, A leaves, B leaves: B's block still runs
    on one thread after A's has left, and the count ends where it
    started."""
    get, set_ = blas._CONTROLS
    original = get()
    set_(2)  # a count that one thread's block changes
    a_in, b_in, a_out = (threading.Event() for _ in range(3))
    seen = {}

    def a():
        with blas.one_blas_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with blas.one_blas_thread():
            b_in.set()
            a_out.wait(10)
            seen["b after a left"] = get()

    try:
        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert seen["b after a left"] == 1
        assert get() == 2
    finally:
        set_(original)
