"""Tests of the benchmark's own checkers: each reference agrees with a
slower or more direct computation, and each check rejects a deliberately
corrupted output.  Run with ``python3 -m pytest bench/test_checks.py``."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hrnnlm as hr  # noqa: E402

import checks  # noqa: E402
from inputs import OVERFIT_WORDS, make_utterance, text_counts  # noqa: E402


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("labels", [[], [0], [1, 0], [0, 0], [1, 0, 1]])
def test_ctc_forward_matches_enumeration(seed, labels):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(3), size=5)   # columns 0, 1 and blank 2
    assert checks.ctc_log_forward(probs, 2, labels) == pytest.approx(
        checks.ctc_brute_force(probs, 2, labels), abs=1e-12)


@pytest.fixture(scope="module")
def tiny():
    text = "anchorage barometer\ncalibrate dangerous\n"
    vocab = hr.build_vocab(text)
    spec = hr.NetworkSpec.for_vocab("hlstm_b", vocab, hidden_dim=4)
    net = hr.build_network(spec, rng_seed=3)
    return vocab, net, text


@pytest.fixture(scope="module")
def decoded(tiny):
    vocab, net, _ = tiny
    rng = np.random.default_rng(1)
    chars = sorted({c for w in OVERFIT_WORDS[:4] for c in w})
    utt = make_utterance(rng, ["cab", "bag"], 1, chars)
    post = hr.PosteriorMatrix(utt.labels, utt.probs)
    config = hr.DecodeConfig(beam_width=4)
    return hr.beam_search(post, net, vocab, config), post, config


def _check(results, post, config, tiny):
    vocab, net, _ = tiny
    return checks.check_decode(results, post.probs, post.labels, net, vocab,
                               config.beam_width, config.lm_weight,
                               config.insertion_bonus)


def test_decode_check_accepts_program_output(decoded, tiny):
    results, post, config = decoded
    assert len(results) == 4
    assert _check(results, post, config, tiny) == []


@pytest.mark.parametrize("corrupt", [
    lambda rs: [dataclasses.replace(rs[0], score=rs[0].score + 1e-6)]
    + rs[1:],
    lambda rs: [rs[1], rs[0]] + rs[2:],
    lambda rs: [dataclasses.replace(rs[0], ctc_logp=0.0)] + rs[1:],
    lambda rs: [dataclasses.replace(rs[0], lm_logp=rs[0].lm_logp - 1e-6)]
    + rs[1:],
], ids=["score", "ranks", "ctc", "lm"])
def test_decode_check_rejects_corruption(decoded, tiny, corrupt):
    results, post, config = decoded
    assert _check(corrupt(list(results)), post, config, tiny)


@pytest.fixture(scope="module")
def gradient(tiny):
    vocab, net, text = tiny
    ids = hr.tokenize(text, vocab).ids[:20]
    return net, ids, checks.analytic_grads(net, ids)


def test_gradient_check_accepts_and_rejects_scaling(gradient):
    net, ids, grads = gradient
    assert checks.gradient_spot_check(net, ids, grads, seed=0) == []
    altered = {k: g * (1.0 + 1e-3) for k, g in grads.items()}
    assert checks.gradient_spot_check(net, ids, altered, seed=0)
    # the probes leave the network exactly as it was
    assert checks.analytic_grads(net, ids)["softmax.W"].tobytes() == \
        grads["softmax.W"].tobytes()


@pytest.mark.parametrize("block", ["softmax.b", "char2.W_mh", "word2.b_m"])
def test_gradient_check_rejects_a_zeroed_block(gradient, block):
    net, ids, grads = gradient
    assert np.abs(grads[block]).max() > 1e-3
    altered = dict(grads, **{block: np.zeros_like(grads[block])})
    assert checks.gradient_spot_check(net, ids, altered, seed=0)


def test_bpc_checks_reject_wrong_values(tiny):
    vocab, net, text = tiny
    seqs = hr.tokenize_lines(text, vocab)
    bits, preds = checks.fold_bits(net, [s.ids for s in seqs])
    ref = bits / preds
    n_chars, n_words, n_preds = text_counts(text)
    assert preds == n_preds
    report = hr.evaluate(net, seqs)
    assert checks.check_report(report, ref, n_chars, n_words) == []
    assert checks.check_bpc("x", ref + 1e-7, ref)
    assert checks.check_report(dataclasses.replace(report, bpc=ref + 1e-7),
                               ref, n_chars, n_words)
    assert checks.check_report(
        dataclasses.replace(report, word_ppl=report.word_ppl * 1.001),
        ref, n_chars, n_words)
    assert checks.check_report(report, ref, n_chars, n_words + 1)


def test_training_check_rejects_bad_curves():
    E = hr.training.EpochMetrics
    good = [E(1, 3.0, None, 0.0), E(2, 2.0, None, 0.0)]
    assert checks.check_training(good, vocab_size=12) == []
    assert checks.check_training(good[:1], vocab_size=12)
    assert checks.check_training(good[::-1], vocab_size=12)
    assert checks.check_training([good[0], E(2, math.nan, None, 0.0)], 12)
    assert checks.check_training(good, vocab_size=4)
