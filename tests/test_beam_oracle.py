"""beam_search against an eager reference decoder under real pruning, and
the bound on the LM work it does.

The enumeration oracle in test_decode.py needs a beam wide enough to keep
every prefix.  Here the reference is the straightforward decoder that
steps the LM for every candidate extension as it is created, so it can be
compared on beams that prune: same candidates, same scores, same ranks.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hrnnlm.corpus import build_vocab, detokenize
from hrnnlm.decoding import (BLANK_LABEL, DecodeConfig, PosteriorMatrix,
                             beam_search, map_labels)
from hrnnlm.errors import DataError
from hrnnlm.hierarchy import VARIANTS, NetworkSpec, build_network

NEG_INF = float("-inf")


@dataclass
class EagerHypothesis:
    prefix: tuple
    p_blank: float
    p_nonblank: float
    lm_logp: float
    lm_state: object
    lm_logprobs: np.ndarray

    def ctc_logp(self):
        return float(np.logaddexp(self.p_blank, self.p_nonblank))

    def score(self, config):
        return (self.ctc_logp() + config.lm_weight * self.lm_logp
                + config.insertion_bonus * len(self.prefix))


def eager_beam_search(post, net, vocab, config, stats=None):
    """Prefix beam search that steps the LM once per candidate extension,
    each from its parent's own state; returns (prefix, text, score,
    ctc_logp, lm_logp) per rank.  ``stats``, if given, counts the frames
    with more candidates than the beam keeps ("pruned") and the extensions
    that reach a prefix already in the beam ("merged")."""
    stats = {} if stats is None else stats
    stats.setdefault("pruned", 0)
    stats.setdefault("merged", 0)
    label_ids = map_labels(post.labels, vocab)
    blank_col = post.blank_index
    probs, state = net.step(net.init_state(1), vocab.word_boundary_id)
    with np.errstate(divide="ignore"):
        beam = [EagerHypothesis((), 0.0, NEG_INF, 0.0, state, np.log(probs))]

    for t in range(post.frames):
        row = post.probs[t]
        log_blank = math.log(row[blank_col]) if row[blank_col] > 0 else NEG_INF
        nxt = {}
        in_beam = {hyp.prefix for hyp in beam}

        def entry(prefix, parent, last_id):
            hyp = nxt.get(prefix)
            if hyp is None:
                if last_id is None:  # same prefix as parent
                    hyp = EagerHypothesis(prefix, NEG_INF, NEG_INF,
                                          parent.lm_logp, parent.lm_state,
                                          parent.lm_logprobs)
                else:
                    lm_logp = parent.lm_logp + float(
                        parent.lm_logprobs[last_id])
                    lm_probs, new_state = net.step(parent.lm_state, last_id)
                    with np.errstate(divide="ignore"):
                        hyp = EagerHypothesis(prefix, NEG_INF, NEG_INF,
                                              lm_logp, new_state,
                                              np.log(lm_probs))
                nxt[prefix] = hyp
            return hyp

        for hyp in beam:
            total = np.logaddexp(hyp.p_blank, hyp.p_nonblank)
            if log_blank != NEG_INF:
                keep = entry(hyp.prefix, hyp, None)
                keep.p_blank = np.logaddexp(keep.p_blank, total + log_blank)
            if hyp.prefix:
                col = label_ids.index(hyp.prefix[-1])
                if row[col] > 0.0 and row[col] >= config.width_prune:
                    keep = entry(hyp.prefix, hyp, None)
                    keep.p_nonblank = np.logaddexp(
                        keep.p_nonblank, hyp.p_nonblank + math.log(row[col]))
            if (config.depth_prune is not None
                    and len(hyp.prefix) >= config.depth_prune):
                continue
            for col, label_id in enumerate(label_ids):
                if label_id is None:
                    continue
                p = row[col]
                if p <= 0.0 or p < config.width_prune:
                    continue
                mass = (hyp.p_blank if hyp.prefix and label_id == hyp.prefix[-1]
                        else total)
                if mass == NEG_INF:
                    continue
                child = hyp.prefix + (label_id,)
                stats["merged"] += child in in_beam
                ext = entry(child, hyp, label_id)
                ext.p_nonblank = np.logaddexp(ext.p_nonblank,
                                              mass + math.log(p))

        stats["pruned"] += len(nxt) > config.beam_width
        beam = sorted(nxt.values(),
                      key=lambda h: (-h.score(config), h.prefix))
        beam = beam[:config.beam_width]
        if not beam:
            raise DataError("beam emptied; posteriors are degenerate")
    return [(h.prefix, detokenize(h.prefix, vocab).rstrip("\n"),
             h.score(config), h.ctc_logp(), h.lm_logp) for h in beam]


VOCAB = build_vocab("abcd efg")
REGULAR = [s for s in VOCAB.symbols if s not in ("<w>", "<s>")]


def make_fixture(seed, variant):
    """Random posteriors over 2-5 letters (sometimes <w> and <s> too), 3-7
    frames, and a randomly initialized network."""
    rng = np.random.default_rng(seed)
    n_labels = int(rng.integers(2, 6))
    labels = list(rng.choice(REGULAR, size=n_labels, replace=False))
    for boundary in ("<w>", "<s>"):
        if rng.random() < 0.5:
            labels.append(boundary)
    labels.append(BLANK_LABEL)
    probs = rng.dirichlet(np.ones(len(labels)), size=int(rng.integers(3, 8)))
    net = build_network(NetworkSpec.for_vocab(variant, VOCAB, 4),
                        rng_seed=int(rng.integers(1 << 30)))
    return PosteriorMatrix(labels=labels, probs=probs), net


def assert_same_ranks(got, want):
    assert [r.prefix for r in got] == [w[0] for w in want]
    assert [r.text for r in got] == [w[1] for w in want]
    for r, (_, _, score, ctc, lm) in zip(got, want):
        assert abs(r.score - score) <= 1e-9
        assert abs(r.ctc_logp - ctc) <= 1e-9
        assert abs(r.lm_logp - lm) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       variant=st.sampled_from(VARIANTS),
       beam_width=st.sampled_from([1, 2, 4, 16, 64]),
       width_prune=st.sampled_from([0.0, 0.05]),
       depth_prune=st.sampled_from([None, 2]))
def test_pruned_beam_matches_eager_reference(seed, variant, beam_width,
                                             width_prune, depth_prune):
    post, net = make_fixture(seed, variant)
    config = DecodeConfig(beam_width=beam_width, width_prune=width_prune,
                          depth_prune=depth_prune)
    assert_same_ranks(beam_search(post, net, VOCAB, config),
                      eager_beam_search(post, net, VOCAB, config))


@pytest.mark.parametrize("beam_width", [4, 16, 64])
def test_merges_under_pruning_match_eager_reference(beam_width):
    """Fixtures with more candidates than the beam keeps, where a prefix
    and its parent both survive, so extensions merge into survivors."""
    stats = {}
    for seed in range(4):
        rng = np.random.default_rng([beam_width, seed])
        labels = list(rng.choice(REGULAR, size=4, replace=False))
        labels += ["<w>", "<s>", BLANK_LABEL]
        post = PosteriorMatrix(labels=labels, probs=rng.dirichlet(
            np.ones(len(labels)), size=8))
        net = build_network(NetworkSpec.for_vocab("hlstm_b", VOCAB, 4),
                            rng_seed=seed)
        config = DecodeConfig(beam_width=beam_width, width_prune=0.0)
        assert_same_ranks(beam_search(post, net, VOCAB, config),
                          eager_beam_search(post, net, VOCAB, config, stats))
    assert stats["pruned"] > 0 and stats["merged"] > 0


@pytest.mark.parametrize("beam_width", [1, 3, 8])
@pytest.mark.parametrize("depth_prune", [None, 2])
def test_lm_rows_bounded_by_beam(monkeypatch, beam_width, depth_prune):
    """The LM runs only batched steps through the search's workspace: the
    start <w> first, then at most beam_width rows per frame at the start of
    every later frame, and never after the last frame."""
    rng = np.random.default_rng(40 + beam_width)
    labels = REGULAR[:6] + ["<w>", BLANK_LABEL]
    frames = 8
    post = PosteriorMatrix(labels=labels,
                           probs=rng.dirichlet(np.ones(len(labels)),
                                               size=frames))
    net = build_network(NetworkSpec.for_vocab("hlstm_b", VOCAB, 4),
                        rng_seed=3)
    calls = {"forward": 0, "step": 0, "batched": []}
    forward, step = net.forward, net.step

    def counting_forward(ids, *args, **kw):
        calls["forward"] += 1
        return forward(ids, *args, **kw)

    def counting_step(state, ids, *args):
        if np.ndim(ids):
            calls["batched"].append(np.asarray(ids).tolist())
        else:
            calls["step"] += 1
        return step(state, ids, *args)

    monkeypatch.setattr(net, "forward", counting_forward)
    monkeypatch.setattr(net, "step", counting_step)
    config = DecodeConfig(beam_width=beam_width, width_prune=0.0,
                          depth_prune=depth_prune)
    results = beam_search(post, net, VOCAB, config)
    assert calls["step"] == 0
    assert calls["forward"] == 0
    first, *rest = calls["batched"]
    assert first == [VOCAB.word_boundary_id]
    assert 1 <= len(rest) <= frames - 1
    assert sum(len(ids) for ids in rest) > 0
    assert 1 + sum(len(ids) for ids in rest) <= 1 + beam_width * (frames - 1)
    assert len(results) == beam_width
