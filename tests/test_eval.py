import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hrnnlm.corpus import (build_vocab, byte_vocab, detokenize, tokenize,
                           tokenize_fragment, tokenize_lines)
from hrnnlm.errors import ConfigError
from hrnnlm.evaluation import (_distribution, _draw, bpc, evaluate,
                               format_report_table, ppl_from_bpc, sample,
                               sequence_bits)
from hrnnlm.hierarchy import VARIANTS, NetworkSpec, build_network
from hrnnlm.training import TrainConfig, train


def zeroed(net):
    for arr in net.named_blocks().values():
        arr[...] = 0.0
    return net


@pytest.fixture
def vocab4():
    return build_vocab("ab")  # a, b, <w>, <s>


class TestBpc:
    def test_uniform_floor_vocab4(self, vocab4):
        net = zeroed(build_network(NetworkSpec.for_vocab("hlstm_b", vocab4,
                                                         4)))
        seq = tokenize("ab ab ba", vocab4)
        assert abs(bpc(net, seq) - 2.0) < 1e-9

    def test_uniform_floor_byte_mode(self):
        bv = byte_vocab()
        net = zeroed(build_network(NetworkSpec.for_vocab("hlstm_b", bv, 3)))
        seq = tokenize("hello", bv)
        assert abs(bpc(net, seq) - math.log2(257)) < 1e-9

    def test_prediction_count_is_length_minus_one(self, vocab4):
        net = zeroed(build_network(NetworkSpec.for_vocab("hlstm_b", vocab4,
                                                         4)))
        seq = tokenize("ab ba", vocab4)
        _, preds = sequence_bits(net, seq)
        assert preds == seq.n_chars - 1

    def test_partition_invariance(self, vocab4):
        # carrying state across split points must not change the total
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab4, 6),
                            rng_seed=4)
        seq = tokenize("ab ba ab aa bb", vocab4)
        whole = bpc(net, seq)
        bits = 0.0
        state = net.init_state(1)
        ids = seq.ids
        for start in range(0, len(ids) - 1, 3):
            chunk = ids[start:start + 3 + 1]
            inputs = ids[start:min(start + 3, len(ids) - 1)]
            probs, state, _ = net.forward(inputs, state=state)
            targets = ids[start + 1:start + 1 + len(inputs)]
            bits += float(-np.log2(probs[np.arange(len(inputs)),
                                         targets]).sum())
        assert abs(bits / (len(ids) - 1) - whole) < 1e-12

    def test_requires_a_prediction(self, vocab4):
        net = zeroed(build_network(NetworkSpec.for_vocab("hlstm_b", vocab4,
                                                         4)))
        only_boundary = tokenize("", vocab4)
        with pytest.raises(ConfigError):
            bpc(net, only_boundary)


VOCAB5 = build_vocab("abc")  # a, b, c, <w>, <s>
NETS5 = {v: build_network(NetworkSpec.for_vocab(v, VOCAB5, 3), rng_seed=7)
         for v in VARIANTS}
# Scoring runs windows of TrainConfig's default bptt_length on at most its
# default batch_size streams.
LONGER_THAN_WINDOW = [[0, 1, 3, 2, 4] * (TrainConfig.bptt_length // 5 + 2)]
MORE_THAN_STREAMS = [[0, 3, 1, 4], [2, 2, 4]] * (TrainConfig.batch_size // 2
                                                 + 3)


def per_sequence_bits(net, seqs):
    """Reference: each sequence on its own from a zero state."""
    bits, preds = 0.0, 0
    for ids in seqs:
        if len(ids) < 2:
            continue
        ids = np.asarray(ids)
        probs, _, _ = net.forward(ids[:-1])
        bits -= float(np.log2(probs[np.arange(len(ids) - 1), ids[1:]]).sum())
        preds += len(ids) - 1
    return bits, preds


@settings(max_examples=30, deadline=None)
@given(variant=st.sampled_from(VARIANTS),
       seqs=st.lists(st.lists(st.integers(0, VOCAB5.size - 1), max_size=15),
                     min_size=1, max_size=10))
@example(variant="hlstm_b", seqs=LONGER_THAN_WINDOW)
@example(variant="hlstm_a", seqs=MORE_THAN_STREAMS)
@example(variant="mono", seqs=[[], [4], [0, 1, 4], [3], [2, 4]])
def test_batched_scoring_equals_per_sequence(variant, seqs):
    net = NETS5[variant]
    arrays = [np.asarray(s, dtype=np.int64) for s in seqs]
    bits, preds = sequence_bits(net, arrays)
    ref_bits, ref_preds = per_sequence_bits(net, arrays)
    assert preds == ref_preds
    # batched GEMMs may round differently from one-row ones
    assert abs(bits - ref_bits) <= 1e-12 * abs(ref_bits)


class TestPplFromBpc:
    def test_zero_bits_is_unit_perplexity(self):
        assert ppl_from_bpc(0.0, 100, 20) == 1.0

    def test_simple_power(self):
        assert ppl_from_bpc(1.0, 10, 2) == 32.0

    def test_published_rows_share_one_ratio(self):
        # (bpc, word ppl) pairs for the three baseline stack sizes; the
        # implied chars-per-word ratio must agree across rows
        rows = [(1.148, 99.5), (1.132, 93.3), (1.101, 82.4)]
        ratios = [math.log2(ppl) / b for b, ppl in rows]
        mean = sum(ratios) / len(ratios)
        assert abs(mean - 5.78) / 5.78 < 0.01
        for r in ratios:
            assert abs(r - mean) / mean < 0.01

    def test_hierarchical_rows_match_the_same_ratio(self):
        ratio = 5.78
        for b, ppl in [(1.073, 73.6), (1.058, 69.2)]:
            assert abs(math.log2(ppl) / b - ratio) / ratio < 0.01

    def test_rejects_zero_words(self):
        with pytest.raises(ConfigError):
            ppl_from_bpc(1.0, 10, 0)


class TestChainRuleConsistency:
    def test_uniform_model_on_enumerable_toy(self, vocab4):
        # three-word toy line: every factor enumerable by hand under the
        # uniform model.  p(sequence) = (1/4)^(n_preds); the word-level
        # perplexity of that distribution is its (1/n_words)-th inverse root.
        net = zeroed(build_network(NetworkSpec.for_vocab("hlstm_b", vocab4,
                                                         4)))
        seq = tokenize("ab ba aa", vocab4)
        n_preds = seq.n_chars - 1
        seq_logp = n_preds * math.log2(1.0 / 4.0)       # by hand
        direct_ppl = 2.0 ** (-seq_logp / seq.n_words)    # chain rule
        measured = ppl_from_bpc(bpc(net, seq), n_preds, seq.n_words)
        assert abs(measured - direct_ppl) < 1e-9
        # with the full character count the exponent gains one character;
        # the two agree in the corpus-size limit
        report = evaluate(net, seq)
        assert report.word_ppl == pytest.approx(
            direct_ppl * 2.0 ** (2.0 / seq.n_words))


class TestEvaluate:
    def test_report_fields(self, vocab4):
        net = zeroed(build_network(NetworkSpec.for_vocab("hlstm_b", vocab4,
                                                         4)))
        seqs = tokenize_lines("ab ba\naa bb\n", vocab4)
        report = evaluate(net, seqs, n_params=net.param_count(),
                          size_label="hlstm_b 4x4")
        assert report.n_chars == sum(s.n_chars for s in seqs)
        assert report.n_words == sum(s.n_words for s in seqs)
        assert report.word_ppl == pytest.approx(
            2 ** (report.bpc * report.n_chars / report.n_words))
        table = format_report_table([report])
        assert "BPC" in table and "4x4" in table
        assert report.csv_row().count(",") == 3


class TestSampling:
    def test_same_seed_same_text(self, vocab4):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab4, 4),
                            rng_seed=3)
        a = sample(net, vocab4, length=50, seed=123)
        b = sample(net, vocab4, length=50, seed=123)
        assert a == b
        c = sample(net, vocab4, length=50, seed=124)
        assert a != c

    def test_zero_model_draws_uniformly(self, vocab4):
        net = zeroed(build_network(NetworkSpec.for_vocab("hlstm_b", vocab4,
                                                         4)))
        n = 10_000
        text = sample(net, vocab4, length=n, seed=7)
        counts = {"a": 0, "b": 0, " ": 0, "\n": 0}
        for ch in text:
            counts[ch] += 1
        p = 1.0 / 4.0
        sigma = math.sqrt(n * p * (1 - p))
        for ch, c in counts.items():
            assert abs(c - n * p) <= 3 * sigma, (ch, c)

    def test_low_temperature_reproduces_overfit_period(self, vocab4):
        # a model overfit on a periodic line should replay the period
        # greedily at low temperature
        text = ("ab ba " * 30).strip() + "\n"
        seqs = tokenize_lines(text * 4, vocab4)
        spec = NetworkSpec.for_vocab("hlstm_b", vocab4, 8)
        config = TrainConfig(bptt_length=32, batch_size=2, max_epochs=40,
                             seed=0, momentum=0.95, clip_norm=1.0)
        result = train(spec, seqs, config)
        assert bpc(result.network, seqs) < 0.2  # the overfit carried over
        out = sample(result.network, vocab4, length=24, prime="ab ba ",
                     temperature=0.01, seed=0)
        assert "ab ba ab ba" in out

    def test_temperature_must_be_positive(self, vocab4):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab4, 4))
        with pytest.raises(ConfigError):
            sample(net, vocab4, length=5, temperature=0.0)

    @pytest.mark.parametrize("temperature",
                             [math.nan, math.inf, -math.inf, -1.0])
    def test_temperature_must_be_finite_and_positive(self, vocab4,
                                                     temperature):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab4, 4))
        with pytest.raises(ConfigError, match="finite and positive"):
            sample(net, vocab4, length=5, temperature=temperature)

    @pytest.mark.parametrize("length", [-1, 2.5, True])
    def test_length_must_be_a_count(self, vocab4, length):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab4, 4))
        with pytest.raises(ConfigError, match="length"):
            sample(net, vocab4, length=length, prime="ab")

    @pytest.mark.parametrize("seed", [1.5, -1, True])
    def test_seed_must_be_a_count(self, vocab4, seed):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab4, 4))
        with pytest.raises(ConfigError, match="seed"):
            sample(net, vocab4, length=3, seed=seed)
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=seed)

    def test_zero_length_returns_the_prime(self, vocab4):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab4, 4))
        assert sample(net, vocab4, length=0, prime="ab") == "ab"

    def test_prime_is_prefix_of_output(self, vocab4):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab4, 4),
                            rng_seed=9)
        out = sample(net, vocab4, length=10, prime="ab a", seed=5)
        assert out.startswith("ab a")

    @pytest.mark.parametrize("prime", ["", "ab a"])
    @pytest.mark.parametrize("length", [0, 1, 7])
    def test_steps_only_what_it_draws_from(self, vocab4, monkeypatch, prime,
                                           length):
        """n tokens fed and length draws take n - 1 + length steps, and
        the text is the one drawn when every fed and every drawn token is
        stepped, the last draw included."""
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab4, 4),
                            rng_seed=9)
        echo = tokenize_fragment(prime, vocab4) if prime else []
        feed = echo or [vocab4.word_boundary_id]
        rng, state = np.random.default_rng(5), net.init_state(1)
        for tok in feed:
            probs, state = net.step(state, tok)
        drawn = []
        for _ in range(length):
            drawn.append(_draw(_distribution(probs, 1.0), rng))
            probs, state = net.step(state, drawn[-1])
        calls = []
        step = net.step

        def counting_step(*args):
            calls.append(args[1])
            return step(*args)

        monkeypatch.setattr(net, "step", counting_step)
        text = sample(net, vocab4, length, prime=prime, seed=5)
        assert len(calls) == len(feed) - 1 + length
        assert text == detokenize(echo + drawn, vocab4)


@st.composite
def distributions(draw):
    """A next-token distribution as a softmax gives it: positive entries,
    some of them exactly 0 (underflowed), summing to 1 within rounding."""
    V = draw(st.integers(2, 40))
    weights = np.array(draw(st.lists(
        st.floats(1e-6, 1.0), min_size=V, max_size=V)))
    zero = np.array(draw(st.lists(st.booleans(), min_size=V, max_size=V)))
    zero[draw(st.integers(0, V - 1))] = False
    weights[zero] = 0.0
    return weights / weights.sum()


@settings(max_examples=200, deadline=None)
@given(probs=distributions(),
       temperature=st.sampled_from([1.0, 0.01, 0.7, 1.3, 50.0]),
       seed=st.integers(0, 2**32 - 1))
@example(probs=np.array([0.0, 0.5, 0.0, 0.5, 0.0]), temperature=1.0, seed=0)
@example(probs=np.array([0.25, 0.0, 0.75]), temperature=0.7, seed=1)
def test_draw_equals_generator_choice(probs, temperature, seed):
    """sample's draw is Generator.choice's, token for token, and leaves the
    generator where choice leaves it, at both temperature branches."""
    p = _distribution(probs, temperature)
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(8):
        assert _draw(p, mine) == theirs.choice(len(p), p=p)
    assert mine.random() == theirs.random()
