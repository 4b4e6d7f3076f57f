import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hrnnlm.cells import LstmState, lstm_step, softmax
from hrnnlm.corpus import build_vocab
from hrnnlm.errors import ConfigError
from hrnnlm.hierarchy import (VARIANTS, NetworkSpec, NetworkState,
                              build_network, derive_clocks)


@pytest.fixture
def vocab():
    return build_vocab("ab cd ef gh")


def tiny_spec(vocab, variant="hlstm_b", hidden=4):
    if variant == "mono":
        return NetworkSpec(variant="mono", vocab_size=vocab.size,
                           hidden_dim=hidden, layers_per_module=2)
    return NetworkSpec.for_vocab(variant, vocab, hidden)


def random_sequence(vocab, rng, length=10):
    """Random token ids containing at least one <w> and ending in <s>."""
    regular = [i for i in range(vocab.size) if i not in vocab.boundary_ids]
    ids = list(rng.choice(regular, size=length - 3))
    ids.insert(rng.integers(1, len(ids)), vocab.word_boundary_id)
    ids.append(rng.choice(regular))
    ids.append(vocab.sentence_boundary_id)
    return np.array(ids, dtype=np.int64)


class TestDeriveClocks:
    def test_boundary_pattern(self, vocab):
        ids = [vocab.id_of("a"), vocab.word_boundary_id, vocab.id_of("b"),
               vocab.sentence_boundary_id]
        plan = derive_clocks(ids, vocab, levels=2)
        assert plan.clocks[0].tolist() == [1, 1, 1, 1]
        assert plan.clocks[1].tolist() == [0, 1, 0, 1]
        assert plan.resets[0].tolist() == [0, 1, 0, 1]
        assert plan.resets[1].tolist() == [0, 0, 0, 0]

    def test_no_boundaries(self, vocab):
        ids = [vocab.id_of(c) for c in "abcd"]
        plan = derive_clocks(ids, vocab, levels=2)
        assert plan.clocks[1].sum() == 0

    def test_single_level(self, vocab):
        plan = derive_clocks([vocab.id_of("a")] * 5, vocab, levels=1)
        assert plan.clocks.shape == (1, 5)
        assert plan.clocks[0].all()
        assert not plan.resets.any()

    def test_three_levels(self, vocab):
        ids = [vocab.id_of("a"), vocab.word_boundary_id,
               vocab.sentence_boundary_id]
        plan = derive_clocks(ids, vocab, levels=3)
        assert plan.clocks[1].tolist() == [0, 1, 1]
        assert plan.clocks[2].tolist() == [0, 0, 1]
        assert plan.resets[0].tolist() == [0, 1, 1]
        assert plan.resets[1].tolist() == [0, 0, 1]

    def test_validity_on_random_sequences(self, vocab):
        rng = np.random.default_rng(0)
        for _ in range(100):
            ids = rng.integers(0, vocab.size, size=rng.integers(1, 30))
            plan = derive_clocks(ids, vocab, levels=rng.integers(1, 4))
            plan.validate()  # raises on any violated nesting rule

    def test_byte_mode_space_fires_word_clock(self):
        from hrnnlm.corpus import byte_vocab, tokenize
        bv = byte_vocab()
        seq = tokenize("a b", bv)  # [97, 32, 98, 256]
        plan = derive_clocks(seq, bv, levels=2)
        assert plan.clocks[1].tolist() == [0, 1, 0, 1]


class TestSpecValidation:
    def test_rejects_unknown_variant(self, vocab):
        with pytest.raises(ConfigError):
            NetworkSpec(variant="gru", vocab_size=4, hidden_dim=4)

    def test_hlstm_needs_boundaries(self):
        with pytest.raises(ConfigError):
            NetworkSpec(variant="hlstm_b", vocab_size=8, hidden_dim=4)

    def test_hlstm_levels_fixed_at_two(self, vocab):
        with pytest.raises(ConfigError):
            NetworkSpec(variant="hlstm_b", vocab_size=vocab.size,
                        hidden_dim=4, levels=3,
                        word_boundary_id=vocab.word_boundary_id,
                        sentence_boundary_id=vocab.sentence_boundary_id)

    def test_hidden_dim_list_length(self, vocab):
        with pytest.raises(ConfigError):
            NetworkSpec.for_vocab("hlstm_b", vocab, [4, 4, 4])

    def test_mono_layer_count(self):
        spec = NetworkSpec(variant="mono", vocab_size=5, hidden_dim=3,
                           layers_per_module=4)
        assert spec.total_layers == 4


class TestParameterCounts:
    @staticmethod
    def lstm_count(d, h):
        return 4 * h * d + 4 * h * h + 7 * h

    def test_mono_closed_form(self):
        spec = NetworkSpec(variant="mono", vocab_size=4, hidden_dim=8,
                           layers_per_module=2)
        net = build_network(spec)
        expect = self.lstm_count(4, 8) + self.lstm_count(8, 8) + 4 * 8 + 4
        assert net.param_count() == expect

    def test_hlstm_b_closed_form(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_b", 5))
        V = vocab.size
        expect = (self.lstm_count(V, 5)          # char1: one-hot
                  + self.lstm_count(10, 5)       # char2: embedding + context
                  + self.lstm_count(7, 5)        # word1: delay + indicator
                  + self.lstm_count(5, 5)        # word2
                  + V * 5 + V)
        assert net.param_count() == expect

    def test_hlstm_a_closed_form(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_a", 5))
        V = vocab.size
        expect = (self.lstm_count(V, 5)          # char1: one-hot
                  + self.lstm_count(V + 5, 5)    # char2: one-hot + context
                  + self.lstm_count(7, 5)
                  + self.lstm_count(5, 5)
                  + V * 5 + V)
        assert net.param_count() == expect

    def test_variants_differ_and_order_by_vocab_size(self, vocab):
        # the A/B difference is exactly one input block: one-hot (V wide)
        # for A versus the layer-1 embedding (H wide) for B
        a = build_network(tiny_spec(vocab, "hlstm_a", 5)).param_count()
        b = build_network(tiny_spec(vocab, "hlstm_b", 5)).param_count()
        assert a != b
        assert a - b == 4 * 5 * (vocab.size - 5)
        assert (a < b) == (vocab.size < 5)

    @pytest.mark.parametrize("variant,layers,hidden,published", [
        ("mono", 2, 512, 3.23e6),
        ("mono", 4, 512, 7.43e6),
        ("mono", 4, 1024, 29.54e6),
        ("hlstm_a", 2, 512, 7.50e6),
        ("hlstm_b", 2, 512, 8.48e6),
        ("hlstm_b", 2, 1024, 33.74e6),
    ])
    def test_published_sizes(self, variant, layers, hidden, published):
        # 30-symbol charset (uppercase letters and punctuation plus the two
        # boundary tokens) reproduces the published parameter counts
        V = 30
        spec = NetworkSpec(variant=variant, vocab_size=V, hidden_dim=hidden,
                           layers_per_module=layers,
                           word_boundary_id=None if variant == "mono" else 28,
                           sentence_boundary_id=None if variant == "mono"
                           else 29)
        count = build_network(spec).param_count()
        assert abs(count - published) / published < 0.02


class TestForward:
    def test_zero_params_give_uniform(self, vocab):
        for variant in ("mono", "hlstm_a", "hlstm_b"):
            net = build_network(tiny_spec(vocab, variant))
            for arr in net.named_blocks().values():
                arr[...] = 0.0
            ids = random_sequence(vocab, np.random.default_rng(1))
            probs, _, _ = net.forward(ids)
            np.testing.assert_allclose(probs, 1.0 / vocab.size, atol=1e-15)

    def test_word_module_frozen_without_boundaries(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_b"), rng_seed=5)
        regular = [i for i in range(vocab.size)
                   if i not in vocab.boundary_ids]
        ids = np.array(regular * 3, dtype=np.int64)
        state0 = net.init_state(1)
        _, state, _ = net.forward(ids, state=state0)
        for name in ("word1", "word2"):
            np.testing.assert_array_equal(state.layers[name].m,
                                          state0.layers[name].m)
            np.testing.assert_array_equal(state.layers[name].h,
                                          state0.layers[name].h)

    def test_matches_manual_cell_composition(self, vocab):
        # two-step oracle assembled from raw cell calls and the wiring rules
        net = build_network(tiny_spec(vocab, "hlstm_b", 3), rng_seed=9)
        a, w = vocab.id_of("a"), vocab.word_boundary_id
        ids = np.array([a, w], dtype=np.int64)
        probs, _, _ = net.forward(ids)

        V = vocab.size
        c1 = LstmState.zeros(3, 1)
        c2 = LstmState.zeros(3, 1)
        w1 = LstmState.zeros(3, 1)
        w2 = LstmState.zeros(3, 1)
        delay = np.zeros((1, 3))
        expect = []
        for t, tok in enumerate(ids):
            onehot = np.zeros((1, V))
            onehot[0, tok] = 1.0
            boundary = tok in vocab.boundary_ids
            ind = np.array([[float(tok == vocab.word_boundary_id),
                             float(tok == vocab.sentence_boundary_id)]])
            w1, _ = lstm_step(net.layers["word1"],
                              np.concatenate([delay, ind], axis=1), w1,
                              clock=boundary)
            w2, _ = lstm_step(net.layers["word2"], w1.h, w2, clock=boundary)
            c1, _ = lstm_step(net.layers["char1"], onehot, c1,
                              clock=True, reset=boundary)
            c2, _ = lstm_step(net.layers["char2"],
                              np.concatenate([c1.h, w2.h], axis=1), c2,
                              clock=True, reset=boundary)
            delay = c2.h
            expect.append(softmax(c2.h @ net.softmax_W.T + net.softmax_b)[0])
        np.testing.assert_array_equal(probs, np.stack(expect))

    def test_rejects_out_of_range_ids(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_b"))
        with pytest.raises(ConfigError):
            net.forward(np.array([vocab.size], dtype=np.int64))

    def test_probabilities_sum_to_one(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_a"), rng_seed=8)
        ids = random_sequence(vocab, np.random.default_rng(5), length=20)
        probs, _, _ = net.forward(ids)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


class TestStatefulStepping:
    @pytest.mark.parametrize("variant", ["mono", "hlstm_a", "hlstm_b"])
    def test_fold_equals_forward(self, vocab, variant):
        net = build_network(tiny_spec(vocab, variant), rng_seed=11)
        rng = np.random.default_rng(6)
        for _ in range(10):
            ids = random_sequence(vocab, rng, length=int(rng.integers(5, 15)))
            probs, final, _ = net.forward(ids)
            state = net.init_state(1)
            for t, tok in enumerate(ids):
                p, state = net.step(state, int(tok))
                assert np.array_equal(p, probs[t])
            for name in state.layers:
                assert np.array_equal(state.layers[name].h,
                                      final.layers[name].h)
                assert np.array_equal(state.layers[name].m,
                                      final.layers[name].m)

    def test_step_does_not_mutate_input_state(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_b"), rng_seed=12)
        state = net.init_state(1)
        _, state = net.step(state, vocab.id_of("a"))
        snapshot = state.clone()
        net.step(state, vocab.id_of("b"))
        for name in state.layers:
            assert np.array_equal(state.layers[name].h,
                                  snapshot.layers[name].h)
        assert np.array_equal(state.delay, snapshot.delay)

    def test_cloned_states_evolve_independently(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_b"), rng_seed=13)
        state = net.init_state(1)
        _, state = net.step(state, vocab.id_of("a"))
        branch = state.clone()
        p_orig_before, _ = net.step(state, vocab.id_of("b"))
        net.step(branch, vocab.id_of("c"))
        p_orig_after, _ = net.step(state, vocab.id_of("b"))
        assert np.array_equal(p_orig_before, p_orig_after)

    def test_rejects_bad_token(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_b"))
        with pytest.raises(ConfigError):
            net.step(net.init_state(1), vocab.size)


class TestInterWordBottleneck:
    def test_word_state_pins_the_future(self, vocab):
        # Two different histories; then the word-module states and delay
        # buffer of one are grafted onto the other.  From the next word
        # boundary on, outputs must match exactly: the reset wipes the
        # character module and the context vector is the only carrier.
        net = build_network(tiny_spec(vocab, "hlstm_b"), rng_seed=21)
        rng = np.random.default_rng(22)
        hist1 = random_sequence(vocab, rng, length=12)[:-1]
        hist2 = random_sequence(vocab, rng, length=9)[:-1]
        _, s1, _ = net.forward(hist1)
        _, s2, _ = net.forward(hist2)
        s2.layers["word1"] = s1.layers["word1"].copy()
        s2.layers["word2"] = s1.layers["word2"].copy()
        s2.delay = s1.delay.copy()

        suffix = [vocab.word_boundary_id] + \
            [vocab.id_of(c) for c in "abba"] + [vocab.sentence_boundary_id]
        out1, out2 = [], []
        for tok in suffix:
            p1, s1 = net.step(s1, tok)
            p2, s2 = net.step(s2, tok)
            out1.append(p1)
            out2.append(p2)
        assert np.array_equal(np.stack(out1), np.stack(out2))


class TestWiring:
    def test_connection_tables(self, vocab):
        net_a = build_network(tiny_spec(vocab, "hlstm_a"))
        net_b = build_network(tiny_spec(vocab, "hlstm_b"))
        a, b = set(net_a.connections()), set(net_b.connections())
        assert ("onehot", "char2", 0) in a and ("char1", "char2", 0) not in a
        assert ("char1", "char2", 0) in b and ("onehot", "char2", 0) not in b
        # feed-up is delayed by one step; context feed-down is not
        assert ("char1", "word1", 1) in a
        assert ("char2", "word1", 1) in b
        assert ("word2", "char2", 0) in a and ("word2", "char2", 0) in b

    def test_state_reset_where(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_b"), rng_seed=1)
        ids = np.stack([random_sequence(vocab, np.random.default_rng(s), 8)
                        for s in (1, 2)])
        _, state, _ = net.forward(ids)
        reset = state.reset_where(np.array([True, False]))
        for layer in reset.layers.values():
            assert np.array_equal(layer.h[0], np.zeros_like(layer.h[0]))
            assert np.any(layer.h[1] != 0)

    def test_state_take(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_b"), rng_seed=1)
        ids = np.stack([random_sequence(vocab, np.random.default_rng(s), 8)
                        for s in (1, 2, 3)])
        _, state, _ = net.forward(ids)
        taken = state.take([2, 0, 2])
        for name, layer in taken.layers.items():
            src = state.layers[name]
            assert np.array_equal(layer.m, src.m[[2, 0, 2]])
            assert np.array_equal(layer.h, src.h[[2, 0, 2]])
        assert np.array_equal(taken.delay, state.delay[[2, 0, 2]])
        taken.layers["char1"].h[...] = 0.0  # a copy, not a view
        assert np.any(state.layers["char1"].h != 0)


VOCAB_ABC = build_vocab("abc")  # a, b, c, <w>, <s>
STEP_NETS = {v: build_network(tiny_spec(VOCAB_ABC, v, 3), rng_seed=9)
             for v in VARIANTS}
ABC_TOKENS = st.integers(0, VOCAB_ABC.size - 1)


def _stack_states(states):
    return NetworkState(
        layers={k: LstmState(np.concatenate([s.layers[k].m for s in states]),
                             np.concatenate([s.layers[k].h for s in states]))
                for k in states[0].layers},
        delay=(None if states[0].delay is None
               else np.concatenate([s.delay for s in states])))


def _assert_close(got, want):
    # batched GEMMs may round differently from one-row ones
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (got, want)


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(VARIANTS),
       rows=st.lists(st.tuples(st.lists(ABC_TOKENS, max_size=8), ABC_TOKENS),
                     min_size=1, max_size=6))
@example(variant="hlstm_b", rows=[([0, 3, 1], 3), ([2], 4), ([], 0),
                                  ([1, 4, 2, 2], 1)])
@example(variant="hlstm_a", rows=[([0, 1], 4), ([3, 2], 3), ([4], 2)])
@example(variant="mono", rows=[([], 3), ([0, 0, 4], 1)])
def test_batched_step_equals_per_row_steps(variant, rows):
    """One forward step over K stacked rows in different states equals K
    separate Network.step calls; ids 3 and 4 are <w> and <s>."""
    net = STEP_NETS[variant]
    states = []
    for history, _ in rows:
        state = net.init_state(1)
        for tok in history:
            _, state = net.step(state, tok)
        states.append(state)
    ids = np.array([tok for _, tok in rows])
    probs, batched, _ = net.forward(ids[:, None], state=_stack_states(states))
    for k, (state, tok) in enumerate(zip(states, ids)):
        want_probs, want = net.step(state, tok)
        _assert_close(probs[k, 0], want_probs)
        for name, cell in want.layers.items():
            _assert_close(batched.layers[name].m[k], cell.m[0])
            _assert_close(batched.layers[name].h[k], cell.h[0])
        if want.delay is not None:
            _assert_close(batched.delay[k], want.delay[0])
