import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hrnnlm
from hrnnlm import hierarchy
from hrnnlm.cells import LstmState, lstm_step, softmax
from hrnnlm.corpus import build_vocab
from hrnnlm.errors import ConfigError, DimensionError, NumericError
from hrnnlm.hierarchy import (VARIANTS, Network, NetworkSpec, NetworkState,
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
        clocks = derive_clocks(ids, vocab)
        assert clocks.shape == (2, 4)
        assert clocks[0].tolist() == [1, 1, 1, 1]
        assert clocks[1].tolist() == [0, 1, 0, 1]  # also the char reset

    def test_no_boundaries(self, vocab):
        ids = [vocab.id_of(c) for c in "abcd"]
        clocks = derive_clocks(ids, vocab)
        assert clocks[1].sum() == 0

    def test_single_level(self, vocab):
        # the character level ticks on every token, boundaries included
        ids = [vocab.word_boundary_id, vocab.id_of("a"),
               vocab.sentence_boundary_id, vocab.word_boundary_id]
        assert derive_clocks(ids, vocab)[0].all()

    def test_byte_mode_space_fires_word_clock(self):
        from hrnnlm.corpus import byte_vocab, tokenize
        bv = byte_vocab()
        seq = tokenize("a b", bv)  # [97, 32, 98, 256]
        assert derive_clocks(seq, bv)[1].tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("ids", [[1.0, 2.0], [True], [-1], [11]])
    def test_rejects_bad_ids(self, vocab, ids):
        with pytest.raises(ConfigError):
            derive_clocks(ids, vocab)


def test_every_exported_name_resolves():
    for name in hrnnlm.__all__:
        assert getattr(hrnnlm, name) is not None, name


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

    def test_mono_has_one_level(self):
        with pytest.raises(ConfigError, match="exactly one level"):
            NetworkSpec(variant="mono", vocab_size=5, hidden_dim=3, levels=2)

    @pytest.mark.parametrize("variant", ["hlstm_a", "hlstm_b"])
    def test_hlstm_has_two_layers_per_module(self, vocab, variant):
        with pytest.raises(ConfigError, match="two layers per module"):
            NetworkSpec.for_vocab(variant, vocab, 4, layers_per_module=3)

    def test_hidden_dim_list_length(self, vocab):
        with pytest.raises(ConfigError):
            NetworkSpec.for_vocab("hlstm_b", vocab, [4, 4, 4])

    def test_mono_layer_count(self):
        spec = NetworkSpec(variant="mono", vocab_size=5, hidden_dim=3,
                           layers_per_module=4)
        assert spec.total_layers == 4

    @pytest.mark.parametrize("variant, field, value", [
        ("hlstm_b", "vocab_size", 8.5), ("mono", "layers_per_module", 2.5),
        ("hlstm_b", "word_boundary_id", 6.0),
        ("hlstm_b", "sentence_boundary_id", True),
        ("hlstm_b", "hidden_dim", [4.9, 4, 4, 4]),
        ("hlstm_b", "hidden_dim", True), ("mono", "hidden_dim", 4.0),
        ("mono", "hidden_dim", "4"), ("mono", "levels", 1.0),
        # a mono spec needs no boundary ids, but those it has are checked
        ("mono", "word_boundary_id", 6.5),
        ("mono", "sentence_boundary_id", "x"),
        ("mono", "word_boundary_id", 9), ("mono", "sentence_boundary_id", 8),
        ("mono", "word_boundary_id", 7), ("hlstm_a", "word_boundary_id", 7)])
    def test_sizes_and_ids_must_be_integers(self, variant, field, value):
        fields = dict(variant=variant, vocab_size=8, hidden_dim=4,
                      word_boundary_id=6, sentence_boundary_id=7)
        fields[field] = value
        with pytest.raises(ConfigError, match=field.split("_dim")[0]):
            NetworkSpec(**fields)

    def test_numpy_integers_are_stored_as_python_ints(self):
        spec = NetworkSpec(variant="hlstm_b", vocab_size=np.int64(8),
                           hidden_dim=np.array([4, 3, 2, 1]),
                           word_boundary_id=np.int32(6),
                           sentence_boundary_id=np.uint8(7))
        values = [spec.vocab_size, spec.word_boundary_id,
                  spec.sentence_boundary_id, *spec.hidden_dim]
        assert [type(v) for v in values] == [int] * 7
        assert values == [8, 6, 7, 4, 3, 2, 1]

    def test_mono_ids_are_optional_and_stored_as_python_ints(self):
        spec = NetworkSpec(variant="mono", vocab_size=8, hidden_dim=4,
                           word_boundary_id=np.int32(6),
                           sentence_boundary_id=np.uint8(7))
        ids = (spec.word_boundary_id, spec.sentence_boundary_id)
        assert ids == (6, 7) and [type(v) for v in ids] == [int, int]
        spec = NetworkSpec(variant="mono", vocab_size=8, hidden_dim=4)
        assert spec.word_boundary_id is spec.sentence_boundary_id is None


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
            assert np.array_equal(state.layers[name].m,
                                  snapshot.layers[name].m)

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
        # Two different histories; then the word-module states and the
        # feed-up layer's h (the word module's delayed input) of one are
        # grafted onto the other, whose char1 and feed-up memory cell stay.
        # From the next word boundary on, outputs must match exactly: the
        # reset wipes the character module and the context vector is the
        # only carrier.
        net = build_network(tiny_spec(vocab, "hlstm_b"), rng_seed=21)
        rng = np.random.default_rng(22)
        hist1 = random_sequence(vocab, rng, length=12)[:-1]
        hist2 = random_sequence(vocab, rng, length=9)[:-1]
        _, s1, _ = net.forward(hist1)
        _, s2, _ = net.forward(hist2)
        for name in ("word1", "word2"):
            s2.layers[name].m[...] = s1.layers[name].m
            s2.layers[name].h[...] = s1.layers[name].h
        s2.layers["char2"].h[...] = s1.layers["char2"].h
        assert not np.array_equal(s1.layers["char2"].m, s2.layers["char2"].m)
        assert not np.array_equal(s1.layers["char1"].h, s2.layers["char1"].h)

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

    @pytest.mark.parametrize("mask", [[True], [True, False], True,
                                      [[True, False, True]],
                                      [True, False, True, False]])
    def test_reset_where_needs_one_entry_per_row(self, vocab, mask):
        net = build_network(tiny_spec(vocab, "hlstm_b"), rng_seed=1)
        _, state, _ = net.forward(np.ones((3, 4), dtype=np.int64))
        with pytest.raises(DimensionError, match="3 rows"):
            state.reset_where(mask)

    def test_state_take(self, vocab):
        net = build_network(tiny_spec(vocab, "hlstm_b"), rng_seed=1)
        ids = np.stack([random_sequence(vocab, np.random.default_rng(s), 8)
                        for s in (1, 2, 3)])
        _, state, _ = net.forward(ids)
        for rows in ([2, 0, 2], []):  # no rows: a state of zero rows
            taken = state.take(rows)
            assert taken.batch == len(rows)
            for name, layer in taken.layers.items():
                src = state.layers[name]
                assert layer.m.shape == layer.h.shape == (len(rows),
                                                          src.h.shape[1])
                assert np.array_equal(layer.m, src.m[rows])
                assert np.array_equal(layer.h, src.h[rows])
        taken = state.take([2, 0, 2])
        taken.layers["char1"].h[...] = 0.0  # a copy, not a view
        assert np.any(state.layers["char1"].h != 0)

    def test_layers_are_read_only_views_of_the_buffer(self, vocab):
        state = build_network(tiny_spec(vocab, "hlstm_b")).init_state(2)
        with pytest.raises(TypeError):
            state.layers["char1"] = state.layers["char2"]
        state.layers["word1"].h[1] = 2.5
        state.layers["word1"].m[0] = -1.0
        H = state.layers["word1"].h.shape[1]
        assert state.buf.shape == (2, 8 * H)
        # word1 is the third layer: its m, then its h, after char1's and
        # char2's cells
        assert np.array_equal(state.buf[1, 5 * H:6 * H], np.full(H, 2.5))
        assert np.array_equal(state.buf[0, 4 * H:5 * H], np.full(H, -1.0))
        assert np.count_nonzero(state.buf) == 2 * H

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_new_states_own_their_memory(self, vocab, variant):
        """A step (a character, <w>, or a row of each) and a forward,
        taped or not and of no or one character, return a state whose
        buffer shares no memory with the input state's: a character
        leaves the word layers as they were, in a copy."""
        net = build_network(tiny_spec(vocab, variant), rng_seed=3)
        ids = random_sequence(vocab, np.random.default_rng(4), 8)
        _, old, _ = net.forward(ids)
        a, w = vocab.id_of("a"), vocab.word_boundary_id
        for tok in (a, w):
            _, new = net.step(old, tok)
            assert not np.shares_memory(new.buf, old.buf)
        two = old.take([0, 0])
        _, new = net.step(two, np.array([a, w]))
        assert not np.shares_memory(new.buf, two.buf)
        for window in ([a], []):
            for taped in (False, True):
                _, new, _ = net.forward(np.array(window, dtype=np.int64),
                                        state=old, collect_tape=taped)
                assert not np.shares_memory(new.buf, old.buf)

    @pytest.mark.parametrize("rows", [[True, False, True], [-1], [0.5],
                                      [3], [5], [[0, 1]], 1])
    def test_state_take_rejects_rows_it_cannot_take(self, vocab, rows):
        state = build_network(tiny_spec(vocab, "hlstm_b")).init_state(3)
        with pytest.raises(DimensionError):
            state.take(rows)


VOCAB_ABC = build_vocab("abc")  # a, b, c, <w>, <s>
STEP_NETS = {v: build_network(tiny_spec(VOCAB_ABC, v, 3), rng_seed=9)
             for v in VARIANTS}
ABC_TOKENS = st.integers(0, VOCAB_ABC.size - 1)


def _stack_states(states):
    return NetworkState(np.concatenate([s.buf for s in states]),
                        states[0].layout)


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(VARIANTS), batch=st.integers(1, 5),
       rows=st.lists(st.integers(0, 4), max_size=8), mask=st.lists(
           st.booleans(), min_size=5, max_size=5),
       seed=st.integers(0, 2**31 - 1))
@example(variant="hlstm_b", batch=3, rows=[2, 0, 2, 2], mask=[True] * 5,
         seed=0)
@example(variant="mono", batch=1, rows=[], mask=[False] * 5, seed=1)
def test_state_operations_equal_per_layer_operations(variant, batch, rows,
                                                     mask, seed):
    """``take`` (repeated rows and no rows included), ``clone`` and
    ``reset_where``, one call on the state's buffer each, equal the same
    operation on every layer's m and h bit for bit, and return states of
    their own memory."""
    net = STEP_NETS[variant]
    state = net.init_state(batch)
    state.buf[...] = np.random.default_rng(seed).normal(size=state.buf.shape)
    rows = np.array([k for k in rows if k < batch], dtype=np.int64)
    mask = np.array(mask[:batch])
    got = {"take": state.take(rows), "clone": state.clone(),
           "reset_where": state.reset_where(mask)}
    want = {"take": lambda a: a[rows], "clone": lambda a: a.copy(),
            "reset_where": lambda a: np.where(mask[:, None], 0.0, a)}
    for op, new in got.items():
        assert new.layout is state.layout
        assert not np.shares_memory(new.buf, state.buf)
        for name, cell in state.layers.items():
            _same_bits(new.layers[name].m, want[op](cell.m))
            _same_bits(new.layers[name].h, want[op](cell.h))


def _assert_close(got, want):
    # batched GEMMs may round differently from one-row ones
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (got, want)


def _same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(VARIANTS),
       rows=st.lists(st.tuples(st.lists(ABC_TOKENS, max_size=8), ABC_TOKENS),
                     min_size=1, max_size=6))
@example(variant="hlstm_b", rows=[([0, 3, 1], 3), ([2], 4), ([], 0),
                                  ([1, 4, 2, 2], 1)])
@example(variant="hlstm_a", rows=[([0, 1], 4), ([3, 2], 3), ([4], 2)])
@example(variant="hlstm_a", rows=[([0], 0), ([3, 2], 1), ([4], 2)])
@example(variant="hlstm_a", rows=[([0, 1], 4), ([3], 3)])
@example(variant="mono", rows=[([], 3), ([0, 0, 4], 1)])
def test_batched_step_equals_per_row_steps(variant, rows):
    """Network.step over K stacked rows in different states, with a (K,) id
    array, equals one forward step over ids[:, None] bit for bit and K
    one-row Network.step calls within 1e-12, whether no row, some rows or
    every row reads a boundary (ids 3 and 4 are <w> and <s>); the input
    state is not mutated."""
    net = STEP_NETS[variant]
    states = []
    for history, _ in rows:
        state = net.init_state(1)
        for tok in history:
            _, state = net.step(state, tok)
        states.append(state)
    stacked = _stack_states(states)
    before = stacked.clone()
    ids = np.array([tok for _, tok in rows])
    probs, batched = net.step(stacked, ids)
    want_probs, want, _ = net.forward(ids[:, None], state=stacked)
    _same_bits(probs, want_probs[:, 0])
    for name, cell in want.layers.items():
        _same_bits(batched.layers[name].m, cell.m)
        _same_bits(batched.layers[name].h, cell.h)
        _same_bits(stacked.layers[name].m, before.layers[name].m)
        _same_bits(stacked.layers[name].h, before.layers[name].h)
    for k, (state, tok) in enumerate(zip(states, ids)):
        want_probs, want = net.step(state, tok)
        _assert_close(probs[k], want_probs)
        for name, cell in want.layers.items():
            _assert_close(batched.layers[name].m[k], cell.m[0])
            _assert_close(batched.layers[name].h[k], cell.h[0])


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(VARIANTS),
       ids=st.tuples(*[st.lists(ABC_TOKENS, max_size=5)] * 3).map(
           lambda parts: [*parts[0], 3, *parts[1], 4, *parts[2]]))
@example(variant="hlstm_a", ids=[3, 4, 4, 3, 0])
def test_int_0d_and_one_row_ids_step_alike(variant, ids):
    """An int id, a 0-d id array and a (1,) id array are one path through
    Network.step: folded over a sequence holding <w> and <s> (ids 3 and
    4), every step's probs and every layer's m and h agree bit for bit."""
    net = STEP_NETS[variant]
    folds = []
    for as_id in (int, np.array, lambda tok: np.array([tok])):
        state, fold = net.init_state(1), []
        for tok in ids:
            probs, state = net.step(state, as_id(tok))
            fold.append([probs.reshape(-1)] + [
                a for cell in state.layers.values() for a in (cell.m, cell.h)])
        folds.append(fold)
    assert folds[0][0][0].shape == (VOCAB_ABC.size,)
    for fold in folds[1:]:
        for got, want in zip(fold, folds[0]):
            for g, w in zip(got, want):
                _same_bits(g, w)


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(VARIANTS), batch=st.integers(1, 6),
       other=st.integers(1, 6), data=st.data())
def test_batched_step_rejects_bad_ids_and_states(variant, batch, other,
                                                 data):
    net = STEP_NETS[variant]
    V = VOCAB_ABC.size
    ids = np.array(data.draw(st.lists(ABC_TOKENS, min_size=batch,
                                      max_size=batch)))
    state = net.init_state(batch)
    bad = ids.copy()
    bad[data.draw(st.integers(0, batch - 1))] = data.draw(
        st.one_of(st.integers(-5, -1), st.integers(V, V + 5)))
    with pytest.raises(ConfigError):
        net.step(state, bad)
    with pytest.raises(ConfigError):
        net.step(net.init_state(1), int(bad.min() if bad.min() < 0
                                        else bad.max()))
    for not_ids in (ids + 0.5, ids.astype(str), ids > 2):
        with pytest.raises(ConfigError):
            net.step(state, not_ids)
    for not_id in (2.5, True, np.bool_(False), "1", np.float64(1.0)):
        with pytest.raises(ConfigError):
            net.step(net.init_state(1), not_id)
    with pytest.raises(DimensionError):
        net.step(state, ids[None, :])
    if other != batch:
        with pytest.raises(DimensionError):
            net.step(net.init_state(other), ids)
    if other != 1:
        with pytest.raises(DimensionError, match=f"1 id .* {other} rows"):
            net.step(net.init_state(other), int(ids[0]))


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(VARIANTS), batch=st.integers(1, 4),
       steps=st.integers(1, 5), data=st.data())
def test_forward_rejects_bad_ids(variant, batch, steps, data):
    """forward's counterpart of the step checks: ids that are not integers,
    or lie outside the vocabulary (negative ones included, which a table
    gather would wrap), raise ConfigError, and a state of another batch
    size, 3-D ids or an active mask of another shape DimensionError; an
    empty id list still runs."""
    net = STEP_NETS[variant]
    V = VOCAB_ABC.size
    ids = np.array(data.draw(st.lists(
        st.lists(ABC_TOKENS, min_size=steps, max_size=steps),
        min_size=batch, max_size=batch)))
    bad = ids.copy()
    row = data.draw(st.integers(0, batch - 1))
    bad[row, data.draw(st.integers(0, steps - 1))] = data.draw(
        st.one_of(st.integers(-5, -1), st.integers(V, V + 5)))
    for not_ids in (bad, bad[row], ids + 0.5, ids.astype(str), ids > 2,
                    ids.astype(float).tolist()):
        with pytest.raises(ConfigError):
            net.forward(not_ids)
    with pytest.raises(DimensionError, match=f"{batch} id rows .* "
                       f"{batch + 1} rows"):
        net.forward(ids, state=net.init_state(batch + 1))
    with pytest.raises(DimensionError, match="1-D or 2-D"):
        net.forward(ids[None])
    for active in (np.ones((batch, steps + 1)), np.ones(steps)):
        with pytest.raises(DimensionError, match="active mask"):
            net.forward(ids, active=active)
    probs, _, _ = net.forward(ids)
    assert probs.shape == (batch, steps, V)
    assert net.forward([])[0].shape == (0, V)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
def test_build_network_rejects_a_seed_that_is_not_a_count(seed):
    with pytest.raises(ConfigError, match="rng_seed"):
        build_network(tiny_spec(VOCAB_ABC), rng_seed=seed)


def _row_mask(rows, batch: int) -> np.ndarray:
    """A tape's ``rows`` (True, False or indices) or ``reset`` (True, False
    or a (b, 1) mask) as a (batch,) bool mask."""
    if rows is True or rows is False:
        return np.full(batch, rows)
    rows = np.asarray(rows)
    if rows.dtype == bool:
        return rows.reshape(batch)
    mask = np.zeros(batch, dtype=bool)
    mask[rows] = True
    return mask


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(VARIANTS), batch=st.integers(1, 4),
       steps=st.integers(1, 8), data=st.data())
def test_derive_clocks_matches_forward(variant, batch, steps, data):
    """In a taped window, the word layers compute at step t exactly the
    active rows whose ``derive_clocks`` word clock is high, the character
    layers exactly the active rows, and the character layers are reset on
    exactly the word-clocked rows (on none in mono, which has no word
    module); ids 3 and 4 are <w> and <s>."""
    net = STEP_NETS[variant]
    ids = np.array(data.draw(st.lists(
        st.lists(ABC_TOKENS, min_size=steps, max_size=steps),
        min_size=batch, max_size=batch)))
    active = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=steps, max_size=steps),
        min_size=batch, max_size=batch)))
    clocks = np.stack([derive_clocks(row, VOCAB_ABC) for row in ids])
    assert clocks[:, 0].all()
    assert np.array_equal(clocks[:, 1] == 1, np.isin(ids, [3, 4]))
    word = (clocks[:, 1] == 1) & active
    if variant == "mono":
        word[...] = False
    _, _, tape = net.forward(ids, active=active, collect_tape=True)
    for d in net.layer_defs:
        for t, step_tape in enumerate(tape.steps[d.name]):
            want = active[:, t] if d.level == 1 else word[:, t]
            assert np.array_equal(_row_mask(step_tape.rows, batch), want)
            assert step_tape.skipped == (not want.any())
            if d.level == 1:
                assert np.array_equal(_row_mask(step_tape.reset, batch),
                                      word[:, t])


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 200), hidden=st.integers(1, 128),
       size=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
def test_probs_of_stacked_rows_equal_one_row_each(rows, hidden, size, seed):
    """Network._probs, which forward runs once over every active position
    of a window and step over its B rows, gives each of N stacked rows the
    same bits as that row on its own: the fold of step equals forward
    only because the logits do not depend on how many rows come along."""
    net = build_network(NetworkSpec(variant="mono", vocab_size=size,
                                    hidden_dim=hidden), rng_seed=seed)
    h = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, hidden))
    stacked = net._probs(h)
    assert stacked.shape == (rows, size)
    for k in range(rows):
        _same_bits(stacked[k:k + 1], net._probs(h[k:k + 1]))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("collect_tape", [False, True])
def test_window_without_active_positions(variant, collect_tape):
    """A window of no steps, and one whose positions are all inactive,
    returns zero probabilities and the input state's bits."""
    net = STEP_NETS[variant]
    start = net.init_state(3)
    for k in range(3):
        start.layers[net.output_layer].h[k] = k + 0.25
        start.layers[net.output_layer].m[k] = -k
    ids = np.array([[0, 3, 1, 4], [2, 2, 4, 1], [3, 0, 0, 1]])
    for window, active in ((ids[:, :0], None),
                           (ids, np.zeros(ids.shape, dtype=bool))):
        probs, final, _ = net.forward(window, state=start, active=active,
                                      collect_tape=collect_tape)
        assert probs.shape == window.shape + (VOCAB_ABC.size,)
        assert not probs.any()
        for name, cell in start.layers.items():
            _same_bits(final.layers[name].m, cell.m)
            _same_bits(final.layers[name].h, cell.h)


@pytest.mark.parametrize("variant", VARIANTS)
def test_nan_softmax_bias_is_numeric_error(variant):
    """The softmax's finiteness check, run once per window, still stops
    taped and untaped forward and both step paths."""
    net = build_network(tiny_spec(VOCAB_ABC, variant, 3), rng_seed=9)
    net.softmax_b[1] = np.nan
    ids = np.array([[0, 3, 1], [2, 4, 1]])
    for collect_tape in (False, True):
        with pytest.raises(NumericError):
            net.forward(ids, collect_tape=collect_tape)
    with pytest.raises(NumericError):
        net.step(net.init_state(1), 0)
    with pytest.raises(NumericError):
        net.step(net.init_state(2), ids[:, 0])


WORKSPACE_ROWS = 4
STEP_CALLS = st.one_of(
    st.tuples(st.sampled_from(["int", "0-d"]), ABC_TOKENS),
    st.tuples(st.just("rows"), st.lists(ABC_TOKENS, min_size=1,
                                        max_size=WORKSPACE_ROWS)))


def _cells(state):
    return [a for cell in state.layers.values() for a in (cell.m, cell.h)]


def _twin(net):
    """A new network, with no workspace yet, of net's spec and ``flat``."""
    twin = Network(net.spec, init_scale=0.0)
    twin.flat[...] = net.flat
    return twin


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(VARIANTS),
       calls=st.lists(STEP_CALLS, min_size=1, max_size=12))
@example(variant="hlstm_a", calls=[("int", 3), ("rows", [4, 0, 3, 1]),
                                   ("0-d", 4), ("rows", [2]),
                                   ("rows", [1, 3]), ("int", 0)])
@example(variant="hlstm_b", calls=[("rows", [0, 1, 2, 3]),
                                   ("rows", [3, 3, 1, 4]), ("0-d", 3)])
def test_steps_through_one_workspace_equal_steps_without(variant, calls):
    """Steps of mixed batch sizes on one network, whose workspace grows
    and is reused, give the probs and every layer's m and h, bit for bit,
    that a fresh network of the same ``flat`` gives; each batch size
    carries its own state on, and ids 3 and 4 are <w> and <s>."""
    net = _twin(STEP_NETS[variant])
    states = {}
    for kind, ids in calls:
        ids = ids if kind == "int" else np.array(ids)
        B = np.size(ids)
        state = states[B] if B in states else net.init_state(B)
        want_probs, want = _twin(net).step(state, ids)
        probs, states[B] = net.step(state, ids)
        _same_bits(probs, want_probs)
        for got, cell in zip(_cells(states[B]), _cells(want)):
            _same_bits(got, cell)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("first", [0, 3])
def test_a_stepped_state_owns_its_arrays(variant, first):
    """Five more steps through the workspace that made a state, boundaries
    among them, leave that state as it was."""
    net = STEP_NETS[variant]
    _, kept = net.step(net.init_state(1), first)
    snapshot = kept.clone()
    state = kept
    for tok in (1, 3, 2, 4, 0):
        _, state = net.step(state, tok)
    for got, want in zip(_cells(kept), _cells(snapshot)):
        _same_bits(got, want)


def test_a_threads_workspace_has_the_rows_of_its_largest_step():
    """A thread's workspace grows to exactly the rows of its largest step
    so far and is kept through smaller steps; another thread's is its
    own, and untaped forward leaves it as it is."""
    net = _twin(STEP_NETS["hlstm_b"])
    for B, want in ((2, 2), (5, 5), (3, 5), (1, 5)):
        net.step(net.init_state(B), np.arange(B) % VOCAB_ABC.size)
        assert net._workspace(0).batch == want
    kept = net._workspace(0)
    net.forward(np.zeros((7, 2), dtype=np.int64))
    assert net._workspace(0) is kept
    other = {}

    def step_one_row():
        net.step(net.init_state(1), 3)
        other["rows"] = net._workspace(0).batch

    thread = threading.Thread(target=step_one_row)
    thread.start()
    thread.join(timeout=60)
    assert other == {"rows": 1} and net._workspace(0) is kept


def test_step_and_forward_reject_a_state_of_another_network():
    net = STEP_NETS["hlstm_b"]
    wider = build_network(tiny_spec(VOCAB_ABC, "hlstm_b", 4))
    for other in (STEP_NETS["mono"], wider):
        state = other.init_state(2)
        for ids in ([0, 1], [3, 4]):  # characters, then boundaries
            with pytest.raises(DimensionError, match="another network"):
                net.step(state, np.array(ids))
            with pytest.raises(DimensionError, match="another network"):
                net.forward(np.array([ids]).T, state=state)


def test_threads_with_their_own_workspaces_sample_alike(monkeypatch):
    """A network's step scratch is per thread: two threads sampling from
    one network, each stepping through the workspace the network keeps
    for it, and made to take turns at every kernel call (after a layer's
    inputs are written, before they are read), draw the texts that the
    same calls draw one after the other."""
    vocab = build_vocab("ab cd ef gh")
    # Weights large enough that a step's inputs decide its draws: at the
    # default scale, texts hardly depend on them.
    net = Network(tiny_spec(vocab, "hlstm_b", 8), np.random.default_rng(5),
                  init_scale=1.0)
    seeds = (0, 1, 2, 3)
    want = [hrnnlm.sample(net, vocab, 100, seed=s) for s in seeds]
    turns = threading.Condition()
    now = {"turn": 0, "done": 0}
    thread_of = {}

    def taking_turns(*args):
        k = thread_of[threading.get_ident()]
        with turns:
            now["turn"] = 1 - k
            turns.notify_all()
            turns.wait_for(lambda: now["turn"] == k or now["done"],
                           timeout=10)
        return lstm_step(*args)

    monkeypatch.setattr(hierarchy, "lstm_step", taking_turns)
    got = {}

    def draw(k):
        thread_of[threading.get_ident()] = k
        for s in seeds[k::2]:
            got[s] = hrnnlm.sample(net, vocab, 100, seed=s)
        with turns:
            now["done"] += 1
            turns.notify_all()

    threads = [threading.Thread(target=draw, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert [got[s] for s in seeds] == want
