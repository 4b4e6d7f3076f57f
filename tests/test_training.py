import json
import math
import struct

import numpy as np
import pytest

from hrnnlm.corpus import build_vocab, tokenize, tokenize_lines
from hrnnlm.errors import (CheckpointError, ConfigError, DimensionError,
                           DivergenceError, NumericError)
from hrnnlm.evaluation import bpc, evaluate
from hrnnlm.hierarchy import Blocks, NetworkSpec, build_network
from hrnnlm.training import (OptimizerState, TrainConfig,
                             adadelta_nesterov_update, batch_sequences,
                             clip_gradients, cross_entropy, gradient_check,
                             load_checkpoint, save_checkpoint, train)


@pytest.fixture
def vocab():
    return build_vocab("ab cd ef gh")


def seqs_from(text):
    v = build_vocab(text)
    return v, tokenize_lines(text, v)


class TestBatcher:
    def test_windowing_arithmetic(self, vocab):
        seq = tokenize("abc def gh", vocab)  # 11 tokens, 10 targets
        assert seq.n_chars == 11
        windows = list(batch_sequences([seq], batch_size=1, bptt_length=4))
        lengths = [int(b.active.sum()) for b in windows]
        assert lengths == [4, 4, 2]
        joined_in = np.concatenate([b.inputs[0][b.active[0]] for b in windows])
        joined_tg = np.concatenate([b.targets[0][b.active[0]] for b in windows])
        assert np.array_equal(joined_in, seq.ids[:-1])
        assert np.array_equal(joined_tg, seq.ids[1:])
        assert windows[0].reset[0] and not windows[1].reset[0]

    def test_no_sequences_is_config_error(self):
        windows = batch_sequences([], batch_size=2, bptt_length=4)
        with pytest.raises(ConfigError, match="empty corpus"):
            next(windows)

    def test_streams_do_not_interleave(self, vocab):
        s1 = tokenize("ab cd", vocab)
        s2 = tokenize("ef gh", vocab)
        windows = list(batch_sequences([s1, s2], batch_size=2, bptt_length=3))
        got1 = np.concatenate([b.inputs[0][b.active[0]] for b in windows])
        got2 = np.concatenate([b.inputs[1][b.active[1]] for b in windows])
        assert np.array_equal(got1, s1.ids[:-1])
        assert np.array_equal(got2, s2.ids[:-1])

    def test_target_conservation(self, vocab):
        rng = np.random.default_rng(0)
        seqs = [tokenize(" ".join("ab" for _ in range(rng.integers(1, 6))),
                         vocab)
                for _ in range(13)]
        total = sum(int(b.active.sum())
                    for b in batch_sequences(seqs, 4, 5))
        assert total == sum(len(s) - 1 for s in seqs)

    def test_new_sequence_flags_reset(self, vocab):
        s1 = tokenize("ab", vocab)
        s2 = tokenize("cd", vocab)
        windows = list(batch_sequences([s1, s2], batch_size=1, bptt_length=8))
        assert [bool(w.reset[0]) for w in windows] == [True, True]


def one_block(values) -> Blocks:
    """A one-block ``Blocks`` over its own buffer."""
    flat = np.array(values, dtype=np.float64)
    return Blocks({"w": flat}, flat)


class TestAdadeltaNesterov:
    def _fresh(self, n=1):
        params = one_block(np.zeros(n))
        return params, OptimizerState.for_params(params)

    def test_first_step_magnitude(self):
        config = TrainConfig(adadelta_rho=0.95, adadelta_eps=1e-6,
                             momentum=0.0)
        params, opt = self._fresh()
        adadelta_nesterov_update(params, one_block(np.ones(1)), opt, config)
        # first step from zero accumulators, unit gradient:
        # -sqrt(eps) / sqrt(0.05 + eps)
        expect = -math.sqrt(1e-6) / math.sqrt(0.05 + 1e-6)
        assert abs(expect - -0.004472) < 5e-7
        np.testing.assert_allclose(params["w"], expect, rtol=1e-12)

    def test_zero_gradient_keeps_params_and_decays_accumulators(self):
        config = TrainConfig(momentum=0.9)
        params, opt = self._fresh(3)
        params["w"][...] = [1.0, -2.0, 0.5]
        adadelta_nesterov_update(params, one_block(np.ones(3)), opt, config)
        snap_w = params["w"].copy()
        snap_eg = opt.flat[0].copy()
        snap_ed = opt.flat[1].copy()
        opt.flat[2] = 0.0  # isolate the zero-gradient behavior
        adadelta_nesterov_update(params, one_block(np.zeros(3)), opt, config)
        np.testing.assert_array_equal(params["w"], snap_w)
        np.testing.assert_allclose(opt.flat[0], 0.95 * snap_eg)
        np.testing.assert_allclose(opt.flat[1], 0.95 * snap_ed)

    def test_no_momentum_reduces_to_plain_adadelta(self):
        # reference: independent textbook adadelta recursion
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=4) for _ in range(10)]
        config = TrainConfig(adadelta_rho=0.9, adadelta_eps=1e-6,
                             momentum=0.0)
        params, opt = self._fresh(4)
        for g in grads:
            adadelta_nesterov_update(params, one_block(g), opt, config)
        x = np.zeros(4)
        eg = np.zeros(4)
        ed = np.zeros(4)
        for g in grads:
            eg = 0.9 * eg + 0.1 * g * g
            delta = -np.sqrt(ed + 1e-6) / np.sqrt(eg + 1e-6) * g
            ed = 0.9 * ed + 0.1 * delta * delta
            x = x + delta
        np.testing.assert_allclose(params["w"], x, rtol=1e-12)

    def test_non_finite_gradient_names_block(self):
        config = TrainConfig()
        params, opt = self._fresh(2)
        bad = one_block([1.0, np.nan])
        with pytest.raises(NumericError, match="'w'"):
            adadelta_nesterov_update(params, bad, opt, config)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(adadelta_rho=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(bptt_length=0)

    @pytest.mark.parametrize("key, value", [
        ("adadelta_eps", math.nan), ("adadelta_eps", math.inf),
        ("clip_norm", math.nan)])
    def test_config_rejects_non_finite(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})

    def test_infinite_clip_norm_never_clips(self):
        TrainConfig(clip_norm=math.inf)
        grads = one_block([3.0, 4.0])
        assert clip_gradients(grads, math.inf) == 5.0
        np.testing.assert_array_equal(grads.flat, [3.0, 4.0])


class TestOptimizerLayout:
    """Clipping and the update run only on ``Blocks`` of one layout."""

    @pytest.mark.parametrize("bad", [{"w": np.zeros(3)},
                                     one_block(np.zeros((2, 3)))],
                             ids=["dict", "2-d buffer"])
    def test_for_params_and_clip_reject(self, bad):
        with pytest.raises(DimensionError):
            OptimizerState.for_params(bad)
        with pytest.raises(DimensionError):
            clip_gradients(bad, 1.0)

    @pytest.mark.parametrize("case", ["dict params", "dict grads",
                                      "2-d grads", "grads length",
                                      "grads names", "state length"])
    def test_update_rejects(self, case):
        params, grads = one_block(np.zeros(3)), one_block(np.ones(3))
        opt = OptimizerState.for_params(params)
        if case == "dict params":
            params = {"w": params.flat}
        elif case == "dict grads":
            grads = {"w": grads.flat}
        elif case == "2-d grads":
            grads = one_block(np.zeros((2, 3)))
        elif case == "grads length":
            grads = one_block(np.ones(4))
        elif case == "grads names":
            grads = Blocks({"v": grads.flat}, grads.flat)
        else:
            opt = OptimizerState.for_params(one_block(np.zeros(4)))
        with pytest.raises(DimensionError):
            adadelta_nesterov_update(params, grads, opt, TrainConfig())
        np.testing.assert_array_equal(params["w"], 0.0)


class TestTrainingLoop:
    def test_loss_decreases_on_fixed_batch(self, vocab):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 8),
                            rng_seed=0)
        seq = tokenize("abcd efgh abcd efgh", vocab)
        inputs = seq.ids[None, :-1]
        targets = seq.ids[None, 1:]
        active = np.ones_like(inputs, dtype=bool)
        params = net.named_blocks()
        opt = OptimizerState.for_params(params)
        config = TrainConfig()
        losses = []
        for _ in range(11):
            probs, _, tape = net.forward(inputs, collect_tape=True)
            loss, n, d_logits = cross_entropy(probs, targets, active)
            losses.append(loss)
            grads = net.backward(tape, d_logits / n)
            adadelta_nesterov_update(params, grads, opt, config)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic_given_seed(self, vocab):
        _, seqs = seqs_from("ab cd\nef gh\nab ef\ncd gh\n")
        spec = NetworkSpec.for_vocab("hlstm_b", build_vocab("ab cd ef gh"), 4)
        config = TrainConfig(bptt_length=8, batch_size=2, max_epochs=3,
                             seed=7)
        r1 = train(spec, seqs, config)
        r2 = train(spec, seqs, config)
        assert [m.train_bpc for m in r1.metrics] == \
            [m.train_bpc for m in r2.metrics]

    def test_entropy_floor_on_random_targets(self):
        # no structure to learn: training bpc stays at the uniform floor
        rng = np.random.default_rng(8)
        v = build_vocab(" ".join(chr(ord("a") + i) for i in range(26)))
        ids = rng.integers(0, v.size - 2, size=400)
        text = "".join(v.symbol_of(int(i)) for i in ids)
        seqs = tokenize_lines(text, v)
        spec = NetworkSpec.for_vocab("mono", v, 4, layers_per_module=1)
        config = TrainConfig(bptt_length=32, batch_size=1, max_epochs=2,
                             seed=0)
        result = train(spec, seqs, config)
        floor = math.log2(v.size)
        assert abs(result.metrics[-1].train_bpc - floor) < 0.15 * floor

    def test_state_carryover_matches_full_forward(self, vocab):
        # windowed forward with carried state must equal one long forward
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 6),
                            rng_seed=3)
        seq = tokenize("abc de fgh ab", vocab)
        full_probs, _, _ = net.forward(seq.ids[:-1])
        full_bits = -np.log2(full_probs[np.arange(seq.n_chars - 1),
                                        seq.ids[1:]]).sum()
        state = net.init_state(1)
        windowed_bits = 0.0
        for b in batch_sequences([seq], 1, 4):
            if b.reset.any():
                state = state.reset_where(b.reset)
            probs, state, _ = net.forward(b.inputs, state=state,
                                          active=b.active)
            loss, _, _ = cross_entropy(probs, b.targets, b.active)
            windowed_bits += loss / math.log(2)
        assert abs(windowed_bits - full_bits) < 1e-12 * max(1.0, full_bits)

    def test_divergence_aborts_and_keeps_checkpoint(self, vocab, tmp_path):
        _, seqs = seqs_from("ab cd\nef gh\n")
        spec = NetworkSpec.for_vocab("hlstm_b", build_vocab("ab cd ef gh"), 4)
        config = TrainConfig(bptt_length=8, batch_size=1, max_epochs=2,
                             seed=0)
        good = build_network(spec, rng_seed=0)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, good, vocab)
        before = path.read_bytes()
        poisoned = build_network(spec, rng_seed=0)
        poisoned.softmax_b[0] = 1e4  # finite, but drives p(target!=0) to 0
        with pytest.raises(DivergenceError):
            train(spec, seqs, config, network=poisoned, vocab=vocab,
                  checkpoint_path=path)
        assert path.read_bytes() == before  # last good checkpoint retained

    def test_heldout_bpc_is_evaluate_bpc(self):
        v, seqs = seqs_from("ab cd ef\ncd ab\nef gh ab cd\ngh\nab ef\n")
        config = TrainConfig(bptt_length=4, batch_size=2, max_epochs=2,
                             seed=1)
        result = train(NetworkSpec.for_vocab("hlstm_a", v, 5), seqs[:3],
                       config, heldout=seqs[3:])
        assert result.metrics[-1].heldout_bpc == \
            evaluate(result.network, seqs[3:]).bpc

    def test_metrics_csv_written(self, vocab, tmp_path):
        _, seqs = seqs_from("ab cd\nef gh\nab ef\n")
        spec = NetworkSpec.for_vocab("hlstm_b", build_vocab("ab cd ef gh"), 4)
        config = TrainConfig(bptt_length=8, batch_size=1, max_epochs=2,
                             seed=0)
        path = tmp_path / "metrics.csv"
        train(spec, seqs, config, heldout=seqs[-1:], metrics_path=path,
              record_timing=False)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_bpc,heldout_bpc,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[1].endswith(",0.000")

    def test_corpus_without_a_prediction_rejected(self, vocab, tmp_path):
        spec = NetworkSpec.for_vocab("hlstm_b", vocab, 4)
        config = TrainConfig(bptt_length=8, batch_size=1, max_epochs=2,
                             seed=0)
        ckpt, metrics = tmp_path / "model.bin", tmp_path / "metrics.csv"
        with pytest.raises(ConfigError):
            train(spec, tokenize_lines("\n\n\n", vocab), config,
                  checkpoint_path=ckpt, metrics_path=metrics)
        assert not ckpt.exists() and not metrics.exists()

    def test_heldout_without_a_prediction_rejected_up_front(self, vocab,
                                                              tmp_path):
        _, seqs = seqs_from("ab cd\nef gh\n")
        spec = NetworkSpec.for_vocab("hlstm_b", vocab, 4)
        config = TrainConfig(bptt_length=8, batch_size=1, max_epochs=2,
                             seed=0)
        metrics = tmp_path / "metrics.csv"
        with pytest.raises(ConfigError):
            train(spec, seqs, config, heldout=tokenize_lines("\n\n", vocab),
                  metrics_path=metrics)
        assert not metrics.exists()  # raised before the first epoch


class TestGradientCheck:
    def test_mono_small(self, vocab):
        spec = NetworkSpec(variant="mono", vocab_size=vocab.size,
                           hidden_dim=4, layers_per_module=1)
        net = build_network(spec, rng_seed=0)
        seq = tokenize("ab cd", vocab)
        report = gradient_check(net, seq.ids)
        assert report.passed
        assert report.max_rel_error <= 1e-4
        assert report.n_params == net.param_count()

    def test_requires_sequence(self, vocab):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        with pytest.raises(ConfigError):
            gradient_check(net, np.array([1]))


class TestCheckpoints:
    def test_round_trip_preserves_evaluation(self, vocab, tmp_path):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 6),
                            rng_seed=1)
        seq = tokenize("abc def gh", vocab)
        path = tmp_path / "model.bin"
        save_checkpoint(path, net, vocab)
        loaded, loaded_vocab = load_checkpoint(path)
        assert loaded_vocab.symbols == vocab.symbols
        assert abs(bpc(loaded, seq) - bpc(net, seq)) < 1e-12

    def test_blocks_identical(self, vocab, tmp_path):
        net = build_network(NetworkSpec.for_vocab("hlstm_a", vocab, 5),
                            rng_seed=2)
        path = tmp_path / "model.bin"
        save_checkpoint(path, net, vocab)
        loaded, _ = load_checkpoint(path)
        for (ka, a), (kb, b) in zip(net.named_blocks().items(),
                                    loaded.named_blocks().items()):
            assert ka == kb
            assert np.array_equal(a, b)

    def test_bad_magic_rejected(self, vocab, tmp_path):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        path = tmp_path / "model.bin"
        save_checkpoint(path, net, vocab)
        data = bytearray(path.read_bytes())
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_rejected(self, vocab, tmp_path):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        path = tmp_path / "model.bin"
        save_checkpoint(path, net, vocab)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, vocab, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "checkpoint.bin"
        first = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4),
                              rng_seed=1)
        save_checkpoint(path, first, vocab)
        before = path.read_bytes()

        class Unwritable:  # the last block: fails after the rest is written
            ndim, shape = 1, (1,)

            def __array__(self, *args, **kw):
                raise OSError("disk full")

        second = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4),
                               rng_seed=2)
        blocks = {**second.named_blocks(), "softmax.b": Unwritable()}
        monkeypatch.setattr(second, "named_blocks", lambda: blocks)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, second, vocab)
        assert path.read_bytes() == before
        loaded, _ = load_checkpoint(path)
        for a, b in zip(first.named_blocks().values(),
                        loaded.named_blocks().values()):
            assert np.array_equal(a, b)
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]

    def test_byte_mode_vocab_round_trip(self, tmp_path):
        from hrnnlm.corpus import byte_vocab
        bv = byte_vocab()
        net = build_network(NetworkSpec.for_vocab("hlstm_b", bv, 3))
        path = tmp_path / "model.bin"
        save_checkpoint(path, net, bv)
        _, loaded_vocab = load_checkpoint(path)
        assert loaded_vocab.mode == "byte"
        assert loaded_vocab.size == 257

    @pytest.mark.parametrize("entry", [
        {"mode": "char", "symbols": ["a", "b", "<s>", "c"]},  # no <w>
        {"mode": "char", "symbols": ["a", "<w>", "b", "c"]},  # no <s>
        {"mode": "char"},
        {"symbols": ["a", "<w>", "<s>", "b"]},
        {"mode": "char", "symbols": ["a", "<w>", "<s>"]},  # too few
        "char",
    ])
    def test_bad_vocabulary_rejected(self, vocab, tmp_path, entry):
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        path = tmp_path / "model.bin"
        save_checkpoint(path, net, vocab)
        data = path.read_bytes()
        (hlen,) = struct.unpack("<I", data[12:16])
        header = json.loads(data[16:16 + hlen])
        header["vocab"] = entry
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:12] + struct.pack("<I", len(blob)) + blob
                         + data[16 + hlen:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
