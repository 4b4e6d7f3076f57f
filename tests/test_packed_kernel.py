"""Property tests for the equivalences the packed fast path relies on.

The reference kernel below is the per-gate LSTM step that computes each
gate from its own blocks (8 GEMMs forward, 15 block gradients backward);
the packed kernel, with its parameter gradient taken from the step's
window, must agree with it within 1e-12 relative.  The reference
optimizer and clipping loop over blocks one at a time.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hrnnlm.cells import (LstmParams, LstmState, init_lstm_params,
                          lstm_backward_step, lstm_step, lstm_window_grads)
from hrnnlm.corpus import build_vocab, tokenize
from hrnnlm.errors import NumericError
from hrnnlm.hierarchy import VARIANTS, NetworkSpec, build_network
from hrnnlm.training import (OptimizerState, TrainConfig,
                             adadelta_nesterov_update, clip_gradients)

# ---------------------------------------------------------------------------
# Reference: one gate at a time over 15 separate blocks
# ---------------------------------------------------------------------------


def _ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_mask(flag):
    m = np.asarray(flag, dtype=bool)
    return m if m.ndim == 0 else m[:, None]


def _ref_step(p, x, m, h, clock, reset):
    cm, rm = _ref_mask(clock), _ref_mask(reset)
    m_in = np.where(rm, 0.0, m)
    h_in = np.where(rm, 0.0, h)
    if not np.any(cm):
        return m_in, h_in, None
    i = _ref_sigmoid(x @ p.W_ix.T + h_in @ p.W_ih.T + m_in * p.w_im + p.b_i)
    f = _ref_sigmoid(x @ p.W_fx.T + h_in @ p.W_fh.T + m_in * p.w_fm + p.b_f)
    g = np.tanh(x @ p.W_mx.T + h_in @ p.W_mh.T + p.b_m)
    m_new = f * m_in + i * g
    o = _ref_sigmoid(x @ p.W_ox.T + h_in @ p.W_oh.T + m_new * p.w_om + p.b_o)
    tanh_m = np.tanh(m_new)
    tape = dict(x=x, m_in=m_in, h_in=h_in, i=i, f=f, g=g, o=o, m_new=m_new,
                tanh_m=tanh_m)
    return (np.where(cm, m_new, m_in), np.where(cm, o * tanh_m, h_in), tape)


def _ref_backward(p, tape, clock, reset, d_m, d_h):
    """(d_x, d_m_prev, d_h_prev, grads) of one reference step."""
    cm, rm = _ref_mask(clock), _ref_mask(reset)
    if tape is None:
        return None, np.where(rm, 0.0, d_m), np.where(rm, 0.0, d_h), {}
    t = SimpleNamespace(**tape)

    def outer(dz, x):
        return np.outer(dz, x) if dz.ndim == 1 else dz.T @ x

    def rows(a):
        return a if a.ndim == 1 else a.sum(axis=0)

    d_m_new = np.where(cm, d_m, 0.0)
    d_h_new = np.where(cm, d_h, 0.0)
    d_m_in = np.where(cm, 0.0, d_m)
    d_h_in = np.where(cm, 0.0, d_h)
    d_o = d_h_new * t.tanh_m
    d_m_new = d_m_new + d_h_new * t.o * (1.0 - t.tanh_m ** 2)
    d_zo = d_o * t.o * (1.0 - t.o)
    d_m_new = d_m_new + d_zo * p.w_om
    d_zi = d_m_new * t.g * t.i * (1.0 - t.i)
    d_zf = d_m_new * t.m_in * t.f * (1.0 - t.f)
    d_zg = d_m_new * t.i * (1.0 - t.g ** 2)
    d_m_in = d_m_in + d_m_new * t.f + d_zi * p.w_im + d_zf * p.w_fm
    d_h_in = (d_h_in + d_zi @ p.W_ih + d_zf @ p.W_fh + d_zg @ p.W_mh
              + d_zo @ p.W_oh)
    d_x = d_zi @ p.W_ix + d_zf @ p.W_fx + d_zg @ p.W_mx + d_zo @ p.W_ox
    grads = {
        "W_ix": outer(d_zi, t.x), "W_ih": outer(d_zi, t.h_in),
        "w_im": rows(d_zi * t.m_in), "b_i": rows(d_zi),
        "W_fx": outer(d_zf, t.x), "W_fh": outer(d_zf, t.h_in),
        "w_fm": rows(d_zf * t.m_in), "b_f": rows(d_zf),
        "W_mx": outer(d_zg, t.x), "W_mh": outer(d_zg, t.h_in),
        "b_m": rows(d_zg),
        "W_ox": outer(d_zo, t.x), "W_oh": outer(d_zo, t.h_in),
        "w_om": rows(d_zo * t.m_new), "b_o": rows(d_zo),
    }
    return (d_x, np.where(rm, 0.0, d_m_in), np.where(rm, 0.0, d_h_in),
            grads)


def _close(got, want, rtol=1e-12):
    """Equal within rtol relative to the largest magnitude of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = float(np.abs(want).max()) if want.size else 0.0
    assert np.all(np.abs(got - want) <= rtol * scale), (got, want)


MODES = ("high", "low", "mixed")


def _flags(mode, batch, rng):
    if batch is None:
        return mode == "high" if mode != "mixed" else bool(rng.integers(2))
    if mode == "high":
        return np.ones(batch, dtype=bool)
    if mode == "low":
        return np.zeros(batch, dtype=bool)
    flags = rng.integers(0, 2, size=batch).astype(bool)
    flags[0] = not flags[-1] if batch > 1 else flags[0]
    return flags


@settings(max_examples=150, deadline=None)
@given(D=st.integers(1, 5), H=st.integers(1, 5),
       batch=st.one_of(st.none(), st.integers(1, 5)),
       clock=st.sampled_from(MODES), reset=st.sampled_from(MODES),
       seed=st.integers(0, 2**31 - 1))
@example(D=3, H=4, batch=None, clock="high", reset="low", seed=0)
@example(D=3, H=4, batch=5, clock="mixed", reset="mixed", seed=1)
@example(D=2, H=3, batch=4, clock="low", reset="mixed", seed=2)
@example(D=2, H=3, batch=3, clock="mixed", reset="high", seed=3)
def test_packed_kernel_equals_per_gate_kernel(D, H, batch, clock, reset,
                                              seed):
    rng = np.random.default_rng(seed)
    params = init_lstm_params(D, H, rng, scale=0.8)
    ref = SimpleNamespace(**{k: v.copy() for k, v in params.blocks()})
    shape = (H,) if batch is None else (batch, H)
    x = rng.normal(size=shape[:-1] + (D,))
    state = LstmState(rng.normal(size=shape), rng.normal(size=shape))
    c, r = _flags(clock, batch, rng), _flags(reset, batch, rng)

    out, tape = lstm_step(params, x, state, clock=c, reset=r)
    m_want, h_want, ref_tape = _ref_step(ref, x, state.m, state.h, c, r)
    _close(out.m, m_want)
    _close(out.h, h_want)
    assert tape.skipped == (ref_tape is None)
    if ref_tape is not None:
        for gate in "ifgo":
            _close(getattr(tape, gate), ref_tape[gate])

    d_out = LstmState(rng.normal(size=shape), rng.normal(size=shape))
    d_x_want, d_m_want, d_h_want, g_want = _ref_backward(
        ref, ref_tape, c, r, d_out.m, d_out.h)
    d_x, d_prev = lstm_backward_step(params, tape, d_out)
    assert (d_x is None) == (d_x_want is None)
    if d_x is not None:
        _close(d_x, d_x_want)
    _close(d_prev.m, d_m_want)
    _close(d_prev.h, d_h_want)
    packed = LstmParams(D, H)
    if tape.window is not None:  # a skipped step has no slot to add
        lstm_window_grads(tape.window, packed)
    packed_blocks = dict(packed.blocks())
    for name, want in g_want.items():
        _close(packed_blocks[name], want)
    if not g_want:
        assert tape.window is None and not packed.flat.any()


# ---------------------------------------------------------------------------
# Flat buffers: views, optimizer, clipping
# ---------------------------------------------------------------------------

VOCAB = build_vocab("abc def gh")
SEQ = tokenize("abc def gh", VOCAB).ids


def _spec(variant, hidden):
    if variant == "mono":
        return NetworkSpec(variant="mono", vocab_size=VOCAB.size,
                           hidden_dim=hidden[:2])
    return NetworkSpec.for_vocab(variant, VOCAB, hidden)


@pytest.mark.parametrize("variant", VARIANTS)
def test_blocks_are_views_of_the_flat_buffer(variant):
    net = build_network(_spec(variant, [3, 4, 2, 5]), rng_seed=1)
    blocks = net.named_blocks()
    assert sum(b.size for b in blocks.values()) == net.flat.size
    before, _, _ = net.forward(SEQ)
    for name, block in blocks.items():
        assert np.shares_memory(block, net.flat), name
        saved = block.copy()
        block[...] += 0.5
        after, _, _ = net.forward(SEQ)
        assert not np.array_equal(after, before), name
        block[...] = saved
    restored, _, _ = net.forward(SEQ)
    np.testing.assert_array_equal(restored, before)


def _grads(net, seed):
    rng = np.random.default_rng(seed)
    probs, _, tape = net.forward(SEQ[:-1], collect_tape=True)
    d_logits = probs.copy()
    d_logits[np.arange(len(SEQ) - 1), SEQ[1:]] -= 1.0
    grads = net.backward(tape, d_logits * rng.uniform(0.5, 50.0))
    assert np.shares_memory(next(iter(grads.values())), grads.flat)
    return grads


def _ref_update(params, grads, opt, config):
    """The per-block update loop, one block at a time."""
    rho, eps, mu = config.adadelta_rho, config.adadelta_eps, config.momentum
    for name, p in params.items():
        g = grads[name]
        eg, ed, v = opt["eg"][name], opt["ed"][name], opt["v"][name]
        eg *= rho
        eg += (1.0 - rho) * g * g
        delta = -np.sqrt(ed + eps) / np.sqrt(eg + eps) * g
        ed *= rho
        ed += (1.0 - rho) * delta * delta
        v *= mu
        v += delta
        p += mu * v + delta


@settings(max_examples=20, deadline=None)
@given(variant=st.sampled_from(VARIANTS), seed=st.integers(0, 2**31 - 1),
       momentum=st.sampled_from([0.0, 0.9, 0.95]),
       chunk=st.sampled_from([None, 7, 64]))
def test_flat_update_equals_per_block_loop(variant, seed, momentum, chunk):
    config = TrainConfig(momentum=momentum)
    net = build_network(_spec(variant, [3, 2, 4, 2]), rng_seed=seed % 1000)
    ref = {k: v.copy() for k, v in net.named_blocks().items()}
    ref_opt = {k: {n: np.zeros_like(v) for n, v in ref.items()}
               for k in ("eg", "ed", "v")}
    params = net.named_blocks()
    opt = OptimizerState.for_params(params)
    assert opt.flat is not None
    if chunk is not None:  # a smaller scratch: several passes over the vector
        opt.scratch = np.empty((2, chunk))
    for step in range(3):
        grads = _grads(net, seed + step)
        plain = {k: v.copy() for k, v in grads.items()}
        adadelta_nesterov_update(params, grads, opt, config)
        _ref_update(ref, plain, ref_opt, config)
        for name in ref:
            assert np.array_equal(params[name], ref[name]), name
            assert np.array_equal(opt.sq_grad[name], ref_opt["eg"][name])
            assert np.array_equal(opt.sq_delta[name], ref_opt["ed"][name])
            assert np.array_equal(opt.velocity[name], ref_opt["v"][name])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["char1.W_ix", "word2.b_m", "softmax.b"])
def test_flat_update_names_the_non_finite_block(block, bad):
    net = build_network(_spec("hlstm_b", [3, 2, 4, 2]), rng_seed=3)
    params = net.named_blocks()
    opt = OptimizerState.for_params(params)
    grads = _grads(net, 0)
    grads[block].flat[-1] = bad
    before = net.flat.copy()
    with pytest.raises(NumericError, match=f"'{block}'"):
        adadelta_nesterov_update(params, grads, opt, TrainConfig())
    np.testing.assert_array_equal(net.flat, before)


@settings(max_examples=20, deadline=None)
@given(variant=st.sampled_from(VARIANTS), seed=st.integers(0, 2**31 - 1),
       clip_norm=st.sampled_from([1e-3, 1.0, 1e6]))
def test_flat_clip_equals_per_block_norm(variant, seed, clip_norm):
    net = build_network(_spec(variant, [4, 3, 2, 3]), rng_seed=seed % 1000)
    grads = _grads(net, seed)
    plain = {k: v.copy() for k, v in grads.items()}
    want = math.sqrt(sum(float(np.sum(g * g))
                         for _, g in sorted(plain.items())))
    got = clip_gradients(grads, clip_norm)
    assert abs(got - want) <= 1e-12 * want
    scale = clip_norm / got if got > clip_norm else 1.0
    for name, g in plain.items():
        _close(grads[name], g * scale)
