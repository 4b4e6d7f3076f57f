"""Property tests for the equivalences the packed fast path relies on.

The reference kernel below is the per-gate LSTM step that computes each
gate from its own blocks (8 GEMMs forward, 15 block gradients backward);
the packed kernel, with its parameter gradient taken from the step's
window, must agree with it within 1e-12 relative.  A result is a sum
that may cancel to far below its terms, so it is allowed a few dozen eps
of the sum of the magnitudes of those terms (``_ref_step_scale``,
``_ref_backward_scale``) on top.  The reference computes
every row and masks; the packed kernel computes only the clocked rows, so
its gates and input gradient are compared with the reference's at those
rows.  The reference optimizer and clipping loop over blocks one at a
time.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hrnnlm.cells import (LstmParams, LstmState, LstmWindow, init_lstm_params,
                          lstm_backward_step, lstm_step, lstm_window_grads,
                          scratch_tape)
from hrnnlm.corpus import build_vocab, tokenize
from hrnnlm.errors import DimensionError, NumericError
from hrnnlm.hierarchy import VARIANTS, Network, NetworkSpec, build_network
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
                tanh_m=tanh_m, di=i * (1.0 - i), df=f * (1.0 - f),
                do=o * (1.0 - o), dg=1.0 - g * g, dtanh=1.0 - tanh_m ** 2)
    return (np.where(cm, m_new, m_in), np.where(cm, o * tanh_m, h_in), tape)


def _ref_step_scale(p, tape):
    """Per taped value of a reference step, the sum of the magnitudes of
    the terms that form it, carried through the step: a pre-activation's
    terms, then f m' + i g, then o tanh(m).  A gate, or a derivative
    factor such as i (1 - i), moves by at most twice its pre-activation's
    error (sigmoid' <= 1/4, tanh' <= 1), so each value's rounding error is
    a small multiple of eps times its scale, however much its terms
    cancel.  ``h`` is the output's scale; the inputs have none."""
    t = SimpleNamespace(**tape)
    ax, ah, am = np.abs(t.x), np.abs(t.h_in), np.abs(t.m_in)

    def pre(W_x, W_h, b, peep=0.0, mm=0.0):
        return (ax @ np.abs(W_x).T + ah @ np.abs(W_h).T + np.abs(peep) * mm
                + np.abs(b))

    s_i = pre(p.W_ix, p.W_ih, p.b_i, p.w_im, am)
    s_f = pre(p.W_fx, p.W_fh, p.b_f, p.w_fm, am)
    s_g = pre(p.W_mx, p.W_mh, p.b_m)
    ag = np.abs(t.g)
    s_m = am * (s_f + t.f) + ag * s_i + t.i * (s_g + ag)
    s_o = pre(p.W_ox, p.W_oh, p.b_o, p.w_om, s_m)
    return dict(i=s_i, f=s_f, g=s_g, o=s_o, m_new=s_m, tanh_m=s_m,
                h=np.abs(t.tanh_m) * s_o + t.o * s_m, di=s_i, df=s_f,
                do=s_o, dg=2.0 * s_g, dtanh=2.0 * s_m)


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
    d_m_new = d_m_new + d_h_new * t.o * t.dtanh
    d_zo = d_o * t.do
    d_m_new = d_m_new + d_zo * p.w_om
    d_zi = d_m_new * t.g * t.di
    d_zf = d_m_new * t.m_in * t.df
    d_zg = d_m_new * t.i * t.dg
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


def _ref_backward_scale(p, tape, clock, reset, d_m, d_h):
    """_ref_backward over magnitudes: of the weights and the state
    gradients, and of each taped value plus its ``_ref_step_scale``.  Every
    factor is then non-negative, so each result is the sum of the
    magnitudes of the terms that form it, including the forward step's
    rounding carried into them: d_x becomes the sum over 4h of
    |dz_k| |W_kj|, with each |dz| itself such a sum, since the memory
    cell's gradient may cancel too.  A result's rounding error is a small
    multiple of eps times that scale, however much its terms cancel."""
    mag = SimpleNamespace(**{k: np.abs(v) for k, v in vars(p).items()})
    if tape is not None:
        scale = _ref_step_scale(p, tape)
        tape = {k: np.abs(v) + scale.get(k, 0.0) for k, v in tape.items()}
    return _ref_backward(mag, tape, clock, reset, np.abs(d_m), np.abs(d_h))


# Rounding allowance of a result's own sums, in units of eps times its
# scale (_ref_step_scale, _ref_backward_scale): at most 4h = 20 products
# (or 5 rows) per sum, plus the few roundings between sums, with headroom.
_DOT_ULPS = 64


def _close_to_scale(got, want, scale, rtol=1e-12):
    """Equal, entry by entry, within rtol of the largest magnitude of
    ``want`` plus _DOT_ULPS * eps * scale (the entry's own sums, which may
    cancel)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    largest = float(np.abs(want).max()) if want.size else 0.0
    tol = (rtol * largest
           + _DOT_ULPS * np.finfo(np.float64).eps * np.asarray(scale))
    assert np.all(np.abs(got - want) <= tol), (got, want, tol)


MODES = ("high", "low", "mixed")


def _clocked(ref, clock, batch):
    """The clocked rows of a reference array."""
    return ref if batch is None else ref[np.asarray(clock, dtype=bool)]


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
@example(D=1, H=1, batch=None, clock="high", reset="high", seed=1329726)
@example(D=4, H=1, batch=5, clock="high", reset="mixed", seed=1419845598)
@example(D=3, H=1, batch=1, clock="mixed", reset="low", seed=1052647394)
@example(D=2, H=1, batch=1, clock="high", reset="low", seed=417631496)
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
    assert tape.skipped == (ref_tape is None)
    if ref_tape is None:
        _close(out.m, m_want)
        _close(out.h, h_want)
    else:
        scale = _ref_step_scale(ref, ref_tape)
        _close_to_scale(out.m, m_want, scale["m_new"])
        _close_to_scale(out.h, h_want, scale["h"])
        for gate in "ifgo":
            _close_to_scale(getattr(tape, gate),
                            _clocked(ref_tape[gate], c, batch),
                            _clocked(scale[gate], c, batch))

    d_out = LstmState(rng.normal(size=shape), rng.normal(size=shape))
    d_x_want, d_m_want, d_h_want, g_want = _ref_backward(
        ref, ref_tape, c, r, d_out.m, d_out.h)
    # Backward results are sums that may cancel far below their terms:
    # each is also allowed the rounding of those terms.
    d_x_scale, d_m_scale, d_h_scale, g_scale = _ref_backward_scale(
        ref, ref_tape, c, r, d_out.m, d_out.h)
    d_x, d_prev = lstm_backward_step(params, tape, d_out)
    assert (d_x is None) == (d_x_want is None)
    if d_x is not None:
        _close_to_scale(d_x, _clocked(d_x_want, c, batch),
                        _clocked(d_x_scale, c, batch))
    _close_to_scale(d_prev.m, d_m_want, d_m_scale)
    _close_to_scale(d_prev.h, d_h_want, d_h_scale)
    packed = LstmParams(D, H)
    if tape.window is not None:  # a skipped step has no slot to add
        lstm_window_grads(tape.window, packed)
    packed_blocks = dict(packed.blocks())
    for name, want in g_want.items():
        _close_to_scale(packed_blocks[name], want, g_scale[name])
    if not g_want:
        assert tape.window is None and not packed.flat.any()


def _tape(kind, D, H, batch, rows):
    """A tape of ``kind`` for a step that computes ``rows`` rows: none (the
    step makes a window), a one-slot window, or a scratch tape."""
    if kind == "none" or rows == 0:
        return None
    if kind == "window":
        return LstmWindow(D, H, [rows]).slot(0, single=batch is None)
    return scratch_tape(D, H, rows)


@settings(max_examples=150, deadline=None)
@given(D=st.integers(1, 5), H=st.integers(1, 5),
       batch=st.one_of(st.none(), st.integers(1, 5)),
       clock=st.sampled_from(MODES), reset=st.sampled_from(MODES),
       tape=st.sampled_from(["none", "window", "scratch"]),
       seed=st.integers(0, 2**31 - 1))
@example(D=3, H=4, batch=1, clock="high", reset="low", tape="scratch",
         seed=0)
@example(D=3, H=4, batch=1, clock="high", reset="high", tape="window",
         seed=0)
@example(D=2, H=3, batch=5, clock="high", reset="mixed", tape="scratch",
         seed=1)
@example(D=2, H=3, batch=4, clock="mixed", reset="mixed", tape="window",
         seed=2)
@example(D=2, H=3, batch=4, clock="mixed", reset="low", tape="scratch",
         seed=5)
@example(D=2, H=3, batch=4, clock="low", reset="high", tape="none", seed=3)
@example(D=3, H=2, batch=None, clock="high", reset="low", tape="window",
         seed=4)
def test_step_into_out_equals_step(D, H, batch, clock, reset, tape, seed):
    """``lstm_step(..., out=s)`` writes into s, strided views of a wider
    buffer, the bits that the step without ``out`` returns, and returns s
    itself: for full and partial clocks, no, partial and full resets,
    one-row batches and unbatched states, through every kind of tape.
    The input state and the buffer's other columns are left as they
    were."""
    if batch is None and tape == "scratch":
        tape = "window"  # a scratch tape has batch rows
    rng = np.random.default_rng(seed)
    params = init_lstm_params(D, H, rng, scale=0.8)
    shape = (H,) if batch is None else (batch, H)
    x = rng.normal(size=shape[:-1] + (D,))
    state = LstmState(rng.normal(size=shape), rng.normal(size=shape))
    before = state.copy()
    c, r = _flags(clock, batch, rng), _flags(reset, batch, rng)
    rows = int(np.count_nonzero(c)) if batch is not None else int(c)
    want, _ = lstm_step(params, x, state, c, r, _tape(tape, D, H, batch, rows))
    wide = rng.normal(size=shape[:-1] + (3 * H + 2,))
    junk = wide.copy()
    out = LstmState(wide[..., 1:H + 1], wide[..., 2 * H + 2:])
    got, _ = lstm_step(params, x, state, c, r, _tape(tape, D, H, batch, rows),
                       out=out)
    assert got is out
    for a, b in ((got.m, want.m), (got.h, want.h), (state.m, before.m),
                 (state.h, before.h)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    cols = np.r_[0, H + 1:2 * H + 2]
    assert wide[..., cols].tobytes() == junk[..., cols].tobytes()


def test_step_rejects_out_of_another_shape():
    rng = np.random.default_rng(0)
    params = init_lstm_params(2, 3, rng)
    state = LstmState(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DimensionError, match="out arrays"):
        lstm_step(params, np.zeros((2, 2)), state,
                  out=LstmState(np.zeros((1, 3)), np.zeros((1, 3))))


# Beyond this pre-activation a gate is 0 or 1 exactly: sigmoid(z) =
# 0.5 tanh(z / 2) + 0.5 and tanh(z / 2) rounds to +-1 from |z| = 38 or so.
_SATURATED = 40.0


@settings(max_examples=100, deadline=None)
@given(D=st.integers(1, 4), H=st.integers(1, 4),
       batch=st.one_of(st.none(), st.integers(1, 4)),
       clock=st.sampled_from(["high", "mixed"]),
       reset=st.sampled_from(MODES), weight_exp=st.integers(0, 6),
       input_exp=st.integers(0, 294), seed=st.integers(0, 2**31 - 1))
@example(D=3, H=4, batch=3, clock="high", reset="mixed", weight_exp=6,
         input_exp=294, seed=0)
@example(D=1, H=2, batch=None, clock="high", reset="low", weight_exp=0,
         input_exp=2, seed=1)
def test_kernel_gates_at_extreme_pre_activations(D, H, batch, clock, reset,
                                                 weight_exp, input_exp,
                                                 seed):
    """Weights up to 1e6 and inputs up to 1e294 take the pre-activations to
    about 1e300 without overflow.  Under np.errstate(all="raise") the
    kernel's gates lie in [0, 1], are never subnormal, and are exactly 0
    or 1 wherever the reference pre-activation is saturated; they match
    ``_ref_sigmoid`` within the per-value tolerance; a NaN input gives NaN
    gates on its row."""
    rng = np.random.default_rng(seed)
    params = init_lstm_params(D, H, rng, scale=10.0 ** weight_exp)
    ref = SimpleNamespace(**{k: v.copy() for k, v in params.blocks()})
    shape = (H,) if batch is None else (batch, H)
    x = rng.uniform(-1.0, 1.0, size=shape[:-1] + (D,)) * 10.0 ** input_exp
    state = LstmState(rng.uniform(-1.0, 1.0, size=shape),
                      rng.uniform(-1.0, 1.0, size=shape))
    c, r = _flags(clock, batch, rng), _flags(reset, batch, rng)
    if not np.any(c):  # a step that computes at least one row
        c = _flags("high", batch, rng)
    with np.errstate(all="raise"):
        out, tape = lstm_step(params, x, state, clock=c, reset=r)
        gates = {gate: getattr(tape, gate) for gate in "ifo"}
    m_want, h_want, ref_tape = _ref_step(ref, x, state.m, state.h, c, r)
    scale = _ref_step_scale(ref, ref_tape)
    t = SimpleNamespace(**ref_tape)
    pre = {"i": x @ ref.W_ix.T + t.h_in @ ref.W_ih.T + t.m_in * ref.w_im
           + ref.b_i,
           "f": x @ ref.W_fx.T + t.h_in @ ref.W_fh.T + t.m_in * ref.w_fm
           + ref.b_f,
           "o": x @ ref.W_ox.T + t.h_in @ ref.W_oh.T + t.m_new * ref.w_om
           + ref.b_o}
    tiny = np.finfo(np.float64).tiny
    for gate, got in gates.items():
        assert np.all((got >= 0.0) & (got <= 1.0)), gate
        assert np.all((got == 0.0) | (got >= tiny)), gate
        z = _clocked(pre[gate], c, batch)
        err = _DOT_ULPS * np.finfo(np.float64).eps * _clocked(
            scale[gate], c, batch)
        assert np.all(got[z < -_SATURATED - err] == 0.0), gate
        assert np.all(got[z > _SATURATED + err] == 1.0), gate
        _close_to_scale(got, _clocked(ref_tape[gate], c, batch),
                        _clocked(scale[gate], c, batch))

    x_nan = x.copy()
    x_nan[..., 0] = np.nan
    with np.errstate(all="raise"):
        _, tape = lstm_step(params, x_nan, state, clock=c, reset=r)
        for gate in "ifgo":
            assert np.isnan(getattr(tape, gate)).all(), gate


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
    if chunk is not None:  # a smaller scratch: several passes over the vector
        opt.scratch = np.empty((2, chunk))
    # The accumulator rows, read back by block name.
    rows = Network(net.spec, init_scale=0.0)
    for step in range(3):
        grads = _grads(net, seed + step)
        plain = {k: v.copy() for k, v in grads.items()}
        adadelta_nesterov_update(params, grads, opt, config)
        _ref_update(ref, plain, ref_opt, config)
        for name in ref:
            assert np.array_equal(params[name], ref[name]), name
        for row, key in zip(opt.flat, ("eg", "ed", "v")):
            rows.flat[...] = row
            for name, acc in rows.named_blocks().items():
                assert np.array_equal(acc, ref_opt[key][name]), (key, name)


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
