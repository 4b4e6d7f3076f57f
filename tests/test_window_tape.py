"""Property tests for the window tape and the sigmoid it runs on.

The reference backward below is the per-step one that the window tape
replaced: every step of every layer reverses its own tape and adds its own
weight gradient, one ``dz.T @ [x, h']`` GEMM per step.  ``Network.backward``
takes the weight gradient once per layer per window instead, so only the
order of the sums differs: the two must agree within 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hrnnlm.cells import sigmoid
from hrnnlm.corpus import build_vocab
from hrnnlm.errors import ConfigError
from hrnnlm.hierarchy import VARIANTS, NetworkSpec, build_network

VOCAB = build_vocab("abc def gh")
LETTERS = [i for i in range(VOCAB.size) if i not in VOCAB.boundary_ids]


def _spec(variant):
    if variant == "mono":
        return NetworkSpec(variant="mono", vocab_size=VOCAB.size,
                           hidden_dim=[3, 4])
    return NetworkSpec.for_vocab(variant, VOCAB, [3, 4, 2, 3])


# ---------------------------------------------------------------------------
# Reference: the per-step backward, weight gradient added at every step
# ---------------------------------------------------------------------------

def _where(mask, a, b):
    if mask is True:
        return a
    if mask is False:
        return b
    return np.where(mask, a, b)


def _ref_backward_step(params, tape, d_m_out, d_h_out, grads):
    """(d_x, d_m_prev, d_h_prev) of one step; adds the step's parameter
    gradient to ``grads`` (an LstmParams).  Reads the tape, writes nothing
    into it."""
    cm, rm = tape.clock, tape.reset
    if tape.skipped:
        return (None, _where(rm, 0.0 * d_m_out, d_m_out),
                _where(rm, 0.0 * d_h_out, d_h_out))
    H, D = params.hidden_dim, params.input_dim
    d_m_new = _where(cm, d_m_out, 0.0)
    d_h_new = _where(cm, d_h_out, 0.0)
    i, f, g, o = tape.gates
    tanh_m = tape.tanh_m
    dz_o = d_h_new * tanh_m * o * (1.0 - o)
    d_m = d_h_new * o * (1.0 - tanh_m * tanh_m) + d_m_new + dz_o * params.w_om
    dz_i = d_m * g * i * (1.0 - i)
    dz_f = d_m * tape.m_in * f * (1.0 - f)
    dz_g = d_m * i * (1.0 - g * g)
    d_m_in = d_m * f + dz_i * params.w_im + dz_f * params.w_fm
    dz_rows = np.concatenate([dz_i, dz_f, dz_g, dz_o], axis=1)  # (b, 4h)
    d_xh = dz_rows @ params.W
    grads.W += dz_rows.T @ tape.xh
    grads.w_im += (dz_i * tape.m_in).sum(axis=0)
    grads.w_fm += (dz_f * tape.m_in).sum(axis=0)
    grads.w_om += (dz_o * tape.m_new).sum(axis=0)
    grads.b += dz_rows.sum(axis=0)
    d_x, d_h_in = d_xh[:, :D], d_xh[:, D:]
    d_m_in = d_m_in + _where(cm, 0.0, d_m_out)
    d_h_in = d_h_in + _where(cm, 0.0, d_h_out)
    return (d_x, _where(rm, 0.0 * d_m_in, d_m_in),
            _where(rm, 0.0 * d_h_in, d_h_in))


def _ref_backward(net, tape, d_logits):
    """The gradient of every named block, one step at a time."""
    flat = np.zeros_like(net.flat)
    layer_grads, d_W, d_b = net._views(flat)
    B, T, V = d_logits.shape
    d_W += d_logits.reshape(-1, V).T @ tape.top_h.reshape(B * T, -1)
    d_b += d_logits.sum(axis=(0, 1))
    d_top = d_logits @ net.softmax_W
    running = {d.name: [np.zeros((B, d.hidden)), np.zeros((B, d.hidden))]
               for d in net.layer_defs}
    d_delay = (np.zeros((B, net._hidden_of(net.feedup_layer)))
               if net.feedup_layer else None)
    for t in range(T - 1, -1, -1):
        running[net.output_layer][1] = running[net.output_layer][1] \
            + d_top[:, t]
        if net.feedup_layer:
            running[net.feedup_layer][1] = running[net.feedup_layer][1] \
                + d_delay
        for d in reversed(net.step_order):
            d_m, d_h = running[d.name]
            d_x, d_m, d_h = _ref_backward_step(
                net.layers[d.name], tape.steps[d.name][t], d_m, d_h,
                layer_grads[d.name])
            running[d.name] = [d_m, d_h]
            for kind, ref, cols in net.input_slices[d.name]:
                if kind == "hidden" and d_x is not None:
                    running[ref][1] = running[ref][1] + d_x[:, cols]
                elif kind == "delay":
                    d_delay = (np.zeros_like(d_delay) if d_x is None
                               else d_x[:, cols])
    return net._blocks(layer_grads, d_W, d_b, flat)


def _close(got, want, rtol=1e-12):
    """Equal within rtol relative to the largest magnitude of ``want``."""
    scale = float(np.abs(want).max()) if want.size else 0.0
    assert np.all(np.abs(got - want) <= rtol * scale), (got, want)


def _active(mode, B, T, rng):
    if mode == "full":
        return np.ones((B, T), dtype=bool)
    if mode == "trailing":  # each row active on a leading run, as batched
        lengths = rng.integers(0, T + 1, size=B)
        lengths[0] = T
        return np.arange(T)[None, :] < lengths[:, None]
    return rng.random((B, T)) < 0.7


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(VARIANTS), B=st.integers(1, 4),
       T=st.integers(1, 9),
       active=st.sampled_from(["full", "trailing", "random"]),
       words=st.sampled_from(["none", "some", "many"]),
       seed=st.integers(0, 2**31 - 1))
@example(variant="hlstm_b", B=3, T=6, active="random", words="some", seed=0)
@example(variant="hlstm_a", B=2, T=5, active="trailing", words="none",
         seed=1)
@example(variant="mono", B=1, T=4, active="full", words="many", seed=2)
def test_window_backward_equals_per_step_backward(variant, B, T, active,
                                                  words, seed):
    rng = np.random.default_rng(seed)
    net = build_network(_spec(variant), rng_seed=seed % 1000)
    for arr in net.named_blocks().values():  # livelier gates than 0.08
        arr[...] *= 6.0
    ids = rng.choice(LETTERS, size=(B, T))
    if words != "none":  # boundaries: mixed word clocks and resets
        share = 0.3 if words == "some" else 0.8
        hit = rng.random((B, T)) < share
        ids[hit] = rng.choice(sorted(VOCAB.boundary_ids), size=hit.sum())
    # A warm start, so the first step sees non-zero states.
    _, state, _ = net.forward(rng.choice(LETTERS + [VOCAB.word_boundary_id],
                                         size=(B, 3)))
    mask = _active(active, B, T, rng)
    probs, _, tape = net.forward(ids, state=state, active=mask,
                                 collect_tape=True)
    if words == "none" and variant != "mono":
        assert tape.windows["word1"].slots == tape.windows["word2"].slots == 0
    d_logits = probs * rng.uniform(-1.0, 1.0, size=probs.shape)
    d_logits[~mask] = 0.0
    want = _ref_backward(net, tape, d_logits)
    got = net.backward(tape, d_logits)
    assert got.keys() == want.keys()
    for name in want:
        _close(got[name], want[name])


def test_a_tape_is_reversed_once():
    net = build_network(_spec("hlstm_b"), rng_seed=1)
    ids = np.array([[1, 2, VOCAB.word_boundary_id, 3]])
    probs, _, tape = net.forward(ids, collect_tape=True)
    net.backward(tape, probs)
    with pytest.raises(ConfigError):
        net.backward(tape, probs)


def test_taped_and_untaped_forward_agree_bit_for_bit():
    net = build_network(_spec("hlstm_a"), rng_seed=4)
    rng = np.random.default_rng(4)
    ids = rng.integers(0, VOCAB.size, size=(3, 12))
    mask = _active("random", 3, 12, rng)
    p1, s1, _ = net.forward(ids, active=mask)
    p2, s2, _ = net.forward(ids, active=mask, collect_tape=True)
    np.testing.assert_array_equal(p1, p2)
    for name in s1.layers:
        np.testing.assert_array_equal(s1.layers[name].m, s2.layers[name].m)
        np.testing.assert_array_equal(s1.layers[name].h, s2.layers[name].h)


# ---------------------------------------------------------------------------
# sigmoid: 1 / (1 + e^min(-z, 700))
# ---------------------------------------------------------------------------

def _logaddexp_sigmoid(z):
    """The previous form, exp(-log(1 + e^-z))."""
    return np.exp(-np.logaddexp(0.0, -z))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(zs=st.lists(st.floats(-745.0, 745.0), min_size=1, max_size=40))
@example(zs=[-745.0, -700.0, -690.0, -36.0, -1e-300, 0.0, 1e-300, 36.0,
             700.0, 745.0])
def test_sigmoid_matches_the_logaddexp_form(zs):
    z = np.array(zs)
    got, want = sigmoid(z), _logaddexp_sigmoid(z)
    big = want > 1e-300
    assert np.all(np.abs(got[big] - want[big]) <= 4e-15 * want[big])


@settings(max_examples=300, deadline=None)
@given(zs=st.lists(FINITE, min_size=1, max_size=40))
@example(zs=[-1.7976931348623157e308, -710.0, -700.0, 710.0,
             1.7976931348623157e308])
def test_sigmoid_is_never_subnormal_or_nan(zs):
    z = np.array(zs)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        s = sigmoid(z)
    assert not np.isnan(s).any()
    assert np.all((s >= np.finfo(np.float64).tiny) & (s <= 1.0))
    out = z.copy()  # in place gives the same numbers
    np.testing.assert_array_equal(sigmoid(out, out=out), s)


def test_sigmoid_of_infinities():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        hi, lo = sigmoid(np.array([np.inf, -np.inf]))
    assert hi == 1.0
    # -inf meets the same cap as every z below -700: the floor
    # 1 / (1 + e^700) = 9.9e-305, zero to within 1e-300, never subnormal.
    assert lo == sigmoid(np.array([-700.0]))[0]
    assert np.finfo(np.float64).tiny < lo < 1e-300
    assert np.isnan(sigmoid(np.array([np.nan]))[0])

