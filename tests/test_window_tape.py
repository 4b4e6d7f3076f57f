"""Property tests for the window tape and the sigmoid it runs on.

The reference backward below is the per-step one that the window tape
replaced: every step of every layer reverses its own tape from its gate
activations and adds its own weight gradient, one ``dz.T @ [x, h']`` GEMM
per step.  ``Network.backward`` takes the weight gradient once per layer
per window instead, and ``lstm_backward_step`` multiplies the incoming
gradient by factors that a pass over the window formed from the
activations beforehand; so the sums run in another order and the products
are reassociated: the two must agree within 1e-12 relative.  A tape holds
only the rows its step computed (``tape.rows`` of the batch), which the
reference reads.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hrnnlm import cells, hierarchy
from hrnnlm.cells import (LstmParams, LstmState, LstmWindow, init_lstm_params,
                          lstm_backward_step, lstm_step, lstm_window_grads,
                          sigmoid)
from hrnnlm.corpus import build_vocab
from hrnnlm.errors import ConfigError, DimensionError
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


def _sel(rows):
    return slice(None) if rows is True else rows


def _ref_backward_step(params, tape, d_m_out, d_h_out, grads):
    """(d_x, d_m_prev, d_h_prev) of one step, d_x over the computed rows;
    adds the step's parameter gradient to ``grads`` (an LstmParams).  Reads
    the tape, writes nothing into it."""
    rows, rm = tape.rows, tape.reset
    if tape.skipped:
        return (None, _where(rm, 0.0 * d_m_out, d_m_out),
                _where(rm, 0.0 * d_h_out, d_h_out))
    H, D = params.hidden_dim, params.input_dim
    d_m_new = d_m_out[_sel(rows)]
    d_h_new = d_h_out[_sel(rows)]
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
    # The rows the step did not compute pass their gradient through.
    d_m_prev, d_h_prev = d_m_out.copy(), d_h_out.copy()
    d_m_prev[_sel(rows)] = d_m_in
    d_h_prev[_sel(rows)] = d_h_in
    return (d_x, _where(rm, 0.0 * d_m_prev, d_m_prev),
            _where(rm, 0.0 * d_h_prev, d_h_prev))


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
    # The gradient of the one-step-delayed feed-up input is held back and
    # added to the feed-up layer's output at the step before.
    feedup = next((src for src, _, lag in net.connections() if lag), None)
    d_delay = (np.zeros((B, net.layers[feedup].hidden_dim)) if feedup else None)
    for t in range(T - 1, -1, -1):
        running[net.output_layer][1] = running[net.output_layer][1] \
            + d_top[:, t]
        if feedup:
            running[feedup][1] = running[feedup][1] + d_delay
        for d in reversed(net.step_order):
            d_m, d_h = running[d.name]
            st = tape.steps[d.name][t]
            d_x, d_m, d_h = _ref_backward_step(
                net.layers[d.name], st, d_m, d_h, layer_grads[d.name])
            running[d.name] = [d_m, d_h]
            for kind, ref, cols in d.sources:
                if kind == "hidden" and d_x is not None:
                    d_ref = running[ref][1].copy()
                    d_ref[_sel(st.rows)] += d_x[:, cols]
                    running[ref][1] = d_ref
                elif kind == "delay":
                    d_delay = np.zeros_like(d_delay)
                    if d_x is not None:
                        d_delay[_sel(st.rows)] = d_x[:, cols]
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


def _same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _same_states(got, want):
    for name, layer in want.layers.items():
        _same_bits(got.layers[name].m, layer.m)
        _same_bits(got.layers[name].h, layer.h)


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(VARIANTS), B=st.integers(1, 4),
       T=st.integers(0, 9),
       active=st.sampled_from(["full", "trailing", "random"]),
       words=st.sampled_from(["none", "some", "many"]),
       idle_row=st.booleans(), seed=st.integers(0, 2**31 - 1))
@example(variant="hlstm_b", B=3, T=7, active="random", words="some",
         idle_row=True, seed=0)
@example(variant="hlstm_a", B=2, T=0, active="full", words="none",
         idle_row=False, seed=1)
@example(variant="mono", B=4, T=5, active="trailing", words="many",
         idle_row=True, seed=2)
def test_planned_window_equals_per_step_execution(variant, B, T, active,
                                                  words, idle_row, seed):
    """The taped forward runs a plan made once per window: slot tapes made
    in bulk and the per-token inputs written before the time loop.  It
    gives the untaped forward's probabilities and final state, and those
    of a fold of ``Network.step`` over each step's active rows, bit for
    bit: with partial active masks, a row inactive throughout, streams
    reset on some rows before the window, and empty windows.  Its tape
    then reverses to the per-step reference's gradient."""
    rng = np.random.default_rng(seed)
    net = build_network(_spec(variant), rng_seed=seed % 1000)
    for arr in net.named_blocks().values():  # livelier gates than 0.08
        arr[...] *= 6.0
    ids = rng.choice(LETTERS, size=(B, T))
    if words != "none":
        share = 0.3 if words == "some" else 0.8
        hit = rng.random((B, T)) < share
        ids[hit] = rng.choice(sorted(VOCAB.boundary_ids), size=hit.sum())
    _, state, _ = net.forward(rng.choice(LETTERS + [VOCAB.word_boundary_id],
                                         size=(B, 3)))
    state = state.reset_where(rng.random(B) < 0.5)  # stream resets
    mask = _active(active, B, T, rng)
    if idle_row:
        mask[rng.integers(B)] = False

    probs, final, tape = net.forward(ids, state=state, active=mask,
                                     collect_tape=True)
    want_probs, want_final, _ = net.forward(ids, state=state, active=mask)
    _same_bits(probs, want_probs)
    _same_states(final, want_final)

    fold, fold_probs = state.clone(), np.zeros_like(probs)
    workspace = net.workspace(B)
    for t in range(T):
        rows = np.flatnonzero(mask[:, t])
        if rows.size:
            fold_probs[rows, t], stepped = net.step(
                fold.take(rows), ids[rows, t], workspace)
            for name, cell in stepped.layers.items():
                fold.layers[name].m[rows] = cell.m
                fold.layers[name].h[rows] = cell.h
    _same_bits(probs, fold_probs)
    _same_states(final, fold)

    d_logits = probs * rng.uniform(-1.0, 1.0, size=probs.shape)
    if T == 0:
        assert not net.backward(tape, d_logits).flat.any()
        return
    want = _ref_backward(net, tape, d_logits)
    got = net.backward(tape, d_logits)
    for name in want:
        _close(got[name], want[name])


def test_backward_reverses_only_the_steps_a_layer_computed(monkeypatch):
    net = build_network(_spec("hlstm_b"), rng_seed=3)
    rng = np.random.default_rng(3)
    ids = rng.choice(LETTERS, size=(3, 12))
    ids[:, [2, 7]] = VOCAB.word_boundary_id
    ids[1, 4] = VOCAB.sentence_boundary_id
    mask = _active("random", 3, 12, rng)
    mask[:, 9] = False  # a step that no layer computes
    probs, _, tape = net.forward(ids, active=mask, collect_tape=True)
    calls = []
    kernel = hierarchy.lstm_backward_step

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(hierarchy, "lstm_backward_step", counted)
    net.backward(tape, probs)
    assert len(calls) == sum(w.slots for w in tape.windows.values())
    assert len(calls) < 4 * 12 and not any(t.skipped for t in calls)


def _kernel_steps(D, H, B, sizes, rng):
    """Steps of one layer into one window: per entry of ``sizes``, "single"
    for an unbatched step, else the number of rows the batched step
    computes.  Each step starts from its own random state.  Returns the
    layer's parameters, the window, and per step its tape and its
    output-state gradient (m, h)."""
    p = init_lstm_params(D, H, rng, scale=1.5)
    window = LstmWindow(D, H, [1 if k == "single" else k for k in sizes])
    steps = []
    for j, k in enumerate(sizes):
        if k == "single":
            shape, clock = (H,), True
            reset = bool(rng.integers(2))
            x = rng.normal(size=D)
        else:
            shape = (B, H)
            clock = np.zeros(B, dtype=bool)
            clock[rng.choice(B, size=k, replace=False)] = True
            reset = rng.random(B) < 0.3
            x = rng.normal(size=(B, D))
        state = LstmState(rng.normal(size=shape), rng.normal(size=shape))
        _, tape = lstm_step(p, x, state, clock, reset,
                            window.slot(j, single=k == "single"))
        steps.append((tape, rng.normal(size=shape), rng.normal(size=shape)))
    return p, window, steps


@settings(max_examples=60, deadline=None)
@given(D=st.integers(1, 5), H=st.integers(1, 5), B=st.integers(1, 4),
       sizes=st.lists(st.one_of(st.just("single"), st.integers(1, 4)),
                      max_size=8),
       run=st.integers(0, 9), chunk_slots=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1))
@example(D=2, H=3, B=3, sizes=[2, "single", 1, 3, 3, "single"], run=7,
         chunk_slots=2, seed=0)
def test_kernel_backward_equals_per_step_reference(D, H, B, sizes, run,
                                                   chunk_slots, seed):
    """Every slot of a window reversed through ``lstm_backward_step``, then
    ``lstm_window_grads``: ragged slots, partial resets, single slots, and
    a run of full slots that spans several chunks of the factor pass."""
    rng = np.random.default_rng(seed)
    sizes = [k if k == "single" else min(k, B) for k in sizes]
    sizes[len(sizes) // 2:len(sizes) // 2] = [B] * run
    p, window, steps = _kernel_steps(D, H, B, sizes, rng)
    want_grads = LstmParams(D, H)
    want = [_ref_backward_step(p, tape, d_m, d_h, want_grads)
            for tape, d_m, d_h in steps]
    got_grads = LstmParams(D, H)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cells, "_FACTOR_CHUNK", chunk_slots * B * H)
        for (tape, d_m, d_h), (d_x, d_m_prev, d_h_prev) in zip(
                reversed(steps), reversed(want)):
            got_x, got = lstm_backward_step(p, tape, LstmState(d_m, d_h))
            _close(got_x, d_x.reshape(got_x.shape))
            _close(got.m, d_m_prev)
            _close(got.h, d_h_prev)
    lstm_window_grads(window, got_grads)
    for (_, g), (_, w) in zip(got_grads.blocks(), want_grads.blocks()):
        _close(g, w)


def test_a_tape_is_reversed_once():
    net = build_network(_spec("hlstm_b"), rng_seed=1)
    ids = np.array([[1, 2, VOCAB.word_boundary_id, 3]])
    probs, _, tape = net.forward(ids, collect_tape=True)
    net.backward(tape, probs)
    with pytest.raises(ConfigError):
        net.backward(tape, probs)


@pytest.mark.parametrize("steps", [3, 5])
def test_gradients_of_another_length_are_rejected(steps):
    net = build_network(_spec("hlstm_b"), rng_seed=1)
    ids = np.array([[1, 2, VOCAB.word_boundary_id, 3]])
    probs, _, tape = net.forward(ids, collect_tape=True)
    with pytest.raises(DimensionError, match="4 taped steps"):
        net.backward(tape, np.zeros((1, steps, VOCAB.size)))


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

