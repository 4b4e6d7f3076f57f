import math

import numpy as np
import pytest

from hrnnlm.cells import (LstmCell, LstmParams, LstmState, LstmWindow,
                          clocked_reset_step, clocked_step, init_lstm_params,
                          lstm_step, lstm_window_grads, softmax)
from hrnnlm.errors import DimensionError, NumericError


def random_lstm(rng, input_dim=4, hidden_dim=3):
    return LstmCell(init_lstm_params(input_dim, hidden_dim, rng, scale=0.4))


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=7)
        for c in (-3.0, 0.01, 42.0):
            np.testing.assert_allclose(softmax(z + c), softmax(z),
                                       atol=1e-12)

    def test_log_ratio(self):
        np.testing.assert_allclose(softmax(np.log([1.0, 3.0])), [0.25, 0.75],
                                   atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        z = rng.normal(scale=50, size=(20, 11))
        s = softmax(z)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(s > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            softmax(np.array([0.0, np.inf]))
        with pytest.raises(NumericError):
            softmax(np.array([np.nan, 0.0]))


class TestLstmStep:
    def test_all_zero_params(self):
        p = LstmParams(4, 3)
        state, tape = lstm_step(p, np.ones(4), LstmState.zeros(3))
        np.testing.assert_array_equal(tape.i, 0.5 * np.ones(3))
        np.testing.assert_array_equal(tape.f, 0.5 * np.ones(3))
        np.testing.assert_array_equal(tape.o, 0.5 * np.ones(3))
        np.testing.assert_array_equal(state.m, np.zeros(3))
        np.testing.assert_array_equal(state.h, np.zeros(3))

    def test_saturated_write_bias_limit(self):
        # with zero weights and a huge write bias, the update tends to
        # 0.5 * m_prev + 0.5 * 1
        p = LstmParams(2, 3)
        p.b_m[...] = 30.0
        m_prev = np.array([0.3, -0.8, 1.2])
        state, _ = lstm_step(p, np.zeros(2),
                             LstmState(m_prev.copy(), np.zeros(3)))
        np.testing.assert_allclose(state.m, 0.5 * m_prev + 0.5, atol=1e-9)

    def test_matches_independent_oracle(self):
        # independent oracle: per-component scalar evaluation of the gate
        # equations, including the peephole terms
        rng = np.random.default_rng(11)
        p = init_lstm_params(4, 3, rng, scale=0.6)
        x = rng.normal(size=4)
        m_prev = rng.normal(size=3)
        h_prev = rng.normal(size=3)
        state, _ = lstm_step(p, x, LstmState(m_prev.copy(), h_prev.copy()))

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        for k in range(3):
            zi = (sum(p.W_ix[k][j] * x[j] for j in range(4))
                  + sum(p.W_ih[k][j] * h_prev[j] for j in range(3))
                  + p.w_im[k] * m_prev[k] + p.b_i[k])
            zf = (sum(p.W_fx[k][j] * x[j] for j in range(4))
                  + sum(p.W_fh[k][j] * h_prev[j] for j in range(3))
                  + p.w_fm[k] * m_prev[k] + p.b_f[k])
            zg = (sum(p.W_mx[k][j] * x[j] for j in range(4))
                  + sum(p.W_mh[k][j] * h_prev[j] for j in range(3))
                  + p.b_m[k])
            m_k = sig(zf) * m_prev[k] + sig(zi) * math.tanh(zg)
            zo = (sum(p.W_ox[k][j] * x[j] for j in range(4))
                  + sum(p.W_oh[k][j] * h_prev[j] for j in range(3))
                  + p.w_om[k] * m_k + p.b_o[k])
            h_k = sig(zo) * math.tanh(m_k)
            assert abs(state.m[k] - m_k) < 1e-12
            assert abs(state.h[k] - h_k) < 1e-12

    def test_gate_ranges(self):
        rng = np.random.default_rng(5)
        cell = random_lstm(rng)
        state = cell.zero_state()
        for _ in range(30):
            state, tape = cell.step(rng.normal(size=4), state)
            for gate in (tape.i, tape.f, tape.o):
                assert np.all((gate > 0) & (gate < 1))
            assert np.all(np.abs(state.h) < 1)


class TestClockGating:
    def test_low_clock_preserves_state_bit_exact(self):
        rng = np.random.default_rng(7)
        cell = random_lstm(rng)
        state = cell.zero_state()
        for _ in range(5):
            state, _ = cell.step(rng.normal(size=4), state)
        frozen = state
        for _ in range(17):
            nxt, _ = clocked_step(cell, rng.normal(size=4), frozen, clock=0)
            assert np.array_equal(nxt.m, frozen.m)
            assert np.array_equal(nxt.h, frozen.h)
            frozen = nxt

    def test_high_clock_equals_bare_step(self):
        rng = np.random.default_rng(8)
        cell = random_lstm(rng)
        x = rng.normal(size=4)
        state = LstmState(rng.normal(size=3), rng.normal(size=3))
        a, _ = clocked_step(cell, x, state, clock=1)
        b, _ = cell.step(x, state)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.h, b.h)

    def test_alternating_clock_equals_subsampled_run(self):
        rng = np.random.default_rng(9)
        cell = random_lstm(rng)
        xs = rng.normal(size=(10, 4))
        clocks = rng.integers(0, 2, size=10)
        clocks[0] = 1
        gated = cell.zero_state()
        for t in range(10):
            gated, _ = clocked_step(cell, xs[t], gated, clock=clocks[t])
        bare = cell.zero_state()
        for t in np.nonzero(clocks)[0]:
            bare, _ = cell.step(xs[t], bare)
        assert np.array_equal(gated.m, bare.m)
        assert np.array_equal(gated.h, bare.h)


class TestResetGating:
    def test_clock_and_reset_erase_history(self):
        rng = np.random.default_rng(10)
        cell = random_lstm(rng)
        x = rng.normal(size=4)
        s1 = LstmState(rng.normal(size=3), rng.normal(size=3))
        s2 = LstmState(rng.normal(size=3), rng.normal(size=3))
        a, _ = clocked_reset_step(cell, x, s1, clock=1, reset=1)
        b, _ = clocked_reset_step(cell, x, s2, clock=1, reset=1)
        c, _ = cell.step(x, cell.zero_state())
        assert np.array_equal(a.h, b.h) and np.array_equal(a.h, c.h)

    def test_idle_step_passthrough(self):
        rng = np.random.default_rng(12)
        cell = random_lstm(rng)
        s = LstmState(rng.normal(size=3), rng.normal(size=3))
        out, _ = clocked_reset_step(cell, rng.normal(size=4), s,
                                    clock=0, reset=0)
        assert np.array_equal(out.m, s.m) and np.array_equal(out.h, s.h)

    def test_reset_without_clock_zeroes(self):
        rng = np.random.default_rng(13)
        cell = random_lstm(rng)
        s = LstmState(rng.normal(size=3), rng.normal(size=3))
        out, _ = clocked_reset_step(cell, rng.normal(size=4), s,
                                    clock=0, reset=1)
        assert np.array_equal(out.m, np.zeros(3))
        assert np.array_equal(out.h, np.zeros(3))

    def test_reset_completeness(self):
        # after a reset step, any two prior histories are indistinguishable
        rng = np.random.default_rng(14)
        cell = random_lstm(rng)
        suffix = rng.normal(size=(20, 4))
        reset_x = rng.normal(size=4)
        outs = []
        for hist_seed in (100, 101):
            hr = np.random.default_rng(hist_seed)
            state = cell.zero_state()
            for _ in range(hr.integers(3, 9)):
                state, _ = cell.step(hr.normal(size=4), state)
            state, _ = clocked_reset_step(cell, reset_x, state,
                                          clock=1, reset=1)
            hs = []
            for t in range(20):
                state, _ = cell.step(suffix[t], state)
                hs.append(state.h.copy())
            outs.append(np.stack(hs))
        assert np.array_equal(outs[0], outs[1])


def _fd_check_cell(cell, xs, clocks, resets, rng, h=1e-5):
    """Finite-difference oracle for a clocked/reset multi-step run.

    Loss is a fixed random linear functional of every step's output, which
    makes the per-step output gradients explicit.  The analytic side runs
    the steps into one window tape, reverses them, and takes the packed
    parameter gradient of the window.
    """
    T = len(xs)
    w = rng.normal(size=(T, cell.hidden_dim))
    p = cell.params
    window = LstmWindow(p.input_dim, p.hidden_dim,
                        sum(1 for c in clocks if c), 1)

    def run(taped=False):
        state = cell.zero_state()
        tapes = []
        total = 0.0
        slots = iter(range(window.slots))
        for t in range(T):
            slot = (window.slot(next(slots), single=True)
                    if taped and clocks[t] else None)
            state, tape = lstm_step(p, xs[t], state, clock=clocks[t],
                                    reset=resets[t], tape=slot)
            tapes.append(tape)
            total += float(w[t] @ state.h)
        return total, tapes

    _, tapes = run(taped=True)
    d_state = LstmState(np.zeros(cell.hidden_dim), np.zeros(cell.hidden_dim))
    d_inputs = [None] * T
    for t in range(T - 1, -1, -1):
        d_state = LstmState(d_state.m, d_state.h + w[t])
        d_inputs[t], d_state = cell.backward_step(tapes[t], d_state)
    packed = LstmParams(p.input_dim, p.hidden_dim)
    lstm_window_grads(window, packed)
    grads = dict(packed.blocks())
    worst = 0.0
    for name, arr in cell.blocks():
        g = grads[name]
        # index the block itself: blocks are strided views into the packed
        # layer buffer, and a reshaped copy would not reach the cell
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + h
            lp, _ = run()
            arr[i] = orig - h
            lm, _ = run()
            arr[i] = orig
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, abs(numeric - g[i])
                        / max(abs(numeric), abs(g[i]), 1e-5))
    # input gradients, where the step was not clock-skipped
    for t in range(T):
        if d_inputs[t] is None:
            continue
        for i in range(xs[t].size):
            orig = xs[t][i]
            xs[t][i] = orig + h
            lp, _ = run()
            xs[t][i] = orig - h
            lm, _ = run()
            xs[t][i] = orig
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, abs(numeric - d_inputs[t][i])
                        / max(abs(numeric), abs(d_inputs[t][i]), 1e-5))
    return worst, grads, d_state


class TestBackward:
    def test_lstm_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        cell = random_lstm(rng)
        xs = rng.normal(size=(5, 4))
        worst, _, _ = _fd_check_cell(cell, xs, [1] * 5, [0] * 5, rng)
        assert worst <= 1e-4

    def test_lstm_gradients_across_clock_and_reset(self):
        rng = np.random.default_rng(22)
        cell = random_lstm(rng)
        xs = rng.normal(size=(7, 4))
        clocks = [1, 0, 1, 1, 0, 1, 1]
        resets = [0, 0, 1, 0, 0, 0, 1]
        worst, _, _ = _fd_check_cell(cell, xs, clocks, resets, rng)
        assert worst <= 1e-4

    def test_idle_step_contributes_nothing(self):
        rng = np.random.default_rng(24)
        cell = random_lstm(rng)
        x = rng.normal(size=4)
        state = LstmState(rng.normal(size=3), rng.normal(size=3))
        _, tape = cell.step(x, state, clock=0)
        d_out = LstmState(np.zeros(3), rng.normal(size=3))
        d_x, d_prev = cell.backward_step(tape, d_out)
        assert d_x is None
        assert np.array_equal(d_prev.h, d_out.h)  # passes straight through
        # no window slot, so nothing reaches a parameter gradient
        assert tape.skipped and tape.window is None

    def test_reset_cuts_state_gradient(self):
        rng = np.random.default_rng(25)
        cell = random_lstm(rng)
        x = rng.normal(size=4)
        state = LstmState(rng.normal(size=3), rng.normal(size=3))
        _, tape = cell.step(x, state, clock=1, reset=1)
        d_out = LstmState(rng.normal(size=3), rng.normal(size=3))
        _, d_prev = cell.backward_step(tape, d_out)
        assert np.array_equal(d_prev.m, np.zeros(3))
        assert np.array_equal(d_prev.h, np.zeros(3))

    def test_tape_gradient_length_mismatch(self):
        # a window's parameter gradient needs every one of its steps reversed
        rng = np.random.default_rng(26)
        cell = random_lstm(rng)
        window = LstmWindow(4, 3, 2, 1)
        state = cell.zero_state()
        for k in range(2):
            state, tape = lstm_step(cell.params, rng.normal(size=4), state,
                                    tape=window.slot(k, single=True))
        cell.backward_step(tape, LstmState(np.zeros(3), np.ones(3)))
        with pytest.raises(DimensionError):
            lstm_window_grads(window, LstmParams(4, 3))


class TestBatchedKernels:
    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(30)
        cell = random_lstm(rng)
        B = 3
        xs = rng.normal(size=(B, 4))
        clocks = np.array([1, 0, 1], dtype=bool)
        resets = np.array([0, 0, 1], dtype=bool)
        state = LstmState(rng.normal(size=(B, 3)), rng.normal(size=(B, 3)))
        out, _ = cell.step(xs, state, clock=clocks, reset=resets)
        for b in range(B):
            row, _ = cell.step(xs[b], LstmState(state.m[b], state.h[b]),
                               clock=bool(clocks[b]), reset=bool(resets[b]))
            # batched GEMM and single-row GEMV may differ in the last ulp
            np.testing.assert_allclose(out.m[b], row.m, rtol=0, atol=1e-14)
            np.testing.assert_allclose(out.h[b], row.h, rtol=0, atol=1e-14)
