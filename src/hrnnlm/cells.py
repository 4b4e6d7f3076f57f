"""Recurrent cell kernel: LSTM with external clock/reset gating.

All math is double precision numpy.  Kernels accept a single time step for
either one sequence (inputs shaped ``(d,)``, states ``(h,)``) or a batch
(``(b, d)`` / ``(b, h)``); clock and reset signals are then a scalar or a
``(b,)`` 0/1 vector.  The gated state update is

    s_t = (1 - c_t)(1 - r_t) s_{t-1} + c_t f(x_t, (1 - r_t) s_{t-1})

realized with mask selection rather than arithmetic blending so that a low
clock preserves the previous state bit for bit.  Every forward step returns
a tape holding exactly what the matching backward step needs; gradients are
accumulated into a caller-supplied dict keyed by parameter name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import DimensionError, NumericError


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, stable for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max subtraction; rejects non-finite input."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NumericError("softmax input contains non-finite values")
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _mask(flag, state_arr: np.ndarray):
    """Normalize a clock/reset flag to a bool mask broadcastable over a state."""
    m = np.asarray(flag, dtype=bool)
    if m.ndim == 0:
        return m
    if m.ndim != state_arr.ndim - 1 or m.shape[0] != state_arr.shape[0]:
        raise DimensionError(
            f"clock/reset shape {m.shape} does not match state batch "
            f"{state_arr.shape}")
    return m[:, None]


def _sum_rows(a: np.ndarray) -> np.ndarray:
    return a if a.ndim == 1 else a.sum(axis=0)


def _outer(dz: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Parameter-gradient outer product, summed over any batch rows."""
    return np.outer(dz, x) if dz.ndim == 1 else dz.T @ x


def _acc(grads: Optional[dict], key: str, value: np.ndarray) -> None:
    if grads is None:
        return
    if key in grads:
        grads[key] += value
    else:
        grads[key] = np.array(value, dtype=np.float64)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

@dataclass
class LstmParams:
    """One LSTM layer: gate weights, recurrent weights, peepholes, biases.

    Peepholes (w_im, w_fm from the previous memory cell, w_om from the fresh
    one) are per-unit vectors, i.e. diagonal peephole matrices.
    """

    W_ix: np.ndarray
    W_ih: np.ndarray
    w_im: np.ndarray
    b_i: np.ndarray
    W_fx: np.ndarray
    W_fh: np.ndarray
    w_fm: np.ndarray
    b_f: np.ndarray
    W_mx: np.ndarray
    W_mh: np.ndarray
    b_m: np.ndarray
    W_ox: np.ndarray
    W_oh: np.ndarray
    w_om: np.ndarray
    b_o: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.W_ix.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W_ix.shape[0]

    def blocks(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)


def init_lstm_params(input_dim: int, hidden_dim: int,
                     rng: np.random.Generator, scale: float = 0.08) -> LstmParams:
    """Uniform [-scale, scale] initialization of every block."""
    def mat(rows, cols):
        return rng.uniform(-scale, scale, size=(rows, cols))

    def vec():
        return rng.uniform(-scale, scale, size=hidden_dim)

    return LstmParams(
        W_ix=mat(hidden_dim, input_dim), W_ih=mat(hidden_dim, hidden_dim),
        w_im=vec(), b_i=vec(),
        W_fx=mat(hidden_dim, input_dim), W_fh=mat(hidden_dim, hidden_dim),
        w_fm=vec(), b_f=vec(),
        W_mx=mat(hidden_dim, input_dim), W_mh=mat(hidden_dim, hidden_dim),
        b_m=vec(),
        W_ox=mat(hidden_dim, input_dim), W_oh=mat(hidden_dim, hidden_dim),
        w_om=vec(), b_o=vec(),
    )


def zero_lstm_params(input_dim: int, hidden_dim: int) -> LstmParams:
    rng = np.random.default_rng(0)
    p = init_lstm_params(input_dim, hidden_dim, rng)
    for _, arr in p.blocks():
        arr[...] = 0.0
    return p


@dataclass
class LstmState:
    """Persistent cell state: memory cells m and output activation h."""

    m: np.ndarray
    h: np.ndarray

    def copy(self) -> "LstmState":
        return LstmState(self.m.copy(), self.h.copy())

    @classmethod
    def zeros(cls, hidden_dim: int, batch: Optional[int] = None) -> "LstmState":
        shape = (hidden_dim,) if batch is None else (batch, hidden_dim)
        return cls(np.zeros(shape), np.zeros(shape))


@dataclass
class LstmTape:
    """Everything needed to reverse one LSTM step."""

    x: Optional[np.ndarray]
    m_in: Optional[np.ndarray]  # previous state after reset masking
    h_in: Optional[np.ndarray]
    i: Optional[np.ndarray]
    f: Optional[np.ndarray]
    g: Optional[np.ndarray]
    o: Optional[np.ndarray]
    m_new: Optional[np.ndarray]
    tanh_m: Optional[np.ndarray]
    clock: object
    reset: object
    skipped: bool = False


def lstm_step(params: LstmParams, x, state: LstmState,
              clock=True, reset=False) -> tuple[LstmState, LstmTape]:
    """One (optionally clock/reset gated) LSTM step.

    With the clock high the gates are

        i = sigmoid(W_ix x + W_ih h' + w_im * m' + b_i)
        f = sigmoid(W_fx x + W_fh h' + w_fm * m' + b_f)
        m = f * m' + i * tanh(W_mx x + W_mh h' + b_m)
        o = sigmoid(W_ox x + W_oh h' + w_om * m + b_o)
        h = o * tanh(m)

    where (m', h') is the previous state zeroed wherever the reset is high.
    With the clock low the (reset-masked) previous state is kept untouched.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.input_dim:
        raise DimensionError(
            f"input width {x.shape[-1]} != expected {params.input_dim}")
    if state.h.shape[-1] != params.hidden_dim:
        raise DimensionError(
            f"state width {state.h.shape[-1]} != expected {params.hidden_dim}")
    cm = _mask(clock, state.h)
    rm = _mask(reset, state.h)
    m_in = np.where(rm, 0.0, state.m)
    h_in = np.where(rm, 0.0, state.h)

    if not np.any(cm):
        # Clock low everywhere: nothing to compute, state passes through.
        tape = LstmTape(x=None, m_in=None, h_in=None, i=None, f=None, g=None,
                        o=None, m_new=None, tanh_m=None, clock=cm, reset=rm,
                        skipped=True)
        return LstmState(m_in, h_in), tape

    i = sigmoid(x @ params.W_ix.T + h_in @ params.W_ih.T
                + m_in * params.w_im + params.b_i)
    f = sigmoid(x @ params.W_fx.T + h_in @ params.W_fh.T
                + m_in * params.w_fm + params.b_f)
    g = np.tanh(x @ params.W_mx.T + h_in @ params.W_mh.T + params.b_m)
    m_new = f * m_in + i * g
    o = sigmoid(x @ params.W_ox.T + h_in @ params.W_oh.T
                + m_new * params.w_om + params.b_o)
    tanh_m = np.tanh(m_new)
    h_new = o * tanh_m

    m = np.where(cm, m_new, m_in)
    h = np.where(cm, h_new, h_in)
    tape = LstmTape(x=x, m_in=m_in, h_in=h_in, i=i, f=f, g=g, o=o,
                    m_new=m_new, tanh_m=tanh_m, clock=cm, reset=rm)
    return LstmState(m, h), tape


def lstm_backward_step(params: LstmParams, tape: LstmTape, d_state: LstmState,
                       grads: Optional[dict] = None, prefix: str = ""
                       ) -> tuple[Optional[np.ndarray], LstmState]:
    """Reverse one LSTM step.

    d_state holds gradients w.r.t. the step's output state (m, h).  Returns
    (d_x, d_state_prev) and accumulates parameter gradients into ``grads``
    under ``prefix + field_name`` keys.  Steps taken with the clock low
    contribute nothing to parameters or inputs; a high reset cuts the
    gradient path to the pre-reset state.
    """
    cm, rm = tape.clock, tape.reset
    if tape.skipped:
        d_prev = LstmState(np.where(rm, 0.0, d_state.m),
                           np.where(rm, 0.0, d_state.h))
        return None, d_prev

    d_m_new = np.where(cm, d_state.m, 0.0)
    d_h_new = np.where(cm, d_state.h, 0.0)
    d_m_in = np.where(cm, 0.0, d_state.m)
    d_h_in = np.where(cm, 0.0, d_state.h)

    # h = o * tanh(m)
    d_o = d_h_new * tape.tanh_m
    d_m_new = d_m_new + d_h_new * tape.o * (1.0 - tape.tanh_m ** 2)
    d_zo = d_o * tape.o * (1.0 - tape.o)
    d_m_new = d_m_new + d_zo * params.w_om  # output-gate peephole sees fresh m

    # m = f * m_in + i * g
    d_f = d_m_new * tape.m_in
    d_i = d_m_new * tape.g
    d_g = d_m_new * tape.i
    d_m_in = d_m_in + d_m_new * tape.f

    d_zi = d_i * tape.i * (1.0 - tape.i)
    d_zf = d_f * tape.f * (1.0 - tape.f)
    d_zg = d_g * (1.0 - tape.g ** 2)

    d_m_in = d_m_in + d_zi * params.w_im + d_zf * params.w_fm
    d_h_in = (d_h_in + d_zi @ params.W_ih + d_zf @ params.W_fh
              + d_zg @ params.W_mh + d_zo @ params.W_oh)
    d_x = (d_zi @ params.W_ix + d_zf @ params.W_fx
           + d_zg @ params.W_mx + d_zo @ params.W_ox)

    if grads is not None:
        _acc(grads, prefix + "W_ix", _outer(d_zi, tape.x))
        _acc(grads, prefix + "W_ih", _outer(d_zi, tape.h_in))
        _acc(grads, prefix + "w_im", _sum_rows(d_zi * tape.m_in))
        _acc(grads, prefix + "b_i", _sum_rows(d_zi))
        _acc(grads, prefix + "W_fx", _outer(d_zf, tape.x))
        _acc(grads, prefix + "W_fh", _outer(d_zf, tape.h_in))
        _acc(grads, prefix + "w_fm", _sum_rows(d_zf * tape.m_in))
        _acc(grads, prefix + "b_f", _sum_rows(d_zf))
        _acc(grads, prefix + "W_mx", _outer(d_zg, tape.x))
        _acc(grads, prefix + "W_mh", _outer(d_zg, tape.h_in))
        _acc(grads, prefix + "b_m", _sum_rows(d_zg))
        _acc(grads, prefix + "W_ox", _outer(d_zo, tape.x))
        _acc(grads, prefix + "W_oh", _outer(d_zo, tape.h_in))
        _acc(grads, prefix + "w_om", _sum_rows(d_zo * tape.m_new))
        _acc(grads, prefix + "b_o", _sum_rows(d_zo))

    d_prev = LstmState(np.where(rm, 0.0, d_m_in), np.where(rm, 0.0, d_h_in))
    return d_x, d_prev


# ---------------------------------------------------------------------------
# Cell wrapper
# ---------------------------------------------------------------------------

class LstmCell:
    """An LSTM layer bundling parameters with its step/backward kernels."""

    def __init__(self, params: LstmParams):
        self.params = params

    @property
    def hidden_dim(self) -> int:
        return self.params.hidden_dim

    def zero_state(self, batch: Optional[int] = None) -> LstmState:
        return LstmState.zeros(self.hidden_dim, batch)

    def step(self, x, state, clock=True, reset=False):
        return lstm_step(self.params, x, state, clock, reset)

    def backward_step(self, tape, d_state, grads=None, prefix=""):
        return lstm_backward_step(self.params, tape, d_state, grads, prefix)

    def output_grad_to_state(self, d_y, d_state=None) -> LstmState:
        """Fold a gradient w.r.t. y = h into a state gradient."""
        if d_state is None:
            return LstmState(np.zeros_like(d_y), np.array(d_y, dtype=np.float64))
        return LstmState(d_state.m, d_state.h + d_y)

    def blocks(self):
        return self.params.blocks()


def clocked_step(cell, x, state, clock):
    """State update gated by an external clock: frozen unless clock is high."""
    return cell.step(x, state, clock=clock)


def clocked_reset_step(cell, x, state, clock, reset):
    """Clock gating plus a reset that zeroes the previous state first."""
    return cell.step(x, state, clock=clock, reset=reset)


def cell_backward(cell, tapes, d_outputs, grads: Optional[dict] = None,
                  prefix: str = ""):
    """Reverse a whole forward run of a single cell.

    ``d_outputs[t]`` is the gradient w.r.t. the step-t output y_t.  Returns
    (grads, d_inputs, d_state0) where d_inputs[t] is the gradient w.r.t.
    x_t (None for clock-skipped steps) and d_state0 is the gradient w.r.t.
    the initial state.
    """
    if len(tapes) != len(d_outputs):
        raise DimensionError(
            f"{len(tapes)} tape steps but {len(d_outputs)} output gradients")
    if grads is None:
        grads = {}
    d_state = None
    d_inputs = [None] * len(tapes)
    for t in range(len(tapes) - 1, -1, -1):
        d_state = cell.output_grad_to_state(d_outputs[t], d_state)
        d_inputs[t], d_state = cell.backward_step(tapes[t], d_state, grads,
                                                  prefix)
    for name, arr in cell.blocks():
        _acc(grads, prefix + name, np.zeros_like(arr))
    return grads, d_inputs, d_state
