"""Recurrent cell kernel: LSTM with external clock/reset gating.

All math is double precision numpy.  Kernels accept a single time step for
either one sequence (inputs shaped ``(d,)``, states ``(h,)``) or a batch
(``(b, d)`` / ``(b, h)``); clock and reset signals are then a scalar or a
``(b,)`` 0/1 vector.  The gated state update is

    s_t = (1 - c_t)(1 - r_t) s_{t-1} + c_t f(x_t, (1 - r_t) s_{t-1})

realized with mask selection rather than arithmetic blending so that a low
clock preserves the previous state bit for bit.  A mask that is the same on
every row selects without copying, so a layer whose clock is low on every
row returns the (reset-masked) previous state arrays themselves.  Every
forward step returns a tape holding exactly what the matching backward step
needs.

Parameter layout.  A layer with input width D and H units is one packed
float64 buffer, ``LstmParams.flat``, of 4H(D + H) + 3H + 4H numbers:

* ``W`` (4H x (D + H)): the rows of the input, forget, write and output
  gates (i, f, m, o) in that order, each with the D input columns x
  followed by the H recurrent columns h;
* ``peep`` (3 x H): the peepholes w_im, w_fm, w_om;
* ``b`` (4H): the biases b_i, b_f, b_m, b_o.

One step is one GEMM of [x, h'] against W for all four gates; one backward
step is one ``dz @ W`` and one ``dz.T @ [x, h']``.  In between, the gates
are held gate-major, (4, b, h), so that each gate's elementwise work runs
over one contiguous block.  The 15 named blocks
(``W_ix``, ``W_ih``, ``w_im``, ``b_i``, ...) are views into the buffer, so a
write through a block changes the layer; the blocks' names, shapes and
order (``LstmParams.blocks``) are those of checkpoint format v1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, NumericError

# Block names in checkpoint and initialization order.
BLOCK_NAMES = ("W_ix", "W_ih", "w_im", "b_i", "W_fx", "W_fh", "w_fm", "b_f",
               "W_mx", "W_mh", "b_m", "W_ox", "W_oh", "w_om", "b_o")


def sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic sigmoid exp(-log(1 + e^-z)), stable for large |z|; may be
    computed in place by passing ``out=z``."""
    out = np.negative(z, out=out, dtype=np.float64)
    np.logaddexp(0.0, out, out=out)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max subtraction; rejects non-finite input."""
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all():
        raise NumericError("softmax input contains non-finite values")
    e = np.exp(z - np.maximum.reduce(z, axis=axis, keepdims=True))
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def _mask(flag, state_arr: np.ndarray):
    """A clock/reset flag as True or False when it is the same on every row,
    else as a (b, 1) bool mask broadcastable over a state."""
    if flag is True or flag is False:
        return flag
    m = np.asarray(flag, dtype=bool)
    if m.ndim == 0:
        return bool(m)
    if m.ndim != state_arr.ndim - 1 or m.shape[0] != state_arr.shape[0]:
        raise DimensionError(
            f"clock/reset shape {m.shape} does not match state batch "
            f"{state_arr.shape}")
    if m.all():
        return True
    if not m.any():
        return False
    return m[:, None]


def _zero_where(mask, a: np.ndarray) -> np.ndarray:
    """a with the rows under the mask zeroed; a itself when no row is."""
    if mask is False:
        return a
    if mask is True:
        return np.zeros_like(a)
    return np.where(mask, 0.0, a)


def _acc(grads: dict, key: str, value: np.ndarray) -> None:
    if key in grads:
        grads[key] += value
    else:
        grads[key] = np.array(value, dtype=np.float64)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

class LstmParams:
    """One LSTM layer packed into one buffer (see the module docstring).

    ``flat`` is a contiguous float64 vector of ``size(input_dim,
    hidden_dim)`` numbers, zeroed when omitted; a given ``flat`` (say, a
    slice of a network's buffer) is used in place, not copied.  ``W``,
    ``peep``, ``b`` and the 15 named blocks are views into it.  Peepholes
    (w_im, w_fm from the previous memory cell, w_om from the fresh one) are
    per-unit vectors, i.e. diagonal peephole matrices.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 flat: Optional[np.ndarray] = None):
        D, H = int(input_dim), int(hidden_dim)
        n = self.size(D, H)
        if flat is None:
            flat = np.zeros(n)
        elif (flat.shape != (n,) or flat.dtype != np.float64
              or not flat.flags.c_contiguous):
            raise DimensionError(
                f"an LSTM layer of {D} inputs and {H} units needs a "
                f"contiguous float64 buffer of {n} numbers")
        self.input_dim, self.hidden_dim = D, H
        self.flat = flat
        nw = 4 * H * (D + H)
        self.W = flat[:nw].reshape(4 * H, D + H)
        self.peep = flat[nw:nw + 3 * H].reshape(3, H)
        self.b = flat[nw + 3 * H:]
        # Shaped to broadcast over gate-major (4, b, h) pre-activations.
        self.b4 = self.b.reshape(4, 1, H)
        self.peep_if4 = self.peep[:2].reshape(2, 1, H)
        for k, gate in enumerate("ifmo"):
            rows = slice(k * H, (k + 1) * H)
            setattr(self, f"W_{gate}x", self.W[rows, :D])
            setattr(self, f"W_{gate}h", self.W[rows, D:])
            setattr(self, f"b_{gate}", self.b[rows])
        self.w_im, self.w_fm, self.w_om = self.peep

    @staticmethod
    def size(input_dim: int, hidden_dim: int) -> int:
        """Numbers in the packed buffer of one layer."""
        return 4 * hidden_dim * (input_dim + hidden_dim) + 7 * hidden_dim

    def blocks(self):
        for name in BLOCK_NAMES:
            yield name, getattr(self, name)

    def fill_uniform(self, rng: np.random.Generator, scale: float) -> None:
        """Uniform [-scale, scale] draw of every block, in block order."""
        for _, arr in self.blocks():
            arr[...] = rng.uniform(-scale, scale, size=arr.shape)


def init_lstm_params(input_dim: int, hidden_dim: int,
                     rng: np.random.Generator, scale: float = 0.08) -> LstmParams:
    """Uniform [-scale, scale] initialization of every block."""
    p = LstmParams(input_dim, hidden_dim)
    p.fill_uniform(rng, scale)
    return p


def zero_lstm_params(input_dim: int, hidden_dim: int) -> LstmParams:
    return LstmParams(input_dim, hidden_dim)


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
    """Everything needed to reverse one LSTM step.

    ``xh`` is the GEMM input [x, h'] and ``gates`` the activations of the
    i, f, g and o gates, gate-major: shape (4, b, h), so that each gate is
    one contiguous (b, h) block.  Unbatched steps are taped with b = 1 and
    ``single`` set.  A step skipped under a low clock keeps only its masks.
    """

    xh: Optional[np.ndarray]
    m_in: Optional[np.ndarray]  # previous state after reset masking
    gates: Optional[np.ndarray]
    m_new: Optional[np.ndarray]
    tanh_m: Optional[np.ndarray]
    clock: object
    reset: object
    skipped: bool = False
    single: bool = False

    def _gate(self, k: int):
        if self.skipped:
            return None
        return self.gates[k, 0] if self.single else self.gates[k]

    i = property(lambda self: self._gate(0))
    f = property(lambda self: self._gate(1))
    g = property(lambda self: self._gate(2))
    o = property(lambda self: self._gate(3))


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
    All four pre-activations come from one GEMM of [x, h'] against the
    packed W.  With the clock low the (reset-masked) previous state is kept
    untouched.
    """
    x = np.asarray(x, dtype=np.float64)
    H = params.hidden_dim
    if x.shape[-1] != params.input_dim:
        raise DimensionError(
            f"input width {x.shape[-1]} != expected {params.input_dim}")
    if state.h.shape[-1] != H:
        raise DimensionError(
            f"state width {state.h.shape[-1]} != expected {H}")
    cm = _mask(clock, state.h)
    rm = _mask(reset, state.h)
    m_in = _zero_where(rm, state.m)
    h_in = _zero_where(rm, state.h)

    if cm is False:
        # Clock low everywhere: nothing to compute, state passes through.
        tape = LstmTape(xh=None, m_in=None, gates=None,
                        m_new=None, tanh_m=None, clock=cm, reset=rm,
                        skipped=True)
        return LstmState(m_in, h_in), tape

    single = x.ndim == 1
    if single:
        x, m_in, h_in = x[None], m_in[None], h_in[None]
    xh = np.concatenate([x, h_in], axis=1)
    # One GEMM for all gates, then bias and a gate-major copy in one pass:
    # ufuncs over contiguous (b, h) gate blocks cost about half as much as
    # over strided column slices at small sizes.
    z = np.empty((4,) + m_in.shape)
    np.add((xh @ params.W.T).reshape(-1, 4, H).transpose(1, 0, 2),
           params.b4, out=z)
    z_if = z[:2]
    z_if += m_in * params.peep_if4
    sigmoid(z_if, out=z_if)
    i, f, g, o = z
    np.tanh(g, out=g)
    m_new = f * m_in
    m_new += i * g
    o += m_new * params.w_om
    sigmoid(o, out=o)
    tanh_m = np.tanh(m_new)
    h_new = o * tanh_m

    if cm is True:
        m, h = m_new, h_new
    else:
        m, h = np.where(cm, m_new, m_in), np.where(cm, h_new, h_in)
    tape = LstmTape(xh=xh, m_in=m_in, gates=z, m_new=m_new,
                    tanh_m=tanh_m, clock=cm, reset=rm, single=single)
    if single:
        m, h = m[0], h[0]
    return LstmState(m, h), tape


def lstm_backward_step(params: LstmParams, tape: LstmTape, d_state: LstmState,
                       grads=None, prefix: str = ""
                       ) -> tuple[Optional[np.ndarray], LstmState]:
    """Reverse one LSTM step.

    d_state holds gradients w.r.t. the step's output state (m, h).  Returns
    (d_x, d_state_prev) and accumulates parameter gradients into ``grads``:
    either a dict keyed by ``prefix + block name`` (a block is created on
    first use) or an ``LstmParams`` of the layer's shape, whose packed
    buffer receives them with one update per part.  Steps taken with the
    clock low contribute nothing to parameters or inputs; a high reset cuts
    the gradient path to the pre-reset state.
    """
    cm, rm = tape.clock, tape.reset
    if tape.skipped:
        d_prev = LstmState(_zero_where(rm, d_state.m),
                           _zero_where(rm, d_state.h))
        return None, d_prev

    H, D = params.hidden_dim, params.input_dim
    d_m_out, d_h_out = d_state.m, d_state.h
    if tape.single:
        d_m_out, d_h_out = d_m_out[None], d_h_out[None]
    all_high = cm is True
    if all_high:
        d_m_new, d_h_new = d_m_out, d_h_out
    else:
        d_m_new = np.where(cm, d_m_out, 0.0)
        d_h_new = np.where(cm, d_h_out, 0.0)
    gates, tanh_m = tape.gates, tape.tanh_m
    i, f, g, o = gates
    d_sig = gates * (1.0 - gates)  # sigmoid' in the i, f and o blocks
    dz = np.empty_like(gates)
    dz_i, dz_f, dz_g, dz_o = dz

    # h = o * tanh(m);  the output-gate peephole sees the fresh m
    np.multiply(d_h_new, tanh_m, out=dz_o)
    dz_o *= d_sig[3]
    d_m = d_h_new * o
    d_m *= 1.0 - tanh_m * tanh_m
    d_m += d_m_new
    d_m += dz_o * params.w_om

    # m = f * m_in + i * g, with i, f sigmoid and g tanh
    np.multiply(d_m, g, out=dz_i)
    np.multiply(d_m, tape.m_in, out=dz_f)
    dz[:2] *= d_sig[:2]
    np.multiply(d_m, i, out=dz_g)
    dz_g *= 1.0 - g * g

    d_m_in = d_m * f
    d_m_in += dz_i * params.w_im
    d_m_in += dz_f * params.w_fm
    dz_rows = dz.transpose(1, 0, 2).reshape(-1, 4 * H)  # (b, 4h), a copy
    d_xh = dz_rows @ params.W
    d_x, d_h_in = d_xh[:, :D], d_xh[:, D:]
    if not all_high:
        d_m_in += np.where(cm, 0.0, d_m_out)
        d_h_in = d_h_in + np.where(cm, 0.0, d_h_out)

    if grads is not None:
        packed = grads if isinstance(grads, LstmParams) else LstmParams(D, H)
        packed.W += dz_rows.T @ tape.xh
        packed.peep[:2] += np.add.reduce(dz[:2] * tape.m_in, axis=1)
        packed.w_om += np.add.reduce(dz_o * tape.m_new, axis=0)
        packed.b += np.add.reduce(dz_rows, axis=0)
        if packed is not grads:
            for name, arr in packed.blocks():
                _acc(grads, prefix + name, arr)

    if tape.single:
        d_x, d_m_in, d_h_in = d_x[0], d_m_in[0], d_h_in[0]
    d_prev = LstmState(_zero_where(rm, d_m_in), _zero_where(rm, d_h_in))
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
        if prefix + name not in grads:
            grads[prefix + name] = np.zeros_like(arr)
    return grads, d_inputs, d_state
