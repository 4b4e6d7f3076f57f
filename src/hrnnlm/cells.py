"""Recurrent cell kernel: LSTM with external clock/reset gating.

All math is double precision numpy.  Kernels accept a single time step for
either one sequence (inputs shaped ``(d,)``, states ``(h,)``) or a batch
(``(b, d)`` / ``(b, h)``); clock and reset signals are then a scalar or a
``(b,)`` 0/1 vector.  The gated state update is

    s_t = (1 - c_t)(1 - r_t) s_{t-1} + c_t f(x_t, (1 - r_t) s_{t-1})

realized with mask selection rather than arithmetic blending so that a low
clock preserves the previous state bit for bit.  A mask that is the same on
every row selects without copying, so a layer whose clock is low on every
row returns the (reset-masked) previous state arrays themselves.

Parameter layout.  A layer with input width D and H units is one packed
float64 buffer, ``LstmParams.flat``, of 4H(D + H) + 3H + 4H numbers:

* ``W`` (4H x (D + H)): the rows of the input, forget, write and output
  gates (i, f, m, o) in that order, each with the D input columns x
  followed by the H recurrent columns h;
* ``peep`` (3 x H): the peepholes w_im, w_fm, w_om;
* ``b`` (4H): the biases b_i, b_f, b_m, b_o.

One step is one GEMM of [x, h'] against W for all four gates.  In between,
the gates are held gate-major, (4, b, h), so that each gate's elementwise
work runs over one contiguous block.  The 15 named blocks (``W_ix``,
``W_ih``, ``w_im``, ``b_i``, ...) are views into the buffer, so a write
through a block changes the layer; the blocks' names, shapes and order
(``LstmParams.blocks``) are those of checkpoint format v1.

Window tapes.  An ``LstmWindow`` preallocates what backward needs of one
layer over a window of computed steps: per step, the GEMM input [x, h'],
the gates, the reset-masked previous memory, the fresh memory and its
tanh.  Each computed ``lstm_step`` writes one slot of it (an ``LstmTape``)
in place; a caller may write the step's inputs straight into the slot's x
columns.  ``lstm_backward_step`` reverses one step: it computes dz, the
gradient of the gate pre-activations, stores it as (b, 4h) rows over the
gates it has just read, and runs the one per-step GEMM, ``dz @ W``.  Once
every step of the window is reversed, ``lstm_window_grads`` forms the
parameter gradient of the whole window with one ``dz.T @ [x, h']`` GEMM
plus the peephole and bias reductions: the weight gradient once per
sequence, not once per step (Appleyard et al. 2016, arXiv 1604.01946).
Steps that are never reversed (scoring, streaming, decoding) run through
a ``scratch_tape``: one step's buffers, reused for every step of a call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

# Block names in checkpoint and initialization order.
BLOCK_NAMES = ("W_ix", "W_ih", "w_im", "b_i", "W_fx", "W_fh", "w_fm", "b_f",
               "W_mx", "W_mh", "b_m", "W_ox", "W_oh", "w_om", "b_o")

# sigmoid caps -z here: e^700 is finite, so exp never overflows, and the
# smallest result, 1 / (1 + e^700) = 9.9e-305, is a normal number.
_SIGMOID_CAP = 700.0


def sigmoid(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + e^-z); may be computed in place by passing
    ``out=z``.

    -z is capped at 700 before the exp, so no finite input overflows (and
    none raises a floating-point warning).  Below z = -700 the result stays
    at its floor of 9.9e-305 instead of decaying into subnormals; -inf maps
    to that floor too, +inf to 1, and NaN stays NaN.
    """
    out = np.negative(z, out=out, dtype=np.float64)
    np.minimum(out, _SIGMOID_CAP, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


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


def _copy_zeroed(mask, a: np.ndarray, out: np.ndarray) -> None:
    """Write a into out with the rows under the mask zeroed."""
    if mask is True:
        out.fill(0.0)
        return
    np.copyto(out, a)
    if mask is not False:
        np.copyto(out, 0.0, where=mask)


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


class LstmWindow:
    """The forward buffers of one layer over ``slots`` computed steps of
    ``batch`` rows, all in one allocation.

    Per slot: ``xh`` (b, D + H), the GEMM input [x, h']; ``gates`` (4, b, h),
    the i, f, g, o activations gate-major, which backward overwrites with
    the step's dz as (b, 4h) rows; ``m_in``, ``m_new`` and ``tanh_m`` (b, h).
    ``reversed`` counts the slots backward has reversed.
    """

    def __init__(self, input_dim: int, hidden_dim: int, slots: int,
                 batch: int):
        D, H, n, B = input_dim, hidden_dim, slots, batch
        n_xh, n_g = n * B * (D + H), n * 4 * B * H
        buf = np.empty(n_xh + n_g + 3 * n * B * H)
        self.input_dim, self.hidden_dim = D, H
        self.slots, self.batch = n, B
        self.xh = buf[:n_xh].reshape(n, B, D + H)
        self.gates = buf[n_xh:n_xh + n_g].reshape(n, 4, B, H)
        self.m_in, self.m_new, self.tanh_m = (
            buf[n_xh + n_g:].reshape(3, n, B, H))
        self.dz: Optional[np.ndarray] = None  # backward's (4, b, h) scratch
        self.reversed = 0

    def slot(self, k: int, single: bool = False) -> "LstmTape":
        """The tape of step slot k, as views into the window."""
        return LstmTape(self, self.xh[k], self.m_in[k], self.gates[k],
                        self.m_new[k], self.tanh_m[k], single=single)


class LstmTape:
    """One step of one layer: views into its ``LstmWindow`` slot, the
    step's clock and reset masks, and whether it was skipped (clock low on
    every row: no slot, no arrays) or unbatched (b = 1, ``single``).

    ``x`` and ``h_in`` are the input and recurrent columns of ``xh``: a
    caller may write the step's input into ``x`` and pass ``tape.x`` itself
    to ``lstm_step``.  ``i``, ``f``, ``g`` and ``o`` are the gate
    activations until backward has reversed the step.  A tape without a
    window (``scratch_tape``) cannot be reversed.
    """

    __slots__ = ("window", "xh", "x", "h_in", "m_in", "gates", "m_new",
                 "tanh_m", "clock", "reset", "skipped", "single")

    def __init__(self, window, xh=None, m_in=None, gates=None, m_new=None,
                 tanh_m=None, clock=True, reset=False, skipped=False,
                 single=False):
        self.window, self.xh, self.m_in = window, xh, m_in
        self.x = self.h_in = None
        if xh is not None:
            D = xh.shape[1] - m_in.shape[1]
            self.x, self.h_in = xh[:, :D], xh[:, D:]
        self.gates, self.m_new, self.tanh_m = gates, m_new, tanh_m
        self.clock, self.reset = clock, reset
        self.skipped, self.single = skipped, single

    def _gate(self, k: int):
        if self.skipped:
            return None
        return self.gates[k, 0] if self.single else self.gates[k]

    i = property(lambda self: self._gate(0))
    f = property(lambda self: self._gate(1))
    g = property(lambda self: self._gate(2))
    o = property(lambda self: self._gate(3))


def scratch_tape(input_dim: int, hidden_dim: int, batch: int) -> LstmTape:
    """The buffers of one step of ``batch`` rows, for steps that are not
    reversed: a caller may run every step of a pass through it, since a
    step reads its input state before it writes the slot."""
    xh = np.empty((batch, input_dim + hidden_dim))
    buf = np.empty((7, batch, hidden_dim))  # gates, m_in, m_new, tanh_m
    return LstmTape(None, xh, buf[4], buf[:4], buf[5], buf[6])


def lstm_step(params: LstmParams, x, state: LstmState,
              clock=True, reset=False, tape: Optional[LstmTape] = None
              ) -> tuple[LstmState, LstmTape]:
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
    untouched, and x is not read (it may be None).

    ``tape`` is the window slot the step writes (``LstmWindow.slot``); a
    one-step window is allocated when it is omitted.  When x is ``tape.x``
    itself the input is already in place and is not copied.  The new m is
    the slot's ``m_new``, so a slot must not be rewritten while that state
    is still to be read.
    """
    H = params.hidden_dim
    if state.h.shape[-1] != H:
        raise DimensionError(
            f"state width {state.h.shape[-1]} != expected {H}")
    cm = _mask(clock, state.h)
    rm = _mask(reset, state.h)
    if cm is False:
        # Clock low everywhere: nothing to compute, state passes through.
        return (LstmState(_zero_where(rm, state.m), _zero_where(rm, state.h)),
                LstmTape(None, clock=cm, reset=rm, skipped=True))

    D = params.input_dim
    if tape is None or x is not tape.x:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != D:
            raise DimensionError(f"input width {x.shape[-1]} != expected {D}")
        if tape is None:
            single = x.ndim == 1
            tape = LstmWindow(D, H, 1, 1 if single else x.shape[0]).slot(
                0, single)
        np.copyto(tape.x, x)
    tape.clock, tape.reset = cm, rm
    xh, h_in, m_in, z = tape.xh, tape.h_in, tape.m_in, tape.gates
    _copy_zeroed(rm, state.h, h_in)
    _copy_zeroed(rm, state.m, m_in)
    # One GEMM for all gates, then bias and a gate-major copy in one pass:
    # ufuncs over contiguous (b, h) gate blocks cost about half as much as
    # over strided column slices at small sizes.
    np.add((xh @ params.W.T).reshape(-1, 4, H).transpose(1, 0, 2),
           params.b4, out=z)
    z_if = z[:2]
    z_if += m_in * params.peep_if4
    sigmoid(z_if, out=z_if)
    i, f, g, o = z
    np.tanh(g, out=g)
    m_new = np.multiply(f, m_in, out=tape.m_new)
    m_new += i * g
    o += m_new * params.w_om
    sigmoid(o, out=o)
    tanh_m = np.tanh(m_new, out=tape.tanh_m)
    h_new = o * tanh_m

    if cm is True:
        m, h = m_new, h_new
    else:
        m, h = np.where(cm, m_new, m_in), np.where(cm, h_new, h_in)
    if tape.single:
        m, h = m[0], h[0]
    return LstmState(m, h), tape


def lstm_backward_step(params: LstmParams, tape: LstmTape, d_state: LstmState
                       ) -> tuple[Optional[np.ndarray], LstmState]:
    """Reverse one LSTM step.

    d_state holds gradients w.r.t. the step's output state (m, h).  Returns
    (d_x, d_state_prev).  The step's dz replaces its gates in the window
    (as (b, 4h) rows), where ``lstm_window_grads`` turns the dz of every
    step into the parameter gradient.  Steps taken with the clock low
    contribute nothing to parameters or inputs (d_x is None); a high reset
    cuts the gradient path to the pre-reset state.
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
    window, gates, tanh_m = tape.window, tape.gates, tape.tanh_m
    if window is None:
        raise ConfigError("a scratch tape cannot be reversed")
    if window.dz is None:
        window.dz = np.empty_like(gates)
    dz = window.dz
    i, f, g, o = gates
    dz_i, dz_f, dz_g, dz_o = dz
    np.subtract(1.0, gates, out=dz)
    dz *= gates  # sigmoid' in the i, f and o blocks

    # h = o * tanh(m);  the output-gate peephole sees the fresh m
    dz_o *= d_h_new
    dz_o *= tanh_m
    d_m = d_h_new * o
    d_m *= 1.0 - tanh_m * tanh_m
    d_m += d_m_new
    d_m += dz_o * params.w_om

    # m = f * m_in + i * g, with i, f sigmoid and g tanh
    dz_i *= d_m
    dz_i *= g
    dz_f *= d_m
    dz_f *= tape.m_in
    np.multiply(d_m, i, out=dz_g)
    dz_g *= 1.0 - g * g

    d_m_in = d_m * f
    d_m_in += dz_i * params.w_im
    d_m_in += dz_f * params.w_fm
    # The gates are read: their slot takes the dz rows.
    dz_rows = gates.reshape(-1, 4 * H)
    np.copyto(dz_rows.reshape(-1, 4, H), dz.transpose(1, 0, 2))
    window.reversed += 1
    d_xh = dz_rows @ params.W
    d_x, d_h_in = d_xh[:, :D], d_xh[:, D:]
    if not all_high:
        d_m_in += np.where(cm, 0.0, d_m_out)
        d_h_in = d_h_in + np.where(cm, 0.0, d_h_out)

    if tape.single:
        d_x, d_m_in, d_h_in = d_x[0], d_m_in[0], d_h_in[0]
    d_prev = LstmState(_zero_where(rm, d_m_in), _zero_where(rm, d_h_in))
    return d_x, d_prev


def lstm_window_grads(window: LstmWindow, grads: LstmParams) -> None:
    """Add the parameter gradient of a reversed window to ``grads`` (an
    ``LstmParams`` of the layer's shape): one ``dz.T @ [x, h']`` GEMM over
    every computed row of the window, plus the peephole and bias sums.
    Raises DimensionError unless backward reversed every slot."""
    if window.reversed != window.slots:
        raise DimensionError(
            f"{window.reversed} of {window.slots} window steps reversed")
    n, B, H = window.slots, window.batch, window.hidden_dim
    if n == 0:
        return
    dz = window.gates.reshape(n * B, 4 * H)
    grads.W += dz.T @ window.xh.reshape(n * B, -1)
    dz4 = window.gates.reshape(n, B, 4, H)
    grads.peep[:2] += np.einsum("tbkh,tbh->kh", dz4[:, :, :2], window.m_in)
    grads.w_om += np.einsum("tbh,tbh->h", dz4[:, :, 3], window.m_new)
    grads.b += np.add.reduce(dz, axis=0)


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

    def backward_step(self, tape, d_state):
        return lstm_backward_step(self.params, tape, d_state)

    def blocks(self):
        return self.params.blocks()


def clocked_step(cell, x, state, clock):
    """State update gated by an external clock: frozen unless clock is high."""
    return cell.step(x, state, clock=clock)


def clocked_reset_step(cell, x, state, clock, reset):
    """Clock gating plus a reset that zeroes the previous state first."""
    return cell.step(x, state, clock=clock, reset=reset)
