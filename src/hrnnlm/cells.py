"""Recurrent cell kernel: LSTM with external clock/reset gating.

All math is double precision numpy.  Kernels accept a single time step for
either one sequence (inputs shaped ``(d,)``, states ``(h,)``) or a batch
(``(b, d)`` / ``(b, h)``); clock and reset signals are then a scalar or a
``(b,)`` 0/1 vector.  The gated state update is

    s_t = (1 - c_t)(1 - r_t) s_{t-1} + c_t f(x_t, (1 - r_t) s_{t-1})

realized by row selection rather than arithmetic blending: a step computes
only the rows whose clock is high, and every other row keeps its
(reset-masked) previous state bit for bit.  ``clock_rows``, the one rule
that turns a clock or reset flag into rows, gives every row, no row or
these rows.  A clock high on every row computes the whole batch; a partial
clock gathers its rows, computes them, and scatters the results into a
copy of the state.  A layer whose clock is low on every row computes
nothing and returns the (reset-masked) previous state arrays themselves,
with a skipped tape (``IDLE_TAPE`` when no row is reset either).

Parameter layout.  A layer with input width D and H units is one packed
float64 buffer, ``LstmParams.flat``, of 4H(D + H) + 3H + 4H numbers:

* ``W`` (4H x (D + H)): the rows of the input, forget, write and output
  gates (i, f, m, o) in that order, each with the D input columns x
  followed by the H recurrent columns h;
* ``peep`` (3 x H): the peepholes w_im, w_fm, w_om;
* ``b`` (4H): the biases b_i, b_f, b_m, b_o.

One step is one GEMM of [x, h'] against W for all four gates.  In between,
the gates are held gate-major, (4, b, h), so that each gate's elementwise
work runs over one contiguous block.  The gates take the tanh form of the
sigmoid, sigmoid(z) = 0.5 tanh(z / 2) + 0.5: the i and f pre-activations
are halved in place once their peepholes are added, one tanh over the
contiguous i, f, g block gives all three, and ``*= 0.5; += 0.5`` turns i
and f into gates; o likewise.  No finite pre-activation overflows or
raises a floating-point warning; a gate is exactly 0 below about z = -38
and exactly 1 above about 38, and never subnormal.  The public
``sigmoid`` keeps its exp form and floor; the kernel does not call it.

The 15 named blocks (``W_ix``, ``W_ih``, ``w_im``, ``b_i``, ...) are views
into the buffer, so a write through a block changes the layer; the blocks'
names, shapes and order (``LstmParams.blocks``) are those of checkpoint
format v1.

Window tapes.  An ``LstmWindow`` preallocates what backward needs of one
layer over a window of computed steps: per computed row of each step, the
GEMM input [x, h'], the gates, the reset-masked previous memory, the fresh
memory and its tanh, and one more row for backward.  A step holds only the
rows it computed, so the slots of a window are ragged.  Each computed
``lstm_step`` writes one slot of it (an ``LstmTape``) in place; a caller
may write the computed rows' inputs straight into the slot's x columns.
``LstmWindow.tapes`` makes every slot's tape at once, one reshape per run
of slots of one row count.
Backward splits in two.  The window's first ``lstm_backward_step`` runs a
factor pass (``_factor``): per computed row, the local derivatives that do
not depend on the incoming gradient, P_i, P_f, P_g and P_o over the gates,
R over tanh(m) and S into the extra row, over runs of equal slots in
cache-sized chunks (a slot of a chunk's size is factored at its own
reversal).  Each reversed step is then a short recurrence of 7 numpy
calls: d_m = dh R + dm, dz = (d_m P_i, d_m P_f, d_m P_g, dh P_o) stored as
(k, 4h) rows over the slot's factors, d_m_in = d_m S, and the one
per-step GEMM, ``dz @ W``.  Once every step of the window is reversed,
``lstm_window_grads`` forms the parameter gradient of the whole window
with one ``dz.T @ [x, h']`` GEMM over every computed row, plus the
peephole and bias reductions: the weight gradient once per sequence, not
once per step (Appleyard et al. 2016, arXiv 1604.01946).  Steps that are
never reversed (scoring, streaming, decoding) run through a
``scratch_tape``: one step's buffers, reused for every step of a
workspace (``hierarchy.StepWorkspace``).  A scratch tape keeps no new
memory cell, and the new m and h go to fresh arrays, or into the caller's
``out`` (say, a layer's views of a network state's buffer): the state a
step returns never aliases the reused buffers.  A one-row step through
one reads its previous m where it is, unless a reset zeroes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
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


def clock_rows(flag, batch_shape: tuple):
    """The one rule that turns a clock or reset flag into rows, as a
    (flag, rows) pair: (True, True) or (False, False), Python bools, when
    the flag is the same on every row (a 0-d flag is), else its (b,) bool
    column and that column's row indices, ascending.  A column shaped
    unlike ``batch_shape`` (``state.h.shape[:-1]``) raises DimensionError."""
    if flag is True or flag is False:
        return flag, flag
    m = np.asarray(flag, dtype=bool)
    if m.ndim == 0:
        return bool(m), bool(m)
    if m.shape != batch_shape:
        raise DimensionError(f"clock/reset shape {m.shape} does not match "
                             f"state batch {batch_shape}")
    rows = m.nonzero()[0]
    if 0 < rows.size < m.size:
        return m, rows
    return rows.size > 0, rows.size > 0


def take_rows(a: np.ndarray, rows) -> np.ndarray:
    """The rows of a that ``clock_rows`` selected (True or indices): a
    itself, or a gathered copy."""
    return a if rows is True else a[rows]


def _zero_where(mask, s: "LstmState", out: Optional["LstmState"] = None
                ) -> "LstmState":
    """The state (or state gradient) s with the rows under the mask zeroed:
    written into ``out`` and returned as ``out`` when one is given, else s
    itself when no row is zeroed, or new arrays."""
    if out is not None:
        for a, o in ((s.m, out.m), (s.h, out.h)):
            np.copyto(o, a)
            if mask is not False:
                np.copyto(o, 0.0, where=mask)
        return out
    if mask is False:
        return s
    if mask is True:
        return LstmState(np.zeros_like(s.m), np.zeros_like(s.h))
    return LstmState(np.where(mask, 0.0, s.m), np.where(mask, 0.0, s.h))


def _gather_zeroed(a: np.ndarray, rows, mask, out: np.ndarray) -> None:
    """Write the selected rows of a into out, zeroed where the mask is."""
    if mask is True:
        out.fill(0.0)
        return
    np.copyto(out, a if rows is True else a[rows])
    if mask is not False:
        np.copyto(out, 0.0, where=mask if rows is True else mask[rows])


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
        self.W_t = self.W.T  # the step's GEMM operand, made once
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


@dataclass(slots=True)
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
    """The forward buffers of one layer over computed steps, all in one
    allocation.

    ``counts`` holds each step's number of computed rows, one slot per
    step: a slot holds only the rows its step computed.  Per row, over
    every slot in order: ``xh`` (D + H), the GEMM input [x, h']; ``gates``
    (4h), the i, f, g, o activations, gate-major within a slot of k rows
    ((4, k, h)), which backward's factor pass turns into P_i, P_f, P_g,
    P_o and each reversed step into the slot's dz, as (k, 4h) rows;
    ``m_in``, ``m_new`` and ``tanh_m`` (h), the last turned into R; and
    ``s`` (h), backward's S.  ``reversed`` counts the slots backward has
    reversed; ``scratch`` is backward's, made by the factor pass.
    """

    def __init__(self, input_dim: int, hidden_dim: int, counts):
        D, H = input_dim, hidden_dim
        self.counts = [int(k) for k in counts]
        self.offsets = [0, *accumulate(self.counts)]
        n = self.offsets[-1]
        buf = np.empty(n * (D + 9 * H))
        self.input_dim, self.hidden_dim = D, H
        self.slots, self.rows = len(self.counts), n
        self.xh = buf[:n * (D + H)].reshape(n, D + H)
        self.gates = buf[n * (D + H):n * (D + 5 * H)].reshape(n, 4 * H)
        self.m_in, self.m_new, self.tanh_m, self.s = (
            buf[n * (D + 5 * H):].reshape(4, n, H))
        self.reversed = 0
        self.scratch = None  # backward's, made at the first reversal

    def slot(self, k: int, single: bool = False) -> "LstmTape":
        """The tape of step slot k, as views into the window."""
        lo, hi, D = self.offsets[k], self.offsets[k + 1], self.input_dim
        xh = self.xh[lo:hi]
        return LstmTape(self, xh, xh[:, :D], xh[:, D:], self.m_in[lo:hi],
                        self.gates[lo:hi].reshape(4, hi - lo, -1),
                        self.m_new[lo:hi], self.tanh_m[lo:hi], self.s[lo:hi],
                        single=single)

    def runs(self):
        """(first slot, end slot, rows per slot) of each run of consecutive
        slots that compute one number of rows."""
        counts, j = self.counts, 0
        while j < self.slots:
            first, k = j, counts[j]
            while j < self.slots and counts[j] == k:
                j += 1
            yield first, j, k

    def tapes(self, cols=()) -> list:
        """(tape, views) of every slot, in order: the tape ``slot`` gives,
        with its ``gate_views``, and the views of its x columns under each
        slice of ``cols``.  Each
        buffer is reshaped once per run of equal slots (``runs``), and a
        slot's views are the run's views along its first axis."""
        D, H, offsets = self.input_dim, self.hidden_dim, self.offsets
        out = []
        for first, end, k in self.runs():
            lo, hi, n = offsets[first], offsets[end], end - first
            xh = self.xh[lo:hi].reshape(n, k, D + H)
            m_in, m_new, tanh_m, s = (a[lo:hi].reshape(n, k, H) for a in (
                self.m_in, self.m_new, self.tanh_m, self.s))
            z = self.gates[lo:hi].reshape(n, 4, k, H)
            for v in zip(xh, xh[:, :, :D], xh[:, :, D:], m_in, z, m_new,
                         tanh_m, s, z[:, :2], z[:, :3], *z.swapaxes(0, 1),
                         *(xh[:, :, c] for c in cols)):
                tape = LstmTape(self, *v[:8])
                tape.gate_views = v[8:14]
                out.append((tape, v[14:]))
        return out


class LstmTape:
    """One step of one layer: views into its ``LstmWindow`` slot, which
    holds one row per row the step computed; the ``rows`` of the state
    they are and the reset mask (True, False or the (b, 1) reset column),
    both from ``clock_rows``; and whether the step was skipped (clock low
    on every row: no slot, no arrays) or unbatched (b = 1, ``single``).

    ``x`` and ``h_in`` are the input and recurrent columns of ``xh``: a
    caller may write the computed rows' inputs into ``x`` and pass
    ``tape.x`` itself to ``lstm_step``.  ``i``, ``f``, ``g`` and ``o`` are
    the gate activations until backward starts to reverse the window.  A
    tape without a window (``scratch_tape``) cannot be reversed.
    ``gate_views`` holds the views of the gates that ``lstm_step`` reads:
    ``LstmWindow.tapes`` makes them with its tapes, and a scratch tape,
    which serves step after step, keeps those of its first step.
    """

    __slots__ = ("window", "xh", "x", "h_in", "m_in", "gates", "m_new",
                 "tanh_m", "s", "rows", "reset", "skipped", "single",
                 "gate_views")

    def __init__(self, window, xh=None, x=None, h_in=None, m_in=None,
                 gates=None, m_new=None, tanh_m=None, s=None, rows=True,
                 reset=False, skipped=False, single=False):
        self.window, self.xh, self.x, self.h_in = window, xh, x, h_in
        self.m_in, self.gates, self.m_new = m_in, gates, m_new
        self.tanh_m, self.s = tanh_m, s
        self.rows, self.reset = rows, reset
        self.skipped, self.single = skipped, single
        self.gate_views = None

    def _gate(self, k: int):
        if self.skipped:
            return None
        return self.gates[k, 0] if self.single else self.gates[k]

    i = property(lambda self: self._gate(0))
    f = property(lambda self: self._gate(1))
    g = property(lambda self: self._gate(2))
    o = property(lambda self: self._gate(3))

    def head(self, rows: int) -> "LstmTape":
        """A scratch tape over the first ``rows`` rows of this scratch
        tape's buffers.  Its gates are the first 4 x rows x h numbers of
        this tape's (contiguous) gates, so each gate stays one block."""
        H = self.m_in.shape[1]
        gates = self.gates.reshape(-1)[:4 * rows * H].reshape(4, rows, H)
        return LstmTape(None, self.xh[:rows], self.x[:rows], self.h_in[:rows],
                        self.m_in[:rows], gates, None, self.tanh_m[:rows])


# The tape of a step whose clock and reset are low on every row: no slot,
# nothing computed, nothing reset.
IDLE_TAPE = LstmTape(None, rows=False, reset=False, skipped=True)


def scratch_tape(input_dim: int, hidden_dim: int, batch: int) -> LstmTape:
    """The buffers of one step of ``batch`` rows, for steps that are not
    reversed: a caller may run any number of steps through it, or through
    its ``head`` when a step computes fewer rows.  It has no ``m_new``, so
    a step through it returns a state of fresh arrays."""
    xh = np.empty((batch, input_dim + hidden_dim))
    buf = np.empty((6, batch, hidden_dim))  # gates, m_in, tanh_m
    return LstmTape(None, xh, xh[:, :input_dim], xh[:, input_dim:], buf[4],
                    buf[:4], None, buf[5])


def lstm_step(params: LstmParams, x, state: LstmState,
              clock=True, reset=False, tape: Optional[LstmTape] = None,
              out: Optional[LstmState] = None
              ) -> tuple[LstmState, LstmTape]:
    """One (optionally clock/reset gated) LSTM step.

    With the clock high the gates are

        i = sigmoid(W_ix x + W_ih h' + w_im * m' + b_i)
        f = sigmoid(W_fx x + W_fh h' + w_fm * m' + b_f)
        m = f * m' + i * tanh(W_mx x + W_mh h' + b_m)
        o = sigmoid(W_ox x + W_oh h' + w_om * m + b_o)
        h = o * tanh(m)

    where (m', h') is the previous state zeroed wherever the reset is high,
    and each sigmoid is computed as 0.5 tanh(z / 2) + 0.5.  Only the rows
    whose clock is high are computed (``clock_rows`` gives them, and the
    reset mask): all four pre-activations come from one GEMM of their
    [x, h'] against the packed W.  Every other row keeps its
    (reset-masked) previous state untouched, and its x is not read (x may
    be None when the clock is low on every row).

    ``tape`` is the window slot the step writes (``LstmWindow.slot``), one
    row per computed row; a one-step window is allocated when it is
    omitted.  x has a row for every row of the state, or it is ``tape.x``
    itself, already holding the computed rows' inputs, and is then not
    copied.  When every row is computed the new m is the slot's ``m_new``,
    so a slot must not be rewritten while that state is still to be read;
    a ``scratch_tape`` has none, and the new m is a fresh array (or
    ``out``'s).

    ``out``, an ``LstmState`` of arrays shaped like the state's (say,
    views into a wider buffer), receives the new state, and the step then
    returns ``out`` itself: the same bits, in memory the caller owns.  A
    step of one row computes its new h, and without a window tape its new
    m, straight into it.
    """
    H, shape = params.hidden_dim, state.h.shape
    if shape[-1] != H:
        raise DimensionError(f"state width {shape[-1]} != expected {H}")
    if out is not None and (out.m.shape != shape or out.h.shape != shape):
        raise DimensionError(f"out arrays shaped {out.m.shape} and "
                             f"{out.h.shape} for a state of {shape}")
    batch = shape[:-1]
    _, rows = clock_rows(clock, batch)
    rm, reset_rows = clock_rows(reset, batch)
    rm = rm if rm is reset_rows else rm[:, None]  # a partial reset, (b, 1)
    if rows is False:
        # Clock low everywhere: nothing to compute, state passes through.
        return _zero_where(rm, state, out), (
            IDLE_TAPE if rm is False
            else LstmTape(None, rows=False, reset=rm, skipped=True))

    D, n = params.input_dim, batch[0] if batch else 1
    if rows is not True:
        n = rows.size
    if tape is not None and tape.xh.shape[0] != n:
        raise DimensionError(f"a tape of {tape.xh.shape[0]} rows for a step "
                             f"that computes {n}")
    if tape is None or x is not tape.x:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != D:
            raise DimensionError(f"input width {x.shape[-1]} != expected {D}")
        if x.shape[:-1] != batch:
            raise DimensionError(f"input rows {x.shape[:-1]} != state rows "
                                 f"{batch}")
        if tape is None:
            tape = LstmWindow(D, H, [n]).slot(0, single=x.ndim == 1)
        np.copyto(tape.x, take_rows(x, rows))
    tape.rows, tape.reset = rows, rm
    xh, m_in, z = tape.xh, tape.m_in, tape.gates
    _gather_zeroed(state.h, rows, rm, tape.h_in)
    # One row of a state is contiguous: a step of one row reads its m, and
    # writes the new m and h, where they are.  Several rows of a wider
    # buffer are strided, and are copied once each way instead.
    one = rows is True and n == 1
    if one and tape.window is None and rm is False:
        m_in = state.m  # nothing is reversed, and nothing reset
    else:
        _gather_zeroed(state.m, rows, rm, m_in)
    m_to = h_to = None  # where the new m and h go: fresh arrays by default
    if rows is not True:
        # The rows that do not compute keep their state, in a copy: the
        # input state is never written.
        new = _zero_where(rm, state, out or LstmState(np.empty(shape),
                                                      np.empty(shape)))
    elif out is not None and one:
        m_to, h_to = (out.m[None], out.h[None]) if tape.single else (
            out.m, out.h)
    # One GEMM for all gates, then bias and a gate-major copy in one pass:
    # ufuncs over contiguous (b, h) gate blocks cost about half as much as
    # over strided column slices at small sizes.
    np.add((xh @ params.W_t).reshape(-1, 4, H).transpose(1, 0, 2),
           params.b4, out=z)
    # sigmoid(z) = 0.5 tanh(z / 2) + 0.5: one tanh over the contiguous
    # i, f, g block gives all three, i and f from their halved
    # pre-activations (halving is exact).
    views = tape.gate_views
    if views is None:
        views = (z[:2], z[:3], *z)
        if tape.window is None:  # a scratch tape serves step after step
            tape.gate_views = views
    z_if, z_ifg, i, f, g, o = views
    z_if += m_in * params.peep_if4
    z_if *= 0.5
    np.tanh(z_ifg, out=z_ifg)
    z_if *= 0.5
    z_if += 0.5
    m_new = np.multiply(f, m_in, out=m_to if tape.m_new is None
                        else tape.m_new)
    m_new += i * g
    o += m_new * params.w_om
    o *= 0.5
    np.tanh(o, out=o)
    o *= 0.5
    o += 0.5
    tanh_m = np.tanh(m_new, out=tape.tanh_m)
    h_new = np.multiply(o, tanh_m, out=h_to)

    if rows is not True:
        new.m[rows], new.h[rows] = m_new, h_new
        return new, tape
    if out is not None:
        if h_to is None:
            m_to, h_to = out.m, out.h
            np.copyto(h_to, h_new)
        if m_new is not m_to:  # or a window tape keeps m in its slot
            np.copyto(m_to, m_new)
        return out, tape
    if tape.single:
        m_new, h_new = m_new[0], h_new[0]
    return LstmState(m_new, h_new), tape


# The factor pass takes a run of equal slots in chunks of at most this many
# numbers per (rows, h) block, so a chunk's blocks stay in cache.  A slot of
# a chunk's size or more is factored at its own reversal instead, while the
# step reads it.
_FACTOR_CHUNK = 4096


def _factor(params: LstmParams, gates, m_in, t, s, a) -> None:
    """Turn the taped activations of n slots of k rows into the factors of
    backward that do not depend on the incoming gradient, in place: with
    i, f, g, o the gates, an (n, 4, k, h) gate-major view, and m_in,
    t = tanh(m_new), s and the scratch a (n, k, h) views,

        P_i = g i(1 - i),  P_f = m_in f(1 - f),  P_g = i(1 - g^2),
        P_o = t o(1 - o)   over the gates, gate-major as they were;
        R = o(1 - t^2) + w_om P_o   over t;
        S = f + w_im P_i + w_fm P_f   into s."""
    w_im, w_fm, w_om = params.peep
    i, f, g, o = gates.swapaxes(0, 1)
    # P_g and P_i each read the other's gate: P_g waits in the scratch.
    np.multiply(g, g, out=a)
    np.subtract(1.0, a, out=a)
    a *= i
    g *= i
    np.subtract(1.0, i, out=i)
    i *= g
    np.copyto(g, a)
    np.multiply(i, w_im, out=s)
    s += f
    np.subtract(1.0, f, out=a)
    f *= a
    f *= m_in
    np.multiply(f, w_fm, out=a)
    s += a
    np.multiply(t, t, out=a)
    np.subtract(1.0, a, out=a)
    a *= o
    t *= o
    np.subtract(1.0, o, out=o)
    o *= t
    np.multiply(o, w_om, out=t)
    t += a


def _factor_window(params: LstmParams, window: LstmWindow) -> None:
    """Make the window's backward scratch, then run ``_factor`` over every
    slot smaller than a chunk.  A run of consecutive slots with one row
    count k is one (n, 4, k, h) view of the gates, taken in chunks of up to
    ``_FACTOR_CHUNK`` numbers per (n, k, h) block."""
    H, offsets = window.hidden_dim, window.offsets
    largest = max(window.counts, default=0) * H
    scratch = window.scratch = np.empty(
        max(4 * largest, min(_FACTOR_CHUNK, window.rows * H)))
    for run, end, k in window.runs():
        if k * H >= _FACTOR_CHUNK:
            continue
        per = _FACTOR_CHUNK // max(k * H, 1)
        for first in range(run, end, per):
            last = min(end, first + per)
            lo, hi, n = offsets[first], offsets[last], last - first
            _factor(params, window.gates[lo:hi].reshape(n, 4, k, H),
                    *(a[lo:hi].reshape(n, k, H)
                      for a in (window.m_in, window.tanh_m, window.s)),
                    scratch[:(hi - lo) * H].reshape(n, k, H))


def lstm_backward_step(params: LstmParams, tape: LstmTape, d_state: LstmState
                       ) -> tuple[Optional[np.ndarray], LstmState]:
    """Reverse one LSTM step.

    d_state holds gradients w.r.t. the step's output state (m, h), on every
    row.  Returns (d_x, d_state_prev).  d_x is shaped like ``tape.x``: the
    gradient w.r.t. the inputs of the rows the step computed, or None when
    it skipped the step.  Rows the step did not compute pass their state
    gradient through unchanged and reach no parameter; a high reset cuts
    the gradient path to the pre-reset state.

    The first reversal in a window turns every slot's activations into the
    step-independent factors P, R and S of ``_factor``.  A step is then,
    on its computed rows, d_m = dh R + dm, dz_{i,f,g} = d_m P_{i,f,g},
    dz_o = dh P_o and d_m_in = d_m S, plus the one GEMM dz @ W: 7 numpy
    calls.  Its dz replaces its factors in the window, as (k, 4h) rows,
    where ``lstm_window_grads`` turns the dz of every step into the
    parameter gradient.
    """
    rows, rm = tape.rows, tape.reset
    if tape.skipped:
        return None, _zero_where(rm, d_state)

    window = tape.window
    if window is None:
        raise ConfigError("a scratch tape cannot be reversed")
    if window.scratch is None:  # the window's first reversal
        _factor_window(params, window)
    H, D = params.hidden_dim, params.input_dim
    p, s = tape.gates, tape.s
    if s.size >= _FACTOR_CHUNK:  # a large slot, left to its own reversal
        _factor(params, p[None], tape.m_in[None], tape.tanh_m[None], s[None],
                window.scratch[:s.size].reshape(1, *s.shape))
    d_m_out, d_h_out = d_state.m, d_state.h
    if tape.single:
        d_m_out, d_h_out = d_m_out[None], d_h_out[None]
    d_m_new, d_h_new = take_rows(d_m_out, rows), take_rows(d_h_out, rows)
    # One row is the same in gate-major and row order: dz takes its
    # factors' place directly.
    dz = p if p.shape[1] == 1 else window.scratch[:p.size].reshape(p.shape)
    d_m = np.multiply(d_h_new, tape.tanh_m)  # tanh_m holds R
    d_m += d_m_new
    np.multiply(p[:3], d_m, out=dz[:3])
    np.multiply(p[3], d_h_new, out=dz[3])
    dz_rows = p.reshape(-1, 4 * H)
    if dz is not p:  # the factors are read: their slot takes the dz rows
        np.copyto(dz_rows.reshape(-1, 4, H), dz.transpose(1, 0, 2))
    window.reversed += 1
    d_xh = dz_rows @ params.W
    d_m_in = np.multiply(d_m, s, out=d_m)
    d_x, d_h_in = d_xh[:, :D], d_xh[:, D:]
    if rows is not True:
        d_m_prev, d_h_prev = d_m_out.copy(), d_h_out.copy()
        d_m_prev[rows], d_h_prev[rows] = d_m_in, d_h_in
        d_m_in, d_h_in = d_m_prev, d_h_prev
    elif tape.single:
        d_x, d_m_in, d_h_in = d_x[0], d_m_in[0], d_h_in[0]
    if rm is not False:  # both arrays are this call's own
        np.copyto(d_m_in, 0.0, where=rm)
        np.copyto(d_h_in, 0.0, where=rm)
    return d_x, LstmState(d_m_in, d_h_in)


def lstm_window_grads(window: LstmWindow, grads: LstmParams) -> None:
    """Add the parameter gradient of a reversed window to ``grads`` (an
    ``LstmParams`` of the layer's shape): one ``dz.T @ [x, h']`` GEMM over
    every computed row of the window, plus the peephole and bias sums.
    Raises DimensionError unless backward reversed every slot."""
    if window.reversed != window.slots:
        raise DimensionError(
            f"{window.reversed} of {window.slots} window steps reversed")
    if window.rows == 0:
        return
    dz = window.gates
    grads.W += dz.T @ window.xh
    dz4 = dz.reshape(window.rows, 4, window.hidden_dim)
    grads.peep[:2] += np.einsum("nkh,nh->kh", dz4[:, :2], window.m_in)
    grads.w_om += np.einsum("nh,nh->h", dz4[:, 3], window.m_new)
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
