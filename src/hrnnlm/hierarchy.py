"""Multi-timescale network assembly and execution.

A network is a stack of LSTM modules running at nested rates: module 1
steps on every character, module 2 only on word-boundary tokens (<w>, <s>),
and module 1 is reset exactly when module 2 steps.  The activation a module
sends upward is delayed by one step (so the embedding of the word just
finished survives the reset); the context a module sends back down is not
delayed.  Clock derivation is implemented for any number of levels; the
concrete builders cover the single-module stack ("mono") and the two-level
variants:

* ``hlstm_a``: both character layers read the one-hot input; layer 2 is a
  generative layer conditioned on the word context, layer 1 produces the
  word embedding that feeds the word module.
* ``hlstm_b``: character layer 1 encodes the input into a word embedding
  that feeds layer 2 (together with the context); layer 2's activation
  feeds the word module.

The softmax layer always reads the top character layer.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from .cells import (LstmParams, LstmState, LstmTape, LstmWindow,
                    lstm_backward_step, lstm_step, lstm_window_grads,
                    scratch_tape, softmax)
from .corpus import TokenSequence, Vocabulary
from .errors import ConfigError, DimensionError

VARIANTS = ("mono", "hlstm_a", "hlstm_b")

# Clock rank of a token: ordinary characters advance only level 1, word
# boundaries advance level 2, sentence boundaries advance levels 2 and 3.
_RANK_WORD = 2
_RANK_SENTENCE = 3


@dataclass
class NetworkSpec:
    """Architecture description: variant, sizes, and boundary-token binding."""

    variant: str
    vocab_size: int
    hidden_dim: int | Sequence[int]
    levels: Optional[int] = None
    layers_per_module: int = 2
    word_boundary_id: Optional[int] = None
    sentence_boundary_id: Optional[int] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; "
                              f"expected one of {VARIANTS}")
        if self.levels is None:
            self.levels = 1 if self.variant == "mono" else 2
        if isinstance(self.hidden_dim, (int, np.integer)):
            self.hidden_dim = (int(self.hidden_dim),) * self.total_layers
        else:
            self.hidden_dim = tuple(int(h) for h in self.hidden_dim)
        self.validate()

    def validate(self) -> None:
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be at least 2")
        if self.layers_per_module < 1:
            raise ConfigError("layers_per_module must be at least 1")
        if self.variant == "mono":
            if self.levels != 1:
                raise ConfigError("mono networks have exactly one level")
        else:
            if self.levels != 2:
                raise ConfigError(f"{self.variant} networks are built with "
                                  "exactly two levels")
            if self.layers_per_module != 2:
                raise ConfigError("hlstm variants use two layers per module")
            for name in ("word_boundary_id", "sentence_boundary_id"):
                v = getattr(self, name)
                if v is None or not 0 <= v < self.vocab_size:
                    raise ConfigError(f"hlstm variants need a valid {name}")
            if self.word_boundary_id == self.sentence_boundary_id:
                raise ConfigError("boundary ids must be distinct")
        if len(self.hidden_dim) != self.total_layers:
            raise ConfigError(
                f"need {self.total_layers} hidden sizes, got "
                f"{len(self.hidden_dim)}")
        if any(h < 1 for h in self.hidden_dim):
            raise ConfigError("hidden sizes must be positive")

    @property
    def total_layers(self) -> int:
        return self.levels * self.layers_per_module

    @classmethod
    def for_vocab(cls, variant: str, vocab: Vocabulary,
                  hidden_dim, layers_per_module: int = 2) -> "NetworkSpec":
        return cls(variant=variant, vocab_size=vocab.size,
                   hidden_dim=hidden_dim, layers_per_module=layers_per_module,
                   word_boundary_id=vocab.word_boundary_id,
                   sentence_boundary_id=vocab.sentence_boundary_id)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(**d)


@dataclass
class _LayerDef:
    name: str
    level: int
    hidden: int
    sources: list[tuple[str, Optional[str]]]  # (kind, referenced layer)


def _layer_defs(spec: NetworkSpec) -> list[_LayerDef]:
    dims = spec.hidden_dim
    if spec.variant == "mono":
        defs = []
        for k in range(spec.layers_per_module):
            src = [("onehot", None)] if k == 0 else [("hidden", f"layer{k}")]
            defs.append(_LayerDef(f"layer{k + 1}", 1, dims[k], src))
        return defs
    char2_src = ([("onehot", None), ("hidden", "word2")]
                 if spec.variant == "hlstm_a"
                 else [("hidden", "char1"), ("hidden", "word2")])
    return [
        _LayerDef("char1", 1, dims[0], [("onehot", None)]),
        _LayerDef("char2", 1, dims[1], char2_src),
        _LayerDef("word1", 2, dims[2], [("delay", None), ("indicator", None)]),
        _LayerDef("word2", 2, dims[3], [("hidden", "word1")]),
    ]


def _output_layer(spec: NetworkSpec) -> str:
    return (f"layer{spec.layers_per_module}" if spec.variant == "mono"
            else "char2")


def _feedup_layer(spec: NetworkSpec) -> Optional[str]:
    if spec.variant == "mono":
        return None
    return "char1" if spec.variant == "hlstm_a" else "char2"


@dataclass
class ClockPlan:
    """Per-level clock and reset rows for one token sequence.

    Row l (0-based) drives level l+1.  Level 1 ticks every step; level l>1
    ticks only on tokens that also tick level l-1; every level below the top
    is reset exactly when the level above ticks.
    """

    clocks: np.ndarray  # (levels, T) of {0, 1}
    resets: np.ndarray  # (levels, T)

    @property
    def levels(self) -> int:
        return self.clocks.shape[0]

    @property
    def steps(self) -> int:
        return self.clocks.shape[1]

    def validate(self) -> None:
        c, r = self.clocks, self.resets
        if c.shape != r.shape:
            raise DimensionError("clock/reset shapes differ")
        if not np.all(c[0] == 1):
            raise ConfigError("level-1 clock must tick every step")
        for l in range(1, self.levels):
            if np.any(c[l] > c[l - 1]):
                raise ConfigError(f"level-{l + 1} clock ticks while "
                                  f"level {l} is idle")
        for l in range(self.levels - 1):
            if not np.array_equal(r[l], c[l + 1]):
                raise ConfigError(f"level-{l + 1} reset must equal the "
                                  f"level-{l + 2} clock")
        if np.any(r[self.levels - 1] != 0):
            raise ConfigError("the top level is never reset")


def token_ranks(ids: np.ndarray, word_boundary_id: int,
                sentence_boundary_id: int) -> np.ndarray:
    ranks = np.ones_like(ids, dtype=np.int64)
    ranks[ids == word_boundary_id] = _RANK_WORD
    ranks[ids == sentence_boundary_id] = _RANK_SENTENCE
    return ranks


def derive_clocks(ids, vocab: Vocabulary, levels: int) -> ClockPlan:
    """Derive nested clock/reset rows for a token sequence.

    Level l ticks on tokens of clock rank >= l: every token for level 1,
    boundary tokens for level 2, sentence boundaries for level 3.
    """
    if levels < 1:
        raise ConfigError("levels must be at least 1")
    if isinstance(ids, TokenSequence):
        ids = ids.ids
    ids = np.asarray(ids, dtype=np.int64)
    ranks = token_ranks(ids, vocab.word_boundary_id, vocab.sentence_boundary_id)
    clocks = np.stack([(ranks >= l + 1).astype(np.uint8)
                       for l in range(levels)])
    resets = np.zeros_like(clocks)
    resets[:-1] = clocks[1:]
    plan = ClockPlan(clocks=clocks, resets=resets)
    plan.validate()
    return plan


@dataclass
class NetworkState:
    """Cloneable full-stack runtime state: one cell state per layer plus the
    one-step feed-up delay buffer."""

    layers: dict[str, LstmState]
    delay: Optional[np.ndarray] = None

    @property
    def batch(self) -> int:
        h = next(iter(self.layers.values())).h
        return h.shape[0]

    def clone(self) -> "NetworkState":
        return NetworkState(
            layers={k: v.copy() for k, v in self.layers.items()},
            delay=None if self.delay is None else self.delay.copy())

    def reset_where(self, mask) -> "NetworkState":
        """Zero every array on the batch rows where mask is true."""
        m = np.asarray(mask, dtype=bool)[:, None]
        layers = {k: LstmState(np.where(m, 0.0, v.m), np.where(m, 0.0, v.h))
                  for k, v in self.layers.items()}
        delay = None if self.delay is None else np.where(m, 0.0, self.delay)
        return NetworkState(layers=layers, delay=delay)

    def take(self, rows) -> "NetworkState":
        """A new state of the given batch rows, in order (copies)."""
        rows = np.asarray(rows, dtype=np.int64)
        layers = {k: LstmState(v.m[rows], v.h[rows])
                  for k, v in self.layers.items()}
        delay = None if self.delay is None else self.delay[rows]
        return NetworkState(layers=layers, delay=delay)


def _step_flags(mask: np.ndarray) -> list:
    """Column t of a (B, T) bool mask as True or False when every row
    agrees, else as the (B,) column itself."""
    every, some = mask.all(axis=0).tolist(), mask.any(axis=0).tolist()
    return [True if a else (mask[:, t] if n else False)
            for t, (a, n) in enumerate(zip(every, some))]


@dataclass
class WindowTape:
    """What ``Network.backward`` needs of one taped forward window.

    ``windows`` holds each layer's ``LstmWindow``, with one slot per step
    the layer computed; ``steps[name][t]`` is the layer's tape at step t
    (skipped steps included); ``top_h`` (batch, T, h) is the output layer's
    activation at every step.
    """

    windows: dict[str, LstmWindow]
    steps: dict[str, list[LstmTape]]
    top_h: np.ndarray

    def __len__(self) -> int:
        return self.top_h.shape[1]


class Blocks(dict):
    """Named parameter (or gradient) blocks that are all views into one
    flat float64 buffer, ``flat``."""

    def __init__(self, items, flat: np.ndarray):
        super().__init__(items)
        self.flat = flat

    def like(self, flat: np.ndarray) -> "Blocks":
        """The same blocks over another buffer shaped like ``flat``: each at
        the same offset and with the same strides."""
        if flat.shape != self.flat.shape or not flat.flags.c_contiguous:
            raise DimensionError("buffer does not match the block layout")
        base = self.flat.__array_interface__["data"][0]
        return Blocks({name: np.ndarray(
            v.shape, np.float64, buffer=flat, strides=v.strides,
            offset=v.__array_interface__["data"][0] - base)
            for name, v in self.items()}, flat)


class Network:
    """A built network: spec plus parameters, with forward/backward/step.

    All parameters live in one flat float64 buffer, ``flat``: each layer's
    packed ``LstmParams`` buffer in layer order, then ``softmax_W`` and
    ``softmax_b``.  Parameters are drawn uniformly from [-init_scale,
    init_scale] with ``rng`` (seed 0 when omitted), block by block in
    ``named_blocks`` order; an ``init_scale`` of 0 leaves them zero without
    drawing.
    """

    def __init__(self, spec: NetworkSpec,
                 rng: Optional[np.random.Generator] = None,
                 init_scale: float = 0.08):
        self.spec = spec
        self.layer_defs = _layer_defs(spec)
        self.output_layer = _output_layer(spec)
        self.feedup_layer = _feedup_layer(spec)
        # Per-step processing order: the word module consumes last step's
        # delayed embedding first, so the character module sees fresh context.
        self.step_order = sorted(
            self.layer_defs, key=lambda d: -d.level)
        # Where each input source sits in a layer's input vector.
        self.input_slices = {}
        for d in self.layer_defs:
            start, slices = 0, []
            for kind, ref in d.sources:
                width = self._source_width(kind, ref)
                slices.append((kind, ref, slice(start, start + width)))
                start += width
            self.input_slices[d.name] = slices
        self._token_ids = np.arange(spec.vocab_size)  # one-hot columns
        self.flat = np.zeros(
            sum(LstmParams.size(self._input_dim(d), d.hidden)
                for d in self.layer_defs)
            + spec.vocab_size * (self._hidden_of(self.output_layer) + 1))
        self.layers, self.softmax_W, self.softmax_b = self._views(self.flat)
        if init_scale:
            rng = np.random.default_rng(0) if rng is None else rng
            for d in self.layer_defs:
                self.layers[d.name].fill_uniform(rng, init_scale)
            for arr in (self.softmax_W, self.softmax_b):
                arr[...] = rng.uniform(-init_scale, init_scale,
                                       size=arr.shape)

    def _views(self, flat: np.ndarray):
        """(layers, softmax_W, softmax_b) as views into a buffer shaped like
        ``self.flat``."""
        layers: dict[str, LstmParams] = {}
        start = 0
        for d in self.layer_defs:
            D = self._input_dim(d)
            n = LstmParams.size(D, d.hidden)
            layers[d.name] = LstmParams(D, d.hidden, flat[start:start + n])
            start += n
        V, H = self.spec.vocab_size, self._hidden_of(self.output_layer)
        W = flat[start:start + V * H].reshape(V, H)
        return layers, W, flat[start + V * H:]

    @staticmethod
    def _blocks(layers, W, b, flat) -> Blocks:
        out = {}
        for name, params in layers.items():
            for fname, arr in params.blocks():
                out[f"{name}.{fname}"] = arr
        out["softmax.W"] = W
        out["softmax.b"] = b
        return Blocks(out, flat)

    # -- structure ---------------------------------------------------------

    def _hidden_of(self, name: str) -> int:
        return next(d.hidden for d in self.layer_defs if d.name == name)

    def _source_width(self, kind: str, ref: Optional[str]) -> int:
        if kind == "onehot":
            return self.spec.vocab_size
        if kind == "hidden":
            return self._hidden_of(ref)
        if kind == "delay":
            return self._hidden_of(self.feedup_layer)
        if kind == "indicator":
            return 2
        raise ConfigError(f"unknown input source {kind!r}")

    def _input_dim(self, d: _LayerDef) -> int:
        return sum(self._source_width(k, r) for k, r in d.sources)

    def connections(self) -> list[tuple[str, str, int]]:
        """Wiring table as (source, target, delay) triples."""
        table = []
        for d in self.layer_defs:
            for kind, ref in d.sources:
                if kind == "hidden":
                    table.append((ref, d.name, 0))
                elif kind == "delay":
                    table.append((self.feedup_layer, d.name, 1))
                else:
                    table.append((kind, d.name, 0))
        table.append((self.output_layer, "softmax", 0))
        return table

    def named_blocks(self) -> Blocks:
        """Every parameter block by name, as views into ``flat``."""
        return self._blocks(self.layers, self.softmax_W, self.softmax_b,
                            self.flat)

    def param_count(self) -> int:
        return self.flat.size

    # -- running -----------------------------------------------------------

    def init_state(self, batch: int = 1) -> NetworkState:
        layers = {d.name: LstmState.zeros(d.hidden, batch)
                  for d in self.layer_defs}
        delay = (np.zeros((batch, self._hidden_of(self.feedup_layer)))
                 if self.feedup_layer else None)
        return NetworkState(layers=layers, delay=delay)

    def _window(self, ids: np.ndarray, active: np.ndarray):
        """Per-step clock and word-clock flags of a (B, T) window, plus the
        word module's (B, T, 2) boundary-indicator input (None for mono)."""
        clocks = _step_flags(active)
        if self.spec.levels == 1:
            return clocks, [False] * len(clocks), None
        word = (ids == self.spec.word_boundary_id) & active
        sentence = (ids == self.spec.sentence_boundary_id) & active
        indicator = np.stack([word, sentence], axis=-1).astype(np.float64)
        return clocks, _step_flags(word | sentence), indicator

    def _scratch(self, batch: int):
        """A slot source for untaped steps: each layer reuses one scratch
        tape, allocated on first use."""
        slots: dict[str, LstmTape] = {}

        def slot(name: str) -> LstmTape:
            s = slots.get(name)
            if s is None:
                p = self.layers[name]
                s = slots[name] = scratch_tape(p.input_dim, p.hidden_dim,
                                               batch)
            return s
        return slot

    def _run_step(self, states: dict, delay, ids_t, clock, word_clock,
                  indicator, slot):
        """Advance every layer one step; returns updated (states, delay,
        probs, tapes).  Character layers tick with ``clock`` and reset under
        ``word_clock``, word layers tick with ``word_clock``.  A layer that
        ticks on any row computes into ``slot(name)``, an ``LstmTape``
        whose x columns receive its inputs directly."""
        new_states = dict(states)
        tapes = {}
        for d in self.step_order:
            if d.level == 1:
                c, r = clock, word_clock
            else:
                c, r = word_clock, False
            tape = x = None
            if c is not False:
                tape = slot(d.name)
                x = tape.x
                for kind, ref, cols in self.input_slices[d.name]:
                    if kind == "onehot":
                        np.equal(ids_t[:, None], self._token_ids,
                                 out=x[:, cols])
                    elif kind == "hidden":
                        x[:, cols] = new_states[ref].h
                    elif kind == "delay":
                        x[:, cols] = delay
                    else:
                        x[:, cols] = indicator
            new_states[d.name], tapes[d.name] = lstm_step(
                self.layers[d.name], x, states[d.name], c, r, tape)

        top_h = new_states[self.output_layer].h
        probs = softmax(top_h @ self.softmax_W.T + self.softmax_b)
        new_delay = (new_states[self.feedup_layer].h if self.feedup_layer
                     else None)
        return new_states, new_delay, probs, tapes

    def forward(self, ids, state: Optional[NetworkState] = None, *,
                active=None, collect_tape: bool = False):
        """Run a token batch through the network.

        ids is (T,) or (batch, T).  Returns (probs, final_state, tape) with
        probs shaped (T, V) or (batch, T, V) to match the input.  The input
        state is never mutated.  With ``collect_tape`` the tape is a
        ``WindowTape`` for ``backward``; each layer's window holds a slot
        only for the steps the layer computes.
        """
        ids = np.asarray(ids, dtype=np.int64)
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        if ids.ndim != 2:
            raise DimensionError("ids must be a 1-D or 2-D integer array")
        B, T = ids.shape
        if ids.size and (ids.min() < 0 or ids.max() >= self.spec.vocab_size):
            raise ConfigError("token id out of vocabulary range")
        if active is None:
            active = np.ones((B, T), dtype=bool)
        else:
            active = np.asarray(active, dtype=bool)
            if active.shape != ids.shape:
                raise DimensionError("active mask shape must match ids")

        state = self.init_state(B) if state is None else state
        states = dict(state.layers)
        delay = state.delay
        probs_out = np.empty((B, T, self.spec.vocab_size))
        clock_flags, word_flags, indicator = self._window(ids, active)
        tape = None
        if collect_tape:
            windows = {}
            for d in self.layer_defs:
                flags = clock_flags if d.level == 1 else word_flags
                p = self.layers[d.name]
                windows[d.name] = LstmWindow(
                    p.input_dim, p.hidden_dim,
                    sum(f is not False for f in flags), B)
            tape = WindowTape(windows, {name: [] for name in windows},
                              np.empty((B, T, self._hidden_of(
                                  self.output_layer))))
            filled = dict.fromkeys(windows, 0)

            def slot(name: str) -> LstmTape:
                k = filled[name]
                filled[name] = k + 1
                return windows[name].slot(k)
        else:
            slot = self._scratch(B)
        for t in range(T):
            states, delay, probs, tapes = self._run_step(
                states, delay, ids[:, t], clock_flags[t], word_flags[t],
                None if indicator is None else indicator[:, t], slot)
            probs_out[:, t] = probs
            if collect_tape:
                tape.top_h[:, t] = states[self.output_layer].h
                for name, st in tapes.items():
                    tape.steps[name].append(st)
        if collect_tape:
            # The memory cells are views into the windows: copy them, so
            # the state carried on does not keep the tape alive.
            states = {k: LstmState(v.m.copy(), v.h) for k, v in states.items()}
        final = NetworkState(layers=states, delay=delay)
        if single:
            return probs_out[0], final, tape
        return probs_out, final, tape

    def step(self, state: NetworkState, token_id: int):
        """Streaming single-token step: (next-char probs, new state).

        Functionally one step of forward(); the given state is left intact,
        so callers may branch a hypothesis by cloning.
        """
        token_id = int(token_id)
        if not 0 <= token_id < self.spec.vocab_size:
            raise ConfigError(f"token id {token_id} out of range")
        spec = self.spec
        if spec.levels > 1:  # _window's flags for one row and step
            word = token_id == spec.word_boundary_id
            sentence = token_id == spec.sentence_boundary_id
            word_clock = word or sentence
            indicator = np.array([[float(word), float(sentence)]])
        else:
            word_clock, indicator = False, None
        states, delay, probs, _ = self._run_step(
            dict(state.layers), state.delay, np.array([token_id]), True,
            word_clock, indicator, self._scratch(1))
        return probs[0], NetworkState(layers=states, delay=delay)

    def backward(self, tape: WindowTape, d_logits) -> Blocks:
        """Reverse-mode gradients of a taped forward run.

        d_logits is (batch, T, V) or (T, V): gradient of the loss w.r.t. the
        pre-softmax logits at every step.  State gradients are truncated at
        the window start.  Returns the gradient of every named block, as
        views into one fresh flat buffer laid out like ``flat``.  Backward
        consumes the tape (dz replaces the gates), so a tape is reversed
        once.
        """
        d_logits = np.asarray(d_logits, dtype=np.float64)
        if d_logits.ndim == 2:
            d_logits = d_logits[None]
        T = len(tape)
        if d_logits.shape[1] != T:
            raise DimensionError(f"{T} taped steps but "
                                 f"{d_logits.shape[1]} gradient steps")
        if any(w.reversed for w in tape.windows.values()):
            raise ConfigError("this tape was already reversed")
        flat = np.zeros_like(self.flat)
        layer_grads, d_W, d_b = self._views(flat)
        B, V = d_logits.shape[0], d_logits.shape[2]
        if T:
            # The softmax layer does not feed the recurrence: all T steps at
            # once.
            d_W += d_logits.reshape(-1, V).T @ tape.top_h.reshape(B * T, -1)
            d_b += d_logits.sum(axis=(0, 1))
            d_top = d_logits @ self.softmax_W
        running = {d.name: LstmState.zeros(d.hidden, B)
                   for d in self.layer_defs}
        d_delay = (np.zeros((B, self._hidden_of(self.feedup_layer)))
                   if self.feedup_layer else None)

        for t in range(T - 1, -1, -1):
            running[self.output_layer].h += d_top[:, t]
            if self.feedup_layer:
                running[self.feedup_layer].h += d_delay

            for d in reversed(self.step_order):
                d_x, d_prev = lstm_backward_step(
                    self.layers[d.name], tape.steps[d.name][t],
                    running[d.name])
                running[d.name] = d_prev
                for kind, ref, cols in self.input_slices[d.name]:
                    if kind == "hidden" and d_x is not None:
                        running[ref].h += d_x[..., cols]
                    elif kind == "delay":
                        d_delay = (np.zeros_like(d_delay) if d_x is None
                                   else d_x[..., cols])
                    # onehot / indicator inputs are not trainable
        # One weight-gradient GEMM per layer for the whole window.
        for name, window in tape.windows.items():
            lstm_window_grads(window, layer_grads[name])
        return self._blocks(layer_grads, d_W, d_b, flat)


def build_network(spec: NetworkSpec, rng_seed: int = 0) -> Network:
    """Allocate and initialize all parameters for a spec (uniform, seeded)."""
    return Network(spec, rng=np.random.default_rng(rng_seed))
