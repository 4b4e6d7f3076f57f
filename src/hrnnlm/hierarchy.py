"""Multi-timescale network assembly and execution.

A network is a stack of LSTM modules running at nested rates: module 1
steps on every character, module 2 only on word-boundary tokens (<w>, <s>),
and module 1 is reset exactly when module 2 steps.  The activation a module
sends upward is delayed by one step: the word module reads the feed-up
layer's activation from the state going into the step, so the embedding of
the word just finished survives the reset; a state is just its layers'
cells.  The context a module sends back down is not delayed.  A token's
clocks are a function of the token alone, read from one per-token table
(``_boundary_table``) by ``Network.forward``, ``Network.step`` and
``derive_clocks``; ``forward`` (per window column) and ``step`` (per id
array) get each clock's rows from the kernels' one rule, ``clock_rows``,
and an int id, a one-row batch, reads its flag from the table.  The
wiring is one table, ``_layer_defs``, that the network reads everywhere:
per layer its clock level, width, input width and sources, each source with
the columns of the input it fills.  It covers the single-module stack
("mono") and the two-level variants:

* ``hlstm_a``: both character layers read the one-hot input; layer 2 is a
  generative layer conditioned on the word context, layer 1 produces the
  word embedding that feeds the word module.
* ``hlstm_b``: character layer 1 encodes the input into a word embedding
  that feeds layer 2 (together with the context); layer 2's activation
  feeds the word module.

The softmax layer reads the output layer, the table's last character
layer.  It feeds nothing back into the recurrence, so it runs outside the
time loop: ``forward`` keeps the output layer's activation at every step
and computes the distributions of a window's active positions in one call of
``Network._probs``, which ``step`` calls on its rows.  ``_probs`` computes
the logits row by row, since BLAS rounds a row of a GEMM differently
depending on how many rows the product has; so a row gets the same bits
from a window as from a step, and ``forward`` stays a fold of ``step``.

A taped ``forward`` plans its window once, before the time loop
(``Network._plan``): every layer's slot tapes are made in bulk, and its
per-token inputs (one-hot, indicator) written with one gather per
source, so the loop only copies the "hidden" and "delay" sources and
calls ``lstm_step``.  Steps that are not reversed run through a
``StepWorkspace`` instead: per layer, one step's scratch buffers, made
once and written again by every step.  Taped forward, untaped forward and
``step`` share that loop body, ``Network._run_step``.  A caller that
streams, such as ``evaluation.sample``, makes a workspace with
``Network.workspace`` and passes it to every ``step``; untaped ``forward``
makes one per call.  The workspace belongs to its caller, not to the
network, so two threads may step one network, each through its own.

A ``NetworkState`` is one (batch, width) float64 buffer with every layer's
cells, per layer its memory cells m and then its activation h, in
wiring-table order (``Network.state_layout``); its ``layers`` are a
read-only mapping of views into it.  Taking rows, cloning and resetting
rows are one numpy call each, and a decoder gathers its hypotheses' rows,
and writes stepped rows back, in one call.  ``step`` gives each layer's
``lstm_step`` its views of a new buffer to write (``out``) and copies the
word layers' columns when no row ticks; ``forward`` carries per-layer
states through its time loop and fills the final state's buffer once, at
the end.  So every state they return owns its buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

from .cells import (IDLE_TAPE, LstmParams, LstmState, LstmTape, LstmWindow,
                    clock_rows, lstm_backward_step, lstm_step,
                    lstm_window_grads, scratch_tape, softmax, take_rows)
from .corpus import TokenSequence, Vocabulary
from .errors import ConfigError, DimensionError, check_count

VARIANTS = ("mono", "hlstm_a", "hlstm_b")


def _boundary_table(size: int, boundary_ids) -> np.ndarray:
    """The clock rule, as the word module's (size, 2) boundary-indicator
    input per token id: row i is [i is <w>, i is <s>] for the
    ``boundary_ids`` (<w>, <s>).  Token i ticks the word clock, and resets
    the character module, exactly when its row is non-zero; without
    boundary ids (mono) no token does.  Read-only."""
    table = np.zeros((size, 2))
    if boundary_ids is not None:
        table[list(boundary_ids), [0, 1]] = 1.0
    table.flags.writeable = False
    return table


def _check_ids(ids, size: int):
    """Token ids of a vocabulary of ``size``: an int comes back as an int,
    anything else as an int64 array.  Ids that are not integers (bools
    included) or lie outside [0, size) raise ConfigError."""
    if isinstance(ids, (int, np.integer)) and not isinstance(ids, bool):
        if not 0 <= ids < size:
            raise ConfigError(f"token id {ids} out of range")
        return int(ids)
    ids = np.asarray(ids)
    if ids.size:
        if ids.dtype.kind not in "iu":
            raise ConfigError(f"token ids must be integers, not {ids.dtype}")
        if ids.min() < 0 or ids.max() >= size:
            raise ConfigError("token id out of vocabulary range")
    return ids.astype(np.int64, copy=False)


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
        """Validate the spec and store every size and id as a Python int
        (the checkpoint header is JSON)."""
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; "
                              f"expected one of {VARIANTS}")
        if self.levels is None:
            self.levels = 1 if self.variant == "mono" else 2
        for name, minimum in (("vocab_size", 2), ("levels", 1),
                              ("layers_per_module", 1)):
            check_count(name, getattr(self, name), minimum)
            setattr(self, name, int(getattr(self, name)))
        if self.variant == "mono":
            if self.levels != 1:
                raise ConfigError("mono networks have exactly one level")
        else:
            if self.levels != 2:
                raise ConfigError(f"{self.variant} networks are built with "
                                  "exactly two levels")
            if self.layers_per_module != 2:
                raise ConfigError("hlstm variants use two layers per module")
        # A mono network reads no boundary id, so it may have none.
        for name in ("word_boundary_id", "sentence_boundary_id"):
            v = getattr(self, name)
            if v is None and self.variant == "mono":
                continue
            check_count(name, v, 0)
            if v >= self.vocab_size:
                raise ConfigError(f"{name} lies outside the vocabulary")
            setattr(self, name, int(v))
        if (self.word_boundary_id is not None
                and self.word_boundary_id == self.sentence_boundary_id):
            raise ConfigError("word_boundary_id and sentence_boundary_id "
                              "must be distinct")
        try:
            dims = tuple(self.hidden_dim)
        except TypeError:  # one size for every layer
            dims = (self.hidden_dim,) * self.total_layers
        if len(dims) != self.total_layers:
            raise ConfigError(
                f"need {self.total_layers} hidden sizes, got {len(dims)}")
        for h in dims:
            check_count("hidden size", h, 1)
        self.hidden_dim = tuple(int(h) for h in dims)

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
    """One layer of the wiring table: its clock level (1 character, 2 word),
    width and input width, and its sources as (kind, referenced layer, cols)
    triples, cols the columns of the layer's input that the source fills."""
    name: str
    level: int
    hidden: int
    sources: list[tuple[str, Optional[str], slice]]
    input_dim: int


def _layer_defs(spec: NetworkSpec) -> list[_LayerDef]:
    """The wiring table of a spec, in step and parameter order.  The
    output layer, which feeds the softmax, is its last level-1 layer."""
    if spec.variant == "mono":
        wiring = [(f"layer{k + 1}", 1, [("onehot", None)] if k == 0
                   else [("hidden", f"layer{k}")])
                  for k in range(spec.layers_per_module)]
    else:
        # The layer that feeds the word module: the word embedding.
        if spec.variant == "hlstm_a":
            feedup, char2_in = "char1", ("onehot", None)
        else:
            feedup, char2_in = "char2", ("hidden", "char1")
        wiring = [("char1", 1, [("onehot", None)]),
                  ("char2", 1, [char2_in, ("hidden", "word2")]),
                  ("word1", 2, [("delay", feedup), ("indicator", None)]),
                  ("word2", 2, [("hidden", "word1")])]
    width = dict(zip((name for name, _, _ in wiring), spec.hidden_dim),
                 onehot=spec.vocab_size, indicator=2)
    defs = []
    for name, level, sources in wiring:
        start, triples = 0, []
        for kind, ref in sources:
            end = start + width[ref or kind]
            triples.append((kind, ref, slice(start, end)))
            start = end
        defs.append(_LayerDef(name, level, width[name], triples, start))
    return defs


def derive_clocks(ids, vocab: Vocabulary) -> np.ndarray:
    """The (2, T) clock rows of a token sequence, as ``Network.forward``
    runs them: row 0 the character clock, high on every token, and row 1
    the word clock, high on <w> and <s>.  The character module is reset
    exactly when the word clock ticks, so row 1 is also its reset row."""
    if isinstance(ids, TokenSequence):
        ids = ids.ids
    ids = np.asarray(_check_ids(ids, vocab.size))
    word = _boundary_table(vocab.size, vocab.boundary_ids)[ids].any(axis=-1)
    return np.stack([np.ones_like(word), word]).astype(np.uint8)


def _state_layout(defs: list[_LayerDef]) -> tuple:
    """Where each layer's cells lie in a ``NetworkState`` buffer: per layer,
    in wiring-table order, (name, m key, h key), the keys indexing its m
    columns and then its h columns of a (batch, width) buffer."""
    layout, start = [], 0
    for d in defs:
        mid, end = start + d.hidden, start + 2 * d.hidden
        layout.append((d.name, (slice(None), slice(start, mid)),
                       (slice(None), slice(mid, end))))
        start = end
    return tuple(layout)


class NetworkState:
    """Cloneable full-stack runtime state: one (batch, width) float64
    buffer, ``buf``, that holds every layer's cells, per layer its memory
    cells m and then its activation h, in the order of ``layout``
    (``Network.state_layout``).  The word module's delayed input is the
    feed-up layer's ``h`` here.

    ``layers`` maps each layer's name to an ``LstmState`` of views into
    ``buf``: read-only as a mapping, while writing into its arrays writes
    the state.  Every state that ``Network`` returns owns its buffer."""

    __slots__ = ("_buf", "layout", "_layers")

    def __init__(self, buf: np.ndarray, layout: tuple):
        self._buf, self.layout, self._layers = buf, layout, None

    # Read-only, like ``layers``: the views are made of this buffer.
    buf = property(lambda self: self._buf)

    @property
    def layers(self) -> MappingProxyType:
        layers = self._layers
        if layers is None:  # made on first use, then kept
            b = self._buf
            layers = self._layers = MappingProxyType(
                {name: LstmState(b[m], b[h]) for name, m, h in self.layout})
        return layers

    @property
    def batch(self) -> int:
        return self._buf.shape[0]

    def clone(self) -> "NetworkState":
        return NetworkState(self._buf.copy(), self.layout)

    def reset_where(self, mask) -> "NetworkState":
        """Zero every array on the batch rows where mask is true; a mask
        without exactly one entry per row raises DimensionError."""
        m = np.asarray(mask, dtype=bool)
        if m.shape != (self.batch,):
            raise DimensionError(f"a mask of shape {m.shape} for a state of "
                                 f"{self.batch} rows")
        return NetworkState(np.where(m[:, None], 0.0, self._buf), self.layout)

    def take(self, rows) -> "NetworkState":
        """A new state of the given batch rows, in order (copies); no rows
        give a state of zero rows.  Rows other than 1-D integers in
        [0, batch) raise DimensionError."""
        rows = np.asarray(rows)
        if rows.shape == (0,):  # [] reads as float64, yet selects no row
            rows = rows.astype(np.int64)
        if rows.ndim != 1 or rows.dtype.kind not in "iu" or rows.size and (
                rows.min() < 0 or rows.max() >= self.batch):
            raise DimensionError(f"take needs a 1-D sequence of integer "
                                 f"rows in [0, {self.batch}), got {rows!r}")
        return self._take(rows)

    def _take(self, rows: np.ndarray, out: Optional[np.ndarray] = None
              ) -> "NetworkState":
        """``take`` without its checks, for rows a caller built itself: a
        1-D integer array of rows in [0, batch).  With ``out``, a buffer
        of at least as many rows and of this state's width that shares no
        memory with it, the state is gathered into out's leading rows."""
        if out is None:
            return NetworkState(self._buf[rows], self.layout)
        return NetworkState(np.take(self._buf, rows, axis=0, mode="clip",
                                    out=out[:rows.size]), self.layout)


@dataclass
class WindowTape:
    """What ``Network.backward`` needs of one taped forward window.

    ``windows`` holds each layer's ``LstmWindow``, with one slot per step
    the layer computed and one row per row it computed; ``steps[name][t]``
    is the layer's tape at step t (skipped steps included); ``active``
    (batch, T) marks the positions computed; ``top_h`` (batch, T, h) is the
    output layer's activation at every step.
    """

    windows: dict[str, LstmWindow]
    steps: dict[str, list[LstmTape]]
    top_h: np.ndarray
    active: np.ndarray

    def __len__(self) -> int:
        return self.top_h.shape[1]


def _input_views(tape: LstmTape, sources) -> list:
    """(kind, ref, view) per input source: the view of the tape's x
    columns that the source fills."""
    return [(kind, ref, tape.x[:, cols]) for kind, ref, cols in sources]


class StepWorkspace:
    """The scratch buffers of untaped steps of up to ``batch`` rows, owned
    by the caller (``Network.workspace``).

    Per layer it holds one ``scratch_tape`` of ``batch`` rows and, per
    smaller number of rows a step computes, a head of it, each made on
    first use and then kept, together with the views of the tape's x
    columns that the layer's input sources fill.  A scratch tape keeps
    no new memory cell, so the states that steps return never alias these
    buffers: one workspace serves every step of its caller, one step at a
    time.  ``defs`` is the network's wiring table, by layer name.
    """

    def __init__(self, defs: dict[str, _LayerDef], batch: int):
        self.defs, self.batch = defs, batch
        self._slots: dict = {}

    def slot(self, name: str, n: int):
        """(tape, input views) of layer ``name`` for a step computing n
        rows, n <= batch."""
        s = self._slots.get((name, n))
        if s is None:
            d = self.defs[name]
            if n == self.batch:
                tape = scratch_tape(d.input_dim, d.hidden, n)
            else:
                tape = self.slot(name, self.batch)[0].head(n)
            s = self._slots[name, n] = (tape, _input_views(tape, d.sources))
        return s


class Blocks(dict):
    """Named parameter (or gradient) blocks that are all views into one
    flat float64 buffer, ``flat``."""

    def __init__(self, items, flat: np.ndarray):
        super().__init__(items)
        self.flat = flat


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
        self.defs = {d.name: d for d in self.layer_defs}
        self.state_layout = _state_layout(self.layer_defs)
        self.state_width = 2 * sum(d.hidden for d in self.layer_defs)
        # The state columns of the word layers, which the wiring table
        # lists after the character layers; None without a word module.
        chars = 2 * sum(d.hidden for d in self.layer_defs if d.level == 1)
        self._word_cols = ((slice(None), slice(chars, None))
                           if chars < self.state_width else None)
        self.output_layer = [d.name for d in self.layer_defs
                             if d.level == 1][-1]
        # Per-step processing order: the word module steps first, so the
        # character module reads this step's context.  (A delayed source
        # reads the step's input state, so its order does not matter.)
        self.step_order = sorted(self.layer_defs, key=lambda d: -d.level)
        self._onehot = np.eye(spec.vocab_size)  # row i: token i's one-hot
        self._onehot.flags.writeable = False
        self._table = _boundary_table(
            spec.vocab_size, (spec.word_boundary_id, spec.sentence_boundary_id)
            if spec.levels > 1 else None)
        self._ticks = self._table.any(axis=1)
        # The per-token sources' tables, by source kind.
        self._tokens = {"onehot": self._onehot, "indicator": self._table}
        # Per id stepped alone, its table rows and word clock, made on
        # first use (``step``).
        self._one_id: dict[int, tuple] = {}
        self.flat = np.zeros(
            sum(LstmParams.size(d.input_dim, d.hidden)
                for d in self.layer_defs)
            + spec.vocab_size * (self.defs[self.output_layer].hidden + 1))
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
            n = LstmParams.size(d.input_dim, d.hidden)
            layers[d.name] = LstmParams(d.input_dim, d.hidden,
                                        flat[start:start + n])
            start += n
        V, H = self.spec.vocab_size, self.defs[self.output_layer].hidden
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

    def connections(self) -> list[tuple[str, str, int]]:
        """Wiring table as (source, target, delay) triples."""
        table = [(ref or kind, d.name, int(kind == "delay"))
                 for d in self.layer_defs for kind, ref, _ in d.sources]
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
        return NetworkState(np.zeros((batch, self.state_width)),
                            self.state_layout)

    def workspace(self, batch: int) -> "StepWorkspace":
        """Scratch buffers for untaped steps of up to ``batch`` rows, for
        ``step`` (see ``StepWorkspace``).  The caller owns it: each thread
        stepping this network needs its own."""
        check_count("batch", batch, 0)
        return StepWorkspace(self.defs, int(batch))

    def _check_state(self, state: NetworkState, rows: int) -> None:
        """Raise DimensionError unless the state has ``rows`` rows and this
        network's width."""
        if state.batch != rows:
            raise DimensionError(f"{rows} id rows for a state of "
                                 f"{state.batch} rows")
        if state.buf.shape[1:] != (self.state_width,):
            raise DimensionError("a state of another network's layers")

    def _run_step(self, states, batch: int, char, word, slot,
                  tokens: Optional[dict] = None, out=None) -> dict:
        """Advance every layer one step of ``batch`` rows; returns the new
        states by layer name, written into the arrays of ``out``, a mapping
        like ``NetworkState.layers``, when it is given (the cells of a
        layer that computes no row are then the caller's to fill in).
        Character layers tick with ``char`` and reset under
        ``word``'s flag, word layers tick with ``word``: (flag, rows) pairs
        from ``clock_rows``.  A layer computes only its clock's rows, into
        the tape that ``slot(name, n)`` gives for its n rows, with the views
        of the tape's x columns still to be filled: a ``StepWorkspace``
        slot, whose views cover every input source, or the next slot of a
        taped window's plan (``_plan``), whose per-token sources are
        already written.  The inputs are written there directly.  A layer
        that computes no row (the word layers on a character) passes its
        state through, without a call to ``lstm_step``.  A "hidden" source
        reads its layer's new state, a "delay" source its layer's state in
        ``states``, the state going into the step, and a "onehot" or
        "indicator" source its per-token table rows of the step's tokens,
        ``tokens[kind]``.  No probabilities are computed here: the callers
        pass the output layer's new ``h`` to ``_probs``."""
        new_states = (states if out is None else out).copy()
        for d in self.step_order:
            (c, rows), r = (char, word[0]) if d.level == 1 else (word, False)
            # A layer that computes no row is never reset: the word clock
            # ticks only on rows the character clock computes.
            if rows is False:
                continue
            tape, inputs = slot(d.name, batch if rows is True else rows.size)
            for kind, ref, x in inputs:
                if kind == "hidden":
                    x[...] = take_rows(new_states[ref].h, rows)
                elif kind == "delay":
                    x[...] = take_rows(states[ref].h, rows)
                else:
                    x[...] = take_rows(tokens[kind], rows)
            new_states[d.name], _ = lstm_step(
                self.layers[d.name], tape.x, states[d.name], c, r, tape,
                None if out is None else out[d.name])
        return new_states

    def _plan(self, ids: np.ndarray, masks: dict, clocks: dict,
              top_h: np.ndarray):
        """The plan of a taped window: (its ``WindowTape``, ``slot``).

        Per layer, a window with a slot per step and a row per row that its
        clock level computes (``masks[level]``, (B, T), and its per-step
        ``clock_rows`` pairs ``clocks[level]``), its slot tapes made in
        bulk (``LstmWindow.tapes``), and its per-token sources written
        with one gather per source: the window's rows are the clock's
        positions step by step, rows ascending.  ``slot(name, n)`` hands
        out a layer's slots in order, each with the views its layer
        sources fill.
        """
        B = ids.shape[0]
        windows, steps, plans = {}, {}, {}
        for d in self.layer_defs:
            level = clocks[d.level]
            window = windows[d.name] = LstmWindow(
                d.input_dim, d.hidden,
                [B if rows is True else rows.size
                 for _, rows in level if rows is not False])
            layer_sources = [(kind, ref, cols) for kind, ref, cols in d.sources
                             if ref is not None]
            slots = window.tapes([cols for _, _, cols in layer_sources])
            position_ids = ids.T[masks[d.level].T]
            for kind, ref, cols in d.sources:
                if ref is None:
                    window.xh[:, cols] = self._tokens[kind][position_ids]
            computed = iter(slots)
            steps[d.name] = [IDLE_TAPE if rows is False else next(computed)[0]
                             for _, rows in level]
            plans[d.name] = iter([
                (tape, [(kind, ref, x) for (kind, ref, _), x
                        in zip(layer_sources, views)])
                for tape, views in slots])
        return (WindowTape(windows, steps, top_h, masks[1]),
                lambda name, n: next(plans[name]))

    def _probs(self, h: np.ndarray) -> np.ndarray:
        """The (N, V) next-token distributions of N output-layer rows.
        The logits are one product per row, so a row's bits do not depend
        on the rows that come with it (see the module docstring)."""
        return softmax(np.matmul(h[:, None, :], self.softmax_W.T)[:, 0]
                       + self.softmax_b)

    def forward(self, ids, state: Optional[NetworkState] = None, *,
                active=None, collect_tape: bool = False):
        """Run a token batch through the network.

        ids is (T,) or (batch, T); ``active``, of the same shape and all
        True when omitted, marks the positions to compute.  Returns (probs,
        final_state, tape) with probs shaped (T, V) or (batch, T, V) to
        match the input: the next-token distribution at every active
        position and 0 at every inactive one.  A row's state advances only
        at its active positions, so its final state is the one after its
        last active position.  The input state is never mutated.

        Each step computes only the rows that tick: the character layers
        the rows active at that step, the word layers the rows whose word
        clock is high.  A step where every row ticks runs the whole batch;
        otherwise its rows are gathered, computed and scattered back, and a
        row with no active position in the window costs nothing.  The
        output layer's ``h`` is kept at every step, and after the time loop
        one ``_probs`` call computes the distributions of every active
        position.  With ``collect_tape`` the tape is a ``WindowTape``
        for ``backward``; each layer's window holds a slot only for the
        steps the layer computes, with a row for each row it computes, and
        is planned before the time loop (``_plan``).
        """
        ids = np.asarray(_check_ids(ids, self.spec.vocab_size))
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        if ids.ndim != 2:
            raise DimensionError("ids must be a 1-D or 2-D integer array")
        B, T = ids.shape
        if active is None:
            active = np.ones((B, T), dtype=bool)
        else:
            active = np.asarray(active, dtype=bool)
            if active.shape != ids.shape:
                raise DimensionError("active mask shape must match ids")

        state = self.init_state(B) if state is None else state
        self._check_state(state, B)
        states = state.layers
        # Per step, the character clock is the active column and the word
        # clock its boundary rows.  The indicator is not masked: the word
        # layers compute only rows whose word clock is high.
        masks = {1: active, 2: self._ticks[ids] & active}
        clocks = {level: [clock_rows(c, (B,)) for c in mask.T]
                  for level, mask in masks.items()}
        top_h = np.empty((B, T, self.defs[self.output_layer].hidden))
        if collect_tape:
            tape, slot = self._plan(ids, masks, clocks, top_h)
            tokens = [None] * T
        else:
            tape, slot = None, self.workspace(B).slot
            rows = {kind: table[ids] for kind, table in self._tokens.items()}
            tokens = [{kind: a[:, t] for kind, a in rows.items()}
                      for t in range(T)]
        for t in range(T):
            states = self._run_step(states, B, clocks[1][t], clocks[2][t],
                                    slot, tokens[t])
            top_h[:, t] = states[self.output_layer].h
        # The softmax feeds nothing back into the recurrence: one pass over
        # every active position of the window.
        probs_out = np.zeros((B, T, self.spec.vocab_size))
        probs_out[active] = self._probs(top_h[active])
        # One copy into the final state's own buffer: a taped forward's
        # memory cells are views into its windows, and a layer that never
        # stepped is still the input state's.
        final = NetworkState(np.concatenate(
            [a for cell in states.values() for a in (cell.m, cell.h)],
            axis=1), self.state_layout)
        if single:
            return probs_out[0], final, tape
        return probs_out, final, tape

    def step(self, state: NetworkState, ids,
             workspace: Optional["StepWorkspace"] = None):
        """One streaming step: (next-token probs, new state).

        With a (B,) id array, the state has B rows, each advanced by its
        own token, and probs is (B, V): the same arithmetic, row for row
        and bit for bit, as ``forward(ids[:, None], state=state)``, whose
        clock rule (``clock_rows``) and ``_probs`` it runs.  An int id, or a
        0-d id array, is a one-row batch: the state has one row and probs
        is (V,); its word clock is read straight from the per-token table.
        The word layers run only the boundary rows, and not at all when no
        id is a boundary.

        The step runs through ``workspace``, a ``StepWorkspace`` of at
        least B rows from ``workspace(batch)``, or through a new one when
        it is omitted: a caller that steps many times passes one and saves
        its allocations.  The given state is never mutated, so callers may
        branch a hypothesis from it, and the returned state owns its
        buffer: later steps through the same workspace leave it as it is.
        An id that is not an integer, or lies outside the vocabulary,
        raises ConfigError; ids of more than one dimension, a state of
        another batch size, or a workspace of fewer rows or of another
        network's layer shapes raise DimensionError.
        """
        ids = _check_ids(ids, self.spec.vocab_size)
        one = isinstance(ids, int) or ids.ndim == 0
        if one:  # slices read the per-token tables without a gather
            ids = int(ids)
            got = self._one_id.get(ids)
            if got is None:
                tick = bool(self._ticks[ids])
                got = self._one_id[ids] = (
                    {kind: table[ids:ids + 1]
                     for kind, table in self._tokens.items()}, (tick, tick))
            tokens, word = got
        elif ids.ndim != 1:
            raise DimensionError("step takes one id or a (batch,) id array")
        else:
            word = clock_rows(self._ticks[ids], ids.shape)
            tokens = {kind: table[ids] for kind, table in self._tokens.items()}
        B = tokens["onehot"].shape[0]
        self._check_state(state, B)
        if workspace is None:
            workspace = self.workspace(B)
        elif workspace.batch < B:
            raise DimensionError(f"a workspace of {workspace.batch} rows for "
                                 f"a step of {B}")
        elif workspace.defs is not self.defs and workspace.defs != self.defs:
            raise DimensionError("a workspace of another network's layers")
        new = NetworkState(np.empty((B, self.state_width)), self.state_layout)
        if word[1] is False and self._word_cols is not None:
            # No row ticks: the word layers keep their cells.
            new.buf[self._word_cols] = state.buf[self._word_cols]
        states = self._run_step(state.layers, B, (True, True), word,
                                workspace.slot, tokens, new.layers)
        probs = self._probs(states[self.output_layer].h)
        return (probs[0] if one else probs), new

    def backward(self, tape: WindowTape, d_logits) -> Blocks:
        """Reverse-mode gradients of a taped forward run.

        d_logits is (batch, T, V) or (T, V): gradient of the loss w.r.t. the
        pre-softmax logits at every step.  Its values at inactive positions,
        where forward computed no logits, are ignored.  State gradients are
        truncated at the window start.  The time loop mirrors forward's:
        each layer reverses only the rows it computed at a step, and the
        others pass their state gradient through; a layer that computed no
        row (``IDLE_TAPE``) is not reversed at all.  Returns the gradient of
        every named block, as views into one fresh flat buffer laid out
        like ``flat``.  Backward consumes the tape (its gates turn into
        backward's factors, then into dz), so a tape is reversed once.
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
        H = tape.top_h.shape[2]
        # The softmax layer does not feed the recurrence: every active
        # position at once.
        active = tape.active.reshape(-1)
        dl = d_logits.reshape(-1, V)[active]
        d_W += dl.T @ tape.top_h.reshape(-1, H)[active]
        d_b += np.add.reduce(dl, axis=0)
        d_top = np.zeros((B * T, H))
        d_top[active] = dl @ self.softmax_W
        d_top = d_top.reshape(B, T, H)
        running = {d.name: LstmState.zeros(d.hidden, B)
                   for d in self.layer_defs}
        # Reversed, a step runs the word layers last: a delayed source's
        # gradient then lands on the step's input state, as a hidden one's
        # on its output state.  Onehot and indicator inputs are not
        # trainable: only the sources that are layers take a gradient.
        order = [(d.name, self.layers[d.name], tape.steps[d.name],
                  [(ref, cols) for _, ref, cols in d.sources
                   if ref is not None])
                 for d in reversed(self.step_order)]
        for t in range(T - 1, -1, -1):
            running[self.output_layer].h += d_top[:, t]
            for name, params, steps, sources in order:
                st = steps[t]
                if st is IDLE_TAPE:  # its state gradient passes through
                    continue
                d_x, running[name] = lstm_backward_step(params, st,
                                                        running[name])
                rows = slice(None) if st.rows is True else st.rows
                for ref, cols in sources:
                    running[ref].h[rows] += d_x[:, cols]
        # One weight-gradient GEMM per layer for the whole window.
        for name, window in tape.windows.items():
            lstm_window_grads(window, layer_grads[name])
        return self._blocks(layer_grads, d_W, d_b, flat)


def build_network(spec: NetworkSpec, rng_seed: int = 0) -> Network:
    """Allocate and initialize all parameters for a spec (uniform, seeded)."""
    check_count("rng_seed", rng_seed, 0)
    return Network(spec, rng=np.random.default_rng(rng_seed))
