"""Span tracing of hrnnlm's public functions, wrapped from outside.

``Tracer.install`` replaces each traced function, everywhere the package
binds it, by a wrapper that records one span per call: name, start, end,
parent span and round, plus three numbers describing the call (batch rows,
positions stepped or rows the cell computed, active or clocked positions).
Spans stay in memory in flat arrays and are written out once, when the run
ends.  ``per_layer`` derives the per-layer metrics; a span's self time is
its duration minus that of its direct children.
"""

from __future__ import annotations

import statistics
import time
from array import array
from functools import wraps

import numpy as np

# Module functions to wrap: (module, function, span name).  Each is
# replaced in every hrnnlm module that binds it, so calls between modules
# are seen too.
FUNCTIONS = [
    ("corpus", "build_vocab", "corpus.build_vocab"),
    ("corpus", "tokenize_lines", "corpus.tokenize_lines"),
    ("hierarchy", "build_network", "hierarchy.build_network"),
    ("hierarchy", "softmax", "hierarchy.softmax"),
    ("training", "train", "training.train"),
    ("training", "cross_entropy", "training.cross_entropy"),
    ("training", "clip_gradients", "training.clip_gradients"),
    ("training", "adadelta_nesterov_update", "training.update"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "sample", "evaluation.sample"),
    ("decoding", "beam_search", "decoding.beam_search"),
    ("decoding", "read_posteriors", "decoding.read_posteriors"),
    ("decoding", "write_posteriors_text", "decoding.write_posteriors_text"),
]
# Generators: each next() is its own span.
GENERATORS = [("training", "batch_sequences", "training.batch_sequences")]
PACKAGE_MODULES = ["cells", "corpus", "hierarchy", "training", "evaluation",
                   "decoding"]
LAYERS = ["char1", "char2", "word1", "word2"]
WORD_LAYERS = ("word1", "word2")
LM_NAMES = ("hierarchy.step", "hierarchy.forward", "hierarchy.forward_taped",
            "hierarchy.softmax")


def _rows(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, hr):
        self.hr = hr
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("d")       # batch rows of the call
        self.positions = array("d")  # rows x steps, or rows the cell computed
        self.live = array("d")       # active positions, or clocked rows
        self._stack: list[int] = []
        self.current_round = -1
        self._layer_of: dict[int, str] = {}
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._name_id.get(name)
        if i is None:
            i = self._name_id[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name: str, rows=0.0, positions=0.0, live=0.0) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(self.current_round)
        self.rows.append(rows)
        self.positions.append(positions)
        self.live.append(live)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, describe, measure=None):
        """Wrapper recording a span named and sized by describe(args, kw);
        ``measure(idx, result)`` may then size it from what the call
        returned."""
        @wraps(fn)
        def traced(*args, **kw):
            idx = self._open(*describe(args, kw))
            try:
                out = fn(*args, **kw)
            finally:
                self._close(idx)
            if measure is not None:
                measure(idx, out)
            return out
        return traced

    def _wrap_generator(self, fn, name):
        @wraps(fn)
        def traced(*args, **kw):
            it = fn(*args, **kw)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item
        return traced

    # -- descriptions of the calls ---------------------------------------

    def _layer(self, params) -> str:
        return self._layer_of.get(id(params), "other")

    def _lstm_step(self, args, kw):
        params, x = args[0], args[1]
        clock = args[3] if len(args) > 3 else kw.get("clock", True)
        rows = _rows(np.asarray(x))
        c = np.asarray(clock, dtype=bool)
        clocked = int(np.count_nonzero(c)) if c.ndim else rows * int(c)
        return f"cells.lstm_step.{self._layer(params)}", rows, 0, clocked

    def _lstm_computed(self, idx, out):
        """Rows the cell computed: those of its taped gate activations, none
        when it skipped the step."""
        tape = out[1]
        self.positions[idx] = 0 if tape.skipped else _rows(tape.i)

    def _lstm_backward(self, args, kw):
        return (f"cells.lstm_backward_step.{self._layer(args[0])}",)

    @staticmethod
    def _forward(args, kw):
        ids = np.asarray(args[1] if len(args) > 1 else kw["ids"])
        active = args[4] if len(args) > 4 else kw.get("active")
        taped = args[5] if len(args) > 5 else kw.get("collect_tape", False)
        positions = ids.size
        live = positions if active is None else int(np.count_nonzero(active))
        name = "hierarchy.forward_taped" if taped else "hierarchy.forward"
        return name, _rows(ids), positions, live

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        for mod in [self.hr] + [getattr(self.hr, m) for m in PACKAGE_MODULES]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        hr = self.hr
        for mod, fname, span in FUNCTIONS:
            fn = getattr(getattr(hr, mod), fname)
            self._patch_everywhere(
                fn, self._wrap(fn, lambda a, k, span=span: (span,)))
        for mod, fname, span in GENERATORS:
            fn = getattr(getattr(hr, mod), fname)
            self._patch_everywhere(fn, self._wrap_generator(fn, span))
        cells = hr.cells
        self._patch_everywhere(
            cells.lstm_step,
            self._wrap(cells.lstm_step, self._lstm_step, self._lstm_computed))
        self._patch_everywhere(
            cells.lstm_backward_step,
            self._wrap(cells.lstm_backward_step, self._lstm_backward))

        Network = hr.hierarchy.Network
        init = Network.__init__

        @wraps(init)
        def traced_init(net, *args, **kw):
            init(net, *args, **kw)
            for name, params in net.layers.items():
                self._layer_of[id(params)] = name

        self._patch(Network, "__init__", traced_init)
        self._patch(Network, "forward",
                    self._wrap(Network.forward, self._forward))
        self._patch(Network, "step", self._wrap(
            Network.step, lambda a, k: ("hierarchy.step", 1, 1, 1)))
        self._patch(Network, "backward", self._wrap(
            Network.backward, lambda a, k: ("hierarchy.backward",)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "round": np.frombuffer(self.round, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "rows": np.frombuffer(self.rows, dtype=np.float64),
            "positions": np.frombuffer(self.positions, dtype=np.float64),
            "live": np.frombuffer(self.live, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Metrics of the set-up blocks, which a round repeats.
SETUP_METRICS = ("training.load_checkpoint_s", "decoding.read_posteriors_s",
                 "corpus.build_vocab_s", "corpus.tokenize_s")


def per_layer(spans: dict, frames_per_round: int, beam_width: int,
              setup_repeats: int) -> dict:
    """Per-layer metrics from recorded spans.

    Sums and counts are per round (median over the traced rounds), those
    of SETUP_METRICS per set-up; the ``_us`` metrics are medians over every
    call of the run.
    """
    names = list(spans["names"])
    name, parent, rnd = spans["name"], spans["parent"], spans["round"]
    dur = spans["end"] - spans["start"]
    n = len(dur)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    root = np.arange(n)
    for i in range(n):  # parents are opened, so indexed, before children
        if parent[i] >= 0:
            root[i] = root[parent[i]]

    def ids(*wanted):
        return [names.index(w) for w in wanted if w in names]

    def mask(*wanted):
        return np.isin(name, ids(*wanted))

    root_name = np.array([names[name[r]] for r in root]) if n else np.array([])
    in_train = root_name == "training.train"
    in_eval = root_name == "evaluation.evaluate"
    in_search = root_name == "decoding.beam_search"
    forward = mask("hierarchy.forward", "hierarchy.forward_taped")
    step = mask("hierarchy.step")
    lstm = np.isin(name, [i for i, s in enumerate(names)
                          if s.startswith("cells.lstm_step.")])
    word = mask(*(f"cells.lstm_step.{w}" for w in WORD_LAYERS))
    first_layer = mask("cells.lstm_step.char1")
    search = mask("decoding.beam_search")
    lm_child = mask(*LM_NAMES) & np.isin(parent, np.nonzero(search)[0])

    rounds = sorted(set(rnd.tolist()) - {-1})
    per_round = []
    for r in rounds:
        m = rnd == r

        def total(sel, values=dur):
            return float(values[sel & m].sum())

        def count(sel):
            return float(np.count_nonzero(sel & m))

        lm_steps = total(first_layer & in_search, spans["rows"])
        row_calls = (forward | step) & m
        v = {
            "cells.lstm_step_calls": count(lstm),
            "cells.word_rows_useful_share": _ratio(
                total(word, spans["live"]), total(word, spans["positions"])),
            "hierarchy.forward_self_s": total(forward, self_time),
            "hierarchy.backward_self_s": total(mask("hierarchy.backward"),
                                               self_time),
            "hierarchy.softmax_s": total(mask("hierarchy.softmax")),
            "hierarchy.step_calls": count(step),
            "hierarchy.rows_per_call": _ratio(
                float(spans["rows"][row_calls].sum()),
                float(np.count_nonzero(row_calls))),
            "hierarchy.active_share": _ratio(
                float(spans["live"][row_calls].sum()),
                float(spans["positions"][row_calls].sum())),
            "training.update_s": total(mask("training.update")),
            "training.update_calls": count(mask("training.update")),
            "training.clip_s": total(mask("training.clip_gradients")),
            "training.loss_s": total(mask("training.cross_entropy")),
            "training.batching_s": total(mask("training.batch_sequences")),
            "training.heldout_s": total(mask("hierarchy.forward") & in_train),
            "training.checkpoint_s": total(mask("training.save_checkpoint")
                                           & in_train),
            "training.checkpoint_writes": count(
                mask("training.save_checkpoint") & in_train),
            "training.load_checkpoint_s": total(
                mask("training.load_checkpoint")),
            "evaluation.score_s": total(mask("evaluation.evaluate")),
            "evaluation.forward_calls": count(forward & in_eval),
            "evaluation.sample_s": total(mask("evaluation.sample")),
            "decoding.search_s": total(search),
            "decoding.lm_s": total(lm_child),
            "decoding.lm_steps": lm_steps,
            "decoding.lm_steps_per_frame": _ratio(lm_steps, frames_per_round),
            "decoding.lm_yield_bound": _ratio(beam_width * frames_per_round,
                                              lm_steps),
            "decoding.read_posteriors_s": total(
                mask("decoding.read_posteriors")),
            "corpus.build_vocab_s": total(mask("corpus.build_vocab")),
            "corpus.tokenize_s": total(mask("corpus.tokenize_lines")),
        }
        v["decoding.bookkeeping_s"] = v["decoding.search_s"] - v["decoding.lm_s"]
        for k in SETUP_METRICS:
            v[k] /= setup_repeats
        for layer in LAYERS:
            v[f"cells.lstm_step_s.{layer}"] = total(
                mask(f"cells.lstm_step.{layer}"))
        per_round.append(v)

    out = {k: statistics.median(r[k] for r in per_round)
           for k in per_round[0]} if per_round else {}

    def median_us(sel):
        d = dur[sel]
        return float(np.median(d)) * 1e6 if d.size else 0.0

    out["cells.lstm_step_us"] = median_us(lstm)
    out["cells.lstm_backward_step_us"] = median_us(np.isin(
        name, [i for i, s in enumerate(names)
               if s.startswith("cells.lstm_backward_step.")]))
    out["hierarchy.step_us"] = median_us(step)
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or ".lstm_step_s." in name:
        return "s"
    if name.endswith(("_share", "_bound")):
        return "ratio"
    if name.endswith("rows_per_call"):
        return "rows"
    if name.endswith("_per_frame"):
        return "steps/frame"
    return "count"
