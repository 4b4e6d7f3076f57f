"""Character-level prefix beam search over CTC frame posteriors, fused with
the character language model.

Each beam entry is a label prefix with separate log masses for alignments
ending in blank vs. non-blank, the usual prefix bookkeeping: a blank (or a
repeated label with no blank in between) extends the alignment but not the
prefix; a new label extends the prefix and pays/earns

    score = log(p_blank + p_nonblank) + lm_weight * log p_LM + bonus * |prefix|

with the insertion bonus applied per emitted character.  Width pruning
drops frame labels below a posterior threshold; depth pruning caps the
prefix length.  Ties break lexicographically on the prefix ids.

A new prefix's LM term needs only its parent's next-character
distribution, so candidates are scored without running the network.  The
beam's LM states live in one stacked NetworkState (one row per surviving
hypothesis) with the matching log distributions; after each frame's
pruning, the survivors that end in a new label and can still grow are
advanced together by one batched Network.forward step, so the LM runs at
most beam_width rows per frame.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .blas import one_blas_thread
from .corpus import Vocabulary, detokenize, escape_symbol, unescape_symbol
from .errors import ConfigError, DataError, PosteriorFormatError
from .files import read_exact
from .hierarchy import Network, NetworkState

BLANK_LABEL = "<blank>"

_BIN_MAGIC = b"HPOST\n"

NEG_INF = float("-inf")
_LOG2 = math.log(2.0)


@dataclass
class PosteriorMatrix:
    """Per-frame label posteriors: frames x (labels + blank)."""

    labels: list[str]          # symbol per column, BLANK_LABEL included
    probs: np.ndarray          # (frames, len(labels)) float64

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[1] != len(self.labels):
            raise PosteriorFormatError("posterior shape does not match labels")
        if BLANK_LABEL not in self.labels:
            raise PosteriorFormatError(f"no {BLANK_LABEL} column")
        if not np.all((self.probs >= 0.0) & (self.probs <= 1.0)):  # NaN too
            raise PosteriorFormatError("posterior values outside [0, 1]")
        sums = self.probs.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > 1e-6)[0]
        if bad.size:
            raise PosteriorFormatError(
                f"posterior row {bad[0]} sums to {sums[bad[0]]:.8f}, not 1")

    @property
    def frames(self) -> int:
        return self.probs.shape[0]

    @property
    def blank_index(self) -> int:
        return self.labels.index(BLANK_LABEL)


def write_posteriors_text(path, post: PosteriorMatrix) -> None:
    """Header line "T L <labels...>" then one space-separated row per frame."""
    with open(path, "w", encoding="utf-8") as f:
        labels = " ".join(escape_symbol(s) for s in post.labels)
        f.write(f"{post.frames} {len(post.labels)} {labels}\n")
        for row in post.probs:
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_posteriors_text(path) -> PosteriorMatrix:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError:
        raise PosteriorFormatError(
            f"posterior file {path} is not UTF-8") from None
    header = lines[0].split() if lines else []
    if len(header) < 2:
        raise PosteriorFormatError(f"bad posterior header in {path}")
    try:
        frames, n_labels = int(header[0]), int(header[1])
    except ValueError:
        raise PosteriorFormatError(
            f"bad posterior header in {path}") from None
    if len(header) != 2 + n_labels:
        raise PosteriorFormatError(
            f"expected {n_labels} labels in header, got "
            f"{len(header) - 2}")
    labels = [unescape_symbol(s) for s in header[2:]]
    rows = [line.split() for line in lines[1:] if line.strip()]
    if len(rows) != frames:
        raise PosteriorFormatError(
            f"expected {frames} rows, got {len(rows)}")
    try:  # a ragged or short row, or a non-numeric cell
        probs = np.array([[float(v) for v in row] for row in rows],
                         dtype=np.float64).reshape(frames, n_labels)
    except ValueError:
        raise PosteriorFormatError(
            f"malformed posterior row in {path}") from None
    return PosteriorMatrix(labels=labels, probs=probs)


def write_posteriors_binary(path, post: PosteriorMatrix) -> None:
    """Binary variant: magic, frame/label counts, labels, little-endian f32."""
    labels = " ".join(escape_symbol(s) for s in post.labels).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_BIN_MAGIC)
        f.write(struct.pack("<II", post.frames, len(post.labels)))
        f.write(struct.pack("<I", len(labels)))
        f.write(labels)
        f.write(post.probs.astype("<f4").tobytes())


def read_posteriors_binary(path) -> PosteriorMatrix:
    with open(path, "rb") as f:
        read = partial(read_exact, f, error=PosteriorFormatError)
        if f.read(len(_BIN_MAGIC)) != _BIN_MAGIC:
            raise PosteriorFormatError(f"bad posterior magic in {path}")
        frames, n_labels, llen = struct.unpack("<III", read(12))
        try:
            text = read(llen).decode("utf-8")
        except UnicodeDecodeError:
            raise PosteriorFormatError(
                f"posterior labels in {path} are not UTF-8") from None
        labels = [unescape_symbol(s) for s in text.split(" ")]
        if len(labels) != n_labels:
            raise PosteriorFormatError("label count mismatch")
        data = np.frombuffer(read(frames * n_labels * 4), dtype="<f4")
        probs = data.reshape(frames, n_labels).astype(np.float64)
    if not np.isfinite(probs).all():
        raise PosteriorFormatError(f"non-finite posterior value in {path}")
    sums = probs.sum(axis=1, keepdims=True)
    if not (sums > 0.0).all():
        raise PosteriorFormatError(
            f"a posterior row in {path} does not sum to a positive mass")
    # f32 rounding can push row sums slightly past the tolerance; renormalize.
    probs = probs / sums
    return PosteriorMatrix(labels=labels, probs=probs)


def read_posteriors(path) -> PosteriorMatrix:
    with open(path, "rb") as f:
        head = f.read(len(_BIN_MAGIC))
    if head == _BIN_MAGIC:
        return read_posteriors_binary(path)
    return read_posteriors_text(path)


@dataclass
class DecodeConfig:
    beam_width: int = 512
    lm_weight: float = 2.0
    insertion_bonus: float = 1.6
    width_prune: float = 1e-4
    depth_prune: Optional[int] = None

    def __post_init__(self):
        if self.beam_width < 1:
            raise ConfigError("beam_width must be at least 1")
        if not self.width_prune >= 0.0:  # NaN too
            raise ConfigError("width_prune must be non-negative")
        for key in ("lm_weight", "insertion_bonus"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        if self.depth_prune is not None and self.depth_prune < 0:
            raise ConfigError("depth_prune must be non-negative")


@dataclass(slots=True)
class Hypothesis:
    """One beam entry: a label prefix with its CTC masses and its row in the
    beam's LM arena."""

    prefix: tuple[int, ...]          # vocabulary ids
    p_blank: float                   # log mass of alignments ending in blank
    p_nonblank: float                # log mass ending in the last label
    lm_logp: float                   # sum of LM log probs over the prefix
    row: int                         # arena row of the prefix's LM state
    pending: Optional[int] = None    # last label while row is the parent's

    def ctc_logp(self) -> float:
        return _logaddexp(self.p_blank, self.p_nonblank)

    def score(self, config: DecodeConfig) -> float:
        return (self.ctc_logp() + config.lm_weight * self.lm_logp
                + config.insertion_bonus * len(self.prefix))


@dataclass
class DecodeResult:
    prefix: tuple[int, ...]
    text: str
    score: float
    ctc_logp: float
    lm_logp: float

    def csv_row(self) -> str:
        return (f"\"{self.text}\",{self.score:.9g},{self.ctc_logp:.9g},"
                f"{self.lm_logp:.9g},{len(self.prefix)}")

    @staticmethod
    def csv_header() -> str:
        return "text,score,ctc_logp,lm_logp,length"


def _lm_start(net: Network, vocab: Vocabulary) -> tuple[NetworkState, np.ndarray]:
    """Initial LM attachment: zero state advanced by a word boundary.

    A word boundary is the only sequence-start conditioning training ever
    exercises (streams reset between sentences), so the first transcript
    word is scored like any other word start.
    """
    state = net.init_state(1)
    probs, state = net.step(state, vocab.word_boundary_id)
    with np.errstate(divide="ignore"):
        return state, np.log(probs)


def map_labels(labels: list[str], vocab: Vocabulary) -> list[Optional[int]]:
    """Posterior column -> vocabulary id; blank maps to None."""
    out: list[Optional[int]] = []
    for sym in labels:
        if sym == BLANK_LABEL:
            out.append(None)
        elif sym in vocab:
            out.append(vocab.id_of(sym))
        else:
            raise ConfigError(
                f"posterior label {sym!r} is not in the model vocabulary")
    return out


def _logaddexp(x: float, y: float) -> float:
    """np.logaddexp of two floats, computed the same way in plain Python."""
    if x == NEG_INF:  # the common case of a new candidate; exact
        return y
    if x == y:
        return x + _LOG2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    return y + math.log1p(math.exp(d))


def _attach(nxt: dict, prefix: tuple[int, ...], lm_logp: float, row: int,
            pending: Optional[int]) -> Hypothesis:
    """The candidate for prefix, created with no CTC mass on first use."""
    hyp = nxt.get(prefix)
    if hyp is None:
        hyp = nxt[prefix] = Hypothesis(prefix, NEG_INF, NEG_INF, lm_logp,
                                       row, pending)
    return hyp


def _set_rows(state: NetworkState, rows: list[int], src: NetworkState):
    """Overwrite the given batch rows of state in place with src's rows."""
    for name, cell in src.layers.items():
        state.layers[name].m[rows] = cell.m
        state.layers[name].h[rows] = cell.h
    if state.delay is not None:
        state.delay[rows] = src.delay


@one_blas_thread()
def beam_search(post: PosteriorMatrix, net: Network, vocab: Vocabulary,
                config: Optional[DecodeConfig] = None) -> list[DecodeResult]:
    """Decode frame posteriors into a ranked transcript list."""
    if config is None:
        config = DecodeConfig()
    label_ids = map_labels(post.labels, vocab)
    col_of: dict[int, int] = {}
    for col, label_id in enumerate(label_ids):
        if label_id is not None:
            col_of.setdefault(label_id, col)
    blank_col = post.blank_index
    depth = config.depth_prune
    # The LM arena: row k of state/logprobs serves the hypotheses whose row
    # is k.  A new prefix is scored from its parent's row and stepped only
    # if it survives pruning.
    state, start_logp = _lm_start(net, vocab)
    logprobs = start_logp[None, :]
    beam = [Hypothesis(prefix=(), p_blank=0.0, p_nonblank=NEG_INF,
                       lm_logp=0.0, row=0)]

    for t in range(post.frames):
        row = post.probs[t]
        log_blank = math.log(row[blank_col]) if row[blank_col] > 0 else NEG_INF
        extensions = [(label_id, math.log(p))
                      for label_id, p in zip(label_ids, row)
                      if label_id is not None and p > 0.0
                      and p >= config.width_prune]
        in_beam = {hyp.prefix: hyp for hyp in beam}
        nxt: dict[tuple[int, ...], Hypothesis] = {}

        for hyp in beam:
            prefix = hyp.prefix
            total = _logaddexp(hyp.p_blank, hyp.p_nonblank)
            # blank keeps the prefix
            if log_blank != NEG_INF:
                keep = _attach(nxt, prefix, hyp.lm_logp, hyp.row, hyp.pending)
                keep.p_blank = _logaddexp(keep.p_blank, total + log_blank)
            # repeated last label without a separating blank keeps the prefix
            if prefix:
                p = row[col_of[prefix[-1]]]
                if p > 0.0 and p >= config.width_prune:
                    keep = _attach(nxt, prefix, hyp.lm_logp, hyp.row,
                                   hyp.pending)
                    keep.p_nonblank = _logaddexp(
                        keep.p_nonblank, hyp.p_nonblank + math.log(p))
            if depth is not None and len(prefix) >= depth:
                continue
            lm_row = logprobs[hyp.row]
            for label_id, log_p in extensions:
                # extending by the last label needs a blank in between
                mass = (hyp.p_blank if prefix and label_id == prefix[-1]
                        else total)
                if mass == NEG_INF:
                    continue
                child = prefix + (label_id,)
                same = in_beam.get(child)
                if same is not None:  # its LM state is already in the arena
                    ext = _attach(nxt, child, same.lm_logp, same.row,
                                  same.pending)
                else:
                    ext = _attach(nxt, child,
                                  hyp.lm_logp + float(lm_row[label_id]),
                                  hyp.row, label_id)
                ext.p_nonblank = _logaddexp(ext.p_nonblank, mass + log_p)

        beam = heapq.nsmallest(config.beam_width, nxt.values(),
                               key=lambda h: (-h.score(config), h.prefix))
        if not beam:
            raise DataError("beam emptied; posteriors are degenerate")
        if t == post.frames - 1:
            break
        # Gather the survivors' rows, then step the ones that will be read:
        # pending labels of prefixes that may still grow, in one batch.
        rows = [hyp.row for hyp in beam]
        state, logprobs = state.take(rows), logprobs[rows]
        live = [k for k, hyp in enumerate(beam) if hyp.pending is not None
                and (depth is None or len(hyp.prefix) < depth)]
        if live:
            ids = np.array([beam[k].pending for k in live])
            probs, stepped, _ = net.forward(ids[:, None],
                                            state=state.take(live))
            _set_rows(state, live, stepped)
            with np.errstate(divide="ignore"):
                logprobs[live] = np.log(probs[:, 0])
            for k in live:
                beam[k].pending = None
        for k, hyp in enumerate(beam):
            hyp.row = k

    results = [DecodeResult(prefix=h.prefix,
                            text=detokenize(h.prefix, vocab).rstrip("\n"),
                            score=h.score(config), ctc_logp=h.ctc_logp(),
                            lm_logp=h.lm_logp)
               for h in beam]
    return results


def wer(reference, hypothesis) -> float:
    """Word error rate: word-level edit distance over the reference length."""
    ref = reference.split() if isinstance(reference, str) else list(reference)
    hyp = hypothesis.split() if isinstance(hypothesis, str) else list(hypothesis)
    if not ref:
        raise ConfigError("reference must contain at least one word")
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            cur[j] = min(prev[j] + 1,          # deletion
                         cur[j - 1] + 1,       # insertion
                         prev[j - 1] + (r != h))  # substitution
        prev = cur
    return prev[-1] / len(ref)
