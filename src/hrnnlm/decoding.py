"""Character-level prefix beam search over CTC frame posteriors, fused with
the character language model.

Each beam entry is a label prefix with separate log masses for alignments
ending in blank vs. non-blank, the usual prefix bookkeeping: a blank (or a
repeated label with no blank in between) extends the alignment but not the
prefix; a new label extends the prefix, advances a cloned network state by
that character, and pays/earns

    score = log(p_blank + p_nonblank) + lm_weight * log p_LM + bonus * |prefix|

with the insertion bonus applied per emitted character.  Width pruning
drops frame labels below a posterior threshold; depth pruning caps the
prefix length.  Ties break lexicographically on the prefix ids.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import Vocabulary, detokenize, escape_symbol, unescape_symbol
from .errors import ConfigError, DataError, PosteriorFormatError
from .hierarchy import Network, NetworkState

BLANK_LABEL = "<blank>"

_BIN_MAGIC = b"HPOST\n"

NEG_INF = float("-inf")


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
    try:  # a ragged row or a non-numeric cell
        probs = np.array([[float(v) for v in row] for row in rows])
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


def _read_exact(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise PosteriorFormatError("posterior file truncated")
    return data


def read_posteriors_binary(path) -> PosteriorMatrix:
    with open(path, "rb") as f:
        if f.read(len(_BIN_MAGIC)) != _BIN_MAGIC:
            raise PosteriorFormatError(f"bad posterior magic in {path}")
        frames, n_labels, llen = struct.unpack("<III", _read_exact(f, 12))
        try:
            text = _read_exact(f, llen).decode("utf-8")
        except UnicodeDecodeError:
            raise PosteriorFormatError(
                f"posterior labels in {path} are not UTF-8") from None
        labels = [unescape_symbol(s) for s in text.split(" ")]
        if len(labels) != n_labels:
            raise PosteriorFormatError("label count mismatch")
        data = np.frombuffer(_read_exact(f, frames * n_labels * 4),
                             dtype="<f4")
        probs = data.reshape(frames, n_labels).astype(np.float64)
    # f32 rounding can push row sums slightly past the tolerance; renormalize.
    probs = probs / probs.sum(axis=1, keepdims=True)
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
        if self.width_prune < 0.0:
            raise ConfigError("width_prune must be non-negative")
        if self.depth_prune is not None and self.depth_prune < 0:
            raise ConfigError("depth_prune must be non-negative")


@dataclass
class Hypothesis:
    """One beam entry: a label prefix with its CTC masses and LM attachment."""

    prefix: tuple[int, ...]          # vocabulary ids
    p_blank: float                   # log mass of alignments ending in blank
    p_nonblank: float                # log mass ending in the last label
    lm_logp: float                   # sum of LM log probs over the prefix
    lm_state: NetworkState
    lm_logprobs: np.ndarray          # log next-char distribution after prefix

    def ctc_logp(self) -> float:
        return float(np.logaddexp(self.p_blank, self.p_nonblank))

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


def beam_search(post: PosteriorMatrix, net: Network, vocab: Vocabulary,
                config: Optional[DecodeConfig] = None) -> list[DecodeResult]:
    """Decode frame posteriors into a ranked transcript list."""
    if config is None:
        config = DecodeConfig()
    label_ids = map_labels(post.labels, vocab)
    blank_col = post.blank_index
    start_state, start_logp = _lm_start(net, vocab)
    start = Hypothesis(prefix=(), p_blank=0.0, p_nonblank=NEG_INF,
                       lm_logp=0.0, lm_state=start_state,
                       lm_logprobs=start_logp)
    beam: list[Hypothesis] = [start]

    for t in range(post.frames):
        row = post.probs[t]
        log_blank = math.log(row[blank_col]) if row[blank_col] > 0 else NEG_INF
        nxt: dict[tuple[int, ...], Hypothesis] = {}

        def entry(prefix, parent, last_id) -> Hypothesis:
            hyp = nxt.get(prefix)
            if hyp is None:
                if last_id is None:  # same prefix as parent: reuse attachment
                    hyp = Hypothesis(prefix, NEG_INF, NEG_INF, parent.lm_logp,
                                     parent.lm_state, parent.lm_logprobs)
                else:
                    lm_logp = parent.lm_logp + float(
                        parent.lm_logprobs[last_id])
                    lm_probs, new_state = net.step(parent.lm_state, last_id)
                    with np.errstate(divide="ignore"):
                        hyp = Hypothesis(prefix, NEG_INF, NEG_INF, lm_logp,
                                         new_state, np.log(lm_probs))
                nxt[prefix] = hyp
            return hyp

        for hyp in beam:
            total = np.logaddexp(hyp.p_blank, hyp.p_nonblank)
            # blank keeps the prefix
            if log_blank != NEG_INF:
                keep = entry(hyp.prefix, hyp, None)
                keep.p_blank = np.logaddexp(keep.p_blank, total + log_blank)
            # repeated last label without a separating blank keeps the prefix
            if hyp.prefix:
                last = hyp.prefix[-1]
                col = label_ids.index(last)
                if row[col] > 0.0 and row[col] >= config.width_prune:
                    keep = entry(hyp.prefix, hyp, None)
                    keep.p_nonblank = np.logaddexp(
                        keep.p_nonblank, hyp.p_nonblank + math.log(row[col]))
            if (config.depth_prune is not None
                    and len(hyp.prefix) >= config.depth_prune):
                continue
            for col, label_id in enumerate(label_ids):
                if label_id is None:
                    continue
                p = row[col]
                if p <= 0.0 or p < config.width_prune:
                    continue
                # extending by the last label needs a blank in between
                mass = (hyp.p_blank if hyp.prefix and label_id == hyp.prefix[-1]
                        else total)
                if mass == NEG_INF:
                    continue
                ext = entry(hyp.prefix + (label_id,), hyp, label_id)
                ext.p_nonblank = np.logaddexp(ext.p_nonblank,
                                              mass + math.log(p))

        ranked = sorted(nxt.values(),
                        key=lambda h: (-h.score(config), h.prefix))
        beam = ranked[:config.beam_width]
        if not beam:
            raise DataError("beam emptied; posteriors are degenerate")

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
