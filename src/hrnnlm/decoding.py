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

The beam is held as arrays, one entry per survivor (the masses, the LM log
probability, the length, the last and the pending label) next to one
prefix tuple per survivor, and each frame is a few numpy operations over
the whole beam.  The K survivors and L labels give K "keep" candidates
(blank, or the last label repeated) and a (K, L) array of extensions.  An
extension whose prefix is already in the beam is merged into that
survivor's keep candidate; a dict of the survivors' prefixes finds these
with one lookup per survivor.  np.argpartition picks the beam_width best
scores, and prefixes are compared only among the candidates tied at the
cutoff and when the survivors are sorted.  Every mass takes at most two
contributions per frame, so the results do not depend on the order in
which they are added.

A new prefix's LM term needs only its parent's next-character
distribution, so candidates are scored without running the network.  The
beam's LM states live in one stacked NetworkState (row k serves survivor
k) with the matching log distributions; after each frame's pruning, the
survivors that end in a new label and can still grow are advanced together
by one batched Network.forward step, so the LM runs at most beam_width rows
per frame.  With the benchmark's ``decode`` LM (hlstm_b, H=64) on its
utterances, one thread of a 2-CPU x86-64 machine decodes about 3,000
frames/s at beam 16, 1,500 at beam 64 and 400 at beam 512; 10 ms frames
arrive at 100 per second.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .blas import one_blas_thread
from .corpus import Vocabulary, detokenize, escape_symbol, unescape_symbol
from .errors import ConfigError, DataError, PosteriorFormatError, check_count
from .files import read_exact
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
        twice = [s for s, n in Counter(self.labels).items() if n > 1]
        if twice:
            raise PosteriorFormatError(
                f"posterior label {twice[0]!r} appears more than once")
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
        check_count("beam_width", self.beam_width, 1)
        if not self.width_prune >= 0.0:  # NaN too
            raise ConfigError("width_prune must be non-negative")
        for key in ("lm_weight", "insertion_bonus"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        if self.depth_prune is not None:
            check_count("depth_prune", self.depth_prune, 0)


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


def _set_rows(state: NetworkState, rows, src: NetworkState):
    """Overwrite the given batch rows of state in place with src's rows."""
    for name, cell in src.layers.items():
        state.layers[name].m[rows] = cell.m
        state.layers[name].h[rows] = cell.h
    if state.delay is not None:
        state.delay[rows] = src.delay


def _select(neg: np.ndarray, width: int, prefix_of) -> np.ndarray:
    """The (at most) width candidates first in (neg, prefix) order, in that
    order; prefix_of(c) builds candidate c's prefix, which is needed only
    where neg values tie."""
    best = np.arange(neg.size)
    if neg.size > width:
        best = np.argpartition(neg, width - 1)[:width]
        cut = neg[best].max()
        if np.count_nonzero(neg == cut) > np.count_nonzero(neg[best] == cut):
            # ties straddle the cutoff: the smaller prefixes win
            above = np.flatnonzero(neg < cut)
            tied = sorted(np.flatnonzero(neg == cut).tolist(), key=prefix_of)
            best = np.concatenate(
                [above, np.array(tied[:width - above.size], dtype=np.int64)])
    sub = neg[best]
    order = np.argsort(sub, kind="stable")
    ranked = sub[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = sorted(range(best.size),
                       key=lambda i: (sub[i], prefix_of(best[i])))
    return best[order]


@one_blas_thread()
def beam_search(post: PosteriorMatrix, net: Network, vocab: Vocabulary,
                config: Optional[DecodeConfig] = None) -> list[DecodeResult]:
    """Decode frame posteriors into a ranked transcript list."""
    if config is None:
        config = DecodeConfig()
    label_ids = map_labels(post.labels, vocab)
    cols = [col for col, i in enumerate(label_ids) if i is not None]
    col_ids = np.array([label_ids[col] for col in cols], dtype=np.int64)
    blank_col = post.blank_index
    depth = config.depth_prune
    lm_weight, bonus = config.lm_weight, config.insertion_bonus
    # The LM arena: row k of state/logprobs serves survivor k.  A new prefix
    # is scored from its parent's row and stepped only if it survives.
    state, start_logp = _lm_start(net, vocab)
    logprobs = start_logp[None, :]
    # The beam, one entry per survivor.  pending is the last label while
    # the survivor's row still holds its parent's state; label ids are -1
    # where there is none (no last label of the empty prefix, nothing
    # pending).
    prefixes: list[tuple[int, ...]] = [()]
    p_blank = np.zeros(1)                  # log mass ending in blank
    p_nonblank = np.full(1, NEG_INF)       # log mass ending in the last label
    lm_logp = np.zeros(1)                  # LM log prob of the prefix
    length = np.zeros(1, dtype=np.int64)
    last = np.full(1, -1)
    pending = np.full(1, -1)
    # Per vocabulary id, the frame's log posterior and extension column; the
    # extra slot, which last = -1 reads, stays -inf / -1.
    log_label = np.empty(vocab.size + 1)
    ext_col = np.empty(vocab.size + 1, dtype=np.int64)

    for t in range(post.frames):
        row = post.probs[t]
        log_blank = math.log(row[blank_col]) if row[blank_col] > 0 else NEG_INF
        frame = row[cols]
        passing = (frame > 0.0) & (frame >= config.width_prune)
        ids = col_ids[passing]
        id_list = ids.tolist()
        log_p = np.array([math.log(p) for p in frame[passing].tolist()])
        log_label.fill(NEG_INF)
        log_label[ids] = log_p
        ext_col.fill(-1)
        ext_col[ids] = np.arange(ids.size)

        # Extensions, (K, L): the last label again needs a blank in between.
        total = np.logaddexp(p_blank, p_nonblank)
        mass = np.where(last[:, None] == ids, p_blank[:, None], total[:, None])
        ext_ok = mass != NEG_INF
        if depth is not None:
            ext_ok &= (length < depth)[:, None]
        ext_pnb = mass + log_p
        ext_lm = lm_logp[:, None] + logprobs[:, ids]
        # Keeps, (K,): a blank, or the last label repeated.
        keep_ok = (ext_col[last] >= 0) | (log_blank != NEG_INF)
        keep_pb = total + log_blank
        merged = np.full(p_blank.size, NEG_INF)
        # An extension whose prefix survives merges into that keep.
        index = {prefix: k for k, prefix in enumerate(prefixes)}
        kids, parents = [], []
        for k, prefix in enumerate(prefixes):
            parent = index.get(prefix[:-1]) if prefix else None
            if parent is not None:
                kids.append(k)
                parents.append(parent)
        if kids:
            kids, parents = np.array(kids), np.array(parents)
            j = ext_col[last[kids]]
            hit = j >= 0
            kids, parents, j = kids[hit], parents[hit], j[hit]
            hit = ext_ok[parents, j]
            kids, parents, j = kids[hit], parents[hit], j[hit]
            merged[kids] = ext_pnb[parents, j]
            ext_ok[parents, j] = False
            keep_ok[kids] = True
        keep_pnb = np.logaddexp(p_nonblank + log_label[last], merged)

        # Candidates: the keeps, then the extensions; neg is -score.
        keep_neg = -(np.logaddexp(keep_pb, keep_pnb) + lm_weight * lm_logp
                     + bonus * length)
        ext_neg = -(ext_pnb + lm_weight * ext_lm
                    + bonus * (length + 1)[:, None])
        keep_k = np.flatnonzero(keep_ok)
        ext_k, ext_j = np.nonzero(ext_ok)
        src = np.concatenate([keep_k, ext_k])
        col = np.concatenate([np.full(keep_k.size, -1), ext_j])
        neg = np.concatenate([keep_neg[keep_k], ext_neg[ext_k, ext_j]])
        if not neg.size:
            raise DataError("beam emptied; posteriors are degenerate")

        def prefix_of(c):
            k, j = int(src[c]), int(col[c])
            return prefixes[k] if j < 0 else prefixes[k] + (id_list[j],)

        sel = _select(neg, config.beam_width, prefix_of)
        src, col = src[sel], col[sel]
        prefixes = [prefixes[k] if j < 0 else prefixes[k] + (id_list[j],)
                    for k, j in zip(src.tolist(), col.tolist())]
        p_blank, p_nonblank = keep_pb[src], keep_pnb[src]
        lm_logp, length = lm_logp[src], length[src]
        last, pending = last[src], pending[src]
        e = np.flatnonzero(col >= 0)
        if e.size:
            ek, ej = src[e], col[e]
            p_blank[e] = NEG_INF
            p_nonblank[e] = ext_pnb[ek, ej]
            lm_logp[e] = ext_lm[ek, ej]
            length[e] += 1
            last[e] = pending[e] = ids[ej]
        if t == post.frames - 1:
            break
        # Gather the survivors' rows, then step the ones that will be read:
        # pending labels of prefixes that may still grow, in one batch.
        state, logprobs = state.take(src), logprobs[src]
        live = pending >= 0
        if depth is not None:
            live &= length < depth
        live = np.flatnonzero(live)
        if live.size:
            probs, stepped, _ = net.forward(pending[live][:, None],
                                            state=state.take(live))
            _set_rows(state, live, stepped)
            with np.errstate(divide="ignore"):
                logprobs[live] = np.log(probs[:, 0])
            pending[live] = -1

    ctc = np.logaddexp(p_blank, p_nonblank)
    score = ctc + lm_weight * lm_logp + bonus * length
    return [DecodeResult(prefix=prefix,
                         text=detokenize(prefix, vocab).rstrip("\n"),
                         score=s, ctc_logp=c, lm_logp=lm)
            for prefix, s, c, lm in zip(prefixes, score.tolist(), ctc.tolist(),
                                        lm_logp.tolist())]


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
