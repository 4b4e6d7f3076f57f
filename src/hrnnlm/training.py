"""Truncated-BPTT training with ADADELTA plus Nesterov momentum.

Multiple sequences are trained in parallel: the corpus is dealt round-robin
onto ``batch_size`` independent streams, each stream runs consecutive
fixed-length windows over one sequence at a time with cell states carried
across windows, and a stream that exhausts a sequence starts the next one
behind a state reset.  Gradients never cross window boundaries.  Scoring
(``sequence_bits``, ``bpc``) runs the same window loop without tapes.

Also here: the full-network finite-difference gradient check and the binary
checkpoint format (magic + version + JSON header + named float64 blocks,
little endian).
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Optional

import numpy as np

from .blas import one_blas_thread
from .corpus import TokenSequence, Vocabulary, byte_vocab
from .errors import (CheckpointError, ConfigError, DataError,
                     DimensionError, DivergenceError, NumericError,
                     check_count, check_real)
from .files import atomic_write, read_exact
from .hierarchy import Blocks, Network, NetworkSpec, build_network

LN2 = math.log(2.0)

_MAGIC = b"HRNNCKPT"
_FORMAT_VERSION = 1


@dataclass
class TrainConfig:
    bptt_length: int = 128
    batch_size: int = 64
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    momentum: float = 0.9
    max_epochs: int = 10
    seed: int = 0
    clip_norm: Optional[float] = 5.0

    def __post_init__(self):
        for key in ("bptt_length", "batch_size", "max_epochs"):
            check_count(key, getattr(self, key), 1)
        check_count("seed", self.seed, 0)
        for key in ("adadelta_rho", "adadelta_eps", "momentum"):
            check_real(key, getattr(self, key))
        if not 0.0 < self.adadelta_rho < 1.0:
            raise ConfigError("adadelta_rho must be in (0, 1)")
        if not 0.0 < self.adadelta_eps < math.inf:  # NaN too
            raise ConfigError("adadelta_eps must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.clip_norm is not None:
            check_real("clip_norm", self.clip_norm)
            if not self.clip_norm > 0.0:
                raise ConfigError("clip_norm must be positive or None")


# Elements per pass of the flat optimizer update: bounds its scratch memory
# at two vectors of this length.
_UPDATE_CHUNK = 1 << 15


def _flat(blocks, what: str) -> np.ndarray:
    """The flat vector behind ``blocks``, which must be ``Blocks`` (as from
    ``Network.named_blocks`` or ``Network.backward``)."""
    if not isinstance(blocks, Blocks) or blocks.flat.ndim != 1:
        raise DimensionError(f"{what} must be Blocks over one flat vector")
    return blocks.flat


@dataclass
class OptimizerState:
    """ADADELTA accumulators and Nesterov velocity for one flat parameter
    vector of N values.

    ``flat`` (3 x N) holds the squared-gradient average, the squared-delta
    average and the velocity, each laid out like the parameters;
    ``scratch`` is the update's preallocated working memory.
    """

    flat: np.ndarray
    scratch: np.ndarray

    @classmethod
    def for_params(cls, params: Blocks) -> "OptimizerState":
        n = _flat(params, "parameters").size
        return cls(flat=np.zeros((3, n)),
                   scratch=np.empty((2, min(n, _UPDATE_CHUNK))))


def _adadelta_nesterov(p, g, eg, ed, v, tmp, tmp2, rho, eps, mu) -> None:
    """The update of one stretch of parameters, in place; tmp and tmp2 are
    scratch arrays of the same shape."""
    eg *= rho
    np.multiply(g, 1.0 - rho, out=tmp)
    tmp *= g
    eg += tmp
    np.add(ed, eps, out=tmp)          # delta = -sqrt(ed + eps)
    np.sqrt(tmp, out=tmp)             #         / sqrt(eg + eps) * g
    np.negative(tmp, out=tmp)
    np.add(eg, eps, out=tmp2)
    np.sqrt(tmp2, out=tmp2)
    tmp /= tmp2
    tmp *= g
    ed *= rho
    np.multiply(tmp, 1.0 - rho, out=tmp2)
    tmp2 *= tmp
    ed += tmp2
    v *= mu
    v += tmp
    np.multiply(v, mu, out=tmp2)
    tmp2 += tmp
    p += tmp2


def adadelta_nesterov_update(params: Blocks, grads: Blocks,
                             opt: OptimizerState,
                             config: TrainConfig) -> None:
    """In-place parameter update over the flat vectors.

    Elementwise: the squared-gradient average decays with rho, the step is
    the gradient rescaled by RMS(previous deltas)/RMS(gradients), the
    squared-delta average absorbs it, and a Nesterov velocity is applied on
    top:  v <- mu v + delta;  x <- x + mu v + delta.  The vectors are
    updated in chunks the size of ``opt.scratch``.  Raises DimensionError
    unless params and grads are ``Blocks`` of one layout (the same block
    names over flat vectors of one length) that ``opt`` was made for, and
    NumericError, naming the block, on a non-finite gradient.
    """
    p, g = _flat(params, "parameters"), _flat(grads, "gradients")
    if not (p.shape == g.shape == opt.flat.shape[1:]
            and params.keys() == grads.keys()):
        raise DimensionError("parameters, gradients and optimizer state do "
                             "not share one layout")
    if not np.isfinite(g).all():
        name = next(k for k, b in grads.items() if not np.all(np.isfinite(b)))
        raise NumericError(f"non-finite gradient in block {name!r}")
    rho, eps, mu = config.adadelta_rho, config.adadelta_eps, config.momentum
    eg, ed, v = opt.flat
    tmp, tmp2 = opt.scratch
    for lo in range(0, g.size, tmp.size):
        part = slice(lo, lo + tmp.size)
        n = min(tmp.size, g.size - lo)
        _adadelta_nesterov(p[part], g[part], eg[part], ed[part], v[part],
                           tmp[:n], tmp2[:n], rho, eps, mu)


@dataclass
class Batch:
    """One training window over all streams.

    ``active`` marks the positions that carry a real (input, target) pair;
    ``reset`` marks streams that start a fresh sequence with this window.
    """

    inputs: np.ndarray   # (batch, window) int64
    targets: np.ndarray  # (batch, window) int64
    active: np.ndarray   # (batch, window) bool
    reset: np.ndarray    # (batch,) bool


def batch_sequences(sequences: list[TokenSequence], batch_size: int,
                    bptt_length: int) -> Iterator[Batch]:
    """Deal sequences round-robin onto streams and emit training windows.

    Windows never span two sequences; a stream with nothing left idles
    (inactive positions) until every stream is exhausted.
    """
    if not sequences:
        raise ConfigError("empty corpus")
    streams = [[np.asarray(s.ids if isinstance(s, TokenSequence) else s,
                           dtype=np.int64)
                for s in sequences[b::batch_size]
                if len(s) >= 2]
               for b in range(batch_size)]
    seq_idx = [0] * batch_size
    pos = [0] * batch_size

    def remaining(b: int) -> int:
        if seq_idx[b] >= len(streams[b]):
            return 0
        return len(streams[b][seq_idx[b]]) - 1 - pos[b]

    while True:
        window = min(bptt_length, max((remaining(b) for b in range(batch_size)),
                                      default=0))
        if window == 0:
            return
        inputs = np.zeros((batch_size, window), dtype=np.int64)
        targets = np.zeros((batch_size, window), dtype=np.int64)
        active = np.zeros((batch_size, window), dtype=bool)
        reset = np.zeros(batch_size, dtype=bool)
        for b in range(batch_size):
            n = min(window, remaining(b))
            if n == 0:
                continue
            seq = streams[b][seq_idx[b]]
            if pos[b] == 0:
                reset[b] = True
            inputs[b, :n] = seq[pos[b]:pos[b] + n]
            targets[b, :n] = seq[pos[b] + 1:pos[b] + 1 + n]
            active[b, :n] = True
            pos[b] += n
            if pos[b] >= len(seq) - 1:
                seq_idx[b] += 1
                pos[b] = 0
        yield Batch(inputs=inputs, targets=targets, active=active, reset=reset)


def _forward_windows(net: Network, sequences, batch_size: int,
                     bptt_length: int, collect_tape: bool = False
                     ) -> Iterator[tuple[Batch, np.ndarray, Optional[list]]]:
    """Run ``net`` over the windows of ``batch_sequences``.

    Yields (batch, probs, tape) per window.  Cell states carry from one
    window to the next on every stream and are zeroed on the streams the
    batch restarts, so each sequence is read from a zero state.  The
    forward pass of a window runs only when the caller asks for it, so a
    caller may update the parameters between windows.
    """
    state = net.init_state(batch_size)
    for batch in batch_sequences(sequences, batch_size, bptt_length):
        if batch.reset.any():
            state = state.reset_where(batch.reset)
        probs, state, tape = net.forward(
            batch.inputs, state=state, active=batch.active,
            collect_tape=collect_tape)
        yield batch, probs, tape
        del probs, tape  # not alive during the next window's forward


def cross_entropy(probs: np.ndarray, targets: np.ndarray,
                  active: np.ndarray) -> tuple[float, int, np.ndarray]:
    """Summed negative log likelihood (nats) over active positions.

    Returns (loss, n_predictions, d_logits) with d_logits unnormalized:
    softmax minus one-hot target, zeroed on inactive positions.
    """
    B, T, V = probs.shape
    bi, ti = np.nonzero(active)
    picked = probs[bi, ti, targets[bi, ti]]
    with np.errstate(divide="ignore"):  # p == 0 -> inf loss, caught upstream
        loss = float(-np.log(picked).sum())
    d_logits = probs.copy()
    d_logits[bi, ti, targets[bi, ti]] -= 1.0
    d_logits[~active] = 0.0
    return loss, len(bi), d_logits


def clip_gradients(grads: Blocks, clip_norm: float) -> float:
    """Scale the gradients so the L2 norm of their flat vector is at most
    clip_norm; returns the norm before clipping.  Raises DimensionError
    unless grads are ``Blocks``."""
    g = _flat(grads, "gradients")
    # einsum, not a BLAS dot: OpenBLAS threads long dot products, and with
    # the CPUs busy that made one norm cost milliseconds.
    total = math.sqrt(float(np.einsum("i,i->", g, g)))
    if total > clip_norm and total > 0.0:
        g *= clip_norm / total
    return total


@dataclass
class EpochMetrics:
    epoch: int
    train_bpc: float
    heldout_bpc: Optional[float]
    seconds: float


@dataclass
class TrainResult:
    network: Network
    metrics: list[EpochMetrics]
    best_heldout_bpc: Optional[float]


# Scoring deals sequences onto at most this many streams and runs windows of
# this length (TrainConfig's defaults), which bounds its memory at
# streams x window x vocabulary probabilities.
_SCORE_STREAMS = TrainConfig.batch_size
_SCORE_WINDOW = TrainConfig.bptt_length


@one_blas_thread()
def sequence_bits(net: Network, text) -> tuple[float, int]:
    """Total -log2 likelihood and prediction count of one TokenSequence or
    a list of them.

    A sequence of N tokens affords N - 1 predictions from a zero state,
    with states carried across the whole sequence.  Sequences are scored in
    masked batched windows; only the rounding of the sums depends on how
    they are dealt onto streams.
    """
    seqs = [text] if isinstance(text, TokenSequence) else list(text)
    seqs = [s for s in seqs if len(s) >= 2]
    if not seqs:
        return 0.0, 0
    total_bits = 0.0
    total = 0
    for batch, probs, _ in _forward_windows(
            net, seqs, min(len(seqs), _SCORE_STREAMS), _SCORE_WINDOW):
        bi, ti = np.nonzero(batch.active)
        total_bits += float(-np.log2(probs[bi, ti, batch.targets[bi, ti]])
                            .sum())
        total += len(bi)
    return total_bits, total


def bpc(net: Network, text) -> float:
    """Bits per character of one TokenSequence or a list of them."""
    bits, preds = sequence_bits(net, text)
    if preds == 0:
        raise ConfigError("no predictions: every sequence has < 2 tokens")
    return bits / preds


@one_blas_thread()
def train(spec: NetworkSpec, sequences: list[TokenSequence],
          config: TrainConfig, heldout: Optional[list[TokenSequence]] = None,
          vocab: Optional[Vocabulary] = None,
          checkpoint_path=None, metrics_path=None,
          record_timing: bool = True,
          network: Optional[Network] = None,
          log=None) -> TrainResult:
    """Train a network; deterministic for a fixed config and seed.

    Emits one metrics row per epoch (appended to ``metrics_path`` as CSV if
    given) and keeps the checkpoint of the best held-out BPC (or the latest
    epoch when there is no held-out set) at ``checkpoint_path``.  A window
    whose loss is not finite raises DivergenceError before its update: the
    epoch writes no metrics row, and the last saved checkpoint is retained.
    Passing ``network`` continues training existing parameters instead of
    initializing fresh ones from the seed.  Raises ConfigError up front
    when no training sequence, or no sequence of a given held-out set,
    affords a prediction (has at least 2 tokens).
    """
    if not any(len(s) >= 2 for s in sequences):
        raise ConfigError("no training sequence has the 2 tokens that one "
                          "prediction needs")
    if heldout and not any(len(s) >= 2 for s in heldout):
        raise ConfigError("no held-out sequence has the 2 tokens that one "
                          "prediction needs")
    net = network if network is not None \
        else build_network(spec, rng_seed=config.seed)
    params = net.named_blocks()
    opt = OptimizerState.for_params(params)
    metrics: list[EpochMetrics] = []
    best: Optional[float] = None

    if metrics_path is not None:
        with open(metrics_path, "w") as f:
            f.write("epoch,train_bpc,heldout_bpc,seconds\n")

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        epoch_nats = 0.0
        epoch_preds = 0
        for batch, probs, tape in _forward_windows(
                net, sequences, config.batch_size, config.bptt_length,
                collect_tape=True):
            loss, n, d_logits = cross_entropy(probs, batch.targets,
                                              batch.active)
            if not math.isfinite(loss):
                raise DivergenceError("training loss became non-finite; "
                                      "last good checkpoint retained")
            grads = net.backward(tape, d_logits / max(n, 1))
            if config.clip_norm is not None:
                clip_gradients(grads, config.clip_norm)
            adadelta_nesterov_update(params, grads, opt, config)
            epoch_nats += loss
            epoch_preds += n
            # One window's tape at a time: free this one before the next
            # forward pass builds its own.
            del probs, tape, d_logits, grads
        train_bpc = epoch_nats / LN2 / max(epoch_preds, 1)
        heldout_bpc = bpc(net, heldout) if heldout else None
        seconds = time.perf_counter() - t0 if record_timing else 0.0
        row = EpochMetrics(epoch, train_bpc, heldout_bpc, seconds)
        metrics.append(row)
        if log is not None:
            held = "" if heldout_bpc is None else f"  heldout {heldout_bpc:.4f}"
            log(f"epoch {epoch:4d}  train bpc {train_bpc:.4f}{held}")
        if metrics_path is not None:
            with open(metrics_path, "a") as f:
                held = "" if heldout_bpc is None else f"{heldout_bpc:.12g}"
                f.write(f"{epoch},{train_bpc:.12g},{held},{seconds:.3f}\n")
        improved = (heldout_bpc is None or best is None or heldout_bpc < best)
        if heldout_bpc is not None and improved:
            best = heldout_bpc
        if checkpoint_path is not None and improved:
            save_checkpoint(checkpoint_path, net, vocab)
    return TrainResult(network=net, metrics=metrics, best_heldout_bpc=best)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_block: str
    n_params: int
    tolerance: float
    per_block: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def gradient_check(net: Network, ids, h: float = 1e-5,
                   tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    The loss is the summed cross entropy of next-token prediction over the
    sequence, starting from a zero state.  Relative error per parameter is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-5); the floor
    absorbs finite-difference roundoff (~1e-10) on near-zero gradients.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or len(ids) < 2:
        raise ConfigError("gradient check needs one sequence of >= 2 tokens")
    inputs, targets = ids[None, :-1], ids[None, 1:]
    active = np.ones(targets.shape, dtype=bool)

    def loss_grad_tape(collect):
        probs, _, tape = net.forward(inputs, collect_tape=collect)
        loss, _, d_logits = cross_entropy(probs, targets, active)
        return loss, d_logits, tape

    _, d_logits, tape = loss_grad_tape(True)
    grads = net.backward(tape, d_logits)

    report = GradCheckReport(0.0, "", 0, tolerance)
    for name, arr in net.named_blocks().items():
        g = grads[name]
        block_max = 0.0
        # Index the block itself: a reshaped copy of a strided view would
        # take the perturbation away from the network.
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + h
            lp, _, _ = loss_grad_tape(False)
            arr[i] = orig - h
            lm, _, _ = loss_grad_tape(False)
            arr[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            rel = abs(numeric - g[i]) / max(abs(numeric), abs(g[i]), 1e-5)
            block_max = max(block_max, rel)
        report.per_block[name] = block_max
        report.n_params += arr.size
        if block_max > report.max_rel_error:
            report.max_rel_error = block_max
            report.worst_block = name
    return report


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, net: Network, vocab: Optional[Vocabulary] = None
                    ) -> None:
    """Self-describing binary container: magic, version, JSON header with the
    architecture and vocabulary, then named little-endian float64 blocks."""
    header = {"spec": net.spec.to_dict()}
    if vocab is not None:
        header["vocab"] = {"mode": vocab.mode,
                           "symbols": None if vocab.mode == "byte"
                           else list(vocab.symbols)}
    blob = json.dumps(header).encode("utf-8")
    blocks = net.named_blocks()
    with atomic_write(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _FORMAT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(blocks)))
        for name, arr in blocks.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[Network, Optional[Vocabulary]]:
    try:
        f = open(path, "rb")
    except IsADirectoryError:
        raise CheckpointError(f"checkpoint {path} is a directory") from None
    with f:
        read = partial(read_exact, f, error=CheckpointError)
        if read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"bad checkpoint magic in {path}")
        (version,) = struct.unpack("<I", read(4))
        if version != _FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<I", read(4))
        try:
            header = json.loads(read(hlen).decode("utf-8"))
            spec = NetworkSpec.from_dict(header["spec"])
        except (ConfigError, ValueError, KeyError, TypeError) as e:
            raise CheckpointError(f"bad checkpoint header: {e}") from None
        vocab = None
        if "vocab" in header:
            try:
                v = header["vocab"]
                # Version 1 stores a byte vocabulary's symbols as null.
                vocab = (byte_vocab() if v["symbols"] is None
                         else Vocabulary(v["symbols"]))
                if vocab.mode != v["mode"]:
                    raise DataError(f"mode {v['mode']!r} but the symbols "
                                    f"make a {vocab.mode} vocabulary")
            except (ConfigError, DataError, KeyError, TypeError) as e:
                raise CheckpointError(
                    f"bad checkpoint vocabulary: {e}") from None
            if vocab.size != spec.vocab_size:
                raise CheckpointError(
                    f"checkpoint vocabulary has {vocab.size} symbols, "
                    f"network needs {spec.vocab_size}")
            if spec.variant != "mono" and vocab.boundary_ids != (
                    spec.word_boundary_id, spec.sentence_boundary_id):
                raise CheckpointError("checkpoint network and vocabulary "
                                      "disagree on the boundary ids")
        net = Network(spec, init_scale=0.0)  # zeroed; every block is read
        blocks = net.named_blocks()
        (n_blocks,) = struct.unpack("<I", read(4))
        if n_blocks != len(blocks):
            raise CheckpointError(
                f"checkpoint has {n_blocks} blocks, network needs "
                f"{len(blocks)}")
        seen = set()
        for _ in range(n_blocks):
            (nlen,) = struct.unpack("<I", read(4))
            try:
                name = read(nlen).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError("bad block name in checkpoint") from None
            if name not in blocks:
                raise CheckpointError(f"unexpected block {name!r}")
            if name in seen:
                raise CheckpointError(f"block {name!r} appears twice")
            seen.add(name)
            (ndim,) = struct.unpack("<I", read(4))
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim))
            arr = blocks[name]
            if tuple(shape) != arr.shape:
                raise CheckpointError(
                    f"block {name!r} has shape {shape}, expected {arr.shape}")
            data = np.frombuffer(read(arr.size * 8), dtype="<f8")
            # A sum of squares that overflows catches NaN and infinity, and
            # also the 1e154 and more that one flipped exponent bit makes of
            # a parameter; no trained network holds such values.
            if not math.isfinite(float(np.einsum("i,i->", data, data))):
                raise CheckpointError(
                    f"block {name!r} holds a value that is not finite or "
                    f"whose square overflows")
            arr[...] = data.reshape(shape)
        # n_blocks distinct known names cover every block; only bytes after
        # the last one can still be wrong.
        if f.read(1):
            raise CheckpointError("trailing bytes after the last block")
    return net, vocab
