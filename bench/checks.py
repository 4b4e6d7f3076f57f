"""Correctness checks computed apart from the program under test.

Each check takes the program's outputs and returns a list of failure
messages (empty when the output is right).  The references are the
benchmark's own: a CTC forward recursion, a fold of ``Network.step``
scored here, word and character counts from the raw text and central
finite differences of the loss.  None of them runs inside a timed region.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LN2 = math.log(2.0)


def _logsumexp(values) -> float:
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in values))


def ctc_log_forward(probs: np.ndarray, blank_col: int, label_cols) -> float:
    """log p(label sequence | posteriors), summed over every CTC alignment.

    The usual recursion over the blank-interleaved label sequence: a state
    is entered from itself, from the state before it, or two states back
    when that skips a blank between two different labels.
    """
    ext = [blank_col]
    for c in label_cols:
        ext += [c, blank_col]
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    S, T = len(ext), probs.shape[0]
    alpha = [-math.inf] * S
    alpha[0] = logp[0, ext[0]]
    if S > 1:
        alpha[1] = logp[0, ext[1]]
    for t in range(1, T):
        prev = alpha
        alpha = [-math.inf] * S
        for s in range(S):
            terms = [prev[s]]
            if s >= 1:
                terms.append(prev[s - 1])
            if s >= 2 and ext[s] != blank_col and ext[s] != ext[s - 2]:
                terms.append(prev[s - 2])
            alpha[s] = _logsumexp(terms) + logp[t, ext[s]]
    return _logsumexp(alpha[-2:] if S > 1 else alpha)


def ctc_brute_force(probs: np.ndarray, blank_col: int, label_cols) -> float:
    """The same quantity by enumerating every frame path (tiny inputs only)."""
    target = tuple(label_cols)
    T, C = probs.shape
    total = 0.0
    for path in itertools.product(range(C), repeat=T):
        collapsed = [c for k, c in enumerate(path)
                     if c != blank_col and (k == 0 or c != path[k - 1])]
        if tuple(collapsed) == target:
            total += math.prod(probs[t, c] for t, c in enumerate(path))
    return math.log(total) if total > 0 else -math.inf


def check_decode(results, probs: np.ndarray, labels: list, net, vocab,
                 beam_width: int, lm_weight: float, bonus: float) -> list:
    """Decoder invariants for one utterance's ranked result list.

    * ctc_logp never exceeds the full CTC forward probability of the prefix,
      because pruning only drops alignments;
    * lm_logp equals <w> + prefix scored by one Network.forward call;
    * score is ctc + lm_weight * lm + bonus * len;
    * ranks are non-increasing in score, ties broken by prefix.
    """
    fails = []
    if not 1 <= len(results) <= beam_width:
        fails.append(f"{len(results)} results for beam width {beam_width}")
    col_of = {s: i for i, s in enumerate(labels)}
    blank_col = col_of["<blank>"]
    for rank, r in enumerate(results):
        cols = [col_of[vocab.symbols[i]] for i in r.prefix]
        ref_ctc = ctc_log_forward(probs, blank_col, cols)
        if not r.ctc_logp <= ref_ctc + 1e-9:
            fails.append(f"rank {rank}: ctc_logp {r.ctc_logp!r} exceeds the "
                         f"forward recursion {ref_ctc!r}")
        ids = [vocab.word_boundary_id] + list(r.prefix)
        lm_probs, _, _ = net.forward(np.asarray(ids[:-1] or ids[:1]))
        ref_lm = 0.0
        for k, tok in enumerate(r.prefix):
            ref_lm += math.log(lm_probs[k, tok])
        if not abs(r.lm_logp - ref_lm) <= 1e-9:
            fails.append(f"rank {rank}: lm_logp {r.lm_logp!r} != forward "
                         f"{ref_lm!r}")
        ref_score = r.ctc_logp + lm_weight * r.lm_logp + bonus * len(r.prefix)
        if not abs(r.score - ref_score) <= 1e-9 * max(1.0, abs(ref_score)):
            fails.append(f"rank {rank}: score {r.score!r} != {ref_score!r}")
    for rank, (a, b) in enumerate(zip(results, results[1:])):
        if (-a.score, tuple(a.prefix)) > (-b.score, tuple(b.prefix)):
            fails.append(f"ranks {rank} and {rank + 1} out of order")
    return fails


def fold_bits(net, sequences) -> tuple[float, int]:
    """Total -log2 likelihood and prediction count by folding Network.step
    over each sequence from a fresh zero state."""
    bits = 0.0
    preds = 0
    for ids in sequences:
        ids = [int(i) for i in ids]
        if len(ids) < 2:
            continue
        state = net.init_state(1)
        for tok, nxt in zip(ids[:-1], ids[1:]):
            probs, state = net.step(state, tok)
            bits -= math.log(probs[nxt]) / LN2
            preds += 1
    return bits, preds


def check_training(metrics, vocab_size: int) -> list:
    """Last-epoch train BPC is finite and below the first epoch and log2 V."""
    fails = []
    if len(metrics) < 2:
        return [f"{len(metrics)} epochs trained; need at least 2"]
    first, last = metrics[0].train_bpc, metrics[-1].train_bpc
    if not math.isfinite(last):
        fails.append(f"last train BPC {last!r} is not finite")
    if not last < first:
        fails.append(f"last train BPC {last!r} is not below the first "
                     f"{first!r}")
    if not last < math.log2(vocab_size):
        fails.append(f"last train BPC {last!r} is not below log2(V) = "
                     f"{math.log2(vocab_size)!r}")
    return fails


def check_bpc(label: str, got: float, want: float) -> list:
    if abs(got - want) <= 1e-9:
        return []
    return [f"{label} BPC {got!r} != the step fold {want!r}"]


def check_report(report, ref_bpc: float, n_chars: int, n_words: int) -> list:
    """evaluate()'s report against the fold and the raw-text counts."""
    fails = check_bpc("evaluate()", report.bpc, ref_bpc)
    if (report.n_chars, report.n_words) != (n_chars, n_words):
        fails.append(f"report counts {report.n_chars} chars, "
                     f"{report.n_words} words; the text has {n_chars}, "
                     f"{n_words}")
    want = 2.0 ** (report.bpc * n_chars / n_words)
    if not abs(report.word_ppl - want) <= 1e-9 * want:
        fails.append(f"word_ppl {report.word_ppl!r} != 2**(bpc*chars/words) "
                     f"= {want!r}")
    return fails


def loss_nats(net, ids) -> float:
    """Summed next-token cross entropy of one sequence from a zero state."""
    probs, _, _ = net.forward(ids[:-1])
    return -float(sum(math.log(probs[t, nxt])
                      for t, nxt in enumerate(ids[1:])))


def analytic_grads(net, ids) -> dict:
    """The program's gradients of loss_nats, from Network.backward."""
    probs, _, tape = net.forward(ids[:-1], collect_tape=True)
    d_logits = probs.copy()
    d_logits[np.arange(len(ids) - 1), ids[1:]] -= 1.0
    return net.backward(tape, d_logits)


def _central_difference(net, ids, block: np.ndarray, direction: np.ndarray,
                        h: float) -> float:
    """d loss / d t at t = 0 of the parameters moved to block + t·direction,
    by central differences; the block is restored exactly afterwards."""
    saved = block.copy()
    block += h * direction
    lp = loss_nats(net, ids)
    block[...] = saved - h * direction
    lm = loss_nats(net, ids)
    block[...] = saved
    return (lp - lm) / (2.0 * h)


def _mismatch(label: str, analytic: float, numeric: float, tolerance: float,
              floor: float) -> list:
    """Relative error against max(|numeric|, |analytic|, floor): two values
    both below ``floor`` are held to an absolute tolerance x floor, far above
    the roundoff of a central difference (about 1e-9 here)."""
    rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), floor)
    if rel <= tolerance:
        return []
    return [f"{label}: analytic {analytic!r} vs central difference "
            f"{numeric!r} (relative {rel:.2e})"]


def gradient_spot_check(net, ids, grads: dict, seed: int, n: int = 20,
                        h: float = 1e-5, tolerance: float = 1e-4,
                        floor: float = 1e-3) -> list:
    """Central differences of loss_nats against ``grads``.

    ``n`` seeded entries, one in each of ``n`` seeded blocks, are drawn
    whatever their gradient, and each is compared.  Because ``n`` entries
    miss most blocks, every block is also checked along one seeded random
    direction over all its entries: a block whose gradient is dropped or
    zeroed fails there.
    """
    ids = np.asarray(ids, dtype=np.int64)
    blocks = net.named_blocks()
    names = sorted(blocks)
    rng = np.random.default_rng(seed)
    fails = []
    for name in rng.choice(names, size=min(n, len(names)), replace=False):
        i = int(rng.integers(blocks[name].size))
        unit = np.zeros(blocks[name].shape)
        unit.flat[i] = 1.0
        numeric = _central_difference(net, ids, blocks[name], unit, h)
        fails += _mismatch(f"{name}[{i}]", float(grads[name].flat[i]),
                           numeric, tolerance, floor)
    for name in names:
        direction = rng.standard_normal(blocks[name].shape)
        numeric = _central_difference(net, ids, blocks[name], direction, h)
        analytic = float(np.sum(grads[name] * direction))
        fails += _mismatch(f"{name} along a random direction", analytic,
                           numeric, tolerance, floor)
    return fails
