"""Bits-per-character / word-perplexity evaluation and text sampling.

BPC averages -log2 p(next token) over every prediction a sequence affords:
a sequence of N tokens yields N - 1 predictions from a fresh zero state,
with states (and clocks/resets) carried across the whole sequence.  The
scoring itself is ``training.sequence_bits``, the batched window loop that
also scores the held-out set during training.  Word perplexity converts
BPC through the character-per-word ratio:
ppl = 2 ** (bpc * n_chars / n_words), where every token, boundaries
included, counts as a character, and words are the runs of non-boundary
tokens plus one word per <s> (``TokenSequence.from_ids``); <w> separates
words but is not one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blas import one_blas_thread
from .corpus import TokenSequence, Vocabulary, detokenize, tokenize_fragment
from .errors import ConfigError, check_count, check_real
from .hierarchy import Network
from .training import bpc, sequence_bits  # noqa: F401  (re-exported)


@dataclass
class EvalReport:
    bpc: float
    n_chars: int
    n_words: int
    word_ppl: float
    n_params: Optional[int] = None
    size_label: str = ""

    def csv_row(self) -> str:
        return (f"{self.size_label},{self.n_params or ''},"
                f"{self.bpc:.6g},{self.word_ppl:.6g}")

    @staticmethod
    def csv_header() -> str:
        return "size,params,bpc,word_ppl"


def ppl_from_bpc(bpc: float, n_chars: int, n_words: int) -> float:
    """Word-level perplexity implied by a bits-per-character figure."""
    if n_words < 1:
        raise ConfigError("n_words must be at least 1")
    return 2.0 ** (bpc * n_chars / n_words)


def evaluate(net: Network, sequences, n_params: Optional[int] = None,
             size_label: str = "") -> EvalReport:
    seqs = ([sequences] if isinstance(sequences, TokenSequence)
            else list(sequences))
    n_chars = sum(s.n_chars for s in seqs)
    n_words = sum(s.n_words for s in seqs)
    b = bpc(net, seqs)
    return EvalReport(bpc=b, n_chars=n_chars, n_words=n_words,
                      word_ppl=ppl_from_bpc(b, n_chars, n_words),
                      n_params=n_params, size_label=size_label)


def format_report_table(reports: list[EvalReport]) -> str:
    """Aligned table with the usual columns: Size, # Params, BPC, Word PPL."""
    rows = [["Size", "# Params", "BPC", "Word PPL"]]
    for r in reports:
        rows.append([r.size_label or "-",
                     f"{r.n_params:,}" if r.n_params else "-",
                     f"{r.bpc:.4f}", f"{r.word_ppl:.1f}"])
    widths = [max(len(row[c]) for row in rows) for c in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


def _distribution(probs: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(log probs / temperature), normalized to sum to 1."""
    if temperature == 1.0:
        return probs / probs.sum()
    with np.errstate(divide="ignore"):
        logits = np.log(probs) / temperature
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()
    return p


def _draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """The token ``rng.choice(len(p), p=p)`` draws, and with the same use
    of rng: one uniform number looked up in p's cumulative sum, the
    inverse CDF that ``choice`` computes, without its argument checks."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


@one_blas_thread()
def sample(net: Network, vocab: Vocabulary, length: int, prime: str = "",
           temperature: float = 1.0, seed: int = 0) -> str:
    """Autoregressive sampling, seeded and deterministic.

    A prime is fed from the zero state exactly the way training conditions
    a line, and generation continues from there.  Without a prime the zero
    state is bootstrapped with one word-boundary token to obtain a first
    distribution.  Tokens are drawn from softmax(log p / temperature),
    which must be finite and positive (else ConfigError).  A token is
    stepped only when a draw needs its distribution, so n tokens fed and
    ``length`` draws take n - 1 + ``length`` ``Network.step`` calls, all
    through one one-row workspace; each draw is the one
    ``Generator.choice(len(p), p=p)`` would make, from the same stream of
    ``default_rng(seed)``.  Clocks fall out of the emitted tokens
    themselves, so word/sentence boundaries drive the word-level module
    exactly as during scoring.  ``length``, the number
    of tokens drawn after the prime, and ``seed`` must be integers of at
    least 0 (else ConfigError).
    """
    check_count("length", length, 0)
    check_count("seed", seed, 0)
    check_real("temperature", temperature)
    if not 0.0 < temperature < math.inf:  # NaN too
        raise ConfigError("temperature must be finite and positive")
    rng = np.random.default_rng(seed)
    state, workspace = net.init_state(1), net.workspace(1)
    echo_ids = tokenize_fragment(prime, vocab) if prime else []
    *fed, tok = echo_ids if echo_ids else [vocab.word_boundary_id]
    for fed_tok in fed:
        _, state = net.step(state, fed_tok, workspace)
    out: list[int] = []
    for _ in range(length):
        probs, state = net.step(state, tok, workspace)
        tok = _draw(_distribution(probs, temperature), rng)
        out.append(tok)
    # echo the prime as tokenized, so its whitespace matches what was fed
    return detokenize(echo_ids + out, vocab)
