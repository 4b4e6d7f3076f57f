"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own work and runs before any timed
region: corpus text, decoding reference transcripts and their synthetic
CTC posteriors.  The program only ever sees the generated text and
probability matrices.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

# The word list and line generator of the overfit corpus used by the test
# suite, reproduced so the benchmark does not depend on test files.
OVERFIT_WORDS = ["anchorage", "barometer", "calibrate", "dangerous",
                 "elevation", "framework", "gathering", "humidity",
                 "intricate", "jellyfish"]

# Network initialization seed of every workload: the overfit tests' seed.
# The run's --seed drives the data, the sampling and the utterances; a
# fixed initialization keeps the trained model, and so the cost of sampling
# and decoding with it, from varying with the seed.
INIT_SEED = 5

# Seed of decode's word list and LM corpus.  With the corpus fixed, every
# run seed decodes with the same LM, so the cost of an LM step, which
# depends on how often the model predicts word boundaries, does not vary
# with the seed; the run's seed drives the utterances and the sampling.
SPEECH_CORPUS_SEED = 2016

# Settings every workload shares.
BPTT = 64
MOMENTUM = 0.95
CLIP_NORM = 1.0
SAMPLE_LEN = 2000
BEAM_WIDTH = 16

WORD_LABEL = "<w>"
BLANK_LABEL = "<blank>"

# Posterior shape.  Every frame puts LABELS_ABOVE_PRUNE non-blank columns
# above the decoder's default width_prune of 1e-4 (the aligned label and
# confusable ones, drawn log-uniformly from CONFUSABLE_RANGE) and the rest
# below it (TAIL_RANGE).  21 labels above width_prune per frame is the
# shape of a decode measured on the unmodified program (beam 16, a 65-frame
# utterance): about 21 x beam width LM steps per frame, of which at most
# one in 21 can survive.
LABELS_ABOVE_PRUNE = 21
CONFUSABLE_RANGE = (2e-4, 2e-2)
TAIL_RANGE = (1e-7, 2e-5)


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; every workload runs the same pipeline."""

    name: str
    hidden: int
    batch: int
    epochs: int
    utterances: int           # posterior matrices decoded per round
    utterance_words: int      # words per reference transcript


WORKLOADS = {
    "train_small": Workload("train_small", hidden=16, batch=2, epochs=3,
                            utterances=1, utterance_words=1),
    "train_wide": Workload("train_wide", hidden=128, batch=32, epochs=2,
                           utterances=1, utterance_words=1),
    "decode": Workload("decode", hidden=64, batch=1, epochs=2,
                       utterances=2, utterance_words=2),
}


@dataclass
class Utterance:
    transcript: str           # reference words joined by single spaces
    labels: list              # posterior column symbols, blank last
    probs: np.ndarray         # (frames, len(labels)) float64, rows sum to 1


@dataclass
class Inputs:
    train_text: str
    heldout_text: str
    utterances: list


def uneven_lengths(n_lines: int, lo: int, hi: int) -> list:
    """Words per line, spread unevenly over lo..hi by a fixed stride.

    The lengths do not depend on the seed, so every seed lays the corpus
    out on the same training streams and windows, at the same cost.
    """
    span = hi - lo + 1
    return [lo + (7 * k) % span for k in range(n_lines)]


def word_lines(rng: np.random.Generator, words: list, lengths: list) -> str:
    """One line per entry of ``lengths``, words drawn uniformly."""
    rows = [" ".join(words[i] for i in rng.integers(0, len(words), size=n))
            for n in lengths]
    return "\n".join(rows) + "\n"


def cut_lines(seq: list, lo: int, hi: int) -> str:
    """``seq`` cut into consecutive lines of uneven_lengths(.., lo, hi)."""
    rows = []
    for n in uneven_lengths(len(seq), lo, hi):
        if not seq:
            break
        rows.append(" ".join(seq[:n]))
        seq = seq[n:]
    return "\n".join(rows) + "\n"


def overfit_text(seed: int, lines: int, words_per_line: int) -> str:
    """The test suite's generator: fixed-length lines of overfit words."""
    rng = np.random.default_rng(seed)
    rows = [" ".join(OVERFIT_WORDS[i]
                     for i in rng.integers(0, 10, size=words_per_line))
            for _ in range(lines)]
    return "\n".join(rows) + "\n"


def speech_words(rng: np.random.Generator, n_words: int = 40) -> list:
    """A seeded word list over a-z and the apostrophe, WSJ's letters.

    The shuffled alphabet is cut into words first, so every letter occurs
    in the corpus; a few words get a possessive "'s".
    """
    letters = list(string.ascii_lowercase)
    rng.shuffle(letters)
    words = ["".join(letters[i:i + 5]) for i in range(0, 26, 5)]
    while len(words) < n_words:
        n = 2 + len(words) % 6
        words.append("".join(rng.choice(list(string.ascii_lowercase),
                                        size=n)))
    for i in rng.choice(len(words), size=4, replace=False):
        words[i] += "'s"
    return words


def ctc_posteriors(rng: np.random.Generator, target_cols: list,
                   n_cols: int, blank_col: int) -> np.ndarray:
    """Noisy, peaked posteriors for one CTC alignment of ``target_cols``.

    The alignment holds 1-2 frames per label, blank runs of 0-2 frames
    between labels (at least one between repeated labels) and 1-2 blank
    frames at each end.  Each frame gives LABELS_ABOVE_PRUNE non-blank
    columns (the aligned one included) a mass above width_prune, every
    other column a tail below it, the blank 2-20% on label frames and the
    aligned column the rest, about 0.6-0.95.
    """
    frames = [blank_col] * int(rng.integers(1, 3))
    prev = None
    for col in target_cols:
        gap = int(rng.integers(0, 3))
        if col == prev:
            gap = max(gap, 1)
        frames += [blank_col] * gap + [col] * int(rng.integers(1, 3))
        prev = col
    frames += [blank_col] * int(rng.integers(1, 3))

    labels = [c for c in range(n_cols) if c != blank_col]
    lo, hi = np.log(CONFUSABLE_RANGE)
    probs = np.empty((len(frames), n_cols))
    for t, col in enumerate(frames):
        row = rng.uniform(*TAIL_RANGE, size=n_cols)
        others = [c for c in labels if c != col]
        n = min(LABELS_ABOVE_PRUNE, len(labels)) - (col != blank_col)
        row[rng.choice(others, size=n, replace=False)] = np.exp(
            rng.uniform(lo, hi, size=n))
        if col != blank_col:
            row[blank_col] = rng.uniform(0.02, 0.2)
        row[col] = 0.0
        row[col] = 1.0 - row.sum()
        probs[t] = row
    return probs


def make_utterance(rng: np.random.Generator, words: list,
                   n_words: int, chars: list) -> Utterance:
    """A reference transcript from ``words`` and its posterior matrix.

    Columns are ``chars`` (sorted), then <w>, then <blank>.
    """
    labels = sorted(chars) + [WORD_LABEL, BLANK_LABEL]
    col_of = {s: i for i, s in enumerate(labels)}
    picked = [words[i] for i in rng.integers(0, len(words), size=n_words)]
    targets = []
    for k, w in enumerate(picked):
        if k:
            targets.append(col_of[WORD_LABEL])
        targets.extend(col_of[c] for c in w)
    probs = ctc_posteriors(rng, targets, len(labels), col_of[BLANK_LABEL])
    return Utterance(" ".join(picked), labels, probs)


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Every input of one workload, a pure function of (workload, seed)."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    if workload.name == "train_small":
        # The test suite's fixed overfit corpus; the seed drives the
        # sampling and decoding inputs.
        train_text = overfit_text(2024, lines=10, words_per_line=20)
        heldout_text = overfit_text(777, lines=4, words_per_line=20)
        words = OVERFIT_WORDS
    elif workload.name == "train_wide":
        words = OVERFIT_WORDS
        train_text = word_lines(rng, words, uneven_lengths(36, 4, 30))
        heldout_text = word_lines(rng, words, uneven_lengths(10, 4, 30))
    else:
        corpus_rng = np.random.default_rng(SPEECH_CORPUS_SEED)
        words = speech_words(corpus_rng)
        # Leading lines list every word once, so the vocabulary holds every
        # letter a transcript can use.
        listing = "".join(" ".join(words[i:i + 8]) + "\n"
                          for i in range(0, len(words), 8))
        # Then a shuffled pass over the list (two for the held-out text).
        train_text = listing + cut_lines(
            list(corpus_rng.permutation(words)), 3, 8)
        heldout_text = cut_lines(
            [w for _ in range(2) for w in corpus_rng.permutation(words)],
            3, 8)
    chars = sorted({c for w in words for c in w})
    utterances = [make_utterance(rng, words, workload.utterance_words, chars)
                  for _ in range(workload.utterances)]
    return Inputs(train_text, heldout_text, utterances)


def text_counts(text: str) -> tuple[int, int, int]:
    """(tokens, words, predictions) of text under the corpus counting rule.

    Each line is its words' letters, one <w> between words and one
    terminating <s>; words are the letter runs plus one per <s>; a line of
    N tokens affords N - 1 next-token predictions.
    """
    tokens = words = preds = 0
    for line in text.split("\n")[:-1]:
        ws = line.split()
        n = sum(len(w) for w in ws) + max(len(ws) - 1, 0) + 1
        tokens += n
        words += len(ws) + 1
        preds += n - 1 if n >= 2 else 0
    return tokens, words, preds
