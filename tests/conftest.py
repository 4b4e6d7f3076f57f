"""Shared fixtures: the fixed synthetic overfit corpus and its configs, and
the seeded byte corruption of the file-format property tests."""

import numpy as np
import pytest

from hrnnlm.corpus import build_vocab, tokenize_lines
from hrnnlm.training import TrainConfig

# Ten words with distinct first letters; long words keep the number of
# word-order decisions per kilobyte low enough to memorize quickly.
OVERFIT_WORDS = ["anchorage", "barometer", "calibrate", "dangerous",
                 "elevation", "framework", "gathering", "humidity",
                 "intricate", "jellyfish"]

OVERFIT_SEED = 5


def synthetic_text(seed: int, lines: int, words_per_line: int) -> str:
    """Lines of uniformly random words from the fixed ten-word vocabulary."""
    rng = np.random.default_rng(seed)
    rows = [" ".join(OVERFIT_WORDS[i]
                     for i in rng.integers(0, 10, size=words_per_line))
            for _ in range(lines)]
    return "\n".join(rows) + "\n"


def overfit_text() -> str:
    """The fixed ~2 KB training corpus: 10 lines of 20 random words."""
    return synthetic_text(2024, lines=10, words_per_line=20)


def heldout_text() -> str:
    """Unseen word orderings over the same vocabulary."""
    return synthetic_text(777, lines=4, words_per_line=20)


def overfit_config(max_epochs: int = 200) -> TrainConfig:
    return TrainConfig(bptt_length=64, batch_size=2, max_epochs=max_epochs,
                       seed=OVERFIT_SEED, momentum=0.95, clip_norm=1.0)


def corrupt(data: bytes, seed: int, n_bytes: int, span: int) -> bytes:
    """data with n_bytes seeded random bytes XOR-ed in at random offsets
    among its first ``span`` bytes."""
    rng = np.random.default_rng(seed)
    out = bytearray(data)
    span = min(span, len(out))
    for pos, mask in zip(rng.integers(0, span, n_bytes),
                         rng.integers(1, 256, n_bytes)):
        out[pos] ^= int(mask)
    return bytes(out)


@pytest.fixture(scope="session")
def overfit_corpus():
    text = overfit_text()
    vocab = build_vocab(text)
    return vocab, tokenize_lines(text, vocab), tokenize_lines(heldout_text(),
                                                              vocab)
