"""Text ingestion: vocabularies, tokenization, and train/held-out splits.

Text is line-delimited, one sentence per line.  Tokenization collapses each
whitespace run to a single word-boundary token and terminates every line
with a sentence-boundary token.  A vocabulary is its symbols in id order;
the symbols alone decide its mode and boundary ids:

* ``char``: symbols that include ``<w>`` and ``<s>`` (``build_vocab`` takes
  the distinct non-whitespace characters of the corpus, then the two).
  The boundary ids are the positions of those two symbols.
* ``byte``: the fixed layout of the 256 byte values, then ``<s>`` as id
  256; the word boundary is byte 0x20.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, EmptyCorpusError, OovError
from .files import atomic_write, read_text

WORD_BOUNDARY = "<w>"
SENTENCE_BOUNDARY = "<s>"

_BYTE_SYMBOLS = tuple(chr(i) for i in range(256)) + (SENTENCE_BOUNDARY,)

_WORD_RE = re.compile(r"\S+")
# A backslash, then a backslash or x/u/U and exactly 2/4/8 hex digits; a
# backslash followed by anything else matches with group 1 unset.
_ESCAPE_RE = re.compile(
    r"\\(\\|x[0-9a-fA-F]{2}|u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8})?")


@dataclass
class Vocabulary:
    """Bijective symbol <-> id map over ``symbols``, in id order.

    ``Vocabulary(symbols)`` derives the rest: the fixed byte layout makes a
    ``byte`` vocabulary whose word boundary is byte 0x20; symbols that
    include ``<w>`` make a ``char`` vocabulary whose word boundary is that
    symbol's id.  The sentence boundary is always the ``<s>`` symbol's id.
    Repeated symbols raise ConfigError; a symbol that is not a string, or
    symbols that are neither layout or lack ``<s>``, raise DataError.
    """

    symbols: tuple[str, ...]
    mode: str = field(init=False)  # "char" | "byte"
    word_boundary_id: int = field(init=False)
    sentence_boundary_id: int = field(init=False)
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.symbols = tuple(self.symbols)
        for s in self.symbols:
            if not isinstance(s, str):
                raise DataError(f"vocabulary symbol {s!r} is not a string")
        self._index = {s: i for i, s in enumerate(self.symbols)}
        if len(self._index) != len(self.symbols):
            raise ConfigError("vocabulary symbols are not distinct")
        if self.symbols == _BYTE_SYMBOLS:
            self.mode, word = "byte", " "
        elif WORD_BOUNDARY in self._index:
            self.mode, word = "char", WORD_BOUNDARY
        else:
            raise DataError(f"vocabulary lacks the {WORD_BOUNDARY} token and "
                            "is not the fixed byte layout")
        if SENTENCE_BOUNDARY not in self._index:
            raise DataError(f"vocabulary lacks the {SENTENCE_BOUNDARY} token")
        self.word_boundary_id = self._index[word]
        self.sentence_boundary_id = self._index[SENTENCE_BOUNDARY]

    @property
    def size(self) -> int:
        return len(self.symbols)

    def id_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise OovError(f"symbol {symbol!r} not in vocabulary") from None

    def symbol_of(self, token_id: int) -> str:
        return self.symbols[token_id]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    @property
    def boundary_ids(self) -> tuple[int, int]:
        return (self.word_boundary_id, self.sentence_boundary_id)


@dataclass
class TokenSequence:
    """Token ids for one line (or a whole text) plus its character/word counts.

    ``n_chars`` counts every token, boundary tokens included.  ``n_words``
    counts maximal runs of non-boundary tokens plus every sentence-boundary
    token; word boundaries separate words but are not words themselves.
    """

    ids: np.ndarray
    n_words: int

    @classmethod
    def from_ids(cls, ids, vocab: Vocabulary) -> "TokenSequence":
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= vocab.size):
            raise DataError("token id outside vocabulary range")
        wb, sb = vocab.boundary_ids
        n_words = int(np.sum(ids == sb))
        in_run = False
        for i in ids:
            if i == wb or i == sb:
                in_run = False
            elif not in_run:
                n_words += 1
                in_run = True
        return cls(ids=ids, n_words=n_words)

    @property
    def n_chars(self) -> int:
        return int(self.ids.size)

    def __len__(self) -> int:
        return self.n_chars


def byte_vocab() -> Vocabulary:
    """The fixed 257-entry vocabulary: ids 0..255 are byte values, 256 is <s>."""
    return Vocabulary(_BYTE_SYMBOLS)


def build_vocab(text: str, mode: str = "char") -> Vocabulary:
    """Build a vocabulary from corpus text.

    Char mode collects the distinct non-whitespace characters (sorted) and
    appends <w> and <s>.  Byte mode ignores the text content entirely apart
    from requiring it to be non-empty.
    """
    if mode == "byte":
        if len(text) == 0:
            raise EmptyCorpusError("empty corpus")
        return byte_vocab()
    if mode != "char":
        raise ConfigError(f"unknown vocabulary mode {mode!r}")
    chars = sorted({c for c in text if not c.isspace()})
    if not chars:
        raise EmptyCorpusError("corpus contains no non-whitespace characters")
    return Vocabulary(chars + [WORD_BOUNDARY, SENTENCE_BOUNDARY])


def _line_ids(line: str, vocab: Vocabulary, line_no: int) -> list[int]:
    wb, sb = vocab.boundary_ids
    ids: list[int] = []
    if vocab.mode == "byte":
        normalized = " ".join(line.split())
        ids.extend(normalized.encode("utf-8"))
    else:
        first = True
        for m in _WORD_RE.finditer(line):
            if not first:
                ids.append(wb)
            first = False
            for off, ch in enumerate(m.group(), start=m.start()):
                if ch not in vocab:
                    raise OovError(
                        f"character {ch!r} at line {line_no}, offset {off} "
                        "is not in the vocabulary")
                ids.append(vocab.id_of(ch))
    ids.append(sb)
    return ids


def _split_text_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()  # trailing newline, not an empty final line
    return lines


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Tokenize text (possibly multi-line) into a single id sequence.

    Whitespace runs inside a line become one <w>; every line ends with one
    <s>.  Leading and trailing whitespace on a line is dropped.
    """
    ids: list[int] = []
    for n, line in enumerate(_split_text_lines(text), start=1):
        ids.extend(_line_ids(line, vocab, n))
    return TokenSequence.from_ids(ids, vocab)


def tokenize_lines(text: str, vocab: Vocabulary) -> list[TokenSequence]:
    """Tokenize a corpus into one TokenSequence per line."""
    return [TokenSequence.from_ids(_line_ids(line, vocab, n), vocab)
            for n, line in enumerate(_split_text_lines(text), start=1)]


def tokenize_fragment(text: str, vocab: Vocabulary) -> list[int]:
    """Tokenize a prompt fragment: no <s> terminator, no line semantics."""
    ids = _line_ids(text, vocab, 1)
    return ids[:-1]


def detokenize(ids, vocab: Vocabulary) -> str:
    """Inverse of tokenize up to whitespace normalization: <w> -> space,
    <s> -> newline."""
    wb, sb = vocab.boundary_ids
    if vocab.mode == "byte":
        out = bytearray()
        for i in ids:
            out.extend(b"\n" if i == sb else bytes([int(i)]))
        return out.decode("utf-8", errors="replace")
    parts = []
    for i in ids:
        if i == wb:
            parts.append(" ")
        elif i == sb:
            parts.append("\n")
        else:
            parts.append(vocab.symbol_of(int(i)))
    return "".join(parts)


def split_heldout(sequences: list[TokenSequence],
                  fraction: float) -> tuple[list[TokenSequence], list[TokenSequence]]:
    """Split sequences into (train, heldout) by a deterministic stride.

    The heldout set receives ceil(fraction * n) sequences spread evenly over
    the corpus; the two sides are disjoint and cover the input.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"heldout fraction must be in (0, 1), got {fraction}")
    n = len(sequences)
    if n < 2:
        raise ConfigError("need at least 2 sequences to split")
    k = math.ceil(fraction * n)
    picks = {i * n // k for i in range(k)}
    heldout = [sequences[i] for i in sorted(picks)]
    train = [s for i, s in enumerate(sequences) if i not in picks]
    return train, heldout


def escape_symbol(sym: str) -> str:
    """Escape a symbol to one line without whitespace: backslash, whitespace
    and non-printable characters become backslash escapes; the boundary
    tokens stay literal."""
    if sym in (WORD_BOUNDARY, SENTENCE_BOUNDARY):
        return sym
    out = []
    for ch in sym:
        if ch == "\\":
            out.append("\\\\")
        elif ch.isspace() or not ch.isprintable():
            code = ord(ch)
            out.append(f"\\x{code:02x}" if code <= 0xFF else
                       f"\\u{code:04x}" if code <= 0xFFFF else
                       f"\\U{code:08x}")
        else:
            out.append(ch)
    return "".join(out)


def unescape_symbol(line: str) -> str:
    """Inverse of escape_symbol; raises DataError on a malformed escape."""
    if line in (WORD_BOUNDARY, SENTENCE_BOUNDARY):
        return line

    def unescape(m: re.Match) -> str:
        esc = m.group(1)
        if esc == "\\":
            return "\\"
        if esc is None or int(esc[1:], 16) > sys.maxunicode:
            raise DataError(f"bad escape in symbol {line!r}")
        return chr(int(esc[1:], 16))

    return _ESCAPE_RE.sub(unescape, line)


def save_vocab(vocab: Vocabulary, path) -> None:
    """Persist a vocabulary as one (escaped) symbol per line, in id order."""
    with atomic_write(path, encoding="utf-8") as f:
        for sym in vocab.symbols:
            f.write(escape_symbol(sym) + "\n")


def load_vocab(path) -> Vocabulary:
    """Load a vocabulary file; its symbols decide the mode (see Vocabulary)."""
    lines = read_text(path, DataError, "vocabulary file").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return Vocabulary(unescape_symbol(line) for line in lines)
