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

Tokenization reads the whole text in a few array passes, not a character
at a time.  The text is encoded once to code points (UTF-32, with
``surrogatepass`` so that a lone surrogate is a character like any other),
and one lookup in the vocabulary's code-point table maps each code point to
its id or its class: whitespace, ``\n``, past the table, or out of
vocabulary.  A char table holds the ids; the byte table holds the code
points themselves.  A table covers Latin-1, and a char table grows to its
largest symbol below U+10000.  A last slot catches every code point past
the table; a sorted search over the whitespace and symbols past it
resolves those, and one that is neither is out of vocabulary (char mode)
or itself (byte mode, where a surrogate is out of vocabulary: it has no
UTF-8).  Two masked compactions then lay the text out: the first keeps,
of each whitespace run, only a last one that precedes a character; the
second keeps those that also follow one.  What is left holds the
characters, one ``<w>`` between words and one ``<s>`` per line end (a
text without a final ``\n`` gets one).  Byte mode writes that layout back
as text, spaces and newlines for the boundaries, and encodes it to UTF-8
once.  One id array comes out, cut at its ``<s>`` positions into lines;
each line's word count is its ``<w>`` count, plus one if it holds a
character, plus one for its ``<s>``.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, EmptyCorpusError, OovError
from .files import atomic_write, read_text

WORD_BOUNDARY = "<w>"
SENTENCE_BOUNDARY = "<s>"

_BYTE_SYMBOLS = tuple(chr(i) for i in range(256)) + (SENTENCE_BOUNDARY,)

# What a code-point table holds besides ids; every class is below every id.
_WS, _NL, _FAR, _OOV = -1, -2, -3, -4
# Whitespace as str.isspace (and so str.split) sees it, each code point
# with its class; Unicode has none from U+3001 on.
_SPACE_END = 0x3001
_SPACE_CLASSES = {c: _WS for c in range(_SPACE_END) if chr(c).isspace()}
_SPACE_CLASSES[0x0A] = _NL
_TABLE_MIN = 0x100  # every code-point table covers Latin-1
_TABLE_CAP = 0x10000  # char symbols from here on are found by search
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

    @cached_property
    def _code_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(table, far codes, far values): the code-point table of the module
        docstring, then the code points past it that are whitespace or
        symbols, sorted, and what each one maps to."""
        values = {} if self.mode == "byte" else {
            ord(s): i for i, s in enumerate(self.symbols) if len(s) == 1}
        end = max([_TABLE_MIN] + [c + 1 for c in values if c < _TABLE_CAP])
        values.update(_SPACE_CLASSES)
        if self.mode == "byte":
            table = np.arange(end + 1, dtype=np.int32)
        else:
            table = np.full(end + 1, _OOV, np.int32)
        near = [c for c in values if c < end]
        table[near] = [values[c] for c in near]
        far = sorted(c for c in values if c >= end)
        table[end] = _FAR if self.mode == "byte" or far else _OOV
        return (table, np.array(far, dtype=np.int64),
                np.array([values[c] for c in far], dtype=np.int32))

    @cached_property
    def _texts(self) -> np.ndarray:
        """Per id, its text in a char-mode detokenize: the symbol, or a
        space for <w> and a newline for <s>."""
        texts = np.array(self.symbols, dtype=object)
        texts[[self.word_boundary_id, self.sentence_boundary_id]] = [" ", "\n"]
        return texts


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
        word = (ids != wb) & (ids != sb)
        # a word starts where a non-boundary token follows a boundary or
        # opens the sequence
        n_words = (np.count_nonzero(ids == sb) + np.count_nonzero(word[:1])
                   + np.count_nonzero(word[1:] > word[:-1]))
        return cls(ids=ids, n_words=int(n_words))

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
    codes = _code_points(text)
    seen = np.zeros(int(codes.max(initial=0)) + 1, dtype=bool)
    seen[codes] = True
    chars = [c for c in map(chr, np.flatnonzero(seen).tolist())
             if not c.isspace()]
    if not chars:
        raise EmptyCorpusError("corpus contains no non-whitespace characters")
    return Vocabulary(chars + [WORD_BOUNDARY, SENTENCE_BOUNDARY])


def _code_points(text: str) -> np.ndarray:
    """The text's code points, a lone surrogate included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4")


def _oov_error(codes: np.ndarray, i: int, lines: bool) -> OovError:
    """The error for the out-of-vocabulary character at index i."""
    line_no, off = 1, i
    if lines:
        breaks = np.flatnonzero(codes[:i] == 0x0A)
        if breaks.size:
            line_no, off = breaks.size + 1, i - int(breaks[-1]) - 1
    return OovError(f"character {chr(codes[i])!r} at line {line_no}, "
                    f"offset {off} is not in the vocabulary")


def _encode(text: str, vocab: Vocabulary, lines: bool = True):
    """(ids, ends, n_words) of text, in the passes of the module docstring.

    ``ends`` indexes each line's <s> in ``ids`` and ``n_words`` holds each
    line's word count.  ``lines=False`` reads ``\\n`` as whitespace and
    ends no line, so ``ids`` holds no <s>.
    """
    table, far_codes, far_values = vocab._code_table
    codes = _code_points(text)
    n = codes.size
    close = lines and not text.endswith("\n")
    vals = np.empty(n + close, dtype=np.int32)
    vals[n:] = _NL
    np.take(table, codes, out=vals[:n], mode="clip")
    if vals.min(initial=0) <= _FAR:  # past the table, or out of vocabulary
        far = np.flatnonzero(vals[:n] == _FAR)
        c = codes[far]
        k = np.searchsorted(far_codes, c).clip(max=far_codes.size - 1)
        # not found: out of vocabulary, or in byte mode the code point
        # itself unless it is a surrogate, which has no UTF-8
        miss = (_OOV if vocab.mode == "char" else
                np.where(c >> 11 == 0xD800 >> 11, _OOV, c))
        vals[far] = np.where(far_codes[k] == c, far_values[k], miss)
        oov = np.flatnonzero(vals == _OOV)
        if oov.size:
            raise _oov_error(codes, int(oov[0]), lines)
    if not lines:
        vals[vals == _NL] = _WS
    keep = vals != _WS
    keep[:-1] |= vals[1:] >= 0  # a run's last whitespace, before a character
    vals = vals[keep]
    keep = vals != _WS
    keep[1:] |= vals[:-1] >= 0  # ... that also follows one: a word boundary
    vals = vals[keep]
    wbs = np.flatnonzero(vals == _WS)
    ends = np.flatnonzero(vals == _NL)
    filled = np.diff(ends, prepend=-1) > 1
    n_words = np.diff(np.searchsorted(wbs, ends), prepend=0) + filled + 1
    wb, sb = vocab.boundary_ids
    if vocab.mode == "byte":
        vals[wbs], vals[ends] = 0x20, 0x0A
        data = np.frombuffer(vals.astype("<u4").tobytes().decode("utf-32-le")
                             .encode("utf-8"), dtype=np.uint8)
        ids = data.astype(np.int64)
        ends = np.flatnonzero(data == 0x0A)
    else:
        ids = vals.astype(np.int64)
        ids[wbs] = wb
    ids[ends] = sb
    return ids, ends, n_words


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Tokenize text (possibly multi-line) into a single id sequence.

    Whitespace runs inside a line become one <w>; every line ends with one
    <s>.  Leading and trailing whitespace on a line is dropped.  A
    character outside the vocabulary raises OovError naming it, its line
    and its offset in that line.
    """
    ids, _, n_words = _encode(text, vocab)
    return TokenSequence(ids=ids, n_words=int(n_words.sum()))


def tokenize_lines(text: str, vocab: Vocabulary) -> list[TokenSequence]:
    """Tokenize a corpus into one TokenSequence per line; each one's ids are
    a view of one array."""
    ids, ends, n_words = _encode(text, vocab)
    stops = (ends + 1).tolist()
    return [TokenSequence(ids=ids[a:b], n_words=n)
            for a, b, n in zip([0] + stops, stops, n_words.tolist())]


def tokenize_fragment(text: str, vocab: Vocabulary) -> list[int]:
    """Tokenize a prompt fragment: no <s> terminator, no line semantics."""
    return _encode(text, vocab, lines=False)[0].tolist()


def detokenize(ids, vocab: Vocabulary) -> str:
    """Inverse of tokenize up to whitespace normalization: <w> -> space,
    <s> -> newline."""
    ids = np.asarray(ids, dtype=np.intp)
    if vocab.mode == "byte":
        data = np.where(ids == vocab.sentence_boundary_id, 0x0A, ids)
        return bytes(data.tolist()).decode("utf-8", errors="replace")
    return "".join(vocab._texts[ids])


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
