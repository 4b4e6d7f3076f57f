import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hrnnlm import corpus
from hrnnlm.corpus import (SENTENCE_BOUNDARY, WORD_BOUNDARY, Vocabulary,
                           build_vocab, byte_vocab, detokenize,
                           escape_symbol, load_vocab, save_vocab,
                           split_heldout, tokenize, tokenize_lines,
                           unescape_symbol)
from hrnnlm.errors import ConfigError, DataError, EmptyCorpusError, OovError
from hrnnlm.evaluation import sample
from hrnnlm.hierarchy import NetworkSpec, build_network
from hrnnlm.training import load_checkpoint, save_checkpoint

BYTE_SYMBOLS = tuple(chr(i) for i in range(256)) + (SENTENCE_BOUNDARY,)
# Letters, an accent, a euro sign, and whitespace of every kind str.split
# knows: ASCII, C0 separators, NEL, no-break space, line separator and the
# ideographic space.
WHITESPACE_ALPHABET = ("ab\u00e9\u20ac \t\n\r\x0b\x0c\x1c\x85"
                       "\u00a0\u2028\u3000")

_WORD_RE = re.compile(r"\S+")


def reference_line_ids(line: str, vocab: Vocabulary, line_no: int) -> list:
    """One line's ids, a character at a time: the tokenizer that the array
    passes replaced, kept as their reference.  A lone surrogate, which has
    no UTF-8, is out of a byte vocabulary."""
    wb, sb = vocab.boundary_ids
    ids = []
    if vocab.mode == "byte":
        for off, ch in enumerate(line):
            if "\ud800" <= ch <= "\udfff":
                raise OovError(f"character {ch!r} at line {line_no}, offset "
                               f"{off} is not in the vocabulary")
        ids.extend(" ".join(line.split()).encode("utf-8"))
    else:
        for k, m in enumerate(_WORD_RE.finditer(line)):
            if k:
                ids.append(wb)
            for off, ch in enumerate(m.group(), start=m.start()):
                if ch not in vocab:
                    raise OovError(f"character {ch!r} at line {line_no}, "
                                   f"offset {off} is not in the vocabulary")
                ids.append(vocab.id_of(ch))
    ids.append(sb)
    return ids


def reference_n_words(ids, vocab: Vocabulary) -> int:
    """The counting rule a token at a time: runs of non-boundary tokens,
    plus one per <s>."""
    wb, sb = vocab.boundary_ids
    n_words, in_run = 0, False
    for i in ids:
        n_words += i == sb
        if i == wb or i == sb:
            in_run = False
        elif not in_run:
            n_words += 1
            in_run = True
    return n_words


def reference_lines(text: str, vocab: Vocabulary) -> list:
    """(ids, n_words) per line of text, by the references above."""
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    out = []
    for n, line in enumerate(lines, start=1):
        ids = reference_line_ids(line, vocab, n)
        out.append((ids, reference_n_words(ids, vocab)))
    return out


def outcome(f, *args):
    """f(*args), or the type and message of the DataError it raised."""
    try:
        return f(*args)
    except DataError as e:
        return type(e), str(e)


class TestBuildVocab:
    def test_char_mode_dedups_and_adds_boundaries(self):
        v = build_vocab("AB B")
        assert set(v.symbols) == {"A", "B", WORD_BOUNDARY, SENTENCE_BOUNDARY}
        assert v.size == 4

    def test_char_mode_repeated_char(self):
        v = build_vocab("AAAA")
        assert set(v.symbols) == {"A", WORD_BOUNDARY, SENTENCE_BOUNDARY}
        assert v.size == 3

    def test_byte_mode_is_fixed_257(self):
        assert build_vocab("anything at all", mode="byte").size == 257
        assert build_vocab("x", mode="byte").size == 257

    def test_byte_mode_boundary_ids(self):
        v = byte_vocab()
        assert v.word_boundary_id == 0x20
        assert v.sentence_boundary_id == 256

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab("")
        with pytest.raises(EmptyCorpusError):
            build_vocab("   \n  \n")
        with pytest.raises(EmptyCorpusError):
            build_vocab("", mode="byte")

    def test_unknown_mode_is_config_error(self):
        with pytest.raises(ConfigError, match="'word'"):
            build_vocab("ab cd", mode="word")

    def test_unknown_symbol_is_oov_error(self):
        with pytest.raises(OovError, match="'z'"):
            build_vocab("ab cd").id_of("z")

    def test_bijective_ids(self):
        v = build_vocab("hello world")
        for i, s in enumerate(v.symbols):
            assert v.id_of(s) == i
            assert v.symbol_of(i) == s


class TestTokenize:
    def test_two_words(self):
        v = build_vocab("ab cd")
        seq = tokenize("ab cd", v)
        expect = [v.id_of(c) for c in "ab"] + [v.word_boundary_id] + \
            [v.id_of(c) for c in "cd"] + [v.sentence_boundary_id]
        assert seq.ids.tolist() == expect
        assert seq.n_chars == 6
        assert seq.n_words == 3  # ab, cd, and the sentence boundary

    def test_empty_line_is_boundary_only(self):
        v = build_vocab("x")
        seq = tokenize("\n", v)
        assert seq.ids.tolist() == [v.sentence_boundary_id]
        assert seq.n_chars == 1
        assert seq.n_words == 1

    def test_whitespace_run_collapses(self):
        v = build_vocab("x y")
        seq = tokenize("x  y", v)
        assert seq.ids.tolist() == [v.id_of("x"), v.word_boundary_id,
                                    v.id_of("y"), v.sentence_boundary_id]

    def test_leading_trailing_whitespace_dropped(self):
        v = build_vocab("x y")
        assert tokenize("  x y  ", v).ids.tolist() == \
            tokenize("x y", v).ids.tolist()

    def test_multiline(self):
        v = build_vocab("ab cd")
        seq = tokenize("ab\ncd", v)
        sb = v.sentence_boundary_id
        assert seq.ids.tolist() == [v.id_of("a"), v.id_of("b"), sb,
                                    v.id_of("c"), v.id_of("d"), sb]
        assert seq.n_words == 4

    def test_tokenize_lines_one_per_line(self):
        v = build_vocab("ab cd")
        seqs = tokenize_lines("ab\ncd\n", v)
        assert len(seqs) == 2
        assert all(s.ids[-1] == v.sentence_boundary_id for s in seqs)

    def test_oov_names_char_and_offset(self):
        v = build_vocab("ab")
        with pytest.raises(OovError, match=r"'z'.*offset 3"):
            tokenize("ab za", v)

    def test_byte_mode_ascii_ids_are_codes(self):
        v = byte_vocab()
        seq = tokenize("Hi there", v)
        expect = [ord(c) for c in "Hi there"] + [256]
        assert seq.ids.tolist() == expect

    def test_byte_mode_utf8(self):
        v = byte_vocab()
        seq = tokenize("é", v)  # two UTF-8 bytes + <s>
        assert seq.n_chars == 3

    def test_deterministic(self):
        v = build_vocab("some text here")
        a = tokenize("some text here", v)
        b = tokenize("some text here", v)
        assert np.array_equal(a.ids, b.ids)

    @pytest.mark.parametrize("call", [tokenize, tokenize_lines])
    def test_byte_mode_lone_surrogate_is_oov_error(self, call):
        with pytest.raises(OovError, match=r"'\\ud800' at line 2, offset 3 "):
            call("ok\nab \ud800 c", byte_vocab())

    def test_byte_mode_sample_prime_with_lone_surrogate_is_oov_error(self):
        v = byte_vocab()
        net = build_network(NetworkSpec.for_vocab("hlstm_b", v, 2))
        with pytest.raises(OovError, match=r"'\\ud800' at line 1, offset 1 "):
            sample(net, v, 3, prime="a\ud800")

    def test_no_whitespace_from_space_end_on(self):
        assert not any(chr(c).isspace()
                       for c in range(corpus._SPACE_END, sys.maxunicode + 1))

    def test_symbols_past_the_char_table_are_found(self):
        v = build_vocab("a \U0001F600\U00010000")
        assert tokenize("\U00010000 a\U0001F600", v).ids.tolist() == [
            v.id_of("\U00010000"), v.word_boundary_id, v.id_of("a"),
            v.id_of("\U0001F600"), v.sentence_boundary_id]
        with pytest.raises(OovError, match="'\U0001F601' at line 1, offset 2"):
            tokenize("a \U0001F601", v)

    @pytest.mark.parametrize("vocab", [build_vocab("a\u4e00"), byte_vocab()])
    def test_whitespace_on_either_side_of_the_table_end(self, vocab):
        # a char table grown to U+4E00 holds U+3000 itself and leaves
        # nothing to search past it; the byte table ends at U+00FF
        text = "\u4e00\u3000a\u2028\u4e00\u0085a"
        want = "\u4e00 a \u4e00 a\n"
        assert detokenize(tokenize(text, vocab).ids, vocab) == want
        if vocab.mode == "char":
            with pytest.raises(OovError, match="'\U0001F600' at line 1, "
                                               "offset 1"):
                tokenize("a\U0001F600", vocab)


class TestArrayPasses:
    """The whole-text array passes equal the per-line reference."""

    @pytest.mark.parametrize("mode", ["char", "byte"])
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.text(st.sampled_from(
               WHITESPACE_ALPHABET.replace("\n", "") + "z\ud800\U0001F600"),
               max_size=12), max_size=5),
           final_newline=st.booleans(), surrogate_in_vocab=st.booleans())
    @example(lines=[], final_newline=False, surrogate_in_vocab=False)
    @example(lines=["", " \t", "a b"], final_newline=True,
             surrogate_in_vocab=False)
    def test_equals_per_line_reference(self, mode, lines, final_newline,
                                       surrogate_in_vocab):
        # "z" is out of the char vocabulary; U+1F600 lies past its table
        text = "\n".join(lines) + "\n" * final_newline
        if mode == "byte":
            vocab = byte_vocab()
        else:
            vocab = build_vocab("ab\u00e9\u20ac\U0001F600"
                                + "\ud800" * surrogate_in_vocab)
        want = outcome(reference_lines, text, vocab)
        got = outcome(lambda: [(s.ids.tolist(), s.n_words)
                               for s in tokenize_lines(text, vocab)])
        assert got == want
        whole = outcome(lambda: (lambda s: (s.ids.tolist(), s.n_words))(
            tokenize(text, vocab)))
        if isinstance(want, list):
            assert whole == ([i for ids, _ in want for i in ids],
                             sum(n for _, n in want))
        else:
            assert whole == want
        assert outcome(corpus.tokenize_fragment, text, vocab) == outcome(
            lambda: reference_line_ids(text, vocab, 1)[:-1])

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(st.sampled_from(
        WHITESPACE_ALPHABET + "z\ud800\U0001F600")), st.text()))
    def test_build_vocab_equals_set_reference(self, text):
        chars = sorted({c for c in text if not c.isspace()})
        if not chars:
            with pytest.raises(EmptyCorpusError):
                build_vocab(text)
            return
        assert build_vocab(text).symbols == (*chars, WORD_BOUNDARY,
                                             SENTENCE_BOUNDARY)


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ["char", "byte"])
    def test_random_texts(self, mode):
        rng = np.random.default_rng(42)
        alphabet = "abcdef"
        for _ in range(25):
            n_lines = rng.integers(1, 4)
            lines = []
            for _ in range(n_lines):
                words = ["".join(rng.choice(list(alphabet),
                                            size=rng.integers(1, 6)))
                         for _ in range(rng.integers(1, 5))]
                lines.append(" ".join(words))
            text = "\n".join(lines) + "\n"
            vocab = (byte_vocab() if mode == "byte"
                     else build_vocab(text, mode))
            seq = tokenize(text, vocab)
            assert detokenize(seq.ids, vocab) == text

    def test_byte_mode_boundary_and_invalid_utf8(self):
        # <s> reads as a newline; a lead byte without its continuation, and
        # a cut three-byte sequence, each read as U+FFFD
        ids = [0x68, 0x69, 256, 0xC3, 0x28, 0xE2, 0x82, 256]
        assert detokenize(ids, byte_vocab()) == "hi\n\ufffd(\ufffd\n"
        assert detokenize(np.array(ids), byte_vocab()) == \
            bytes([0x0A if i == 256 else i for i in ids]).decode(
                "utf-8", errors="replace")

    def test_normalizes_extra_whitespace(self):
        v = build_vocab("a b")
        assert detokenize(tokenize("a   b ", v).ids, v) == "a b\n"

    @staticmethod
    def _normalized(text):
        """text as tokenize reads it: per line, whitespace runs as one space
        and none at either end; a newline after every line."""
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        return "".join(" ".join(line.split()) + "\n" for line in lines)

    @pytest.mark.parametrize("mode", ["char", "byte"])
    @settings(max_examples=150, deadline=None)
    @given(text=st.one_of(
        st.text(st.sampled_from("ab\u00e9\u20ac \t\n\r\x0b\x0c\x1c\x85"
                                "\u00a0\u2028\u3000"), max_size=40),
        st.text(max_size=40)))
    @example(text=" a\u00a0b\t\tc \n\n x\r\n")
    @example(text="")
    def test_detokenize_inverts_tokenize_up_to_whitespace(self, mode, text):
        vocab = byte_vocab() if mode == "byte" else build_vocab(text + "a")
        ids = tokenize(text, vocab).ids
        assert detokenize(ids, vocab) == self._normalized(text)


class TestSplitHeldout:
    def _seqs(self, n):
        v = build_vocab("a")
        return [tokenize("a", v) for _ in range(n)]

    def test_1000_at_1_percent(self):
        train, held = split_heldout(self._seqs(1000), 0.01)
        assert (len(train), len(held)) == (990, 10)

    def test_two_at_half(self):
        train, held = split_heldout(self._seqs(2), 0.5)
        assert (len(train), len(held)) == (1, 1)

    def test_100_at_1_percent_ceils(self):
        train, held = split_heldout(self._seqs(100), 0.01)
        assert (len(train), len(held)) == (99, 1)

    def test_partition_is_disjoint_and_complete(self):
        seqs = self._seqs(37)
        train, held = split_heldout(seqs, 0.1)
        ids = {id(s) for s in seqs}
        assert {id(s) for s in train} | {id(s) for s in held} == ids
        assert not ({id(s) for s in train} & {id(s) for s in held})

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_fraction_range(self, bad):
        with pytest.raises(ConfigError):
            split_heldout(self._seqs(10), bad)

    def test_needs_two_sequences(self):
        with pytest.raises(ConfigError):
            split_heldout(self._seqs(1), 0.5)

    def test_deterministic(self):
        seqs = self._seqs(50)
        a = split_heldout(seqs, 0.07)
        b = split_heldout(seqs, 0.07)
        assert [id(s) for s in a[1]] == [id(s) for s in b[1]]


class TestVocabFile:
    def test_char_round_trip(self, tmp_path):
        v = build_vocab("hello world")
        p = tmp_path / "vocab.txt"
        save_vocab(v, p)
        w = load_vocab(p)
        assert w.symbols == v.symbols
        assert w.mode == "char"
        assert w.word_boundary_id == v.word_boundary_id

    def test_byte_round_trip(self, tmp_path):
        p = tmp_path / "vocab.txt"
        save_vocab(byte_vocab(), p)
        w = load_vocab(p)
        assert w.mode == "byte"
        assert w.size == 257

    def test_escapes_survive(self, tmp_path):
        # a backslash is a regular corpus character and must round-trip
        v = build_vocab("a\\b")
        p = tmp_path / "vocab.txt"
        save_vocab(v, p)
        assert load_vocab(p).symbols == v.symbols

    def test_one_symbol_per_line(self, tmp_path):
        v = build_vocab("ab cd")
        p = tmp_path / "vocab.txt"
        save_vocab(v, p)
        lines = p.read_text().splitlines()
        assert len(lines) == v.size
        assert lines[v.word_boundary_id] == WORD_BOUNDARY


    def test_non_utf8_file_is_data_error(self, tmp_path):
        p = tmp_path / "vocab.txt"
        save_vocab(build_vocab("ab"), p)
        p.write_bytes(p.read_bytes() + b"\xff\n")
        with pytest.raises(DataError, match="vocab.txt is not UTF-8"):
            load_vocab(p)

    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="is a directory"):
            load_vocab(tmp_path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "vocab.txt"
        save_vocab(build_vocab("ab"), p)
        before = p.read_bytes()
        calls = []

        def failing_escape(sym):
            calls.append(sym)
            if len(calls) == 3:
                raise OSError("disk full")
            return escape_symbol(sym)

        monkeypatch.setattr(corpus, "escape_symbol", failing_escape)
        with pytest.raises(OSError, match="disk full"):
            save_vocab(build_vocab("xyz"), p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["vocab.txt"]


class TestFromSymbols:
    def test_boundary_ids_follow_positions(self):
        v = Vocabulary(["<s>", "x", "<w>"])
        assert (v.mode, v.word_boundary_id, v.sentence_boundary_id) == \
            ("char", 2, 0)

    @pytest.mark.parametrize("symbols", [["a", "<s>"], ["a", "<w>"]])
    def test_missing_boundary_is_data_error(self, symbols):
        with pytest.raises(DataError):
            Vocabulary(symbols)

    @pytest.mark.parametrize("symbols", [[1, "<w>", "<s>"],
                                         ["a", ["b"], "<w>", "<s>"],
                                         ["a", "<w>", "<s>", None]])
    def test_symbols_must_be_strings(self, symbols):
        with pytest.raises(DataError, match="not a string"):
            Vocabulary(symbols)

    def test_a_symbol_never_ticks_the_word_clock(self):
        v = Vocabulary(("a", "<w>", "<s>"))
        assert tokenize("a a", v).ids.tolist() == [0, 1, 0, 2]
        assert tokenize("a a", byte_vocab()).ids.tolist() == [97, 32, 97, 256]

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from(["a", "é", " ", "\n", "\\", "", "ab",
                                  "<w>", "<s>", "<x>"]), max_size=7),
        st.lists(st.sampled_from(["a", "b", "<w>", "<s>"]), min_size=2,
                 max_size=4, unique=True),
        st.integers(-1, 256).map(lambda k: BYTE_SYMBOLS[:k] + BYTE_SYMBOLS[k + 1:]
                                 if k >= 0 else BYTE_SYMBOLS),
        st.permutations(BYTE_SYMBOLS[250:]).map(
            lambda tail: BYTE_SYMBOLS[:250] + tuple(tail))))
    def test_symbols_decide_mode_and_ids(self, symbols):
        symbols = tuple(symbols)
        if len(set(symbols)) < len(symbols):
            with pytest.raises(ConfigError):
                Vocabulary(symbols)
            return
        if symbols == BYTE_SYMBOLS:
            want = ("byte", 0x20, 256)
        elif WORD_BOUNDARY in symbols and SENTENCE_BOUNDARY in symbols:
            want = ("char", symbols.index(WORD_BOUNDARY),
                    symbols.index(SENTENCE_BOUNDARY))
        else:
            with pytest.raises(DataError):
                Vocabulary(symbols)
            return
        v = Vocabulary(symbols)
        assert (v.symbols, (v.mode, *v.boundary_ids)) == (symbols, want)
        net = build_network(NetworkSpec.for_vocab("hlstm_b", v, 1))
        with tempfile.TemporaryDirectory() as tmp:
            save_vocab(v, Path(tmp) / "vocab.txt")
            save_checkpoint(Path(tmp) / "model.bin", net, v)
            loaded = [load_vocab(Path(tmp) / "vocab.txt"),
                      load_checkpoint(Path(tmp) / "model.bin")[1]]
        for w in loaded:
            assert (w.symbols, (w.mode, *w.boundary_ids)) == (symbols, want)


class TestSymbolEscapes:
    @given(st.text())
    def test_round_trip(self, sym):
        assert unescape_symbol(escape_symbol(sym)) == sym

    @given(st.text(st.one_of(st.sampled_from("\\xuU09afAFZg+_ "),
                             st.characters())))
    def test_unescape_returns_or_raises_data_error(self, line):
        try:
            unescape_symbol(line)
        except DataError:
            pass

    @pytest.mark.parametrize("line", ["\\xZZ", "\\x4", "a\\u12",
                                      "\\u12g4", "\\x+1", "\\U00110000",
                                      "\\", "\\q"])
    def test_malformed_escape_is_data_error(self, line):
        with pytest.raises(DataError):
            unescape_symbol(line)


class TestCounts:
    def test_counting_rule_examples(self):
        v = build_vocab("a b c")
        assert tokenize("a b c", v).n_words == 4  # three words plus <s>
        assert tokenize("abc", v).n_words == 2
        assert tokenize("", v).n_words == 1  # boundary-only line

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_id_out_of_range_is_data_error(self, bad):
        v = build_vocab("a b c")  # 5 symbols
        with pytest.raises(DataError, match="outside vocabulary"):
            corpus.TokenSequence.from_ids([0, bad, 1], v)

    @pytest.mark.parametrize("symbols", [("a", "b", "c", "<w>", "<s>"),
                                         ("<s>", "a", "<w>", "b")])
    def test_from_ids_equals_the_loop(self, symbols):
        v = Vocabulary(symbols)
        rng = np.random.default_rng(7)
        for n in range(40):
            ids = rng.integers(0, v.size, size=n % 13)
            seq = corpus.TokenSequence.from_ids(ids, v)
            assert seq.n_words == reference_n_words(ids.tolist(), v)
            assert seq.ids.dtype == np.int64
        for ids in ([], [0], [v.size - 1], list(v.boundary_ids)):
            assert corpus.TokenSequence.from_ids(ids, v).n_words == \
                reference_n_words(ids, v)

    def test_n_chars_is_length(self):
        v = build_vocab("some words go here")
        seq = tokenize("some words go here", v)
        assert seq.n_chars == len(seq.ids)
