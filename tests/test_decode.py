import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import corrupt
from hrnnlm.corpus import build_vocab, tokenize_lines
from hrnnlm.decoding import (BLANK_LABEL, DecodeConfig, PosteriorMatrix,
                             beam_search, read_posteriors,
                             read_posteriors_binary, read_posteriors_text,
                             wer, write_posteriors_binary,
                             write_posteriors_text)
from hrnnlm.errors import ConfigError, DataError, PosteriorFormatError
from hrnnlm.evaluation import sample
from hrnnlm.hierarchy import NetworkSpec, build_network
from hrnnlm.training import TrainConfig, train

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Independent oracle: whole-sequence CTC scoring by the classic forward
# recursion over the blank-expanded label sequence, plus an LM fold.
# ---------------------------------------------------------------------------

def ctc_forward_logp(label_cols, post):
    """log P(label sequence | posteriors), summing over all alignments."""
    T = post.frames
    probs = post.probs
    blank = post.blank_index
    z = [blank]
    for c in label_cols:
        z.extend([c, blank])
    S = len(z)
    if len(label_cols) > T:
        return NEG_INF
    alpha = np.full(S, NEG_INF)
    alpha[0] = _log(probs[0][z[0]])
    if S > 1:
        alpha[1] = _log(probs[0][z[1]])
    for t in range(1, T):
        prev = alpha
        alpha = np.full(S, NEG_INF)
        for s in range(S):
            best = prev[s]
            if s >= 1:
                best = np.logaddexp(best, prev[s - 1])
            if s >= 2 and z[s] != blank and z[s] != z[s - 2]:
                best = np.logaddexp(best, prev[s - 2])
            alpha[s] = best + _log(probs[t][z[s]])
    total = alpha[S - 1]
    if S > 1:
        total = np.logaddexp(total, alpha[S - 2])
    return float(total)


def _log(p):
    return math.log(p) if p > 0 else NEG_INF


def lm_fold_logp(net, vocab, prefix_ids):
    state = net.init_state(1)
    probs, state = net.step(state, vocab.word_boundary_id)
    total = 0.0
    for tok in prefix_ids:
        total += math.log(probs[tok])
        probs, state = net.step(state, tok)
    return total, state


def enumerate_all(post, net, vocab, config):
    """Score every label sequence of length <= frames by brute force."""
    non_blank = [(col, lab) for col, lab in enumerate(post.labels)
                 if lab != BLANK_LABEL]
    results = []
    for length in range(post.frames + 1):
        for combo in itertools.product(non_blank, repeat=length):
            cols = [c for c, _ in combo]
            ids = tuple(vocab.id_of(lab) for _, lab in combo)
            ctc = ctc_forward_logp(cols, post)
            if ctc == NEG_INF:
                continue
            lm, _ = lm_fold_logp(net, vocab, ids)
            score = (ctc + config.lm_weight * lm
                     + config.insertion_bonus * len(ids))
            results.append((ids, score, ctc, lm))
    results.sort(key=lambda r: (-r[1], r[0]))
    return results


def make_fixture(rng, n_labels=3, frames=4, vocab_text="abcd efg"):
    vocab = build_vocab(vocab_text)
    regular = [s for s in vocab.symbols
               if s not in ("<w>", "<s>")][:n_labels]
    labels = regular + [BLANK_LABEL]
    probs = rng.dirichlet(np.ones(len(labels)), size=frames)
    post = PosteriorMatrix(labels=labels, probs=probs)
    net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4),
                        rng_seed=int(rng.integers(1 << 30)))
    return post, net, vocab


class TestPosteriorFiles:
    def _post(self):
        return PosteriorMatrix(labels=["a", "b", BLANK_LABEL],
                               probs=[[0.2, 0.3, 0.5], [0.6, 0.15, 0.25]])

    def test_text_round_trip(self, tmp_path):
        p = tmp_path / "post.txt"
        write_posteriors_text(p, self._post())
        back = read_posteriors_text(p)
        assert back.labels == ["a", "b", BLANK_LABEL]
        np.testing.assert_allclose(back.probs, self._post().probs)

    def test_binary_round_trip(self, tmp_path):
        p = tmp_path / "post.bin"
        write_posteriors_binary(p, self._post())
        back = read_posteriors_binary(p)
        assert back.labels == ["a", "b", BLANK_LABEL]
        np.testing.assert_allclose(back.probs, self._post().probs, atol=1e-6)

    def test_sniffing_reader(self, tmp_path):
        t, b = tmp_path / "p.txt", tmp_path / "p.bin"
        write_posteriors_text(t, self._post())
        write_posteriors_binary(b, self._post())
        assert read_posteriors(t).frames == 2
        assert read_posteriors(b).frames == 2

    def test_row_sum_violation(self):
        with pytest.raises(PosteriorFormatError, match="sums to"):
            PosteriorMatrix(labels=["a", BLANK_LABEL],
                            probs=[[0.5, 0.4]])

    @pytest.mark.parametrize("probs", [[[0.5, 0.5]], [0.5, 0.2, 0.3]])
    def test_columns_must_match_labels(self, probs):
        with pytest.raises(PosteriorFormatError, match="shape"):
            PosteriorMatrix(labels=["a", "b", BLANK_LABEL], probs=probs)

    def test_binary_reader_rejects_a_text_file(self, tmp_path):
        p = tmp_path / "post.txt"
        write_posteriors_text(p, self._post())
        with pytest.raises(PosteriorFormatError, match="magic"):
            read_posteriors_binary(p)

    def test_blank_required(self):
        with pytest.raises(PosteriorFormatError):
            PosteriorMatrix(labels=["a", "b"], probs=[[0.5, 0.5]])

    @pytest.mark.parametrize("labels", [["a", BLANK_LABEL, BLANK_LABEL],
                                        ["a", "a", BLANK_LABEL]])
    def test_duplicate_label(self, labels):
        with pytest.raises(PosteriorFormatError, match=repr(labels[1])):
            PosteriorMatrix(labels=labels, probs=[[0.5, 0.25, 0.25]])

    def test_duplicate_label_in_text_file(self, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("1 3 a <blank> <blank>\n0.5 0.25 0.25\n")
        with pytest.raises(PosteriorFormatError, match="<blank>"):
            read_posteriors(p)

    def test_duplicate_label_in_binary_file(self, tmp_path):
        p = tmp_path / "dup.bin"
        write_posteriors_binary(p, self._post())
        data = p.read_bytes()
        p.write_bytes(data.replace(b"a b <blank>", b"a a <blank>", 1))
        with pytest.raises(PosteriorFormatError, match="'a'"):
            read_posteriors(p)

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 3 a b\n0.2 0.3 0.5\n0.6 0.15 0.25\n")
        with pytest.raises(PosteriorFormatError):
            read_posteriors_text(p)

    def test_binary_cut_inside_header(self, tmp_path):
        p = tmp_path / "post.bin"
        write_posteriors_binary(p, self._post())
        p.write_bytes(p.read_bytes()[:9])
        with pytest.raises(PosteriorFormatError):
            read_posteriors(p)

    @pytest.mark.parametrize("row", [b"0.5 half", b"nan 0.5", b"0.5",
                                     b"\xff\xfe 0.5"])
    def test_bad_text_row(self, tmp_path, row):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"1 2 a <blank>\n" + row + b"\n")
        with pytest.raises(PosteriorFormatError):
            read_posteriors_text(p)

    @pytest.mark.parametrize("row", [[0.0, 0.0], [np.inf, 0.5],
                                     [np.nan, 0.5], [-0.5, 0.0]])
    def test_binary_row_without_positive_finite_mass(self, tmp_path, row):
        p = tmp_path / "post.bin"
        write_posteriors_binary(p, self._post())
        cells = np.array([row[0], 0.0, row[1]], dtype="<f4").tobytes()
        p.write_bytes(p.read_bytes()[:-12] + cells)
        with pytest.raises(PosteriorFormatError):
            read_posteriors(p)

    def test_directory_is_format_error(self, tmp_path):
        with pytest.raises(PosteriorFormatError, match="is a directory"):
            read_posteriors(tmp_path)

    def test_binary_reader_directory_is_format_error(self, tmp_path):
        with pytest.raises(PosteriorFormatError, match="is a directory"):
            read_posteriors_binary(tmp_path)

    def test_zero_frames_round_trip(self, tmp_path):
        empty = PosteriorMatrix(labels=["a", BLANK_LABEL],
                                probs=np.zeros((0, 2)))
        for write in (write_posteriors_text, write_posteriors_binary):
            write(tmp_path / "post", empty)
            assert read_posteriors(tmp_path / "post").probs.shape == (0, 2)


# Labels that need escapes: backslashes, spaces and line breaks, control
# characters, and text that looks like an escape.
_LABELS = st.lists(
    st.text(min_size=1, max_size=3) | st.sampled_from(
        ["\\", "a\\b", " ", "\n", "\t", "\x00", "\u2028", "\\x41", "\\u00e9",
         "\\x", "<w>", "<s>", "\u00e9"]),
    min_size=1, max_size=5, unique=True).filter(
        lambda labels: BLANK_LABEL not in labels)


@settings(max_examples=60, deadline=None)
@given(labels=_LABELS, frames=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1), binary=st.booleans())
def test_posterior_round_trip(tmp_path_factory, labels, frames, seed, binary):
    rng = np.random.default_rng(seed)
    labels = list(labels)
    labels.insert(int(rng.integers(len(labels) + 1)), BLANK_LABEL)
    post = PosteriorMatrix(labels=labels, probs=rng.dirichlet(
        np.full(len(labels), 0.5), size=frames))
    path = tmp_path_factory.mktemp("post") / "post"
    (write_posteriors_binary if binary else write_posteriors_text)(path, post)
    back = read_posteriors(path)
    assert back.labels == labels
    if binary:  # float32 cells, renormalized
        np.testing.assert_allclose(back.probs, post.probs, rtol=0,
                                   atol=1e-6)
    else:
        np.testing.assert_array_equal(back.probs, post.probs)


@pytest.fixture(scope="module")
def posterior_files(tmp_path_factory):
    post = PosteriorMatrix(labels=["a", " ", "\\", BLANK_LABEL],
                           probs=[[0.25, 0.125, 0.125, 0.5],
                                  [1.0, 0.0, 0.0, 0.0]])
    path = tmp_path_factory.mktemp("post") / "post"
    files = {}
    for kind, write in (("text", write_posteriors_text),
                        ("binary", write_posteriors_binary)):
        write(path, post)
        files[kind] = path.read_bytes()
    return files


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["text", "binary"]),
       seed=st.integers(0, 2**32 - 1), n_bytes=st.integers(1, 4))
@example(kind="binary", seed=187, n_bytes=1)  # inf cell: 0/0 warning
@example(kind="binary", seed=97, n_bytes=1)   # frame count: MemoryError
def test_corrupt_posterior_bytes_load_or_raise_data_error(
        tmp_path_factory, posterior_files, kind, seed, n_bytes):
    path = tmp_path_factory.mktemp("bad") / "post"
    path.write_bytes(corrupt(posterior_files[kind], seed, n_bytes, 1 << 30))
    try:
        read_posteriors(path)
    except DataError:
        pass


class TestBeamSearchBasics:
    def test_single_frame_argmax(self):
        vocab = build_vocab("ab")
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        post = PosteriorMatrix(labels=["a", BLANK_LABEL],
                               probs=[[0.9, 0.1]])
        config = DecodeConfig(beam_width=8, lm_weight=0.0,
                              insertion_bonus=0.0, width_prune=0.0)
        results = beam_search(post, net, vocab, config)
        assert results[0].text == "a"
        assert results[0].score == pytest.approx(math.log(0.9))

    def test_label_not_in_vocab(self):
        vocab = build_vocab("ab")
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        post = PosteriorMatrix(labels=["z", BLANK_LABEL],
                               probs=[[0.9, 0.1]])
        with pytest.raises(ConfigError):
            beam_search(post, net, vocab, DecodeConfig())

    @pytest.mark.parametrize("key, value", [
        ("lm_weight", math.nan), ("lm_weight", math.inf),
        ("insertion_bonus", math.nan), ("insertion_bonus", -math.inf),
        ("width_prune", math.nan)])
    def test_config_rejects_non_finite(self, key, value):
        with pytest.raises(ConfigError, match=key):
            DecodeConfig(**{key: value})

    @pytest.mark.parametrize("cls, key, value", [
        (DecodeConfig, "beam_width", 2.5), (DecodeConfig, "beam_width", 1e9),
        (DecodeConfig, "beam_width", True), (DecodeConfig, "depth_prune", 1.5),
        (TrainConfig, "bptt_length", 2.5), (TrainConfig, "batch_size", 2.5),
        (TrainConfig, "max_epochs", 2.5)])
    def test_config_rejects_non_integer_counts(self, cls, key, value):
        with pytest.raises(ConfigError, match=key):
            cls(**{key: value})

    @pytest.mark.parametrize("target, key, value", [
        ("train", "adadelta_rho", "0.95"), ("train", "adadelta_eps", None),
        ("train", "momentum", [0.9]), ("train", "momentum", True),
        ("train", "clip_norm", "5"), ("decode", "lm_weight", "2"),
        ("decode", "insertion_bonus", None), ("decode", "width_prune", "0"),
        ("sample", "temperature", "1.0"), ("sample", "temperature", None)])
    def test_non_numeric_float_settings_are_config_errors(self, target, key,
                                                          value):
        vocab = build_vocab("ab")
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        make = {"train": TrainConfig, "decode": DecodeConfig,
                "sample": lambda **kw: sample(net, vocab, 3, **kw)}[target]
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            make(**{key: value})

    def test_config_accepts_numpy_floats_and_no_clip(self):
        config = TrainConfig(momentum=np.float32(0.5), clip_norm=None)
        assert config.momentum == 0.5 and config.clip_norm is None
        assert DecodeConfig(lm_weight=np.float64(1.5)).lm_weight == 1.5

    def test_config_accepts_numpy_integer_counts(self):
        config = DecodeConfig(beam_width=np.int64(4), depth_prune=np.int32(2))
        assert config.beam_width == 4
        assert TrainConfig(bptt_length=np.int16(8), batch_size=np.uint8(2),
                           max_epochs=np.int64(1)).batch_size == 2

    def test_tie_break_is_lexicographic(self):
        vocab = build_vocab("ab")
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        for arr in net.named_blocks().values():
            arr[...] = 0.0  # uniform LM keeps the tie exact
        post = PosteriorMatrix(labels=["a", "b", BLANK_LABEL],
                               probs=[[0.45, 0.45, 0.1]])
        config = DecodeConfig(beam_width=8, lm_weight=2.0,
                              insertion_bonus=1.6, width_prune=0.0)
        results = beam_search(post, net, vocab, config)
        assert results[0].score == pytest.approx(results[1].score)
        assert [r.text for r in results[:2]] == ["a", "b"]

    @pytest.mark.parametrize("beam_width, frames, want", [
        (1, 1, ["a"]), (2, 1, ["a", "b"]), (4, 2, ["a", "b", "c", "ab"])])
    def test_tie_at_the_cutoff_keeps_smaller_prefixes(self, beam_width,
                                                      frames, want):
        """More candidates tie at the beam's cutoff than fit: the
        lexicographically smaller prefixes survive.  In the second frame
        "a", "b" and "c" also take the extensions of "" (a merge), and the
        six two-letter prefixes tie for the last place."""
        vocab = build_vocab("abc")
        assert [vocab.id_of(s) for s in "abc"] == [0, 1, 2]
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        for arr in net.named_blocks().values():
            arr[...] = 0.0  # uniform LM keeps the tie exact
        post = PosteriorMatrix(labels=["c", "a", "b", BLANK_LABEL],
                               probs=[[0.32, 0.32, 0.32, 0.04]] * frames)
        config = DecodeConfig(beam_width=beam_width, lm_weight=2.0,
                              insertion_bonus=3.0, width_prune=0.0)
        results = beam_search(post, net, vocab, config)
        assert [r.text for r in results] == want
        tied = [r.score for r in results if len(r.prefix) == frames]
        assert len(set(tied)) == 1

    def test_score_decomposition(self):
        rng = np.random.default_rng(5)
        post, net, vocab = make_fixture(rng)
        config = DecodeConfig(beam_width=16, width_prune=0.0)
        for r in beam_search(post, net, vocab, config):
            recomposed = (r.ctc_logp + config.lm_weight * r.lm_logp
                          + config.insertion_bonus * len(r.prefix))
            assert abs(recomposed - r.score) < 1e-9


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_saturating_beam_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        frames = int(rng.integers(2, 5))
        n_labels = int(rng.integers(2, 4))
        post, net, vocab = make_fixture(rng, n_labels, frames)
        config = DecodeConfig(beam_width=10_000, lm_weight=2.0,
                              insertion_bonus=1.6, width_prune=0.0)
        got = beam_search(post, net, vocab, config)
        expect = enumerate_all(post, net, vocab, config)
        assert [r.prefix for r in got] == [e[0] for e in expect]
        np.testing.assert_allclose([r.score for r in got],
                                   [e[1] for e in expect], atol=1e-9)

    def test_strong_lm_dominates_uniform_posteriors(self):
        # model overfit on one word; uniform acoustics; the LM term picks
        # the word - verified against the same enumeration oracle
        vocab = build_vocab("hello")
        text = (("hello " * 8).strip() + "\n") * 10
        seqs = tokenize_lines(text, vocab)
        spec = NetworkSpec.for_vocab("hlstm_b", vocab, 8)
        result = train(spec, seqs, TrainConfig(bptt_length=16, batch_size=2,
                                               max_epochs=40, seed=0,
                                               momentum=0.95, clip_norm=1.0))
        net = result.network
        # the double l needs a separating blank, so 5 labels need 6 frames;
        # one spare frame leaves the full word room for several alignments
        labels = ["h", "e", "l", "o", BLANK_LABEL]
        T = 7
        probs = np.full((T, 5), 0.2)
        post = PosteriorMatrix(labels=labels, probs=probs)
        config = DecodeConfig(beam_width=10_000, lm_weight=2.0,
                              insertion_bonus=1.6, width_prune=0.0)
        got = beam_search(post, net, vocab, config)
        expect = enumerate_all(post, net, vocab, config)
        assert [r.prefix for r in got] == [e[0] for e in expect]
        assert got[0].text == "hello"


class TestBeamProperties:
    def test_wider_beam_never_hurts(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            post, net, vocab = make_fixture(rng, 3, 5)
            best = NEG_INF
            for width in (1, 2, 4, 16, 64):
                config = DecodeConfig(beam_width=width, width_prune=0.0)
                score = beam_search(post, net, vocab, config)[0].score
                assert score >= best - 1e-12
                best = max(best, score)

    def test_surviving_lm_state_matches_refold(self):
        rng = np.random.default_rng(12)
        post, net, vocab = make_fixture(rng, 3, 5)
        config = DecodeConfig(beam_width=8, width_prune=0.0)
        results = beam_search(post, net, vocab, config)
        top = results[0]
        lm, state = lm_fold_logp(net, vocab, top.prefix)
        assert abs(lm - top.lm_logp) < 1e-12

    def test_depth_prune_caps_length(self):
        rng = np.random.default_rng(13)
        post, net, vocab = make_fixture(rng, 3, 6)
        config = DecodeConfig(beam_width=64, width_prune=0.0, depth_prune=2)
        for r in beam_search(post, net, vocab, config):
            assert len(r.prefix) <= 2

    def test_nothing_left_to_keep_is_data_error(self):
        """At depth_prune 0 no prefix grows, so a frame without blank mass
        leaves the empty prefix no candidate."""
        vocab = build_vocab("ab")
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        post = PosteriorMatrix(labels=["a", "b", BLANK_LABEL],
                               probs=[[0.2, 0.3, 0.5], [0.5, 0.5, 0.0]])
        config = DecodeConfig(beam_width=4, depth_prune=0)
        with pytest.raises(DataError, match="beam emptied"):
            beam_search(post, net, vocab, config)

    def test_width_prune_drops_rare_labels(self):
        vocab = build_vocab("ab")
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        post = PosteriorMatrix(labels=["a", "b", BLANK_LABEL],
                               probs=[[0.89, 0.01, 0.10]])
        config = DecodeConfig(beam_width=64, lm_weight=0.0,
                              insertion_bonus=0.0, width_prune=0.05)
        texts = [r.text for r in beam_search(post, net, vocab, config)]
        assert "b" not in texts


class TestWer:
    def test_identical(self):
        assert wer("a b c", "a b c") == 0.0

    def test_one_deletion(self):
        assert wer("a b c", "a c") == pytest.approx(1.0 / 3.0)

    def test_substitution_plus_insertion(self):
        assert wer("a", "b c") == 2.0

    def test_empty_reference_is_error(self):
        with pytest.raises(ConfigError):
            wer("", "a b")

    def test_accepts_lists(self):
        assert wer(["x", "y"], ["x", "z"]) == 0.5
