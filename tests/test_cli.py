import pytest

from hrnnlm.cli import main
from hrnnlm.corpus import build_vocab
from hrnnlm.decoding import BLANK_LABEL, PosteriorMatrix, \
    write_posteriors_binary, write_posteriors_text
from hrnnlm.hierarchy import NetworkSpec, build_network
from hrnnlm.training import save_checkpoint


CORPUS = "ab cd ef\ncd ab gh\nef gh ab\nab ef cd\ngh cd ef\nab gh cd\n"


@pytest.fixture
def corpus_file(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text(CORPUS)
    return p


@pytest.fixture
def trained_dir(tmp_path, corpus_file):
    out = tmp_path / "run"
    code = main(["train", "--corpus", str(corpus_file), "--hidden", "4",
                 "--epochs", "2", "--bptt", "8", "--batch", "2",
                 "--heldout-fraction", "0.2", "--seed", "3",
                 "--output-dir", str(out)])
    assert code == 0
    return out


class TestTrain:
    def test_writes_artifacts(self, trained_dir):
        assert (trained_dir / "checkpoint.bin").exists()
        assert (trained_dir / "metrics.csv").exists()
        assert (trained_dir / "vocab.txt").exists()

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        code = main(["train", "--corpus", str(tmp_path / "nope.txt")])
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path, corpus_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--corpus", str(corpus_file),
                         "--hidden", "4", "--epochs", "2", "--bptt", "8",
                         "--batch", "2", "--seed", "3",
                         "--output-dir", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() == \
            (outs[1] / "metrics.csv").read_bytes()
        assert (outs[0] / "checkpoint.bin").read_bytes() == \
            (outs[1] / "checkpoint.bin").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, corpus_file,
                                            capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus={corpus_file}\nhidden=4\nepochs=1\n"
                       "bptt=8\nbatch=1\n# a comment\nseed=1\n")
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg),
                     "--output-dir", str(out), "--epochs", "2"])
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header + the overridden 2 epochs

    def test_unknown_config_key_rejected(self, tmp_path, corpus_file,
                                         capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus={corpus_file}\nhiden=4\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "hiden" in capsys.readouterr().err

    def test_byte_mode_end_to_end(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "byte_run"
        code = main(["train", "--corpus", str(corpus_file), "--mode", "byte",
                     "--hidden", "3", "--epochs", "1", "--bptt", "8",
                     "--batch", "2", "--output-dir", str(out)])
        assert code == 0
        vocab_lines = (out / "vocab.txt").read_text().split("\n")
        assert len([l for l in vocab_lines if l]) == 257
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--corpus", str(corpus_file)])
        assert code == 0


class TestEval:
    def test_zero_checkpoint_gives_entropy_floor(self, tmp_path, capsys):
        vocab = build_vocab("ab")  # 4 symbols
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        for arr in net.named_blocks().values():
            arr[...] = 0.0
        ckpt = tmp_path / "zero.bin"
        save_checkpoint(ckpt, net, vocab)
        corpus = tmp_path / "text.txt"
        corpus.write_text("ab ba\nba ab\n")
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(corpus)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2.0000" in out

    def test_csv_row(self, trained_dir, tmp_path, corpus_file):
        csv = tmp_path / "results.csv"
        code = main(["eval", "--checkpoint",
                     str(trained_dir / "checkpoint.bin"),
                     "--corpus", str(corpus_file), "--csv-out", str(csv)])
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "size,params,bpc,word_ppl"
        assert len(lines[1].split(",")) == 4

    def test_corrupt_magic_is_data_error(self, trained_dir, corpus_file,
                                         capsys):
        ckpt = trained_dir / "checkpoint.bin"
        data = bytearray(ckpt.read_bytes())
        data[:4] = b"XXXX"
        bad = trained_dir / "bad.bin"
        bad.write_bytes(bytes(data))
        code = main(["eval", "--checkpoint", str(bad),
                     "--corpus", str(corpus_file)])
        assert code == 2


class TestSample:
    def test_deterministic_given_seed(self, trained_dir, capsys):
        args = ["sample", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--length", "40", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip()) > 0


class TestDecode:
    def test_single_frame_fixture(self, tmp_path, capsys):
        vocab = build_vocab("ab")
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4))
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, net, vocab)
        post = PosteriorMatrix(labels=["a", BLANK_LABEL],
                               probs=[[0.9, 0.1]])
        post_path = tmp_path / "post.txt"
        write_posteriors_text(post_path, post)
        code = main(["decode", "--checkpoint", str(ckpt),
                     "--posterior", str(post_path),
                     "--lm-weight", "0", "--insertion-bonus", "0",
                     "--width-prune", "0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "a"

    def test_nbest_csv(self, tmp_path, capsys):
        vocab = build_vocab("ab")
        net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 4),
                            rng_seed=2)
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, net, vocab)
        post = PosteriorMatrix(
            labels=["a", "b", BLANK_LABEL],
            probs=[[0.5, 0.3, 0.2], [0.25, 0.5, 0.25]])
        post_path = tmp_path / "post.txt"
        write_posteriors_text(post_path, post)
        out = tmp_path / "out"
        code = main(["decode", "--checkpoint", str(ckpt),
                     "--posterior", str(post_path), "--nbest", "5",
                     "--output-dir", str(out)])
        assert code == 0
        lines = (out / "nbest.csv").read_text().strip().split("\n")
        assert lines[0] == "text,score,ctc_logp,lm_logp,length"
        assert 2 <= len(lines) <= 6

    def test_bad_posterior_is_data_error(self, tmp_path, trained_dir):
        post_path = tmp_path / "post.txt"
        post_path.write_text("1 2 a <blank>\n0.7 0.7\n")
        code = main(["decode", "--checkpoint",
                     str(trained_dir / "checkpoint.bin"),
                     "--posterior", str(post_path)])
        assert code == 2

    def test_posterior_cut_inside_header_is_data_error(self, tmp_path):
        vocab = build_vocab("ab")
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, build_network(
            NetworkSpec.for_vocab("hlstm_b", vocab, 4)), vocab)
        post_path = tmp_path / "post.bin"
        write_posteriors_binary(post_path, PosteriorMatrix(
            labels=["a", BLANK_LABEL], probs=[[0.5, 0.5]]))
        post_path.write_bytes(post_path.read_bytes()[:9])
        code = main(["decode", "--checkpoint", str(ckpt),
                     "--posterior", str(post_path)])
        assert code == 2


    def test_duplicate_posterior_label_is_data_error(self, tmp_path, capsys):
        vocab = build_vocab("ab")
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, build_network(
            NetworkSpec.for_vocab("hlstm_b", vocab, 4)), vocab)
        post_path = tmp_path / "post.txt"
        post_path.write_text("1 3 a a <blank>\n0.25 0.25 0.5\n")
        code = main(["decode", "--checkpoint", str(ckpt),
                     "--posterior", str(post_path)])
        assert code == 2
        assert "'a'" in capsys.readouterr().err

class TestGradcheck:
    def test_passes_on_tiny_network(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab cd\n")
        code = main(["gradcheck", "--corpus", str(corpus),
                     "--variant", "hlstm_b", "--hidden", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "passed" in out

    def test_fails_with_impossible_tolerance(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab cd\n")
        code = main(["gradcheck", "--corpus", str(corpus),
                     "--variant", "hlstm_b", "--hidden", "3",
                     "--tolerance", "1e-15"])
        assert code == 3

    def test_refuses_large_network(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab cd\n")
        code = main(["gradcheck", "--corpus", str(corpus),
                     "--variant", "hlstm_b", "--hidden", "64"])
        assert code == 1


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["train", "--bogus", "1"]) == 1

    def test_bad_value_type(self, corpus_file):
        assert main(["train", "--corpus", str(corpus_file),
                     "--epochs", "soon"]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--hidden", "4,x"), ("--hidden", "4,,4"), ("--eps", "nan"),
        ("--eps", "inf"), ("--clip", "nan")])
    def test_bad_train_value_is_config_error(self, corpus_file, tmp_path,
                                             capsys, flag, value):
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus_file), "--epochs", "1",
                     "--output-dir", str(out), flag, value]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("flag", ["--lm-weight", "--insertion-bonus",
                                      "--width-prune"])
    def test_nan_decode_weight_is_config_error(self, tmp_path, capsys, flag):
        vocab = build_vocab("ab")
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, build_network(
            NetworkSpec.for_vocab("hlstm_b", vocab, 4)), vocab)
        post_path = tmp_path / "post.txt"
        write_posteriors_text(post_path, PosteriorMatrix(
            labels=["a", BLANK_LABEL], probs=[[0.5, 0.5]]))
        assert main(["decode", "--checkpoint", str(ckpt),
                     "--posterior", str(post_path), flag, "nan"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
