import pytest

from hrnnlm import cli
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

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, corpus_file,
                                               capsys):
        """An OSError, here from making the output directory, exits 2."""
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["train", "--corpus", str(corpus_file),
                     "--output-dir", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert taken.read_text() == ""

    def test_non_utf8_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "latin1.txt"
        corpus.write_bytes(b"ab cd\ncaf\xe9 ab\n")
        assert main(["train", "--corpus", str(corpus),
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "latin1.txt is not UTF-8" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_file_is_config_error(self, tmp_path,
                                                  corpus_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"corpus={corpus_file}\n# \xff\n".encode("latin-1"))
        assert main(["train", "--config", str(cfg)]) == 1
        assert "run.cfg is not UTF-8" in capsys.readouterr().err

    def test_config_directory_is_config_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "is a directory" in err and "Errno" not in err

    def test_corpus_directory_is_data_error(self, tmp_path, capsys):
        assert main(["train", "--corpus", str(tmp_path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "is a directory" in err and "Errno" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_rejected(self, tmp_path, corpus_file,
                                         capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus={corpus_file}\nhiden=4\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "hiden" in capsys.readouterr().err

    def test_zero_heldout_fraction_holds_none_out(self, tmp_path,
                                                  corpus_file):
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(corpus_file), "--hidden", "2",
                     "--epochs", "1", "--bptt", "8", "--batch", "2",
                     "--heldout-fraction", "0",
                     "--output-dir", str(out)]) == 0
        row = (out / "metrics.csv").read_text().split("\n")[1]
        assert row.split(",")[2] == ""  # no held-out BPC

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

    def test_missing_checkpoint_is_config_error(self, corpus_file, capsys):
        assert main(["eval", "--corpus", str(corpus_file)]) == 1
        assert "missing required option 'checkpoint'" in \
            capsys.readouterr().err

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

    @pytest.mark.parametrize("temperature", ["nan", "inf", "0", "-2"])
    def test_bad_temperature_is_config_error(self, trained_dir, capsys,
                                             temperature):
        code = main(["sample", "--checkpoint",
                     str(trained_dir / "checkpoint.bin"), "--length", "5",
                     "--temperature", temperature])
        assert code == 1
        assert "temperature" in capsys.readouterr().err

    def test_negative_length_is_config_error(self, trained_dir, capsys):
        code = main(["sample", "--checkpoint",
                     str(trained_dir / "checkpoint.bin"), "--length", "-5"])
        assert code == 1
        assert "length must be at least 0" in capsys.readouterr().err


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

    def test_negative_nbest_is_config_error(self, tmp_path, trained_dir,
                                            capsys):
        out = tmp_path / "out"
        assert main(["decode", "--checkpoint",
                     str(trained_dir / "checkpoint.bin"),
                     "--posterior", str(_posterior_file(tmp_path)),
                     "--nbest", "-2", "--output-dir", str(out)]) == 1
        assert "nbest must be at least 0" in capsys.readouterr().err
        assert not out.exists()

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

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab cd\n")
        code = main(["gradcheck", "--corpus", str(corpus),
                     "--variant", "hlstm_b", "--hidden", "3", "--seed", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rng_seed" in err

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

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_boolean_keys(self, tmp_path, corpus_file, monkeypatch, source):
        """--timing and --uppercase, as flags or in a config file, reach
        train() and the corpus."""
        seen = {}
        real_train = cli.train

        def recording_train(*args, **kwargs):
            seen["timing"] = kwargs["record_timing"]
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", recording_train)
        out = tmp_path / "run"
        argv = ["train", "--hidden", "2", "--epochs", "1", "--bptt", "8",
                "--batch", "2", "--output-dir", str(out)]
        if source == "flags":
            argv += ["--corpus", str(corpus_file), "--timing", "yes",
                     "--uppercase", "On"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"corpus={corpus_file}\ntiming = true\n"
                           "uppercase=1\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        assert seen["timing"] is True
        symbols = (out / "vocab.txt").read_text().split("\n")
        assert "A" in symbols and "a" not in symbols

    def test_false_boolean_in_a_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("timing = no\n")
        assert cli.load_config_file(str(cfg), cli._KEYSETS["train"]) == {
            "timing": False}

    def test_bad_boolean_is_config_error(self, corpus_file, capsys):
        assert main(["train", "--corpus", str(corpus_file),
                     "--timing", "maybe"]) == 1
        assert "expected a boolean" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "no.cfg")]) == 1
        assert "config file not found" in capsys.readouterr().err

    def test_config_line_without_equals_is_config_error(self, tmp_path,
                                                        corpus_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus={corpus_file}\nepochs 2\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "run.cfg:2: expected key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--hidden", "4,x"), ("--hidden", "4,,4"), ("--eps", "nan"),
        ("--eps", "inf"), ("--clip", "nan"), ("--heldout-fraction", "1.5"),
        ("--heldout-fraction", "1"), ("--heldout-fraction", "-0.1"),
        ("--heldout-fraction", "nan")])
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


def _posterior_file(tmp_path):
    """A two-frame text posterior over two of CORPUS's characters."""
    path = tmp_path / "post.txt"
    write_posteriors_text(path, PosteriorMatrix(
        labels=["a", "b", BLANK_LABEL],
        probs=[[0.5, 0.3, 0.2], [0.25, 0.5, 0.25]]))
    return path


def _valid_args(command, trained_dir, corpus_file, tmp_path):
    """Flags that make command run to exit 0 on this file's fixtures."""
    ckpt = str(trained_dir / "checkpoint.bin")
    return {
        "train": ["--corpus", str(corpus_file), "--hidden", "2",
                  "--epochs", "1", "--bptt", "8", "--batch", "2",
                  "--output-dir", str(tmp_path / "run")],
        "eval": ["--checkpoint", ckpt, "--corpus", str(corpus_file)],
        "sample": ["--checkpoint", ckpt, "--length", "5"],
        "decode": ["--checkpoint", ckpt,
                   "--posterior", str(_posterior_file(tmp_path)),
                   "--nbest", "1", "--output-dir", str(tmp_path / "nbest")],
        "gradcheck": ["--corpus", str(corpus_file), "--variant", "hlstm_b",
                      "--hidden", "2"],
    }[command]


def test_every_key_is_read(trained_dir, corpus_file, tmp_path, monkeypatch):
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve",
                        lambda args, command: Recording(resolve(args, command)))
    for command, keyset in cli._KEYSETS.items():
        read.clear()
        args = _valid_args(command, trained_dir, corpus_file, tmp_path)
        assert main([command, *args]) == 0, command
        assert read == set(keyset), command


@pytest.mark.parametrize("command", ["eval", "sample", "decode"])
def test_checkpoint_without_vocabulary_is_data_error(
        trained_dir, corpus_file, tmp_path, capsys, command):
    bare = tmp_path / "bare.bin"
    net = build_network(NetworkSpec.for_vocab("hlstm_b", build_vocab(CORPUS),
                                              2))
    save_checkpoint(bare, net)  # no vocabulary
    args = _valid_args(command, trained_dir, corpus_file, tmp_path)
    args[args.index("--checkpoint") + 1] = str(bare)
    assert main([command, *args]) == 2
    assert capsys.readouterr().err == \
        "error: checkpoint carries no vocabulary\n"


@pytest.mark.parametrize("command, key, value", [
    ("eval", "seed", "3"), ("eval", "output_dir", "out"),
    ("eval", "mode", "byte"), ("sample", "output_dir", "out"),
    ("decode", "seed", "3"), ("gradcheck", "output_dir", "out")])
def test_removed_key_is_rejected(trained_dir, corpus_file, tmp_path, capsys,
                                 command, key, value):
    args = [command, *_valid_args(command, trained_dir, corpus_file,
                                  tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--" + key.replace("_", "-"), value]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert main(args + ["--config", str(cfg)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "sample", "decode"])
def test_checkpoint_directory_is_data_error(tmp_path, capsys, command):
    assert main([command, "--checkpoint", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "is a directory" in err and "Errno" not in err
