"""Checkpoint format v1: round trips, a file from the format's first
writer, and damaged files that must raise CheckpointError and nothing else
(corrupted ones: load, or raise a DataError).

``data/checkpoint_v1_hlstm_a.bin`` was written by the per-block
implementation that preceded the packed parameter buffer, from
``build_network(NetworkSpec.for_vocab("hlstm_a", build_vocab(TEXT),
[3, 4, 2, 5]), rng_seed=11)``; ``data/checkpoint_v1_hlstm_a_probs.npy``
holds that network's ``forward`` probabilities on ``tokenize(TEXT)``.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import corrupt
from hrnnlm.cells import LstmParams
from hrnnlm.cli import main
from hrnnlm.corpus import build_vocab, byte_vocab, tokenize
from hrnnlm.errors import CheckpointError, DataError
from hrnnlm.hierarchy import Network, NetworkSpec, build_network
from hrnnlm.training import load_checkpoint, save_checkpoint

DATA = Path(__file__).resolve().parent / "data"
TEXT = "ab cd ba dc"
VOCAB = build_vocab(TEXT)


def test_file_from_the_first_writer_loads_unchanged(tmp_path):
    path = DATA / "checkpoint_v1_hlstm_a.bin"
    net, vocab = load_checkpoint(path)
    assert vocab.symbols == VOCAB.symbols
    fresh = build_network(
        NetworkSpec.for_vocab("hlstm_a", VOCAB, [3, 4, 2, 5]), rng_seed=11)
    assert net.spec == fresh.spec
    # the same seed still draws the same parameters, block by block
    for (ka, a), (kb, b) in zip(net.named_blocks().items(),
                                fresh.named_blocks().items()):
        assert ka == kb and np.array_equal(a, b), ka
    ids = tokenize(TEXT, vocab).ids
    probs, _, _ = net.forward(ids)
    np.testing.assert_array_equal(probs, fresh.forward(ids)[0])
    want = np.load(DATA / "checkpoint_v1_hlstm_a_probs.npy")
    assert np.all(np.abs(probs - want) <= 1e-12 * want)
    # and writing those values gives the first writer's bytes
    save_checkpoint(tmp_path / "again.bin", fresh, VOCAB)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def _hidden(variant):
    layers = 2 if variant == "mono" else 4
    return st.lists(st.integers(1, 5), min_size=layers, max_size=layers)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), variant=st.sampled_from(["mono", "hlstm_a", "hlstm_b"]),
       byte_mode=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_round_trip_every_variant(tmp_path_factory, data, variant, byte_mode,
                                  seed):
    vocab = byte_vocab() if byte_mode else VOCAB
    hidden = data.draw(_hidden(variant))
    spec = NetworkSpec.for_vocab(variant, vocab, hidden)
    net = build_network(spec, rng_seed=seed)
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(path, net, vocab)
    loaded, loaded_vocab = load_checkpoint(path)
    assert loaded.spec == spec
    assert loaded_vocab.mode == vocab.mode
    assert loaded_vocab.symbols == vocab.symbols
    assert np.array_equal(loaded.flat, net.flat)
    ids = tokenize("ab cd" if not byte_mode else "aé b", vocab).ids
    np.testing.assert_array_equal(loaded.forward(ids)[0],
                                  net.forward(ids)[0])
    again = path.with_name("again.bin")
    save_checkpoint(again, loaded, loaded_vocab)
    assert again.read_bytes() == path.read_bytes()


def test_load_draws_no_random_initialization(tmp_path, monkeypatch):
    net = build_network(NetworkSpec.for_vocab("hlstm_b", VOCAB, 3),
                        rng_seed=4)
    save_checkpoint(tmp_path / "m.bin", net, VOCAB)

    def refuse(*args, **kw):
        raise AssertionError("load_checkpoint drew an initialization")

    monkeypatch.setattr(LstmParams, "fill_uniform", refuse)
    loaded, _ = load_checkpoint(tmp_path / "m.bin")
    assert np.array_equal(loaded.flat, net.flat)
    assert not Network(net.spec, init_scale=0.0).flat.any()


# ---------------------------------------------------------------------------
# Damaged files
# ---------------------------------------------------------------------------

def _split(data: bytes):
    """(bytes before the block count, [(name, record bytes)]) of a file."""
    pos = 8 + 4
    (hlen,) = struct.unpack_from("<I", data, pos)
    pos += 4 + hlen
    head = data[:pos]
    (n,) = struct.unpack_from("<I", data, pos)
    pos += 4
    records = []
    for _ in range(n):
        start = pos
        (nlen,) = struct.unpack_from("<I", data, pos)
        name = data[pos + 4:pos + 4 + nlen].decode()
        pos += 4 + nlen
        (ndim,) = struct.unpack_from("<I", data, pos)
        shape = struct.unpack_from(f"<{ndim}Q", data, pos + 4)
        pos += 4 + 8 * ndim + 8 * int(np.prod(shape))
        records.append((name, data[start:pos]))
    assert pos == len(data)
    return head, records


def _join(head: bytes, records) -> bytes:
    return (head + struct.pack("<I", len(records))
            + b"".join(r for _, r in records))


@pytest.fixture
def saved(tmp_path):
    net = build_network(NetworkSpec.for_vocab("hlstm_b", VOCAB, 2),
                        rng_seed=6)
    path = tmp_path / "model.bin"
    save_checkpoint(path, net, VOCAB)
    return path


def test_repeated_block_rejected(saved):
    head, records = _split(saved.read_bytes())
    names = [n for n, _ in records]
    records[names.index("softmax.b")] = records[names.index("softmax.W")]
    saved.write_bytes(_join(head, records))
    with pytest.raises(CheckpointError, match="softmax.W"):
        load_checkpoint(saved)


def test_missing_block_rejected(saved):
    head, records = _split(saved.read_bytes())
    del records[[n for n, _ in records].index("word1.b_f")]
    saved.write_bytes(_join(head, records))
    with pytest.raises(CheckpointError):
        load_checkpoint(saved)


def test_trailing_bytes_rejected(saved):
    saved.write_bytes(saved.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(saved)


@pytest.mark.parametrize("value", [None, np.nan, np.inf, -np.inf, 2e154])
def test_non_finite_block_rejected(tmp_path, value):
    data = bytearray((DATA / "checkpoint_v1_hlstm_a.bin").read_bytes())
    if value is None:  # one flipped exponent bit: 0.0755 -> 1.36e307
        data[-1] ^= 0x40
    else:  # softmax.b's last number
        data[-8:] = struct.pack("<d", value)
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="softmax.b"):
        load_checkpoint(path)
    assert main(["sample", "--checkpoint", str(path)]) == 2
    load_checkpoint(DATA / "checkpoint_v1_hlstm_a.bin")  # the file itself


def test_cut_at_any_offset_raises_only_checkpoint_error(tmp_path):
    net = build_network(NetworkSpec.for_vocab("hlstm_b", build_vocab("a b"),
                                              1), rng_seed=2)
    path = tmp_path / "model.bin"
    save_checkpoint(path, net, build_vocab("a b"))
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)


def _with_header(data: bytes, edit) -> bytes:
    """data with its JSON header replaced by ``edit(header)``."""
    (hlen,) = struct.unpack_from("<I", data, 12)
    header = json.loads(data[16:16 + hlen])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    return data[:12] + struct.pack("<I", len(blob)) + blob + data[16 + hlen:]


# The file's sizes as a mono spec: its four layers in one level.  Its
# boundary ids (4 and 5) are valid, so only the ids a case sets are wrong.
MONO = {"variant": "mono", "levels": 1, "layers_per_module": 4}


@pytest.mark.parametrize("key, value", [
    ("variant", "hlstm_x"), ("levels", 3), ("layers_per_module", 0),
    ("hidden_dim", [3, -4, 2, 5]), ("word_boundary_id", 9),
    ("hidden_dim", [3.7, 4, 2, 5]), ("hidden_dim", [3.0, 4, 2, 5]),
    ("vocab_size", 6.5), ("word_boundary_id", 4.0),
    ("layers_per_module", True),
    # "spec": fields set together, here a mono spec's boundary ids
    ("spec", {**MONO, "word_boundary_id": 6.5}),
    ("spec", {**MONO, "sentence_boundary_id": "x"}),
    ("spec", {**MONO, "word_boundary_id": 9, "sentence_boundary_id": 9}),
    ("spec", {**MONO, "word_boundary_id": 5})])
def test_invalid_header_spec_is_checkpoint_error(tmp_path, key, value):
    path = tmp_path / "bad.bin"
    path.write_bytes(_with_header(
        (DATA / "checkpoint_v1_hlstm_a.bin").read_bytes(),
        lambda h: h["spec"].update(value if key == "spec" else {key: value})))
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(path)
    assert main(["sample", "--checkpoint", str(path)]) == 2


def test_mono_header_with_valid_ids_passes_the_header(tmp_path):
    """The mono cases above fail on their ids alone: with the file's own
    ids the header is read, and only the blocks' names do not fit."""
    path = tmp_path / "mono.bin"
    path.write_bytes(_with_header(
        (DATA / "checkpoint_v1_hlstm_a.bin").read_bytes(),
        lambda h: h["spec"].update(MONO)))
    with pytest.raises(CheckpointError, match="unexpected block"):
        load_checkpoint(path)


def test_header_symbol_that_is_not_a_string(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(_with_header(
        (DATA / "checkpoint_v1_hlstm_a.bin").read_bytes(),
        lambda h: h["vocab"]["symbols"].__setitem__(0, 1)))
    with pytest.raises(CheckpointError, match="not a string"):
        load_checkpoint(path)


@pytest.mark.parametrize("vocab", [
    {"mode": "char", "symbols": None},
    {"mode": "char", "symbols": list(byte_vocab().symbols)},
    {"mode": "byte", "symbols": list(VOCAB.symbols)},
    {"mode": "xyz", "symbols": list(VOCAB.symbols)},
    {"mode": "xyz", "symbols": None}])
def test_header_mode_must_be_the_symbols_mode(tmp_path, vocab):
    path = tmp_path / "bad.bin"
    path.write_bytes(_with_header(
        (DATA / "checkpoint_v1_hlstm_a.bin").read_bytes(),
        lambda h: h.update(vocab=vocab)))
    with pytest.raises(CheckpointError, match="mode"):
        load_checkpoint(path)


def test_boundary_ids_must_match_the_vocabulary(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(_with_header(
        (DATA / "checkpoint_v1_hlstm_a.bin").read_bytes(),
        lambda h: h["spec"].update(word_boundary_id=3)))
    with pytest.raises(CheckpointError, match="boundary"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A small hlstm_b checkpoint and the committed v1 file, as bytes."""
    path = tmp_path_factory.mktemp("small") / "model.bin"
    save_checkpoint(path, build_network(
        NetworkSpec.for_vocab("hlstm_b", VOCAB, 2), rng_seed=6), VOCAB)
    return {"small": path.read_bytes(),
            "v1": (DATA / "checkpoint_v1_hlstm_a.bin").read_bytes()}


@settings(max_examples=300, deadline=None)
@given(source=st.sampled_from(["small", "v1"]), seed=st.integers(0, 2**32 - 1),
       n_bytes=st.integers(1, 4), span=st.sampled_from([300, 1 << 30]))
@example(source="v1", seed=11, n_bytes=1, span=300)  # spec: ConfigError
@example(source="v1", seed=392, n_bytes=1, span=300)  # length: MemoryError
def test_corrupt_bytes_load_or_raise_data_error(tmp_path_factory, originals,
                                                source, seed, n_bytes, span):
    path = tmp_path_factory.mktemp("bad") / "model.bin"
    path.write_bytes(corrupt(originals[source], seed, n_bytes, span))
    try:
        load_checkpoint(path)
    except DataError:
        pass
