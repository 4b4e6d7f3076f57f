"""Command-line entry point: train / eval / sample / decode / gradcheck.

Every subcommand reads a flat key=value config file (``--config``) whose
keys mirror the command-line flags one to one; flags override file values.
A subcommand accepts only the keys its handler reads: any other key, as a
flag or in the file, is rejected.  All randomness flows from the single
``seed`` key.

Exit codes: 0 success, 1 usage/config error, 2 data/format or file-system
error, 3 numeric failure (``_EXIT_CODES``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .corpus import build_vocab, save_vocab, split_heldout, \
    tokenize_lines
from .decoding import DecodeConfig, DecodeResult, beam_search, read_posteriors
from .errors import ConfigError, DataError, HrnnlmError, NumericError, \
    check_count
from .evaluation import evaluate, format_report_table, sample
from .files import atomic_write, read_text
from .hierarchy import NetworkSpec, build_network
from .training import TrainConfig, gradient_check, load_checkpoint, \
    train

# key -> (type, default, help); shared across config files and flags.  A
# default that a config class or the spec defines is read from there.
_KEYS = {
    "seed": (int, TrainConfig.seed, "seed for all randomness"),
    "output_dir": (str, ".", "directory for produced artifacts"),
    "corpus": (str, None, "path to a UTF-8 text file, one sentence per line"),
    "mode": (str, "char", "vocabulary mode: char or byte"),
    "uppercase": (bool, False, "uppercase the corpus before tokenizing"),
    "variant": (str, "hlstm_b", "mono | hlstm_a | hlstm_b"),
    "hidden": (str, "16", "hidden units per layer (int or comma list)"),
    "layers_per_module": (int, NetworkSpec.layers_per_module,
                          "LSTM layers per module"),
    "heldout_fraction": (float, 0.01, "fraction of lines held out, in "
                                      "[0, 1); 0 holds none out"),
    "bptt": (int, TrainConfig.bptt_length, "truncation window length"),
    "batch": (int, TrainConfig.batch_size, "parallel sequence streams"),
    "rho": (float, TrainConfig.adadelta_rho, "squared-average decay"),
    "eps": (float, TrainConfig.adadelta_eps, "rms stabilizer"),
    "momentum": (float, TrainConfig.momentum, "Nesterov momentum"),
    "clip": (float, TrainConfig.clip_norm,
             "global gradient-norm clip; 0 disables"),
    "epochs": (int, TrainConfig.max_epochs, "training epochs"),
    "timing": (bool, False, "record wall time in the metrics CSV (makes "
                            "reruns non-identical)"),
    "checkpoint": (str, None, "model checkpoint path"),
    "csv_out": (str, "", "also append a CSV row to this path"),
    "length": (int, 200, "characters to draw"),
    "prime": (str, "", "prompt text"),
    "temperature": (float, 1.0, "sampling temperature"),
    "posterior": (str, None, "frame-posterior file (text or binary)"),
    "beam": (int, DecodeConfig.beam_width, "beam width"),
    "lm_weight": (float, DecodeConfig.lm_weight, "language-model weight"),
    "insertion_bonus": (float, DecodeConfig.insertion_bonus,
                        "per-character insertion bonus"),
    "width_prune": (float, DecodeConfig.width_prune,
                    "drop labels below this frame posterior"),
    "depth_prune": (int, 0, "max transcript length; 0 = unlimited"),
    "nbest": (int, 0, "write an n-best CSV with this many rows"),
    "tolerance": (float, 1e-4, "max relative error allowed"),
}

# Each command accepts exactly the keys its handler reads.
_CORPUS = "corpus mode uppercase"
_SPEC = "variant hidden layers_per_module"
_COMMAND_KEYS = {
    "train": f"seed output_dir {_CORPUS} {_SPEC} heldout_fraction bptt batch "
             "rho eps momentum clip epochs timing",
    "eval": "checkpoint corpus uppercase csv_out",
    "sample": "seed checkpoint length prime temperature",
    "decode": "output_dir checkpoint posterior beam lm_weight insertion_bonus "
              "width_prune depth_prune nbest",
    "gradcheck": f"seed {_CORPUS} {_SPEC} tolerance",
}
_KEYSETS = {cmd: {key: _KEYS[key] for key in names.split()}
            for cmd, names in _COMMAND_KEYS.items()}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_value(key: str, raw: str, typ):
    if typ is bool:
        low = str(raw).strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, "
                          f"got {raw!r}")
    try:
        return typ(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} "
                          f"as {typ.__name__}") from None


def load_config_file(path: str, keyset: dict) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    lines = read_text(path, ConfigError, "config file").split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in keyset:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw.strip(), keyset[key][0])
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrnnlm",
        description="hierarchical character-level language model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, keys in _KEYSETS.items():
        p = sub.add_parser(cmd)
        p.add_argument("--config", default=None,
                       help="flat key=value config file")
        for key, (typ, default, help_text) in keys.items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, default=None, metavar="BOOL",
                               help=help_text)
            else:
                p.add_argument(flag, type=str, default=None, help=help_text)
    return parser


def _resolve(args, command: str) -> dict:
    keyset = _KEYSETS[command]
    values = {k: default for k, (_, default, _) in keyset.items()}
    if args.config:
        values.update(load_config_file(args.config, keyset))
    for key, (typ, _, _) in keyset.items():
        raw = getattr(args, key)
        if raw is not None:
            values[key] = _parse_value(key, raw, typ)
    return values


def _require_path(values: dict, key: str) -> str:
    path = values.get(key)
    if not path:
        raise ConfigError(f"missing required option {key!r}")
    if not os.path.exists(path):
        raise ConfigError(f"{key} path does not exist: {path}")
    return path


def _read_corpus(values: dict) -> str:
    text = read_text(_require_path(values, "corpus"), DataError, "corpus")
    if values.get("uppercase"):
        text = text.upper()
    return text


def _load_model(values: dict):
    """The (network, vocabulary) of the ``checkpoint`` key; a checkpoint
    that carries no vocabulary raises DataError."""
    net, vocab = load_checkpoint(_require_path(values, "checkpoint"))
    if vocab is None:
        raise DataError("checkpoint carries no vocabulary")
    return net, vocab


def _spec_from(values: dict, vocab) -> NetworkSpec:
    hidden = [_parse_value("hidden", h, int)
              for h in str(values["hidden"]).split(",")]
    if len(hidden) == 1:
        hidden = hidden[0]
    return NetworkSpec.for_vocab(values["variant"], vocab, hidden,
                                 layers_per_module=values["layers_per_module"])


def _cmd_train(values: dict) -> int:
    fraction = values["heldout_fraction"]
    if not 0.0 <= fraction < 1.0:  # NaN fails too
        raise ConfigError(f"heldout_fraction must be in [0, 1), got {fraction}")
    text = _read_corpus(values)
    vocab = build_vocab(text, values["mode"])
    lines = tokenize_lines(text, vocab)
    if len(lines) >= 2 and fraction > 0.0:
        train_seqs, heldout = split_heldout(lines, fraction)
    else:
        train_seqs, heldout = lines, None
    spec = _spec_from(values, vocab)
    config = TrainConfig(bptt_length=values["bptt"],
                         batch_size=values["batch"],
                         adadelta_rho=values["rho"],
                         adadelta_eps=values["eps"],
                         momentum=values["momentum"],
                         max_epochs=values["epochs"], seed=values["seed"],
                         clip_norm=values["clip"] or None)
    out = values["output_dir"]
    os.makedirs(out, exist_ok=True)
    save_vocab(vocab, os.path.join(out, "vocab.txt"))
    result = train(spec, train_seqs, config, heldout=heldout, vocab=vocab,
                   checkpoint_path=os.path.join(out, "checkpoint.bin"),
                   metrics_path=os.path.join(out, "metrics.csv"),
                   record_timing=values["timing"], log=print)
    last = result.metrics[-1]
    held = ("" if last.heldout_bpc is None
            else f", heldout bpc {last.heldout_bpc:.4f}")
    print(f"done: {len(result.metrics)} epochs, "
          f"train bpc {last.train_bpc:.4f}{held}")
    print(f"artifacts in {out}: checkpoint.bin, metrics.csv, vocab.txt")
    return 0


def _cmd_eval(values: dict) -> int:
    net, vocab = _load_model(values)
    text = _read_corpus(values)
    seqs = tokenize_lines(text, vocab)
    dims = "x".join(str(h) for h in net.spec.hidden_dim)
    report = evaluate(net, seqs, n_params=net.param_count(),
                      size_label=f"{net.spec.variant} {dims}")
    print(format_report_table([report]))
    if values["csv_out"]:
        new = not os.path.exists(values["csv_out"])
        with open(values["csv_out"], "a") as f:
            if new:
                f.write(report.csv_header() + "\n")
            f.write(report.csv_row() + "\n")
    return 0


def _cmd_sample(values: dict) -> int:
    net, vocab = _load_model(values)
    text = sample(net, vocab, length=values["length"],
                  prime=values["prime"], temperature=values["temperature"],
                  seed=values["seed"])
    print(text)
    return 0


def _cmd_decode(values: dict) -> int:
    check_count("nbest", values["nbest"], 0)
    net, vocab = _load_model(values)
    post = read_posteriors(_require_path(values, "posterior"))
    config = DecodeConfig(beam_width=values["beam"],
                          lm_weight=values["lm_weight"],
                          insertion_bonus=values["insertion_bonus"],
                          width_prune=values["width_prune"],
                          depth_prune=values["depth_prune"] or None)
    results = beam_search(post, net, vocab, config)
    print(results[0].text)
    if values["nbest"]:
        out = values["output_dir"]
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "nbest.csv")
        with atomic_write(path) as f:
            f.write(DecodeResult.csv_header() + "\n")
            for r in results[:values["nbest"]]:
                f.write(r.csv_row() + "\n")
        print(f"n-best list written to {path}", file=sys.stderr)
    return 0


def _cmd_gradcheck(values: dict) -> int:
    text = _read_corpus(values)
    vocab = build_vocab(text, values["mode"])
    lines = tokenize_lines(text, vocab)
    seq = max(lines, key=lambda s: s.n_chars)
    spec = _spec_from(values, vocab)
    net = build_network(spec, rng_seed=values["seed"])
    if net.param_count() > 10_000:
        raise ConfigError(
            f"gradient check wants a tiny network (<= 10k parameters), "
            f"this spec has {net.param_count():,}")
    report = gradient_check(net, seq.ids, tolerance=values["tolerance"])
    print(f"checked {report.n_params} parameters on a {seq.n_chars}-token "
          f"sequence")
    print(f"max relative error {report.max_rel_error:.3e} "
          f"(worst block {report.worst_block}), tolerance "
          f"{report.tolerance:.1e}")
    if not report.passed:
        raise NumericError(
            f"gradient check failed: {report.max_rel_error:.3e} > "
            f"{report.tolerance:.1e}")
    print("gradient check passed")
    return 0


# The exit code of an error: the first entry whose type it is.
_EXIT_CODES = ((NumericError, 3), (DataError, 2), (OSError, 2),
               (HrnnlmError, 1))

_HANDLERS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sample": _cmd_sample,
    "decode": _cmd_decode,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        values = _resolve(args, args.command)
        return _HANDLERS[args.command](values)
    except (HrnnlmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for typ, code in _EXIT_CODES if isinstance(e, typ))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
