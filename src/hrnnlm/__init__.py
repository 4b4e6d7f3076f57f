"""Hierarchical multi-timescale character-level language models.

A numpy library providing:

* clocked/reset LSTM cells with analytic gradients,
* two-timescale character/word LSTM stacks and a mono baseline,
* truncated-BPTT training with ADADELTA + Nesterov momentum,
* bits-per-character / word-perplexity evaluation and text sampling,
* CTC prefix beam-search decoding fused with the character model.
"""

from .corpus import (SENTENCE_BOUNDARY, WORD_BOUNDARY, TokenSequence,
                     Vocabulary, build_vocab, byte_vocab, detokenize,
                     load_vocab, save_vocab, split_heldout, tokenize,
                     tokenize_lines)
from .cells import (LstmCell, LstmParams, LstmState, clocked_reset_step,
                    clocked_step, init_lstm_params, lstm_step, sigmoid,
                    softmax)
from .hierarchy import (ClockPlan, Network, NetworkSpec, NetworkState,
                        build_network, derive_clocks)
from .training import (Batch, GradCheckReport, OptimizerState, TrainConfig,
                       TrainResult, adadelta_nesterov_update, batch_sequences,
                       gradient_check, load_checkpoint, save_checkpoint,
                       train)
from .evaluation import (EvalReport, bpc, evaluate, format_report_table,
                         ppl_from_bpc, sample)
from .decoding import (BLANK_LABEL, DecodeConfig, DecodeResult,
                       PosteriorMatrix, beam_search, read_posteriors,
                       read_posteriors_binary, read_posteriors_text, wer,
                       write_posteriors_binary, write_posteriors_text)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "SENTENCE_BOUNDARY", "WORD_BOUNDARY", "TokenSequence", "Vocabulary",
    "build_vocab", "byte_vocab", "detokenize", "load_vocab", "save_vocab",
    "split_heldout", "tokenize", "tokenize_lines",
    "LstmCell", "LstmParams", "LstmState", "clocked_reset_step",
    "clocked_step", "init_lstm_params", "lstm_step",
    "sigmoid", "softmax",
    "ClockPlan", "Network", "NetworkSpec", "NetworkState", "build_network",
    "derive_clocks",
    "Batch", "GradCheckReport", "OptimizerState", "TrainConfig",
    "TrainResult", "adadelta_nesterov_update", "batch_sequences",
    "gradient_check", "load_checkpoint", "save_checkpoint", "train",
    "EvalReport", "bpc", "evaluate", "format_report_table", "ppl_from_bpc",
    "sample",
    "BLANK_LABEL", "DecodeConfig", "DecodeResult",
    "PosteriorMatrix", "beam_search", "read_posteriors",
    "read_posteriors_binary", "read_posteriors_text", "wer",
    "write_posteriors_binary", "write_posteriors_text",
    "errors",
]
