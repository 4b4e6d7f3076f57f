"""Train a tiny two-timescale model and sample text from it.

The corpus is a handful of sentences over a five-word vocabulary; a couple
hundred epochs of ADADELTA + Nesterov momentum drive the training loss far
below the word-order entropy, i.e. the model memorizes the corpus.  Takes
about ten seconds on one CPU core.
"""

import numpy as np

from hrnnlm.corpus import build_vocab, tokenize_lines
from hrnnlm.evaluation import sample
from hrnnlm.hierarchy import NetworkSpec
from hrnnlm.training import TrainConfig, train

WORDS = ["orbit", "planet", "comet", "nebula", "quasar"]
rng = np.random.default_rng(7)
lines = [" ".join(WORDS[i] for i in rng.integers(0, 5, size=32))
         for _ in range(2)]
text = "\n".join(lines) + "\n"
print("training corpus:")
print(text)

vocab = build_vocab(text)
seqs = tokenize_lines(text, vocab)
spec = NetworkSpec.for_vocab("hlstm_b", vocab, 16)
config = TrainConfig(bptt_length=48, batch_size=2, max_epochs=150, seed=0,
                     momentum=0.95, clip_norm=1.0)


def progress(msg):
    epoch = int(msg.split()[1])
    if epoch % 20 == 0:
        print(msg)


result = train(spec, seqs, config, log=progress)
print(f"\nfinal train BPC: {result.metrics[-1].train_bpc:.3f} "
      f"(uniform would be {np.log2(vocab.size):.3f})")

prime = " ".join(lines[0].split()[:2]) + " "
print(f"\ntraining line starts: {lines[0][:60]!r}...")
print(f"greedy continuation of the first two words (low temperature):")
print(sample(result.network, vocab, length=48, prime=prime,
             temperature=0.05, seed=1))
print("diverse continuation (temperature 1):")
print(sample(result.network, vocab, length=48, prime=prime,
             temperature=1.0, seed=1))
