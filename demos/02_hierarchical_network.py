"""Anatomy of a two-timescale network.

Derives the word-level clock from a token sequence, builds the two
character/word variants, prints their wiring tables and sizes, and shows
that streaming one token at a time reproduces the whole-sequence forward
pass exactly (the property beam-search hypothesis branching relies on).
"""

import numpy as np

from hrnnlm.corpus import build_vocab, tokenize
from hrnnlm.hierarchy import NetworkSpec, build_network, derive_clocks

text = "the cat sat"
vocab = build_vocab(text)
seq = tokenize(text, vocab)
print(f"corpus {text!r} -> vocabulary of {vocab.size} symbols")
print("token ids:", seq.ids.tolist())

c1, c2 = derive_clocks(seq.ids, vocab)
print("\nclock rows (level 1 = characters, level 2 = words):")
print("  c1 =", c1.tolist(), " (every step)")
print("  c2 =", c2.tolist(), " (word/sentence boundaries)")
print("  r1 =", c2.tolist(), " (char module resets under c2)")

for variant in ("hlstm_a", "hlstm_b"):
    spec = NetworkSpec.for_vocab(variant, vocab, 8)
    net = build_network(spec, rng_seed=1)
    print(f"\n{variant}: {net.param_count():,} parameters")
    for src, dst, delay in net.connections():
        lag = "one step late" if delay else "same step"
        print(f"  {src:>9s} -> {dst:<8s} ({lag})")

net = build_network(NetworkSpec.for_vocab("hlstm_b", vocab, 8), rng_seed=1)
probs, final, _ = net.forward(seq.ids)
state = net.init_state(1)
streamed = []
for tok in seq.ids:
    p, state = net.step(state, int(tok))
    streamed.append(p)
print("\nstreaming == whole-sequence forward:",
      bool(np.array_equal(np.stack(streamed), probs)))

branch = state.clone()
p0, _ = net.step(state, 0)
net.step(branch, 1)  # branching the clone leaves the original untouched
p1, _ = net.step(state, 0)
print("cloned state branches independently:",
      bool(np.array_equal(p0, p1)))
