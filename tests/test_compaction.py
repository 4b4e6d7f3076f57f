"""Property test for the row compaction of ``Network.forward``/``backward``.

A batched window computes only the rows that tick: character layers the
rows active at a step, word layers the rows whose word clock is high.  Since a row's state advances only at its active positions, one
batched forward plus backward must equal B separate one-row runs over
each row's active positions, from the same warm start, within 1e-12
relative: the probabilities at active positions, the final states, and
the gradients summed over the rows.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from hrnnlm.corpus import build_vocab
from hrnnlm.hierarchy import VARIANTS, NetworkSpec, build_network

VOCAB = build_vocab("abc def gh")
LETTERS = [i for i in range(VOCAB.size) if i not in VOCAB.boundary_ids]
BOUNDARIES = sorted(VOCAB.boundary_ids)


def _spec(variant):
    if variant == "mono":
        return NetworkSpec(variant="mono", vocab_size=VOCAB.size,
                           hidden_dim=[3, 4])
    return NetworkSpec.for_vocab(variant, VOCAB, [3, 4, 2, 3])


def _close(got, want, rtol=1e-12):
    """Equal within rtol relative to the largest magnitude of ``want``."""
    assert got.shape == want.shape
    scale = float(np.abs(want).max()) if want.size else 0.0
    assert np.all(np.abs(got - want) <= rtol * scale), (got, want)


def _mask(kind, idle, B, T, rng):
    if kind == "leading":  # as batch_sequences makes them
        mask = np.arange(T)[None, :] < rng.integers(0, T + 1, size=B)[:, None]
    else:
        mask = rng.random((B, T)) < 0.6
    mask[rng.permutation(B)[:idle]] = False
    return mask


@settings(max_examples=80, deadline=None)
@given(variant=st.sampled_from(VARIANTS), B=st.integers(1, 5),
       T=st.integers(0, 9), kind=st.sampled_from(["leading", "random"]),
       idle=st.integers(0, 2), words=st.sampled_from(["none", "some", "many"]),
       seed=st.integers(0, 2**31 - 1))
@example(variant="hlstm_b", B=5, T=8, kind="leading", idle=1, words="some",
         seed=0)
@example(variant="hlstm_a", B=4, T=7, kind="random", idle=1, words="many",
         seed=1)
@example(variant="mono", B=3, T=6, kind="leading", idle=0, words="none",
         seed=2)
def test_batched_window_equals_one_row_runs(variant, B, T, kind, idle, words,
                                            seed):
    rng = np.random.default_rng(seed)
    net = build_network(_spec(variant), rng_seed=seed % 1000)
    for arr in net.named_blocks().values():  # livelier gates than 0.08
        arr[...] *= 6.0
    ids = rng.choice(LETTERS, size=(B, T))
    if words != "none":  # boundaries: mixed word clocks and resets
        hit = rng.random((B, T)) < (0.3 if words == "some" else 0.8)
        ids[hit] = rng.choice(BOUNDARIES, size=hit.sum())
    active = _mask(kind, min(idle, B), B, T, rng)
    # A warm start, so the first step sees non-zero states.
    _, warm, _ = net.forward(rng.choice(LETTERS + BOUNDARIES, size=(B, 3)))

    probs, final, tape = net.forward(ids, state=warm, active=active,
                                     collect_tape=True)
    assert not probs[~active].any()  # 0 where nothing was computed
    d_logits = probs * rng.uniform(-1.0, 1.0, size=probs.shape)
    grads = net.backward(tape, d_logits)

    want_grads = np.zeros_like(net.flat)
    for b in range(B):
        row_ids = ids[b, active[b]]
        row_probs, row_final, row_tape = net.forward(
            row_ids, state=warm.take([b]), collect_tape=True)
        _close(probs[b, active[b]], row_probs)
        for name, cell in row_final.layers.items():
            _close(final.layers[name].m[b], cell.m[0])
            _close(final.layers[name].h[b], cell.h[0])
        want_grads += net.backward(row_tape, d_logits[b, active[b]]).flat
    want = net._blocks(*net._views(want_grads), want_grads)
    for name in want:
        _close(grads[name], want[name])
