"""Score sentence pairs with a model: cross-entropy, perplexity, BLEU.

Run:  python demos/02_difficulty_metrics.py
"""

from curricula import (
    Strategy,
    build_vocab,
    encode_corpus,
    generate_toy_corpus,
    init_params,
    make_ordering,
    ModelConfig,
    fit,
    TrainConfig,
    pair_bleu,
    pair_cross_entropy,
    pair_perplexity,
    score_corpus,
    sentence_bleu,
)

# Sentence BLEU works on any token sequences.
print("identical:", sentence_bleu("a b c d".split(), "a b c d".split()))
print("partial:  ", round(sentence_bleu("a b c d".split(), "a b x d".split()), 4))
print("disjoint: ", sentence_bleu("a b".split(), "x y".split()))

# Model-based metrics need a pre-trained scorer. Train a tiny one, briefly.
train, val, test = generate_toy_corpus("copy", size=120, vocab=8, length_range=(3, 6), seed=2)
src_vocab = build_vocab(train, "source", 1)
tgt_vocab = build_vocab(train, "target", 1)
train_enc = encode_corpus(train, src_vocab, tgt_vocab)
val_enc = encode_corpus(val, src_vocab, tgt_vocab)

config = ModelConfig.preset("tiny", len(src_vocab), len(tgt_vocab))
plan = make_ordering(Strategy("shuffle_every_epoch"), None, train.indices(), 8, seed=0)
# The checkpoint takes its vocabulary fingerprints from the pairs, and its
# history holds one record per epoch run.
scorer, history, best_epoch = fit(
    init_params(config, seed=0),
    config,
    plan,
    train_enc,
    val_enc,
    TrainConfig(learning_rate=3e-3, batch_size=16, max_epochs=8, patience=8, seed=0),
)
print(f"\nscorer converged at epoch {best_epoch}, "
      f"val ppl {history[best_epoch - 1]['val_perplexity']:.2f}")

pair = train_enc[0]
h = pair_cross_entropy(scorer, pair)
print(f"pair 0 cross-entropy: {h:.3f} bits/token")
print(f"pair 0 perplexity:    {pair_perplexity(scorer, pair):.3f}  (= 2^H)")
print(f"pair 0 BLEU:          {pair_bleu(scorer, pair):.3f}")

# A ScoreTable covers the whole corpus and remembers which model scored it.
table = score_corpus(scorer, train_enc, "ppl")
values = sorted(s.value for s in table.scores)
print(f"\nppl scores: min {values[0]:.2f}, median {values[len(values) // 2]:.2f}, "
      f"max {values[-1]:.2f}")
print("scorer fingerprint:", table.scorer_fingerprint[:16], "...")
