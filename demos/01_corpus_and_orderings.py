"""Build a corpus, score it, and materialize the ten ordering patterns.

Run:  python demos/01_corpus_and_orderings.py
"""

import numpy as np

from curricula import (
    Strategy,
    build_vocab,
    encode_corpus,
    generate_toy_corpus,
    make_ordering,
    schedule_batches,
    score_corpus,
    table_one_strategies,
    verify_plan,
)

# A deterministic toy corpus: 200 digit-string pairs, target = reversed source.
train, val, test = generate_toy_corpus(
    "reverse", size=200, vocab=10, length_range=(3, 8), seed=1
)
print(f"{len(train)} train / {len(val)} val / {len(test)} test pairs")
print("first pair:", " ".join(train[0].src_tokens), "->", " ".join(train[0].tgt_tokens))

vocab = build_vocab(train, "source", min_count=1)
print(f"source vocabulary: {len(vocab)} entries (4 specials)")

# Length is the only metric that needs no model (None); sort ascending by
# source length, counted in the encoded pairs.
encoded = encode_corpus(train, vocab, build_vocab(train, "target", min_count=1))
lengths = score_corpus(None, encoded, "length:source")
plan = make_ordering(
    Strategy("length", side="source", direction="asc"),
    lengths,
    train.indices(),
    num_epochs=3,
)
check = verify_plan(plan, train.indices(), lengths)
print("ascending source-length plan verified:", check.ok)

# The permutation is fixed before training and reused every epoch.
first = plan.epoch_permutations[0]
assert all(np.array_equal(first, p) for p in plan.epoch_permutations)
by_index = {p.index: p for p in train}
print("shortest three sources:", [len(by_index[int(i)].src_tokens) for i in first[:3]])
print("longest three sources:", [len(by_index[int(i)].src_tokens) for i in first[-3:]])

# Minibatches are sliced from the fixed order sequentially, last short batch kept.
schedule = schedule_batches(plan, batch_size=32)
sizes = [len(b) for b in schedule.epochs[0]]
print("batch sizes per epoch:", sizes)

# The two random baselines: a single shuffle vs a fresh shuffle every epoch.
once = make_ordering(Strategy("shuffle_once"), None, train.indices(), 3, seed=5)
every = make_ordering(Strategy("shuffle_every_epoch"), None, train.indices(), 3, seed=5)
print(
    "shuffle-once epochs identical:",
    np.array_equal(once.epoch_permutations[0], once.epoch_permutations[2]),
)
print(
    "shuffle-every-epoch epochs differ:",
    not np.array_equal(every.epoch_permutations[0], every.epoch_permutations[1]),
)

print("\nall ten strategies:")
for strategy in table_one_strategies():
    print(f"  {strategy.token():28s} {strategy.label()}")
