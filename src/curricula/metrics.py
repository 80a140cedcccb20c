"""Per-pair difficulty metrics: length, cross-entropy/perplexity, BLEU.

Cross-entropy is the teacher-forced mean negative log2-probability per
target token, so perplexity `2 ** H` lands in the familiar per-token range.
Sentence BLEU is BLEU-4 with add-one smoothing on the order >= 2 precisions
(numerator and denominator), an unsmoothed unigram precision, and brevity
penalty min(1, exp(1 - |ref|/|cand|)). Scoring never mutates the model.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import ModelCheckpoint
from .corpus import EncodedPair, ParallelCorpus, SentencePair, read_text
from .errors import ConfigError, DataError, FingerprintError
from .seq2seq import forward_teacher_forced, greedy_decode, make_batch

SCORES_HEADER = "CURRICULA-SCORES v1"

BLEU_ORDER = 4

SCORE_DIGITS = 9  # of a persisted score


@dataclass(frozen=True)
class PairScore:
    index: int
    value: float


@dataclass
class ScoreTable:
    """One metric value per corpus pair, tagged with the scoring model.

    Values are rounded on construction to the 9 significant digits a score
    file keeps, so a table read back from its file orders pairs exactly as
    the table that wrote it: `from_text(t.to_text()) == t`.
    """

    metric: str
    scorer_fingerprint: str
    scores: tuple[PairScore, ...]

    def __post_init__(self):
        seen = set()
        for s in self.scores:
            if s.index in seen:
                raise DataError(f"duplicate index {s.index} in score table")
            seen.add(s.index)
            if not math.isfinite(s.value):
                raise DataError(f"non-finite score at index {s.index}")
        self.scores = tuple(
            PairScore(s.index, float(f"{s.value:.{SCORE_DIGITS}g}"))
            for s in sorted(self.scores, key=lambda s: s.index)
        )

    def __len__(self) -> int:
        return len(self.scores)

    def indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.scores)

    def value_map(self) -> dict[int, float]:
        return {s.index: s.value for s in self.scores}

    def to_text(self) -> str:
        lines = [f"{SCORES_HEADER} {self.metric} {self.scorer_fingerprint}"]
        for s in self.scores:
            lines.append(f"{s.index}\t{s.value:.{SCORE_DIGITS}g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ScoreTable":
        lines = text.splitlines()
        if not lines:
            raise DataError("empty score table")
        head = lines[0].split(" ")
        if len(head) != 4 or " ".join(head[:2]) != SCORES_HEADER:
            raise DataError(f"bad score table header: {lines[0]!r}")
        scores = []
        for number, ln in enumerate(lines[1:], start=2):
            if not ln:
                continue
            try:
                idx, val = ln.split("\t")
                scores.append(PairScore(int(idx), float(val)))
            except ValueError as exc:
                raise DataError(
                    f"score table line {number}: expected '<index>\\t<value>', "
                    f"got {ln!r}"
                ) from exc
        return cls(metric=head[2], scorer_fingerprint=head[3], scores=tuple(scores))

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "ScoreTable":
        return cls.from_text(read_text(path))


def _check_fingerprints(model: ModelCheckpoint, pair: EncodedPair) -> None:
    if (
        model.src_vocab_fingerprint != pair.src_vocab_fingerprint
        or model.tgt_vocab_fingerprint != pair.tgt_vocab_fingerprint
    ):
        raise FingerprintError(
            f"pair {pair.index} was encoded with different vocabularies "
            "than the model was trained on"
        )


def pair_cross_entropy(model: ModelCheckpoint, pair: EncodedPair) -> float:
    """Teacher-forced cross-entropy of one pair, in bits per target token."""
    _check_fingerprints(model, pair)
    entropies, _ = corpus_cross_entropy(model.params, model.config, [pair])
    return float(entropies[0])


def pair_perplexity(model: ModelCheckpoint, pair: EncodedPair) -> float:
    return 2.0 ** pair_cross_entropy(model, pair)


def pair_length(pair: SentencePair, side: str) -> int:
    """Token count on one side, specials excluded (pairs store raw tokens)."""
    if side == "source":
        return len(pair.src_tokens)
    if side == "target":
        return len(pair.tgt_tokens)
    raise ConfigError(f"side must be 'source' or 'target', got {side!r}")


def _ngram_counts(seq, n: int) -> Counter:
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def clipped_ngram_matches(candidate, reference, n: int) -> tuple[int, int]:
    """(clipped matches, candidate n-gram total) for one order n."""
    total = max(len(candidate) - n + 1, 0)
    if total == 0:
        return 0, 0
    ref_counts = _ngram_counts(reference, n)
    matches = 0
    for gram, count in _ngram_counts(candidate, n).items():
        matches += min(count, ref_counts.get(gram, 0))
    return matches, total


def sentence_bleu(candidate, reference) -> float:
    """Smoothed sentence-level BLEU-4 in [0, 1]."""
    candidate = list(candidate)
    reference = list(reference)
    if not reference:
        raise ConfigError("sentence_bleu requires a non-empty reference")
    if not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, BLEU_ORDER + 1):
        matches, total = clipped_ngram_matches(candidate, reference, n)
        if n == 1:
            if matches == 0:
                return 0.0
            precision = matches / total
        else:
            precision = (matches + 1) / (total + 1)
        log_sum += math.log(precision) / BLEU_ORDER
    brevity = min(1.0, math.exp(1.0 - len(reference) / len(candidate)))
    return brevity * math.exp(log_sum)


def default_decode_len(source_length: int) -> int:
    """Decode budget for BLEU scoring: generous but bounded."""
    return max(2 * source_length, 80)


def _bleu_against_reference(decoded, pair: EncodedPair) -> float:
    if not decoded:
        return 0.0
    return sentence_bleu(decoded, pair.tgt_out_ids[:-1])  # strip EOS


def pair_bleu(model: ModelCheckpoint, pair: EncodedPair) -> float:
    """Sentence BLEU of the model's greedy translation against the reference."""
    _check_fingerprints(model, pair)
    (decoded,) = decode_pairs(model.params, model.config, [pair])
    return _bleu_against_reference(decoded, pair)


def length_scores(corpus: ParallelCorpus, side: str) -> ScoreTable:
    return ScoreTable(
        metric=f"length:{side}",
        scorer_fingerprint="none",
        scores=tuple(
            PairScore(p.index, float(pair_length(p, side))) for p in corpus.pairs
        ),
    )


def score_corpus(model: ModelCheckpoint, pairs, metric: str) -> ScoreTable:
    """Score every encoded pair with one model-based metric.

    Pairs are independent of each other, and each gets the bits that
    scoring it alone gives; results are emitted in corpus-index order
    whatever order they were supplied in.
    """
    if metric not in ("xent", "ppl", "bleu"):
        raise ConfigError(f"unknown model metric {metric!r}; use xent, ppl or bleu")
    pairs = list(pairs)
    for pair in pairs:
        _check_fingerprints(model, pair)
    if metric == "bleu":
        decoded = decode_pairs(model.params, model.config, pairs)
        values = [_bleu_against_reference(d, p) for d, p in zip(decoded, pairs)]
    else:
        entropies, _ = corpus_cross_entropy(model.params, model.config, pairs)
        values = [float(h) if metric == "xent" else 2.0 ** float(h) for h in entropies]
    return ScoreTable(
        metric=metric,
        scorer_fingerprint=model.fingerprint,
        scores=tuple(PairScore(p.index, v) for p, v in zip(pairs, values)),
    )


# Rows per batched call. Any size gives the same bits; these were chosen by
# measurement at the three presets. A scoring chunk also stops before its
# rows times its longest source or target exceed _SCORE_POSITIONS, which
# bounds the memory of one call on long pairs.
_SCORE_CHUNK = 64
_SCORE_POSITIONS = 1024
_DECODE_CHUNK = 32


def _chunks(keys, size: int, positions: float = math.inf):
    """Indices sorted by key, cut into runs of at most `size` whose length
    times their largest key field after the first stays within `positions`
    (a longer key runs alone). The key's first field is a group that no run
    straddles."""
    chunk: list[int] = []
    widest = 0  # the run's largest key field after the first
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        width = max(keys[i][1:])
        if chunk and (
            len(chunk) == size
            or keys[i][0] != keys[chunk[0]][0]
            or (len(chunk) + 1) * max(widest, width) > positions
        ):
            yield chunk
            chunk, widest = [], 0
        chunk.append(i)
        widest = max(widest, width)
    if chunk:
        yield chunk


def corpus_cross_entropy(params, config, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (cross-entropy, token count) arrays, in input order.

    Pairs are sorted by length and scored in chunks of up to `_SCORE_CHUNK`
    rows and `_SCORE_POSITIONS` padded positions through
    `forward_teacher_forced`, whose per-row losses do not depend on
    the batch. A pair's entropy therefore has the bits that
    `pair_cross_entropy` (this function on one pair) gives, and corpus-level
    aggregates built from it agree bit-for-bit with the per-pair metric.
    """
    entropies = np.empty(len(pairs))
    token_counts = np.array([float(len(p.tgt_out_ids)) for p in pairs])
    keys = [(0, len(p.src_ids), len(p.tgt_out_ids)) for p in pairs]
    for chunk in _chunks(keys, _SCORE_CHUNK, _SCORE_POSITIONS):
        batch = make_batch([pairs[i] for i in chunk])
        result = forward_teacher_forced(params, config, batch, dropout_on=False, seed=0)
        entropies[chunk] = result.pair_losses
    return entropies, token_counts


def decode_pairs(params, config, pairs, max_decode_len: int | None = None):
    """Greedy translations of `pairs`, in input order.

    Each pair's budget is `max_decode_len`, or `default_decode_len` of its
    source. Pairs are sorted by budget and source length and decoded in
    chunks of up to `_DECODE_CHUNK` that share one budget; a pair's tokens do
    not depend on its chunk.
    """
    budgets = [
        max_decode_len if max_decode_len is not None
        else default_decode_len(len(p.src_ids))
        for p in pairs
    ]
    decoded: list[list[int]] = [[] for _ in pairs]
    keys = [(b, len(p.src_ids)) for b, p in zip(budgets, pairs)]
    for chunk in _chunks(keys, _DECODE_CHUNK):
        sources = [pairs[i].src_ids for i in chunk]
        out = greedy_decode(params, config, sources, budgets[chunk[0]])
        for i, tokens in zip(chunk, out):
            decoded[i] = tokens
    return decoded
