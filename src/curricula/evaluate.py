"""Corpus-level evaluation: test perplexity and corpus BLEU of greedy output.

Corpus BLEU sums every pair's `metrics.bleu_counts` and lengths over the
test set and combines them once, unsmoothed, with `metrics.bleu_from_counts`:
a zero precision at any order zeroes the score. References are
`metrics.reference_ids`, so a pair with an empty target is refused before
any decode. Perplexity is token-weighted, i.e. two to the corpus-level
cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checkpoint import ModelCheckpoint
from .errors import ConfigError, PairingError
from .metrics import (
    _check_fingerprints, bleu_counts, bleu_from_counts, corpus_cross_entropy,
    decode_pairs, perplexity, reference_ids,
)


@dataclass(frozen=True)
class EvalResult:
    perplexity: float
    bleu: float  # fraction in [0, 1]; multiply by 100 for the percent scale
    pairs: int

    def to_line(self) -> str:
        return f"ppl={self.perplexity:.9g} bleu={self.bleu:.9g} pairs={self.pairs}"


def corpus_bleu(candidates, references) -> float:
    """BLEU-4 from n-gram counts pooled over the whole corpus."""
    if len(candidates) != len(references):
        raise PairingError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    if len(candidates) == 0:
        raise ConfigError("corpus_bleu requires at least one pair")
    candidates = [list(c) for c in candidates]
    references = [list(r) for r in references]
    if any(not r for r in references):
        raise ConfigError("corpus_bleu references must be non-empty")
    pair_counts = [bleu_counts(c, r) for c, r in zip(candidates, references)]
    return bleu_from_counts(
        [tuple(map(sum, zip(*order))) for order in zip(*pair_counts)],
        sum(map(len, candidates)), sum(map(len, references)), smoothed=False,
    )


def evaluate_model(
    ckpt: ModelCheckpoint, test_pairs, max_decode_len: int | None = None
) -> EvalResult:
    """Test perplexity (inf if it overflows a float) and corpus BLEU of
    greedy translations."""
    test_pairs = list(test_pairs)
    if not test_pairs:
        raise ConfigError("evaluate_model requires a non-empty test set")
    _check_fingerprints(ckpt, test_pairs)
    references = [reference_ids(pair) for pair in test_pairs]
    entropies, tokens = corpus_cross_entropy(ckpt.params, ckpt.config, test_pairs)
    candidates = decode_pairs(ckpt.params, ckpt.config, test_pairs, max_decode_len)
    return EvalResult(
        perplexity=perplexity((entropies * tokens).sum() / tokens.sum()),
        bleu=corpus_bleu(candidates, references),
        pairs=len(test_pairs),
    )
