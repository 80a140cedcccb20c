"""Corpus-level evaluation: test perplexity and corpus BLEU of greedy output.

Corpus BLEU aggregates clipped n-gram counts and lengths over the whole test
set before combining them — no per-sentence smoothing, so a zero precision
at any order zeroes the score. Perplexity is token-weighted, i.e. two to
the corpus-level cross-entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .checkpoint import ModelCheckpoint
from .errors import ConfigError, PairingError
from .metrics import (
    BLEU_ORDER,
    _check_fingerprints,
    clipped_ngram_matches,
    corpus_cross_entropy,
    decode_pairs,
    perplexity,
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
    cand_tokens = sum(len(c) for c in candidates)
    ref_tokens = sum(len(r) for r in references)
    if cand_tokens == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, BLEU_ORDER + 1):
        matches = 0
        total = 0
        for cand, ref in zip(candidates, references):
            m, t = clipped_ngram_matches(cand, ref, n)
            matches += m
            total += t
        if matches == 0 or total == 0:
            return 0.0
        log_sum += math.log(matches / total) / BLEU_ORDER
    brevity = min(1.0, math.exp(1.0 - ref_tokens / cand_tokens))
    return brevity * math.exp(log_sum)


def evaluate_model(
    ckpt: ModelCheckpoint, test_pairs, max_decode_len: int | None = None
) -> EvalResult:
    """Test perplexity (inf if it overflows a float) and corpus BLEU of
    greedy translations."""
    test_pairs = list(test_pairs)
    if not test_pairs:
        raise ConfigError("evaluate_model requires a non-empty test set")
    for pair in test_pairs:
        _check_fingerprints(ckpt, pair)
    entropies, tokens = corpus_cross_entropy(ckpt.params, ckpt.config, test_pairs)
    candidates = decode_pairs(ckpt.params, ckpt.config, test_pairs, max_decode_len)
    references = [list(pair.tgt_out_ids[:-1]) for pair in test_pairs]
    return EvalResult(
        perplexity=perplexity((entropies * tokens).sum() / tokens.sum()),
        bleu=corpus_bleu(candidates, references),
        pairs=len(test_pairs),
    )
