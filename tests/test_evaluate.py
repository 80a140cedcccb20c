import math

import numpy as np
import pytest

from conftest import overflowing_checkpoint
from curricula.corpus import EOS_ID, EncodedPair
from curricula.errors import ConfigError, FingerprintError, PairingError
from curricula.evaluate import EvalResult, corpus_bleu, evaluate_model
from curricula.metrics import (
    BLEU_ORDER, bleu_counts, decode_pairs, pair_cross_entropy, sentence_bleu,
)
from curricula.seq2seq import greedy_decode
from oracles import clipped_counts, oracle_corpus_bleu


def test_perfect_corpus_scores_one():
    refs = [list("abcde"), list("xyz")]
    assert corpus_bleu(refs, refs) == 1.0


def test_aggregation_is_not_mean_of_sentence_bleus():
    cands = [list("abcde"), list("aabbc")]
    refs = [list("abcde"), list("abcba")]
    expected = 0.6580370064762462  # frozen from the aggregated-count oracle
    value = corpus_bleu(cands, refs)
    assert value == expected
    assert oracle_corpus_bleu(cands, refs) == expected
    mean_sentences = (
        sentence_bleu(cands[0], refs[0]) + sentence_bleu(cands[1], refs[1])
    ) / 2
    assert abs(value - mean_sentences) > 0.05


def test_zero_fourgram_matches_score_zero_without_smoothing():
    # single pair with unigram overlap but no common 4-gram
    cands = [list("abcd")]
    refs = [list("acbd")]
    assert corpus_bleu(cands, refs) == 0.0


def test_corpus_bleu_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(9)
    alphabet = list("abcde")
    for _ in range(40):
        n = int(rng.integers(1, 21))
        cands = [
            [alphabet[i] for i in rng.integers(0, 5, rng.integers(0, 9))]
            for _ in range(n)
        ]
        refs = [
            [alphabet[i] for i in rng.integers(0, 5, rng.integers(1, 9))]
            for _ in range(n)
        ]
        assert corpus_bleu(cands, refs) == oracle_corpus_bleu(cands, refs)
        for cand, ref in zip(cands, refs):
            assert bleu_counts(cand, ref) == tuple(
                clipped_counts(cand, ref, n) for n in range(1, BLEU_ORDER + 1)
            )


def test_corpus_bleu_input_validation():
    with pytest.raises(PairingError):
        corpus_bleu([list("ab")], [list("ab"), list("cd")])
    with pytest.raises(ConfigError):
        corpus_bleu([], [])
    with pytest.raises(ConfigError):
        corpus_bleu([list("ab")], [[]])


def test_all_empty_candidates_score_zero():
    assert corpus_bleu([[], []], [list("ab"), list("cd")]) == 0.0


# ---------------------------------------------------------------------------
# evaluate_model
# ---------------------------------------------------------------------------

def test_evaluate_perfect_model():
    # a model that predicts every reference token (including EOS) with
    # probability exactly one, decoding references back verbatim
    from conftest import chain_checkpoint

    ckpt, pair = chain_checkpoint()
    pairs = [
        EncodedPair(
            i, pair.src_ids, pair.tgt_in_ids, pair.tgt_out_ids,
            pair.src_vocab_fingerprint, pair.tgt_vocab_fingerprint,
        )
        for i in range(3)
    ]
    result = evaluate_model(ckpt, pairs)
    assert result.perplexity == 1.0
    assert result.bleu == 1.0
    assert result.pairs == 3


def test_evaluate_deterministic(toy_data, tiny_checkpoint):
    a = evaluate_model(tiny_checkpoint, toy_data["test_enc"])
    b = evaluate_model(tiny_checkpoint, toy_data["test_enc"])
    assert a == b


def test_evaluate_rejects_mismatched_vocab(toy_data, tiny_checkpoint):
    from curricula.checkpoint import ModelCheckpoint

    wrong = ModelCheckpoint(
        config=tiny_checkpoint.config,
        params=tiny_checkpoint.params,
        src_vocab_fingerprint="zzz",
        tgt_vocab_fingerprint=tiny_checkpoint.tgt_vocab_fingerprint,
    )
    with pytest.raises(FingerprintError):
        evaluate_model(wrong, toy_data["test_enc"])


def test_perplexity_consistent_with_pair_cross_entropy(toy_data, tiny_checkpoint):
    """Corpus perplexity is exactly 2^(sum H_p T_p / sum T_p) built from the
    per-pair metric."""
    pairs = toy_data["test_enc"]
    result = evaluate_model(tiny_checkpoint, pairs, max_decode_len=4)
    entropies = np.array([pair_cross_entropy(tiny_checkpoint, p) for p in pairs])
    tokens = np.array([float(len(p.tgt_out_ids)) for p in pairs])
    expected = 2.0 ** float((entropies * tokens).sum() / tokens.sum())
    assert result.perplexity == expected


def test_overflowing_test_perplexity_is_infinite(toy_data, tiny_checkpoint):
    model = overflowing_checkpoint(tiny_checkpoint)
    result = evaluate_model(model, toy_data["test_enc"], max_decode_len=4)
    assert result.perplexity == math.inf
    assert result.to_line().startswith("ppl=inf bleu=")


@pytest.mark.parametrize("budget", [0, -3])
def test_decode_budget_below_one_is_refused(toy_data, tiny_checkpoint, budget):
    # such a budget decodes nothing and would report BLEU 0
    pairs, params, config = toy_data["test_enc"], tiny_checkpoint.params, tiny_checkpoint.config
    with pytest.raises(ConfigError, match=f"max_decode_len must be >= 1, got {budget}"):
        evaluate_model(tiny_checkpoint, pairs, max_decode_len=budget)
    with pytest.raises(ConfigError, match="max_decode_len must be >= 1"):
        decode_pairs(params, config, [], budget)
    with pytest.raises(ConfigError, match=f"max_len must be >= 1, got {budget}"):
        greedy_decode(params, config, [pairs[0].src_ids], budget)


def test_eval_result_line_format():
    line = EvalResult(16.549999, 0.181, 1268).to_line()
    assert line == "ppl=16.549999 bleu=0.181 pairs=1268"
