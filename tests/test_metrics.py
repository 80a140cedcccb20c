import math

import numpy as np
import pytest

from conftest import uniform_output_checkpoint
from curricula.checkpoint import ModelCheckpoint
from curricula.corpus import EOS_ID, SentencePair
from curricula.errors import ConfigError, DataError, FingerprintError
from curricula.metrics import (
    ScoreTable,
    PairScore,
    length_scores,
    pair_bleu,
    pair_cross_entropy,
    pair_length,
    pair_perplexity,
    score_corpus,
    sentence_bleu,
)
from oracles import oracle_sentence_bleu


# ---------------------------------------------------------------------------
# sentence BLEU
# ---------------------------------------------------------------------------

def test_identical_sentences_score_one():
    toks = "a b c d e".split()
    assert sentence_bleu(toks, toks) == 1.0


def test_clipped_unigram_precision_case():
    cand = "the the the the the the the".split()
    ref = "the cat is on the mat".split()
    # clipped unigram matches: "the" appears 7x but only 2x in the reference
    assert math.isclose(2 / 7, 0.2857142857142857)
    expected = 0.19205612637498934  # frozen from the brute-force oracle
    assert sentence_bleu(cand, ref) == expected
    assert oracle_sentence_bleu(cand, ref) == expected


def test_no_unigram_overlap_scores_zero():
    assert sentence_bleu("a b".split(), "x y".split()) == 0.0


def test_empty_candidate_scores_zero():
    assert sentence_bleu([], ["x"]) == 0.0


def test_empty_reference_rejected():
    with pytest.raises(ConfigError):
        sentence_bleu(["x"], [])


def test_short_candidates_still_use_all_orders():
    # 2-token candidate: p3, p4 fall back to smoothed 1/1
    value = sentence_bleu("a b".split(), "a b".split())
    assert value == oracle_sentence_bleu("a b".split(), "a b".split())
    assert 0.0 < value <= 1.0


def test_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(42)
    alphabet = list("abcde")
    for _ in range(200):
        cand = [alphabet[i] for i in rng.integers(0, 5, rng.integers(1, 13))]
        ref = [alphabet[i] for i in rng.integers(0, 5, rng.integers(1, 13))]
        assert sentence_bleu(cand, ref) == oracle_sentence_bleu(cand, ref)


def test_self_bleu_is_one_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(50):
        seq = [int(i) for i in rng.integers(0, 4, rng.integers(1, 10))]
        assert sentence_bleu(seq, seq) == 1.0
        other = [int(i) for i in rng.integers(0, 4, rng.integers(1, 10))]
        value = sentence_bleu(seq, other)
        assert 0.0 <= value <= 1.0 and not math.isnan(value)


# ---------------------------------------------------------------------------
# model-based scores
# ---------------------------------------------------------------------------

def test_uniform_model_cross_entropy_is_log2_vocab(toy_data, tiny_checkpoint):
    uniform = uniform_output_checkpoint(tiny_checkpoint)
    expected = math.log2(uniform.config.tgt_vocab_size)
    for pair in toy_data["train_enc"][:3]:
        assert abs(pair_cross_entropy(uniform, pair) - expected) < 1e-12


def test_perfect_model_cross_entropy_is_zero(toy_data, tiny_checkpoint):
    # rig the output bias so one token always gets probability ~1, and score
    # a pair whose every target position is that token
    from curricula.corpus import EncodedPair

    base = toy_data["train_enc"][0]
    token = 4
    rigged = uniform_output_checkpoint(tiny_checkpoint)
    rigged.params["out_b"][:] = -60.0
    rigged.params["out_b"][token] = 60.0
    pair = EncodedPair(
        0, base.src_ids, (1, token, token), (token, token, token),
        base.src_vocab_fingerprint, base.tgt_vocab_fingerprint,
    )
    assert pair_cross_entropy(rigged, pair) < 1e-12


def test_uniform_model_over_four_tokens_is_two_bits():
    # |V| = 4: a uniform output distribution costs log2(4) = 2 bits/token
    # and perplexity 4, whatever the targets are
    from curricula.checkpoint import ModelCheckpoint
    from curricula.corpus import EncodedPair
    from curricula.seq2seq import ModelConfig, parameter_shapes

    config = ModelConfig(6, 6, 1, 1, False, 0.0, 6, 4)
    params = {n: np.zeros(sh) for n, sh in parameter_shapes(config)}
    ckpt = ModelCheckpoint(
        config=config, params=params,
        src_vocab_fingerprint="u", tgt_vocab_fingerprint="u",
    )
    pair = EncodedPair(0, (4, 5), (1, 3, 3), (3, 3, 2), "u", "u")
    assert abs(pair_cross_entropy(ckpt, pair) - 2.0) < 1e-12
    assert abs(pair_perplexity(ckpt, pair) - 4.0) < 1e-11


def test_pair_bleu_perfect_reproduction_scores_one():
    from conftest import chain_checkpoint

    ckpt, pair = chain_checkpoint()
    assert pair_bleu(ckpt, pair) == 1.0
    assert pair_cross_entropy(ckpt, pair) == 0.0
    assert pair_perplexity(ckpt, pair) == 1.0


def test_cross_entropy_deterministic(toy_data, tiny_checkpoint):
    pair = toy_data["train_enc"][0]
    a = pair_cross_entropy(tiny_checkpoint, pair)
    b = pair_cross_entropy(tiny_checkpoint, pair)
    assert a == b


def test_fingerprint_mismatch_rejected(toy_data, tiny_checkpoint):
    pair = toy_data["train_enc"][0]
    mismatched = ModelCheckpoint(
        config=tiny_checkpoint.config,
        params=tiny_checkpoint.params,
        src_vocab_fingerprint="deadbeef",
        tgt_vocab_fingerprint=tiny_checkpoint.tgt_vocab_fingerprint,
    )
    with pytest.raises(FingerprintError):
        pair_cross_entropy(mismatched, pair)
    with pytest.raises(FingerprintError):
        pair_bleu(mismatched, pair)


def test_perplexity_is_two_to_the_cross_entropy(toy_data, tiny_checkpoint):
    for pair in toy_data["train_enc"][:5]:
        h = pair_cross_entropy(tiny_checkpoint, pair)
        assert pair_perplexity(tiny_checkpoint, pair) == 2.0**h


def test_uniform_model_perplexity_equals_vocab_size(toy_data, tiny_checkpoint):
    """2^H == |V| for the uniform model, cross-checked against a direct
    product-of-probabilities computation on a 3-token target."""
    from curricula.corpus import EncodedPair
    from curricula.seq2seq import forward_teacher_forced, make_batch

    uniform = uniform_output_checkpoint(tiny_checkpoint)
    base = toy_data["train_enc"][0]
    pair = EncodedPair(
        0, base.src_ids, (1, 4, 5), (4, 5, EOS_ID),
        base.src_vocab_fingerprint, base.tgt_vocab_fingerprint,
    )
    ppl = pair_perplexity(uniform, pair)
    assert abs(ppl - uniform.config.tgt_vocab_size) < 1e-9
    # oracle: product of the three per-token probabilities, then ^(-1/3)
    result = forward_teacher_forced(uniform.params, uniform.config, make_batch([pair]))
    probs = [2.0 ** result.log_probs[0, t, tok] for t, tok in enumerate(pair.tgt_out_ids)]
    oracle = math.prod(probs) ** (-1.0 / 3.0)
    assert abs(ppl - oracle) < 1e-9


def test_perplexity_monotone_in_entropy():
    assert 2.0**1.0 < 2.0**2.0


def test_pair_bleu_identity_and_empty(toy_data, tiny_checkpoint):
    pair = toy_data["train_enc"][0]
    rigged = uniform_output_checkpoint(tiny_checkpoint)
    # model that emits EOS immediately -> empty candidate -> 0
    rigged.params["out_b"][:] = -60.0
    rigged.params["out_b"][EOS_ID] = 60.0
    assert pair_bleu(rigged, pair) == 0.0


def test_pair_bleu_composes_decode_and_sentence_bleu(toy_data, tiny_checkpoint):
    from curricula.metrics import default_decode_len
    from curricula.seq2seq import greedy_decode

    pair = toy_data["train_enc"][0]
    (decoded,) = greedy_decode(
        tiny_checkpoint.params,
        tiny_checkpoint.config,
        [pair.src_ids],
        default_decode_len(len(pair.src_ids)),
    )
    expected = (
        sentence_bleu(decoded, list(pair.tgt_out_ids[:-1])) if decoded else 0.0
    )
    assert pair_bleu(tiny_checkpoint, pair) == expected


def test_pair_length_counts_raw_tokens():
    pair = SentencePair(0, ("a", "b", "c"), ("x",))
    assert pair_length(pair, "source") == 3
    assert pair_length(pair, "target") == 1
    with pytest.raises(ConfigError):
        pair_length(pair, "both")


def test_post_filter_lengths_within_bounds(toy_data):
    for pair in toy_data["train"]:
        assert 3 <= pair_length(pair, "source") <= 6
        assert 3 <= pair_length(pair, "target") <= 6


# ---------------------------------------------------------------------------
# score tables
# ---------------------------------------------------------------------------

def test_length_scores_cover_corpus(toy_data):
    table = length_scores(toy_data["train"], "source")
    assert table.metric == "length:source"
    assert table.scorer_fingerprint == "none"
    assert table.indices() == toy_data["train"].indices()


def test_score_corpus_records_model_fingerprint(toy_data, tiny_checkpoint):
    table = score_corpus(tiny_checkpoint, toy_data["train_enc"][:4], "ppl")
    assert table.scorer_fingerprint == tiny_checkpoint.fingerprint
    assert len(table) == 4
    assert all(s.value >= 1.0 for s in table.scores)


def test_scoring_is_read_only(toy_data, tiny_checkpoint):
    before = tiny_checkpoint.fingerprint
    score_corpus(tiny_checkpoint, toy_data["train_enc"][:4], "xent")
    after = ModelCheckpoint(
        config=tiny_checkpoint.config,
        params=tiny_checkpoint.params,
        src_vocab_fingerprint=tiny_checkpoint.src_vocab_fingerprint,
        tgt_vocab_fingerprint=tiny_checkpoint.tgt_vocab_fingerprint,
    ).fingerprint
    assert before == after


def test_scoring_chunks_stay_within_the_padded_position_cap(
    tiny_checkpoint, monkeypatch
):
    from curricula import metrics
    from curricula.corpus import BOS_ID, EncodedPair

    # 64 rows of 31 target tokens would pad to 1,984 positions in one chunk
    ckpt = tiny_checkpoint
    fps = (ckpt.src_vocab_fingerprint, ckpt.tgt_vocab_fingerprint)
    rng = np.random.default_rng(0)
    pairs = []
    for i in range(64):
        src = tuple(int(x) for x in rng.integers(4, 10, size=5 + i % 20))
        tgt = tuple(int(x) for x in rng.integers(4, 10, size=30))
        pairs.append(EncodedPair(i, src, (BOS_ID,) + tgt, tgt + (EOS_ID,), *fps))
    shapes = []
    forward = metrics.forward_teacher_forced

    def recording(params, config, batch, **kwargs):
        shapes.append((batch.src.shape, batch.tgt_out.shape))
        return forward(params, config, batch, **kwargs)

    monkeypatch.setattr(metrics, "forward_teacher_forced", recording)
    entropies, _ = metrics.corpus_cross_entropy(ckpt.params, ckpt.config, pairs)
    assert sum(src[0] for src, _ in shapes) == 64 and len(shapes) == 2
    for (rows, s), (_, t) in shapes:
        assert rows * max(s, t) <= metrics._SCORE_POSITIONS
    alone = [metrics.pair_cross_entropy(ckpt, p) for p in pairs]
    assert list(entropies) == alone


def test_score_table_file_round_trip(tmp_path, toy_data, tiny_checkpoint):
    table = score_corpus(tiny_checkpoint, toy_data["train_enc"][:4], "xent")
    table.save(tmp_path / "scores.txt")
    text = (tmp_path / "scores.txt").read_text()
    header = text.splitlines()[0]
    assert header == f"CURRICULA-SCORES v1 xent {tiny_checkpoint.fingerprint}"
    loaded = ScoreTable.load(tmp_path / "scores.txt")
    assert loaded.metric == table.metric
    assert loaded.indices() == table.indices()
    for a, b in zip(loaded.scores, table.scores):
        assert math.isclose(a.value, b.value, rel_tol=1e-8)


def test_score_table_rejects_duplicates_and_nan():
    with pytest.raises(DataError):
        ScoreTable("ppl", "none", (PairScore(0, 1.0), PairScore(0, 2.0)))
    with pytest.raises(DataError):
        ScoreTable("ppl", "none", (PairScore(0, float("nan")),))


def test_score_values_print_nine_significant_digits():
    table = ScoreTable("xent", "none", (PairScore(0, 1.2345678987654321),))
    assert table.to_text().splitlines()[1] == "0\t1.2345679"


@pytest.mark.parametrize(
    "line", ["3 1.5", "3\t1.5\t7", "x\t1.5", "3\tabc", "1.5\t2.0"]
)
def test_score_table_bad_line_is_a_data_error_naming_the_line(line):
    text = f"CURRICULA-SCORES v1 ppl fp\n0\t1.0\n{line}\n"
    with pytest.raises(DataError, match="line 3"):
        ScoreTable.from_text(text)
