import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import overflowing_checkpoint, uniform_output_checkpoint
from curricula.checkpoint import ModelCheckpoint
from curricula.corpus import EOS_ID, ParallelCorpus, SentencePair, build_vocab, encode_corpus
from curricula.errors import ConfigError, DataError, EncodingError, FingerprintError
from curricula.metrics import (
    ScoreTable,
    PairScore,
    pair_bleu,
    pair_cross_entropy,
    pair_perplexity,
    perplexity,
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


def test_perplexity_past_the_float_range_is_infinite(toy_data, tiny_checkpoint):
    assert perplexity(1023.5) == 2.0**1023.5
    assert perplexity(1024.0) == math.inf
    model = overflowing_checkpoint(tiny_checkpoint)
    pairs = toy_data["test_enc"]
    assert pair_cross_entropy(model, pairs[0]) > 1024
    assert pair_perplexity(model, pairs[0]) == math.inf
    assert all(s.value > 1024 for s in score_corpus(model, pairs, "xent").scores)
    # the score table refuses the value, naming the pair
    with pytest.raises(DataError, match=f"non-finite score at index {pairs[0].index}$"):
        score_corpus(model, pairs, "ppl")


def test_pair_bleu_identity_and_empty(toy_data, tiny_checkpoint):
    pair = toy_data["train_enc"][0]
    rigged = uniform_output_checkpoint(tiny_checkpoint)
    # model that emits EOS immediately -> empty candidate -> 0
    rigged.params["out_b"][:] = -60.0
    rigged.params["out_b"][EOS_ID] = 60.0
    assert pair_bleu(rigged, pair) == 0.0


@pytest.mark.parametrize("eos_bias", [30.0, -30.0])
def test_bleu_of_a_pair_with_an_empty_target_is_refused_whatever_the_decode(
    toy_data, tiny_checkpoint, eos_bias
):
    """An empty target has no reference: every BLEU entry point refuses the
    pair, naming it, whether the model decodes nothing (EOS first) or its
    whole budget."""
    from curricula.corpus import BOS_ID, EncodedPair
    from curricula.evaluate import evaluate_model

    model = uniform_output_checkpoint(tiny_checkpoint)
    model.params["out_b"][EOS_ID] = eos_bias
    base = toy_data["train_enc"][0]
    pair = EncodedPair(7, (1, 2, 3), (BOS_ID,), (EOS_ID,),
                       base.src_vocab_fingerprint, base.tgt_vocab_fingerprint)
    for score in (
        lambda: pair_bleu(model, pair),
        lambda: score_corpus(model, [base, pair], "bleu"),
        lambda: evaluate_model(model, [base, pair]),
    ):
        with pytest.raises(ConfigError, match="^pair 7 has an empty target"):
            score()


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


def test_length_scores_count_raw_tokens():
    corpus = ParallelCorpus((SentencePair(5, ("a", "b", "c"), ("x",)),))
    (pair,) = encode_corpus(
        corpus, build_vocab(corpus, "source", 1), build_vocab(corpus, "target", 1))
    lengths = {
        metric: score_corpus(None, [pair], metric).value_map()
        for metric in ("length:source", "length:target")
    }
    assert lengths == {"length:source": {5: 3.0}, "length:target": {5: 1.0}}
    for metric in ("length", "length:both", "foo"):
        with pytest.raises(ConfigError, match="length:source, length:target, xent, ppl or bleu"):
            score_corpus(None, [pair], metric)


def test_post_filter_lengths_within_bounds(toy_data):
    for pair in toy_data["train"]:
        assert 3 <= len(pair.src_tokens) <= 6
        assert 3 <= len(pair.tgt_tokens) <= 6


# ---------------------------------------------------------------------------
# score tables
# ---------------------------------------------------------------------------

def test_length_scores_cover_corpus(toy_data):
    for metric, side in (("length:source", "src_tokens"), ("length:target", "tgt_tokens")):
        table = score_corpus(None, toy_data["train_enc"], metric)
        assert table.metric == metric
        assert table.scorer_fingerprint == "none"
        assert table.indices() == toy_data["train"].indices()
        assert table.value_map() == {
            p.index: float(len(getattr(p, side))) for p in toy_data["train"]
        }


def test_score_corpus_takes_a_model_exactly_for_model_metrics(toy_data, tiny_checkpoint):
    pairs = toy_data["train_enc"][:2]
    with pytest.raises(ConfigError, match="length:source scores count tokens"):
        score_corpus(tiny_checkpoint, pairs, "length:source")
    for metric in ("xent", "ppl", "bleu"):
        with pytest.raises(ConfigError, match=f"{metric} scores need a scorer model"):
            score_corpus(None, pairs, metric)


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


def test_decoding_chunks_stay_within_the_source_position_cap(monkeypatch):
    import tracemalloc

    from curricula import metrics
    from curricula.corpus import BOS_ID, EncodedPair
    from curricula.seq2seq import ModelConfig, greedy_decode, init_params

    # 32 rows of 45-60 source tokens would pad to 1,920 positions in one chunk
    config = ModelConfig.preset("base", 24, 24)
    params = init_params(config, seed=5)
    rng = np.random.default_rng(0)
    pairs = []
    for i in range(64):
        src = tuple(int(x) for x in rng.integers(4, 24, size=45 + i % 16))
        tgt = tuple(int(x) for x in rng.integers(4, 24, size=5))
        pairs.append(EncodedPair(i, src, (BOS_ID,) + tgt, tgt + (EOS_ID,), "s", "t"))
    chunks = []
    decode = metrics.greedy_decode

    def recording(params, config, sources, max_len):
        chunks.append((len(sources), max(len(s) for s in sources)))
        return decode(params, config, sources, max_len)

    monkeypatch.setattr(metrics, "greedy_decode", recording)
    tracemalloc.start()
    try:
        decoded = metrics.decode_pairs(params, config, pairs, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(rows for rows, _ in chunks) == 64
    for rows, width in chunks:
        assert rows * width <= metrics._SCORE_POSITIONS
    # measured: chunks of 32 rows peak at 68.9 MB, capped chunks at 36.3 MB
    assert peak < 48e6
    assert decoded == greedy_decode(params, config, [p.src_ids for p in pairs], 2)


def test_decoding_memory_cap_holds_with_the_fan_out_on(monkeypatch):
    from curricula import metrics

    monkeypatch.setattr(metrics, "_workers", lambda config: 2)
    test_decoding_chunks_stay_within_the_source_position_cap(monkeypatch)


# ---------------------------------------------------------------------------
# chunks fanned out over threads
# ---------------------------------------------------------------------------

def _past_the_gate(lengths=range(3, 19), hidden_dim=192):
    """A model with attention of more than `_SERIAL_HIDDEN` hidden units
    (192 at the default width), so its chunks may fan out, and 40 pairs."""
    from curricula.corpus import BOS_ID, EncodedPair
    from curricula.seq2seq import ModelConfig, init_params

    config = ModelConfig(32, hidden_dim, 1, 1, True, 0.2, 24, 24)
    params = init_params(config, seed=3)
    rng = np.random.default_rng(1)
    pairs = []
    for i in range(40):
        src = tuple(int(x) for x in rng.integers(4, 24, size=lengths[i % len(lengths)]))
        tgt = tuple(int(x) for x in rng.integers(4, 24, size=3 + i % 9))
        pairs.append(EncodedPair(i, src, (BOS_ID,) + tgt, tgt + (EOS_ID,), "s", "t"))
    return config, params, pairs


def _small_preset():
    """The `small` preset, past `_SERIAL_HIDDEN`, and `_past_the_gate`'s
    pairs."""
    from curricula.seq2seq import ModelConfig, init_params

    _, _, pairs = _past_the_gate()
    config = ModelConfig.preset("small", 24, 24)
    return config, init_params(config, seed=3), pairs


_FAN_OUT_MODELS = {"gated": _past_the_gate, "small": _small_preset}


def _fan_out_outputs(config, params, pairs):
    from curricula.metrics import corpus_cross_entropy, decode_pairs

    entropies, counts = corpus_cross_entropy(params, config, pairs)
    return entropies, counts, decode_pairs(params, config, pairs, 10)


def fan_out_digest(model: str) -> str:
    """The worker count and sha256 of `_fan_out_outputs` for one of
    `_FAN_OUT_MODELS`, as JSON."""
    from curricula.metrics import _workers

    config, params, pairs = _FAN_OUT_MODELS[model]()
    entropies, counts, tokens = _fan_out_outputs(config, params, pairs)
    h = hashlib.sha256(entropies.tobytes() + counts.tobytes())
    h.update(json.dumps(tokens).encode("utf-8"))
    return json.dumps({"workers": _workers(config), "sha256": h.hexdigest()})


def test_fan_out_workers_are_the_cpus_over_the_blas_threads(monkeypatch):
    from curricula import metrics
    from curricula.runtime import Environment
    from curricula.seq2seq import ModelConfig

    gated, _, _ = _past_the_gate()
    tiny, small, base = (ModelConfig.preset(p, 24, 24) for p in ("tiny", "small", "base"))
    # the serial bound sits between the tiny and the small preset
    assert tiny.hidden_dim <= metrics._SERIAL_HIDDEN < small.hidden_dim
    for cpus, threads, workers in ((2, 1, 2), (2, 2, 1), (8, 2, 4), (1, 1, 1), (2, None, 1)):
        env = Environment("numpy", "blas", "core", threads, cpus)
        monkeypatch.setattr(metrics, "environment", lambda env=env: env)
        for config in (gated, small, base):
            assert metrics._workers(config) == workers
        assert metrics._workers(tiny) == 1


def test_fan_out_gives_every_pair_the_bits_it_gets_alone(monkeypatch):
    from curricula import metrics
    from curricula.seq2seq import greedy_decode

    calls = []
    for name in ("forward_teacher_forced", "greedy_decode"):
        def recording(*args, inner=getattr(metrics, name), name=name, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(metrics, name, recording)
    for model in _FAN_OUT_MODELS.values():
        config, params, pairs = model()
        outputs = {}
        for workers in (1, 2):
            monkeypatch.setattr(metrics, "_workers", lambda config, w=workers: w)
            calls.clear()
            outputs[workers] = _fan_out_outputs(config, params, pairs)
            if workers == 2:
                assert calls.count("forward_teacher_forced") >= 2
                assert calls.count("greedy_decode") >= 2
        (h1, n1, tokens1), (h2, n2, tokens2) = outputs[1], outputs[2]
        assert h1.tobytes() == h2.tobytes() and n1.tobytes() == n2.tobytes()
        assert tokens1 == tokens2
        for i, pair in enumerate(pairs):
            alone, _ = metrics.corpus_cross_entropy(params, config, [pair])
            assert alone[0] == h2[i]
            assert greedy_decode(params, config, [pair.src_ids], 10) == [tokens2[i]]


def _with_source_id(args, layer, bad_id):
    """The arguments of one `layer` call with `bad_id` in its first source."""
    params, config, chunk, *rest = args
    if layer == "forward_teacher_forced":
        chunk = replace(chunk, src=chunk.src.copy())
        chunk.src[0, 0] = bad_id
    else:
        chunk = [(bad_id,), *chunk[1:]]
    return (params, config, chunk, *rest)


@pytest.mark.parametrize(
    "entry, layer",
    [("corpus_cross_entropy", "forward_teacher_forced"), ("decode_pairs", "greedy_decode")],
)
def test_fan_out_error_in_a_helper_stops_every_worker(monkeypatch, entry, layer):
    from curricula import metrics

    config, params, pairs = _past_the_gate(range(30, 61))
    keys = [(0, len(p.src_ids)) for p in pairs]
    assert len(list(metrics._chunks(keys, metrics._DECODE_CHUNK, 2))) >= 4
    monkeypatch.setattr(metrics, "_workers", lambda config: 2)
    inner = getattr(metrics, layer)
    helper_done = threading.Event()
    calls, helper_errors = [], []

    def recording(*args, **kwargs):
        calls.append(threading.current_thread().name)
        if threading.current_thread() is threading.main_thread():
            helper_done.wait(30)  # the calling thread's chunk ends after the error
            return inner(*args, **kwargs)
        try:  # a helper's chunk holds an id past the source vocabulary
            return inner(*_with_source_id(args, layer, config.src_vocab_size), **kwargs)
        except EncodingError as exc:
            helper_errors.append(exc)
            raise
        finally:
            helper_done.set()

    monkeypatch.setattr(metrics, layer, recording)
    before = threading.active_count()
    with pytest.raises(EncodingError) as info:
        getattr(metrics, entry)(params, config, pairs)
    assert helper_errors and info.value is helper_errors[0]
    # no thread took a chunk after the helper's failed, out of at least four
    assert 1 <= len(calls) <= 2
    assert threading.active_count() == before


def test_fan_out_joins_its_helpers_before_returning(monkeypatch):
    from curricula import metrics

    config, params, pairs = _past_the_gate()
    monkeypatch.setattr(metrics, "_workers", lambda config: 2)
    inner = metrics.forward_teacher_forced
    helpers, taken = [], threading.Event()

    def slow_helper(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            taken.wait(30)  # so that a helper runs a chunk
        else:
            helpers.append(threading.current_thread())
            taken.set()
            time.sleep(0.2)  # outlasts the calling thread's chunks
        return inner(*args, **kwargs)

    monkeypatch.setattr(metrics, "forward_teacher_forced", slow_helper)
    before = threading.active_count()
    metrics.corpus_cross_entropy(params, config, pairs)
    assert helpers and not any(t.is_alive() for t in helpers)
    assert threading.active_count() == before


def test_fan_out_stress_more_workers_than_cpus(monkeypatch):
    from curricula import metrics

    config, params, pairs = _past_the_gate(range(30, 61))
    monkeypatch.setattr(metrics, "_workers", lambda config: 1)
    serial = _fan_out_outputs(config, params, pairs)
    monkeypatch.setattr(metrics, "_workers", lambda config: 8)
    rows = []
    inner = metrics.forward_teacher_forced

    def counting(params, config, batch, **kwargs):
        rows.append(batch.size)
        return inner(params, config, batch, **kwargs)

    monkeypatch.setattr(metrics, "forward_teacher_forced", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            rows.clear()
            entropies, counts, tokens = _fan_out_outputs(config, params, pairs)
            # every pair ran in exactly one chunk, and no result was lost
            assert sum(rows) == len(pairs) and len(rows) > 8
            assert entropies.tobytes() == serial[0].tobytes() and tokens == serial[2]
    finally:
        sys.setswitchinterval(interval)


def _in_subprocess(script, timeout=None, **env):
    """The JSON that `script` prints last, run in a fresh interpreter that
    imports this file's modules, with `env` added to its environment."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, (
        str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH"),
    )))
    run = subprocess.run([sys.executable, "-c", script], env={
        **os.environ, "PYTHONPATH": path, **env,
    }, capture_output=True, text=True, check=True, timeout=timeout)
    return json.loads(run.stdout.splitlines()[-1])


def _count_starts(monkeypatch):
    """Records the name of every thread started from here on."""
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def test_fan_out_of_one_worker_runs_every_chunk_on_the_calling_thread_in_order(monkeypatch):
    from curricula import metrics

    config, params, pairs = _past_the_gate(range(30, 61))
    monkeypatch.setattr(metrics, "_workers", lambda config: 1)
    starts = _count_starts(monkeypatch)
    ran = {"score": [], "decode": []}  # (thread, pair indices) per chunk
    make_batch, greedy_decode = metrics.make_batch, metrics.greedy_decode

    def batch(chunk):
        ran["score"].append((threading.current_thread().name, [p.index for p in chunk]))
        return make_batch(chunk)

    def decode(params, config, sources, max_len):
        indices = [next(p.index for p in pairs if p.src_ids is s) for s in sources]
        ran["decode"].append((threading.current_thread().name, indices))
        return greedy_decode(params, config, sources, max_len)

    monkeypatch.setattr(metrics, "make_batch", batch)
    monkeypatch.setattr(metrics, "greedy_decode", decode)
    _fan_out_outputs(config, params, pairs)
    main = threading.main_thread().name
    for name, keys, size in (
        ("score", [(0, len(p.src_ids), len(p.tgt_out_ids)) for p in pairs],
         metrics._SCORE_CHUNK),
        ("decode", [(10, len(p.src_ids)) for p in pairs], metrics._DECODE_CHUNK),
    ):
        chunks = list(metrics._chunks(keys, size, 1))
        assert len(chunks) >= 2 and ran[name] == [(main, c) for c in chunks]
    assert starts == []


def helper_start_failure() -> str:
    """A call of several chunks at W = 3 whose second helper fails to start,
    as JSON: whether the call raised that start's error as itself, the
    starts tried, and the threads it left running."""
    from curricula import metrics

    config, params, pairs = _past_the_gate()
    metrics._workers = lambda config: 3
    error = RuntimeError("can't start new thread")
    start, starts = threading.Thread.start, []

    def failing(thread):
        starts.append(thread.name)
        if len(starts) == 2:
            raise error
        start(thread)

    before = threading.active_count()
    threading.Thread.start = failing
    try:
        metrics.corpus_cross_entropy(params, config, pairs)
        raised = False
    except RuntimeError as exc:
        raised = exc is error
    finally:
        threading.Thread.start = start
    return json.dumps({
        "raised": raised, "starts": len(starts),
        "left": threading.active_count() - before,
    })


def test_fan_out_helper_that_fails_to_start_leaves_no_helper_running():
    # in a subprocess: a helper left blocked on its queue would keep this
    # process from exiting, and the timeout fails the test
    from curricula import metrics

    config, params, pairs = _past_the_gate()
    keys = [(0, len(p.src_ids), len(p.tgt_out_ids)) for p in pairs]
    assert len(list(metrics._chunks(keys, metrics._SCORE_CHUNK, 3))) >= 3
    outcome = _in_subprocess(
        "import test_metrics; print(test_metrics.helper_start_failure())", timeout=60)
    assert outcome == {"raised": True, "starts": 2, "left": 0}


def test_fan_out_bits_hold_across_cpus_and_blas_threads():
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        pytest.skip("the fan-out needs at least two CPUs")
    for model in _FAN_OUT_MODELS:
        digest = f"import test_metrics; print(test_metrics.fan_out_digest({model!r}))"
        one_cpu = f"import os; os.sched_setaffinity(0, {{{cpus[0]}}}); {digest}"
        runs = {}
        for name, threads, script in (
            ("fanned out", "1", digest), ("one cpu", "1", one_cpu),
            ("two blas threads", "2", digest),
        ):
            runs[name] = _in_subprocess(script, OPENBLAS_NUM_THREADS=threads)
        assert runs["fanned out"]["workers"] == len(cpus)
        assert runs["one cpu"]["workers"] == 1
        assert runs["two blas threads"]["workers"] == max(1, len(cpus) // 2)
        assert len({r["sha256"] for r in runs.values()}) == 1, (model, runs)


# ---------------------------------------------------------------------------
# fewer chunks than workers: large products cut by columns
# ---------------------------------------------------------------------------

def _one_chunk(n=4):
    """A 256-unit model, whose recurrent product's halves (8 * 256 * 512
    multiply-adds) are past `_SMALL_PRODUCT`, and n pairs that one call
    runs as one chunk."""
    from curricula import metrics

    config, params, pairs = _past_the_gate(hidden_dim=256)
    pairs = pairs[:n]
    for keys, size in (
        ([(0, len(p.src_ids), len(p.tgt_out_ids)) for p in pairs], metrics._SCORE_CHUNK),
        ([(10, len(p.src_ids)) for p in pairs], metrics._DECODE_CHUNK),
    ):
        assert len(list(metrics._chunks(keys, size, 2))) == 1
    return config, params, pairs


def _edit_column_parts(monkeypatch, edit):
    """Sends the parts of every column-parts `_Helpers.run`, one made while
    the `run` of a call's chunks is running, through `edit(parts)`; the
    chunks' own `run` is left alone."""
    from curricula import metrics

    inner = metrics._Helpers.run
    depth = []  # a mark per `run` in progress; only the calling thread nests

    def run(self, parts):
        if depth:
            parts = edit(parts)
        depth.append(self)
        try:
            return inner(self, parts)
        finally:
            depth.pop()

    monkeypatch.setattr(metrics._Helpers, "run", run)


def _helper_runs_the_second(parts):
    """`parts` with the first waiting until the second has started, so that
    a helper runs the second: the calling thread would take it once idle."""
    second = threading.Event()

    def first():
        second.wait(30)
        parts[0]()

    def started(part):
        second.set()
        part()

    return [first, functools.partial(started, parts[1]), *parts[2:]]


def _record_parts(monkeypatch):
    """Records the name of the thread that runs each column part; a helper
    runs the second part of every product."""
    threads = []

    def recorded(part):
        threads.append(threading.current_thread().name)
        part()

    _edit_column_parts(monkeypatch, lambda parts: [
        functools.partial(recorded, part) for part in _helper_runs_the_second(parts)
    ])
    return threads


def test_column_parts_of_one_chunk_have_the_bits_of_one_worker(monkeypatch):
    from curricula import metrics, seq2seq

    config, params, pairs = _one_chunk()
    monkeypatch.setattr(metrics, "_workers", lambda config: 1)
    serial = _fan_out_outputs(config, params, pairs)
    threads = _record_parts(monkeypatch)
    monkeypatch.setattr(metrics, "_workers", lambda config: 2)
    before = threading.active_count()
    h2, n2, tokens2 = _fan_out_outputs(config, params, pairs)
    assert h2.tobytes() == serial[0].tobytes() and n2.tobytes() == serial[1].tobytes()
    assert tokens2 == serial[2]
    # on a measured BLAS every product was cut in two, and a helper computed
    # the second part; on any other none was cut
    if seq2seq._measured_blas():
        main = threading.main_thread().name
        assert threads and threads[::2] == [main] * (len(threads) // 2)
        assert all(name.startswith("curricula-chunks-") for name in threads[1::2])
    else:
        assert threads == []
    assert threading.active_count() == before


def test_column_parts_error_is_raised_as_it_was_raised(monkeypatch):
    from curricula import metrics, seq2seq

    config, params, pairs = _one_chunk()
    monkeypatch.setattr(metrics, "_workers", lambda config: 2)
    # cut on any BLAS: no bit is compared here
    monkeypatch.setattr(seq2seq, "_measured_blas", lambda: True)
    error = FloatingPointError("a part failed")
    calls, started = [], []

    def fail():
        started.append(threading.current_thread().name)
        raise error

    def failing(parts):
        calls.append(len(parts))
        return _helper_runs_the_second([parts[0], fail, *parts[2:]])

    _edit_column_parts(monkeypatch, failing)
    before = threading.active_count()
    for entry in (metrics.corpus_cross_entropy, metrics.decode_pairs):
        calls.clear()
        with pytest.raises(FloatingPointError) as info:
            entry(params, config, pairs)
        assert info.value is error
        # the first product failed, and no later product was cut
        assert calls == [2]
        assert threading.active_count() == before
    assert started and all(name.startswith("curricula-chunks-") for name in started)


def test_column_parts_stop_once_a_part_fails():
    from curricula.metrics import _Helpers

    error, ran = KeyError("part"), []

    def fail():
        raise error

    helpers = _Helpers(2)
    try:
        with pytest.raises(KeyError) as first:
            helpers.run([lambda: ran.append(0), fail])
        with pytest.raises(KeyError) as second:  # no part starts after it
            helpers.run([lambda: ran.append(1)] * 2)
    finally:
        helpers.close()
    assert first.value is error and second.value is error
    assert 1 not in ran
    assert not any(thread.is_alive() for thread in helpers.threads)


def test_column_parts_join_their_helpers_before_returning(monkeypatch):
    from curricula import metrics, seq2seq

    config, params, pairs = _one_chunk()
    monkeypatch.setattr(metrics, "_workers", lambda config: 3)
    # cut on any BLAS: no bit is compared here
    monkeypatch.setattr(seq2seq, "_measured_blas", lambda: True)
    helpers = []
    inner = metrics._Helpers.close

    def close(self):
        helpers.extend(self.threads)
        inner(self)

    monkeypatch.setattr(metrics._Helpers, "close", close)
    before = threading.active_count()
    metrics.corpus_cross_entropy(params, config, pairs)
    metrics.decode_pairs(params, config, pairs, 10)
    # each call started the one helper that its two-part products need
    assert len(helpers) == 2 and not any(t.is_alive() for t in helpers)
    assert threading.active_count() == before


def test_column_parts_start_only_the_helpers_a_product_needs(monkeypatch):
    from curricula import metrics, seq2seq

    config, params, pairs = _one_chunk()
    for keys, size in (
        ([(0, len(p.src_ids), len(p.tgt_out_ids)) for p in pairs], metrics._SCORE_CHUNK),
        ([(10, len(p.src_ids)) for p in pairs], metrics._DECODE_CHUNK),
    ):
        assert len(list(metrics._chunks(keys, size, 8))) == 1
    # the widest product the model makes is cut in two
    assert len(seq2seq._column_parts(256, 1024, 8)) == 2
    monkeypatch.setattr(metrics, "_workers", lambda config: 8)
    # cut on any BLAS: no bit is compared here
    monkeypatch.setattr(seq2seq, "_measured_blas", lambda: True)
    starts = _count_starts(monkeypatch)
    before = threading.active_count()
    _fan_out_outputs(config, params, pairs)
    # one helper per call, where helpers sized by W would be seven
    assert starts == ["curricula-chunks-1"] * 2
    assert threading.active_count() == before


def test_column_parts_stress_more_workers_than_cpus(monkeypatch):
    from curricula import metrics, seq2seq

    config, params, pairs = _one_chunk(6)
    keys = [(10, len(p.src_ids)) for p in pairs]
    assert len(list(metrics._chunks(keys, metrics._DECODE_CHUNK, 8))) == 1
    monkeypatch.setattr(metrics, "_workers", lambda config: 1)
    serial = _fan_out_outputs(config, params, pairs)
    threads = _record_parts(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 4, 8):
            monkeypatch.setattr(metrics, "_workers", lambda config, w=workers: w)
            for _ in range(2):
                threads.clear()
                entropies, counts, tokens = _fan_out_outputs(config, params, pairs)
                assert entropies.tobytes() == serial[0].tobytes() and tokens == serial[2]
                helped = any(name != threading.main_thread().name for name in threads)
                assert helped == seq2seq._measured_blas()
    finally:
        sys.setswitchinterval(interval)


def test_fan_out_of_fewer_chunks_than_workers_cuts_no_column(monkeypatch):
    # two or more chunks fan out over at most one thread each, however few
    # they are, and no product is cut by columns
    from curricula import metrics, seq2seq

    config, params, pairs = _past_the_gate(hidden_dim=256)
    pairs = pairs[:20]
    for keys, size in (
        ([(0, len(p.src_ids), len(p.tgt_out_ids)) for p in pairs], metrics._SCORE_CHUNK),
        ([(10, len(p.src_ids)) for p in pairs], metrics._DECODE_CHUNK),
    ):
        assert len(list(metrics._chunks(keys, size, 4))) == 3
    monkeypatch.setattr(metrics, "_workers", lambda config: 1)
    serial = _fan_out_outputs(config, params, pairs)
    threads = _record_parts(monkeypatch)
    starts = _count_starts(monkeypatch)
    per_call = ["curricula-chunks-1", "curricula-chunks-2"]  # one per chunk but the first
    monkeypatch.setattr(metrics, "_workers", lambda config: 4)
    before = threading.active_count()
    entropies, counts, tokens = _fan_out_outputs(config, params, pairs)
    assert entropies.tobytes() == serial[0].tobytes() and tokens == serial[2]
    assert starts == per_call * 2 and threads == []
    # not even where the BLAS would allow a cut (no bit is compared)
    monkeypatch.setattr(seq2seq, "_measured_blas", lambda: True)
    _fan_out_outputs(config, params, pairs)
    assert starts == per_call * 4 and threads == []
    assert threading.active_count() == before


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
