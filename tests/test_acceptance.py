"""Acceptance suite: one test per criterion, each printing a PASS line.

Paper-scale numbers are explicitly out of reach at desk scale (they need a
60k-pair corpus and 512-unit models trained for dozens of epochs); these
tests verify the structure, the oracles and the toy-scale behavior instead.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from curricula.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from curricula.corpus import EncodedPair, build_vocab, encode_corpus
from curricula.errors import CheckpointCorruptError
from curricula.evaluate import corpus_bleu, evaluate_model
from curricula.harness import (
    CorpusSpec,
    ExperimentSpec,
    generate_toy_corpus,
    run_directional_sanity,
    run_experiment,
)
from curricula.metrics import (
    PairScore,
    ScoreTable,
    pair_cross_entropy,
    pair_perplexity,
    sentence_bleu,
)
from curricula.ordering import Strategy, make_ordering, table_one_strategies, verify_plan
from curricula.seq2seq import (
    ModelConfig,
    forward_teacher_forced,
    init_params,
    loss_and_gradients,
    make_batch,
    parameter_shapes,
)
from curricula.trainer import AdamState, TrainConfig, adam_step, fit
from oracles import (
    finite_difference_check,
    oracle_corpus_bleu,
    oracle_sentence_bleu,
    sample_coordinates,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# Table structure on toy data
# ---------------------------------------------------------------------------

def test_table_structure_reproduced_on_toy_data(tmp_path):
    started = time.perf_counter()
    corpus = CorpusSpec(toy_task="reverse", size=100, vocab=8, min_len=3, max_len=6, seed=3)
    train_cfg = TrainConfig(
        learning_rate=1e-3, batch_size=16, max_epochs=2, patience=2, seed=0
    )

    ten = run_experiment(
        ExperimentSpec(
            corpus=corpus,
            strategies=table_one_strategies(),
            scorer_presets=("small",),
            trainer_preset="tiny",
            train=train_cfg,
            seed=11,
            output_dir=tmp_path / "ten",
        )
    )
    expected_labels = [s.label() for s in table_one_strategies()]
    assert [r.strategy for r in ten.rows] == expected_labels
    assert all(math.isfinite(r.test_perplexity) and 0 <= r.test_bleu <= 1 for r in ten.rows)

    eight = run_experiment(
        ExperimentSpec(
            corpus=corpus,
            strategies=(
                Strategy("ppl", direction="asc"),
                Strategy("ppl", direction="desc"),
                Strategy("bleu", direction="asc"),
                Strategy("bleu", direction="desc"),
            ),
            scorer_presets=("small", "base"),
            trainer_preset="tiny",
            train=train_cfg,
            seed=11,
            output_dir=tmp_path / "eight",
        )
    )
    assert len(eight.rows) == 8
    assert [(r.strategy, r.scorer) for r in eight.rows] == [
        ("Ascending PPL Order", "small"),
        ("Ascending PPL Order", "base"),
        ("Descending PPL Order", "small"),
        ("Descending PPL Order", "base"),
        ("Ascending BLEU Order", "small"),
        ("Ascending BLEU Order", "base"),
        ("Descending BLEU Order", "small"),
        ("Descending BLEU Order", "base"),
    ]
    elapsed = time.perf_counter() - started
    _report(
        "table structure (10 + 8 rows) on toy data",
        len(ten.rows) == 10 and len(eight.rows) == 8 and elapsed < 1800,
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Metric oracles
# ---------------------------------------------------------------------------

def test_bleu_matches_brute_force_oracles():
    rng = np.random.default_rng(2024)
    alphabet = list("abcde")
    ok = True
    for _ in range(200):
        cand = [alphabet[i] for i in rng.integers(0, 5, rng.integers(1, 13))]
        ref = [alphabet[i] for i in rng.integers(0, 5, rng.integers(1, 13))]
        ok &= sentence_bleu(cand, ref) == oracle_sentence_bleu(cand, ref)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        cands = [
            [alphabet[i] for i in rng.integers(0, 5, rng.integers(0, 13))]
            for _ in range(n)
        ]
        refs = [
            [alphabet[i] for i in rng.integers(0, 5, rng.integers(1, 13))]
            for _ in range(n)
        ]
        ok &= corpus_bleu(cands, refs) == oracle_corpus_bleu(cands, refs)
    _report("sentence/corpus BLEU match brute-force counting exactly", ok)


def test_perplexity_is_two_to_the_entropy_within_one_ulp():
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(100):
        hidden = int(rng.integers(4, 10))
        config = ModelConfig(
            embed_dim=int(rng.integers(4, 10)),
            hidden_dim=hidden,
            encoder_layers=int(rng.integers(1, 3)),
            decoder_layers=int(rng.integers(1, 3)),
            use_attention=bool(rng.integers(0, 2)),
            dropout_p=0.2,
            src_vocab_size=10,
            tgt_vocab_size=10,
        )
        params = init_params(config, seed=case)
        ckpt = ModelCheckpoint(
            config=config, params=params,
            src_vocab_fingerprint="r", tgt_vocab_fingerprint="r",
        )
        src = tuple(int(x) for x in rng.integers(4, 10, rng.integers(1, 7)))
        tgt = tuple(int(x) for x in rng.integers(4, 10, rng.integers(1, 7)))
        pair = EncodedPair(0, src, (1,) + tgt, tgt + (2,), "r", "r")
        ppl = pair_perplexity(ckpt, pair)
        expected = 2.0 ** pair_cross_entropy(ckpt, pair)
        worst = max(worst, abs(ppl - expected) / np.spacing(expected))
    _report(
        "pair_perplexity == 2^cross_entropy within 1 ulp on 100 cases",
        worst <= 1.0,
        f"worst {worst:.2f} ulp",
    )


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------

def test_gradient_check_both_layouts():
    started = time.perf_counter()
    raw = [
        (0, (4, 5, 6, 7), (5, 6)),
        (1, (8, 9, 10), (7, 8, 9, 10)),
        (2, (11, 4), (11,)),
    ]
    batch = make_batch(
        [EncodedPair(i, s, (1,) + t, t + (2,), "g", "g") for i, s, t in raw]
    )
    layouts = (
        ModelConfig(8, 8, 2, 2, True, 0.2, 12, 12),  # base layer layout
        ModelConfig(8, 8, 1, 2, False, 0.2, 12, 12),  # small layer layout
    )
    errors = []
    for layout in layouts:
        rng = np.random.default_rng(5)
        params = {n: rng.uniform(-0.5, 0.5, size=sh) for n, sh in parameter_shapes(layout)}
        _, grads = loss_and_gradients(params, layout, batch)
        coords = sample_coordinates(params, 250, seed=17)
        errors += finite_difference_check(
            params,
            grads,
            lambda p, c=layout: forward_teacher_forced(p, c, batch).mean_loss,
            coords,
            h=1e-4,
        )
    elapsed = time.perf_counter() - started
    good = sum(e < 1e-4 for e in errors)
    _report(
        "finite-difference gradient check (500 coordinates, both layouts)",
        good >= 0.99 * len(errors) and elapsed < 60,
        f"{good}/{len(errors)} within 1e-4, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Ordering invariants
# ---------------------------------------------------------------------------

def test_ordering_invariants_on_thousand_pairs():
    n = 1000
    indices = range(n)
    rng = np.random.default_rng(0)
    lengths_src = {i: float(v) for i, v in enumerate(rng.integers(5, 12, n))}
    tables = {
        "length:source": ScoreTable(
            "length:source", "none", tuple(PairScore(i, v) for i, v in lengths_src.items())
        ),
        "length:target": ScoreTable(
            "length:target", "none",
            tuple(PairScore(i, float(v)) for i, v in enumerate(rng.integers(5, 12, n))),
        ),
        # heavy duplication: only 7 distinct values across 1000 pairs
        "ppl": ScoreTable(
            "ppl", "f",
            tuple(PairScore(i, float(1 + (i % 7))) for i in range(n)),
        ),
        "bleu": ScoreTable(
            "bleu", "f",
            tuple(PairScore(i, float((i * 13) % 7) / 7) for i in range(n)),
        ),
    }
    ok = True
    details = []
    for strategy in table_one_strategies():
        scores = tables.get(strategy.required_metric)
        plan = make_ordering(strategy, scores, indices, num_epochs=4, seed=3)
        check = verify_plan(plan, indices, scores)
        ok &= check.ok
        if not check.ok:
            details.append(f"{strategy.token()}: {check.violation}")
    # tie-free table: ascending and descending are exact reverses
    unique = rng.permutation(n).astype(float)
    tiefree = ScoreTable(
        "ppl", "f", tuple(PairScore(i, float(v)) for i, v in enumerate(unique))
    )
    asc = make_ordering(Strategy("ppl", direction="asc"), tiefree, indices, 1)
    desc = make_ordering(Strategy("ppl", direction="desc"), tiefree, indices, 1)
    reverses = np.array_equal(
        asc.epoch_permutations[0], desc.epoch_permutations[0][::-1]
    )
    ok &= reverses
    _report(
        "ordering invariants over 1000 pairs with duplicate scores",
        ok,
        "; ".join(details) if details else "all strategies verified",
    )


# ---------------------------------------------------------------------------
# Adam unit check
# ---------------------------------------------------------------------------

def test_adam_unit_check():
    config = TrainConfig(learning_rate=1e-5)
    params = {"w": np.array([0.25])}
    # g=1 from a fresh state: m_hat = v_hat = 1 exactly, step = -lr/(1+eps)
    stepped, state = adam_step(params, {"w": np.ones(1)}, AdamState.fresh(params), config)
    expected = 0.25 - 1e-5 / (1.0 + 1e-8)
    first_step_ok = abs(stepped["w"][0] - expected) <= 1e-12
    zeroed, _ = adam_step(params, {"w": np.zeros(1)}, AdamState.fresh(params), config)
    zero_ok = zeroed["w"].tobytes() == params["w"].tobytes()
    _report(
        "Adam first-step hand derivation (1e-12) and zero-gradient bit-identity",
        first_step_ok and zero_ok,
        f"|step error| = {abs(stepped['w'][0] - expected):.2e}",
    )


# ---------------------------------------------------------------------------
# End-to-end determinism
# ---------------------------------------------------------------------------

def test_end_to_end_determinism(tmp_path):
    def spec(out):
        return ExperimentSpec(
            corpus=CorpusSpec(toy_task="reverse", size=60, vocab=8, min_len=3, max_len=5, seed=1),
            strategies=(
                Strategy("shuffle_once"),
                Strategy("length", side="source", direction="desc"),
                Strategy("ppl", direction="asc"),
            ),
            scorer_presets=("tiny",),
            trainer_preset="tiny",
            train=TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=2, patience=2, seed=0),
            seed=5,
            output_dir=out,
        )

    run_experiment(spec(tmp_path / "a"))
    run_experiment(spec(tmp_path / "b"))
    compared = []
    identical = True
    for path_a in sorted((tmp_path / "a").rglob("*")):
        if path_a.is_dir() or path_a.name == "run.log":
            continue
        path_b = tmp_path / "b" / path_a.relative_to(tmp_path / "a")
        same = path_b.exists() and path_a.read_bytes() == path_b.read_bytes()
        identical &= same
        compared.append(path_a.name)
    assert {"report.tsv", "report.md"} <= set(compared)
    assert any(name.startswith("scores_") for name in compared)
    assert any(name.startswith("plan_") for name in compared)
    assert any(name.endswith(".ckpt") for name in compared)
    _report(
        "two runs of one spec are byte-identical",
        identical and len(compared) >= 10,
        f"{len(compared)} artifacts compared",
    )


# ---------------------------------------------------------------------------
# Toy learning
# ---------------------------------------------------------------------------

def test_toy_learning_reverse_task():
    started = time.perf_counter()
    train, val, test = generate_toy_corpus("reverse", 2500, 20, (5, 10), seed=7)
    assert len(train) == 2000
    src_vocab = build_vocab(train, "source", 1)
    tgt_vocab = build_vocab(train, "target", 1)
    train_enc = encode_corpus(train, src_vocab, tgt_vocab)
    val_enc = encode_corpus(val, src_vocab, tgt_vocab)
    test_enc = encode_corpus(test, src_vocab, tgt_vocab)
    config = ModelConfig.preset("small", len(src_vocab), len(tgt_vocab))
    train_cfg = TrainConfig(
        learning_rate=1e-3,  # toy override of the deliberately low default
        batch_size=12,
        max_epochs=30,
        patience=30,
        seed=3,
    )
    plan = make_ordering(
        Strategy("shuffle_every_epoch"), None, train.indices(), 30, seed=5
    )
    ckpt, history, best_epoch = fit(
        init_params(config, seed=1), config, plan, train_enc, val_enc, train_cfg
    )
    result = evaluate_model(ckpt, test_enc)
    elapsed = time.perf_counter() - started
    _report(
        "small preset learns the reverse task (test BLEU >= 0.90, <= 30 epochs)",
        result.bleu >= 0.90 and len(history) <= 30 and elapsed < 600,
        f"BLEU {result.bleu:.4f} at epoch {best_epoch}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Directional sanity (soft: the pipeline must complete and report)
# ---------------------------------------------------------------------------

def test_directional_sanity_pipeline(tmp_path):
    summary = run_directional_sanity(
        tmp_path / "sanity",
        seeds=(1, 2, 3),
        size=1000,
        vocab=20,
        min_len=5,
        max_len=10,
        noise=0.2,
        preset="small",
        train=TrainConfig(
            learning_rate=1e-3, batch_size=16, max_epochs=20, patience=20, seed=0
        ),
    )
    summary_path = Path(summary["summary_path"])
    text = summary_path.read_text()
    provenance_ok = True
    for seed in (1, 2, 3):
        report = tmp_path / "sanity" / f"seed_{seed}" / "report.tsv"
        provenance_ok &= report.exists()
        provenance_ok &= "checkpoint_fingerprint" in report.read_text()
    _report(
        "ascending-PPL vs shuffle-once comparison pipeline (soft)",
        math.isfinite(summary["delta"]) and "# delta" in text and provenance_ok,
        f"mean BLEU delta {summary['delta']:+.4f} over seeds (1, 2, 3)",
    )


# ---------------------------------------------------------------------------
# Checkpoint round-trip
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_and_truncation(tmp_path):
    config = ModelConfig(10, 10, 2, 2, True, 0.2, 14, 14)
    params = init_params(config, seed=21)
    ckpt = ModelCheckpoint(
        config=config, params=params,
        src_vocab_fingerprint="s", tgt_vocab_fingerprint="t",
        history=({"epoch": 1, "train_loss": 3.0, "val_perplexity": 9.0},),
    )
    save_checkpoint(ckpt, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    rng = np.random.default_rng(4)
    bits_ok = True
    for _ in range(10):
        pairs = []
        for i in range(int(rng.integers(1, 5))):
            src = tuple(int(x) for x in rng.integers(4, 14, rng.integers(1, 8)))
            tgt = tuple(int(x) for x in rng.integers(4, 14, rng.integers(1, 8)))
            pairs.append(EncodedPair(i, src, (1,) + tgt, tgt + (2,), "s", "t"))
        batch = make_batch(pairs)
        a = forward_teacher_forced(ckpt.params, config, batch)
        b = forward_teacher_forced(loaded.params, loaded.config, batch)
        bits_ok &= a.mean_loss == b.mean_loss
        bits_ok &= np.array_equal(a.log_probs, b.log_probs)
    data = (tmp_path / "m.ckpt").read_bytes()
    rejected = 0
    for cut in (8, len(data) // 3, len(data) - 1):
        (tmp_path / "cut.ckpt").write_bytes(data[:cut])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(tmp_path / "cut.ckpt")
        rejected += 1
    _report(
        "checkpoint round-trip preserves forward bits; truncation rejected",
        bits_ok and rejected == 3,
        "10 batches bit-identical",
    )
