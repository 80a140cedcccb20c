"""The benchmark workloads and the correctness checks run after each.

A workload is a set-up, a timed section and a check. Each repetition starts
from an empty output directory, and the workload seed feeds both the corpus
seed and the experiment seed. Every training spec sets patience equal to
max_epochs, so the work a repetition does is fixed by its spec: a change
that moved floating-point bits cannot stop training early and look faster.

Library calls go through module attributes at call time (`cur.fit`, not a
name imported once), so that spans installed by `tracing.Tracer` see them.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import curricula as cur
from curricula import harness


@dataclass(frozen=True)
class Sizes:
    train_size: int = 1000
    score_size: int = 40
    score_preset: str = "base"


FULL = Sizes()
# Toy sizes for the smoke test: the same code paths in about a second each.
SMOKE = Sizes(train_size=60, score_size=30, score_preset="tiny")


@dataclass
class RepOutput:
    rows: list[tuple[float, float]]  # (test perplexity, test BLEU) per report row
    problems: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_rep: int  # report rows, or score_corpus / evaluate_model calls
    setup: Callable[[Path, int, Sizes], dict]
    run: Callable[[dict], object]  # the timed section
    check: Callable[[dict, object], RepOutput]
    expected_spans: tuple[str, ...]  # layers a traced repetition must reach


def artifact_digest(out: Path) -> str:
    """sha256 over every file below `out` except run logs, in path order.

    Artifacts that name other artifacts (`directional_sanity.tsv` lists each
    seed's report) hold absolute paths. Those are hashed relative to `out`,
    so that the digest is the same in every process and checkout.
    """
    prefix = os.fsencode(out) + b"/"
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name == "run.log":
            continue
        h.update(str(path.relative_to(out)).encode("utf-8") + b"\0")
        h.update(path.read_bytes().replace(prefix, b""))
    return h.hexdigest()


def _table_problems(table, train_indices: set[int], where: str) -> list[str]:
    # ScoreTable itself refuses non-finite values on construction and load
    if set(table.indices()) != train_indices:
        return [f"{where}: score table does not cover exactly the training indices"]
    return []


def check_experiment(exp_dir: Path) -> RepOutput:
    """Audit the artifacts `run_experiment` left in `exp_dir` against its report."""
    problems: list[str] = []
    text = (exp_dir / "report.tsv").read_text(encoding="utf-8")
    report = harness.report_from_tsv(text)
    if harness.report_to_tsv(report) != text:
        problems.append("report.tsv does not round-trip through report_from_tsv")
    meta = report.metadata
    corpus_dir = exp_dir / "corpus"
    train_indices = set(
        cur.load_parallel_corpus(corpus_dir / "train.src", corpus_dir / "train.tgt").indices()
    )

    tables = {}
    for path in sorted(exp_dir.glob("scores_*.txt")):
        table = cur.ScoreTable.load(path)
        problems += _table_problems(table, train_indices, path.name)
        tables[(table.metric, table.scorer_fingerprint)] = table
    plans = {}
    for path in sorted(exp_dir.glob("plan_*.txt")):
        plan = cur.OrderingPlan.load(path)
        plans[plan.fingerprint()] = plan
    recorded = {meta["init_fingerprint"]} | {
        v for k, v in meta.items() if k.startswith("scorer_fingerprint.")
    }
    for n in range(len(report.rows)):
        strategy = cur.parse_strategy(meta[f"row.{n}.strategy"])
        scorer = meta[f"row.{n}.scorer"]
        plan = plans.pop(meta[f"row.{n}.plan_fingerprint"], None)
        if plan is None:
            problems.append(f"row {n}: no saved plan matches the report")
            continue
        table = None
        if strategy.required_metric is not None:
            scorer_fp = "none" if scorer == "none" else meta[f"scorer_fingerprint.{scorer}"]
            table = tables.get((strategy.required_metric, scorer_fp))
            if table is None:
                problems.append(f"row {n}: no saved score table for its plan")
                continue
        check = cur.verify_plan(plan, train_indices, table)
        if not check.ok:
            problems.append(f"row {n}: plan fails verify_plan: {check.violation}")
        recorded.add(meta[f"row.{n}.checkpoint_fingerprint"])
    if plans:
        problems.append(f"{len(plans)} saved plans are not in the report")
    found = {cur.load_checkpoint(p).fingerprint for p in exp_dir.glob("*.ckpt")}
    if found != recorded:
        problems.append("reloaded checkpoints do not match the report's fingerprints")
    rows = [(r.test_perplexity, r.test_bleu) for r in report.rows]
    return RepOutput(rows, problems)


# ---------------------------------------------------------------------------
# train-small: one directional-sanity seed
# ---------------------------------------------------------------------------

def _train_small_setup(out: Path, seed: int, sizes: Sizes) -> dict:
    train = cur.TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=1, patience=1)
    return {"out": out, "seed": seed, "size": sizes.train_size, "train": train}


def _train_small_run(ctx: dict):
    return cur.run_directional_sanity(
        ctx["out"], seeds=(ctx["seed"],), size=ctx["size"], vocab=20,
        min_len=5, max_len=10, noise=0.2, preset="small", train=ctx["train"],
    )


def _train_small_check(ctx: dict, result) -> RepOutput:
    return check_experiment(ctx["out"] / f"seed_{ctx['seed']}")


# ---------------------------------------------------------------------------
# score-base: inference only, from a large checkpoint
# ---------------------------------------------------------------------------

def _score_base_setup(out: Path, seed: int, sizes: Sizes) -> dict:
    train, _, test = cur.generate_toy_corpus(
        "reverse", sizes.score_size, 20, (5, 10), seed
    )
    src_vocab = cur.build_vocab(train, "source", 1)
    tgt_vocab = cur.build_vocab(train, "target", 1)
    config = cur.ModelConfig.preset(sizes.score_preset, len(src_vocab), len(tgt_vocab))
    params = cur.init_params(config, seed)
    # Whether an untrained model ever emits EOS depends on its seed. A low EOS
    # bias makes every greedy decode run its full budget, so that the work of
    # a repetition does not change with the seed.
    params["out_b"][cur.EOS_ID] = -30.0
    ckpt = cur.ModelCheckpoint(
        config=config,
        params=params,
        src_vocab_fingerprint=src_vocab.fingerprint(),
        tgt_vocab_fingerprint=tgt_vocab.fingerprint(),
    )
    path = out / f"{sizes.score_preset}.ckpt"
    cur.save_checkpoint(ckpt, path)
    return {
        "out": out,
        "path": path,
        "fingerprint": ckpt.fingerprint,
        "train_indices": set(train.indices()),
        "train_enc": cur.encode_corpus(train, src_vocab, tgt_vocab),
        "test_enc": cur.encode_corpus(test, src_vocab, tgt_vocab),
    }


def _score_base_run(ctx: dict):
    model = cur.load_checkpoint(ctx["path"])
    ppl = cur.score_corpus(model, ctx["train_enc"], "ppl")
    bleu = cur.score_corpus(model, ctx["train_enc"], "bleu")
    return model.fingerprint, ppl, bleu, cur.evaluate_model(model, ctx["test_enc"])


def _score_base_check(ctx: dict, result) -> RepOutput:
    fingerprint, ppl, bleu, evaluation = result
    problems = []
    if fingerprint != ctx["fingerprint"]:
        problems.append("reloaded checkpoint fingerprint differs from the saved one")
    for table in (ppl, bleu):
        problems += _table_problems(table, ctx["train_indices"], table.metric)
        # saved after the timed section, so that the artifact digest covers it
        table.save(ctx["out"] / f"scores_{table.metric}.txt")
    (ctx["out"] / "eval.txt").write_text(evaluation.to_line() + "\n", encoding="utf-8")
    return RepOutput([(evaluation.perplexity, evaluation.bleu)], problems)


_TRAINED = (
    "trainer.fit", "trainer.train_epoch", "trainer.adam_step",
    "trainer.clip_gradients", "trainer.validation_perplexity",
    "seq2seq.loss_and_gradients", "seq2seq.forward_teacher_forced",
    "seq2seq.greedy_decode", "seq2seq.make_batch", "seq2seq.init_params",
    "metrics.score_corpus", "metrics.corpus_cross_entropy",
    "metrics.ScoreTable.save", "evaluate.evaluate_model", "evaluate.corpus_bleu",
    "checkpoint.save_checkpoint", "ordering.make_ordering", "ordering.verify_plan",
    "ordering.schedule_batches", "ordering.OrderingPlan.save",
    "harness.prepare_data", "harness.generate_toy_corpus", "harness.emit_report",
    "corpus.build_vocab", "corpus.encode_corpus", "corpus.write_corpus",
    "corpus.Vocabulary.save",
)

# Why each workload was chosen is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-small", 2, _train_small_setup, _train_small_run, _train_small_check, _TRAINED,
        ),
        Workload(
            "score-base", 3, _score_base_setup, _score_base_run, _score_base_check,
            (
                "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
                "seq2seq.init_params", "seq2seq.forward_teacher_forced",
                "seq2seq.greedy_decode", "seq2seq.make_batch",
                "metrics.score_corpus", "metrics.corpus_cross_entropy",
                "metrics.sentence_bleu", "evaluate.evaluate_model",
                "evaluate.corpus_bleu", "harness.generate_toy_corpus",
                "corpus.build_vocab", "corpus.encode_corpus",
            ),
        ),
    )
}
