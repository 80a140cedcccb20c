import json
import math
import shlex
import shutil
import struct
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from checkpoint_files import checkpoint_file
from conftest import overflowing_checkpoint
from curricula.cli import build_parser, main as cli_main
from curricula.checkpoint import (
    FORMAT_VERSION,
    ModelCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from curricula.errors import CheckpointFormatError, ConfigError, DataError
from curricula.evaluate import EvalResult
from curricula.metrics import ScoreTable, score_corpus
from curricula.harness import (
    CorpusSpec,
    ExperimentReport,
    ExperimentSpec,
    ReportRow,
    corrupt_targets,
    emit_report,
    generate_toy_corpus,
    load_corpus_dir,
    load_spec,
    report_from_tsv,
    report_to_markdown,
    report_to_tsv,
    run_directional_sanity,
    run_experiment,
    spec_from_text,
    spec_to_text,
    toy_alphabet,
)
from curricula.ordering import OrderingPlan, Strategy, table_one_strategies
from curricula.seq2seq import ModelConfig, init_params, parameter_shapes
from curricula.trainer import TrainConfig


def tiny_spec(tmp_path, strategies=None, seed=7, **corpus_kw):
    corpus = dict(toy_task="reverse", size=60, vocab=8, min_len=3, max_len=5, seed=1)
    corpus.update(corpus_kw)
    return ExperimentSpec(
        corpus=CorpusSpec(**corpus),
        strategies=tuple(
            strategies
            or (Strategy("shuffle_once"), Strategy("ppl", direction="asc"))
        ),
        scorer_presets=("tiny",),
        trainer_preset="tiny",
        train=TrainConfig(
            learning_rate=1e-3, batch_size=16, max_epochs=2, patience=2, seed=0
        ),
        seed=seed,
        output_dir=tmp_path / "run",
    )


# ---------------------------------------------------------------------------
# toy corpora
# ---------------------------------------------------------------------------

def test_reverse_task_reverses():
    train, _, _ = generate_toy_corpus("reverse", 40, 10, (3, 5), seed=0)
    for pair in train.pairs[:10]:
        assert pair.tgt_tokens == tuple(reversed(pair.src_tokens))


def test_copy_task_copies():
    train, _, _ = generate_toy_corpus("copy", 40, 10, (3, 5), seed=0)
    assert all(p.src_tokens == p.tgt_tokens for p in train.pairs)


def test_digit_translation_maps_digit_words():
    train, _, _ = generate_toy_corpus("digit-translation", 40, 10, (3, 5), seed=0)
    words = {"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"}
    for pair in train.pairs[:10]:
        assert all(t in words for t in pair.tgt_tokens)
        assert len(pair.tgt_tokens) == len(pair.src_tokens)


def test_toy_corpus_deterministic():
    a = generate_toy_corpus("reverse", 50, 8, (3, 6), seed=4)
    b = generate_toy_corpus("reverse", 50, 8, (3, 6), seed=4)
    for ca, cb in zip(a, b):
        assert ca.pairs == cb.pairs


def test_toy_splits_disjoint_and_sized():
    train, val, test = generate_toy_corpus("reverse", 50, 8, (3, 6), seed=4)
    assert (len(train), len(val), len(test)) == (40, 5, 5)
    seen = set()
    for corpus in (train, val, test):
        for p in corpus.pairs:
            key = (p.src_tokens, p.tgt_tokens)
            assert key not in seen
            seen.add(key)


def test_toy_corpus_validation():
    with pytest.raises(ConfigError):
        generate_toy_corpus("reverse", 10, 8, (3, 6), seed=0)
    with pytest.raises(ConfigError):
        generate_toy_corpus("reverse", 50, 8, (0, 6), seed=0)
    with pytest.raises(ConfigError):
        generate_toy_corpus("sort", 50, 8, (3, 6), seed=0)


def test_corrupt_targets_fraction_and_determinism():
    train, _, _ = generate_toy_corpus("reverse", 50, 8, (3, 6), seed=4)
    noisy = corrupt_targets(train, 0.2, toy_alphabet("reverse", 8), seed=3)
    again = corrupt_targets(train, 0.2, toy_alphabet("reverse", 8), seed=3)
    assert noisy.pairs == again.pairs
    changed = sum(
        1 for a, b in zip(train.pairs, noisy.pairs) if a.tgt_tokens != b.tgt_tokens
    )
    assert 0 < changed <= int(0.2 * len(train))
    assert noisy.indices() == train.indices()


# ---------------------------------------------------------------------------
# experiment spec file
# ---------------------------------------------------------------------------

def test_spec_text_writes_only_the_file_keys_that_are_set(tmp_path):
    spec = ExperimentSpec(
        corpus=CorpusSpec(train_src="a"),
        strategies=(Strategy("shuffle_once"),),
        scorer_presets=(),
        trainer_preset="tiny",
        train=TrainConfig(),
        seed=1,
        output_dir=tmp_path / "run",
    )
    text = spec_to_text(spec)
    assert "corpus.train_src = a\n" in text and "None" not in text
    parsed = spec_from_text(text)
    assert parsed.corpus == spec.corpus
    (tmp_path / "run.spec").write_text(text)
    assert cli_main(["experiment", "--spec", str(tmp_path / "run.spec")]) == 2


def test_spec_text_round_trip(tmp_path):
    spec = tiny_spec(tmp_path)
    text = spec_to_text(spec)
    assert text.startswith("CURRICULA-SPEC v1\n")
    parsed = spec_from_text(text)
    assert parsed.strategies == spec.strategies
    assert parsed.scorer_presets == spec.scorer_presets
    assert parsed.train == spec.train
    assert parsed.corpus == spec.corpus
    assert parsed.output_dir == spec.output_dir


def test_spec_rejects_bad_header_and_unknown_keys():
    with pytest.raises(ConfigError):
        spec_from_text("SOMETHING v2\n")
    with pytest.raises(ConfigError):
        spec_from_text(
            "CURRICULA-SPEC v1\ncorpus.toy = copy\nstrategies = shuffle_once\n"
            "trainer.preset = tiny\noutput_dir = x\nbogus = 1\n"
        )


def test_spec_requires_unique_strategies(tmp_path):
    with pytest.raises(ConfigError):
        tiny_spec(tmp_path, strategies=[Strategy("shuffle_once")] * 2)


def test_cli_refuses_duplicate_scorer_presets_before_writing(tmp_path, capsys):
    path = tmp_path / "dup.spec"
    path.write_text(
        "CURRICULA-SPEC v1\ncorpus.toy = reverse\ncorpus.size = 60\nstrategies = ppl:asc\n"
        f"scorer.presets = tiny tiny\ntrainer.preset = tiny\noutput_dir = {tmp_path / 'run'}\n"
    )
    capsys.readouterr()
    assert cli_main(["experiment", "--spec", str(path)]) == 2
    assert f"{path}: scorer presets must be unique" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_directional_sanity_refuses_no_seeds_before_writing(tmp_path):
    with pytest.raises(ConfigError, match="needs at least one seed"):
        run_directional_sanity(tmp_path / "sanity", seeds=())
    assert not (tmp_path / "sanity").exists()


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def sample_report():
    return ExperimentReport(
        rows=(
            ReportRow("Ascending PPL Order", "base", 32, 14.69, 0.198),
            ReportRow("Random Shuffle once", "none", 30, 18.78, 0.18),
        ),
        metadata={"seed": "7", "trainer_preset": "tiny"},
    )


def test_report_tsv_round_trip_exact(tmp_path):
    report = sample_report()
    emit_report(report, "tsv", tmp_path / "r.tsv")
    parsed = report_from_tsv((tmp_path / "r.tsv").read_text())
    assert parsed.rows == report.rows
    assert parsed.metadata == report.metadata
    assert report_to_tsv(parsed) == report_to_tsv(report)


def test_report_markdown_folds_scorer_and_scales_bleu():
    text = report_to_markdown(sample_report())
    assert "| Ascending PPL Order (base scorer) | 32 | 14.69 | 19.8 |" in text
    assert "| Random Shuffle once | 30 | 18.78 | 18.0 |" in text


def test_emit_report_rejects_empty_and_bad_format(tmp_path):
    with pytest.raises(ConfigError):
        emit_report(ExperimentReport(rows=()), "tsv", tmp_path / "r.tsv")
    with pytest.raises(ConfigError):
        emit_report(sample_report(), "xml", tmp_path / "r.xml")


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exp")
    spec = tiny_spec(tmp)
    report = run_experiment(spec)
    return spec, report


def test_experiment_rows_and_artifacts(experiment_run):
    spec, report = experiment_run
    assert len(report.rows) == 2
    out = Path(spec.output_dir)
    assert (out / "report.tsv").exists()
    assert (out / "report.md").exists()
    assert (out / "init.ckpt").exists()
    assert (out / "scorer_tiny.ckpt").exists()
    assert (out / "plan_shuffle_once.txt").exists()
    assert (out / "plan_ppl-asc_tiny.txt").exists()
    assert (out / "scores_ppl_tiny.txt").exists()
    assert (out / "model_shuffle_once.ckpt").exists()
    assert (out / "model_ppl-asc_tiny.ckpt").exists()
    for name, split in (("train", 48), ("val", 6), ("test", 6)):
        assert (out / "corpus" / f"{name}.src").exists()


def test_experiment_provenance_metadata(experiment_run):
    spec, report = experiment_run
    out = Path(spec.output_dir)
    md = report.metadata
    assert md["init_fingerprint"] == load_checkpoint(out / "init.ckpt").fingerprint
    scorer = load_checkpoint(out / "scorer_tiny.ckpt")
    assert md["scorer_fingerprint.tiny"] == scorer.fingerprint
    scores_header = (out / "scores_ppl_tiny.txt").read_text().splitlines()[0]
    assert scorer.fingerprint in scores_header
    for n in range(len(report.rows)):
        assert f"row.{n}.plan_fingerprint" in md
        assert f"row.{n}.checkpoint_fingerprint" in md
        assert md[f"row.{n}.init_fingerprint"] == md["init_fingerprint"]
    row1 = load_checkpoint(out / "model_ppl-asc_tiny.ckpt")
    assert md["row.1.checkpoint_fingerprint"] == row1.fingerprint


def test_experiment_report_persisted_matches_returned(experiment_run):
    spec, report = experiment_run
    parsed = report_from_tsv((Path(spec.output_dir) / "report.tsv").read_text())
    assert parsed.rows == report.rows
    assert parsed.metadata == report.metadata


def test_run_log_opens_with_the_environment(experiment_run):
    from curricula.runtime import environment
    from curricula.seq2seq import _measured_blas

    spec, _ = experiment_run
    env = environment()
    first, second, *_ = (Path(spec.output_dir) / "run.log").read_text().splitlines()
    assert first == (
        f"environment: numpy {env.numpy} | {env.blas} | core {env.core or 'unknown'}"
        f" | blas threads {env.blas_threads or 'unknown'} | cpus {env.cpus}"
        f" | inference workers tiny 1"
        f" | measured blas {'yes' if _measured_blas() else 'no'}"
    )
    assert second.endswith("] experiment started")


def test_row_failure_keeps_package_error_class_and_names_the_row(tmp_path, monkeypatch):
    from curricula.errors import FingerprintError

    original = FingerprintError("vocabularies differ")

    def fail(*args, **kwargs):
        raise original

    monkeypatch.setattr("curricula.harness.evaluate_model", fail)
    spec = tiny_spec(tmp_path, strategies=(Strategy("shuffle_once"),))
    with pytest.raises(FingerprintError) as err:
        run_experiment(spec)
    assert "shuffle_once failed during evaluate: vocabularies differ" in str(err.value)
    assert err.value.__cause__ is original


class _ShardError(DataError):
    """A package error whose __init__ takes two arguments."""

    def __init__(self, shard, reason):
        super().__init__(f"shard {shard}: {reason}")
        self.shard = shard


def test_row_failure_of_a_two_argument_error_exits_3_and_names_the_row(
    tmp_path, monkeypatch, capsys
):
    original = _ShardError(3, "unreadable")

    def fail(*args, **kwargs):
        raise original

    monkeypatch.setattr("curricula.harness.train_model", fail)
    spec = tiny_spec(tmp_path, strategies=(Strategy("shuffle_once"),))
    with pytest.raises(_ShardError) as err:
        run_experiment(spec)
    assert type(err.value) is _ShardError and err.value.__cause__ is original
    assert err.value.shard == 3
    assert str(err.value) == "strategy shuffle_once failed during train: shard 3: unreadable"
    (tmp_path / "run.spec").write_text(spec_to_text(replace(spec, output_dir=tmp_path / "cli")))
    assert cli_main(["experiment", "--spec", str(tmp_path / "run.spec")]) == 3
    assert "strategy shuffle_once failed during train: shard 3" in capsys.readouterr().err


def test_row_failure_outside_the_package_propagates_unchanged(tmp_path, monkeypatch):
    original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    def fail(*args, **kwargs):
        raise original

    monkeypatch.setattr("curricula.harness.evaluate_model", fail)
    spec = tiny_spec(tmp_path, strategies=(Strategy("shuffle_once"),))
    with pytest.raises(UnicodeDecodeError) as err:
        run_experiment(spec)
    assert err.value is original


def test_table_one_row_set(tmp_path):
    labels = [s.label() for s in table_one_strategies()]
    assert len(labels) == 10 and len(set(labels)) == 10


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_pipeline(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert cli_main([
        "corpus", "--toy", "reverse", "--size", "60", "--vocab", "8",
        "--min-len", "3", "--max-len", "5", "--seed", "1",
        "--out-dir", str(corpus_dir),
    ]) == 0
    assert (corpus_dir / "train.src").exists()
    assert (corpus_dir / "src.vocab").read_text().startswith("CURRICULA-VOCAB v1")

    ckpt_path = tmp_path / "scorer.ckpt"
    assert cli_main([
        "pretrain", "--corpus-dir", str(corpus_dir), "--preset", "tiny",
        "--learning-rate", "1e-3", "--batch-size", "16", "--max-epochs", "1",
        "--out", str(ckpt_path),
    ]) == 0
    assert ckpt_path.exists()

    scores_path = tmp_path / "scores.txt"
    assert cli_main([
        "score", "--corpus-dir", str(corpus_dir), "--metric", "ppl",
        "--ckpt", str(ckpt_path), "--out", str(scores_path),
    ]) == 0
    assert scores_path.read_text().startswith("CURRICULA-SCORES v1 ppl ")

    plan_path = tmp_path / "plan.txt"
    assert cli_main([
        "order", "--corpus-dir", str(corpus_dir), "--strategy", "ppl:asc",
        "--scores", str(scores_path),
        "--epochs", "1", "--out", str(plan_path),
    ]) == 0
    assert plan_path.read_text().startswith("CURRICULA-ORDER v1 ppl:asc ")

    model_path = tmp_path / "model.ckpt"
    assert cli_main([
        "train", "--corpus-dir", str(corpus_dir), "--plan", str(plan_path),
        "--preset", "tiny", "--learning-rate", "1e-3", "--batch-size", "16",
        "--max-epochs", "1", "--out", str(model_path),
    ]) == 0

    assert cli_main([
        "eval", "--corpus-dir", str(corpus_dir), "--ckpt", str(model_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "ppl=" in out and "bleu=" in out and "pairs=" in out


def test_cli_experiment_and_report(tmp_path, capsys):
    run_dir = tmp_path / "run"
    spec = tiny_spec(tmp_path, strategies=(Strategy("shuffle_once"),))
    spec.output_dir = run_dir
    spec_path = tmp_path / "exp.spec"
    spec_path.write_text(spec_to_text(spec))
    assert cli_main(["experiment", "--spec", str(spec_path)]) == 0
    assert (run_dir / "report.tsv").exists()
    assert cli_main(["report", "--run-dir", str(run_dir), "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "| Data Ordering Pattern | Epochs | Test PPL | Test BLEU |" in out


def test_cli_exit_codes(tmp_path, capsys):
    # config error -> 2
    assert cli_main([
        "corpus", "--toy", "reverse", "--size", "5", "--out-dir", str(tmp_path / "c"),
    ]) == 2
    # data error (missing corpus dir contents) -> 3
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli_main([
        "eval", "--corpus-dir", str(empty), "--ckpt", str(tmp_path / "nope.ckpt"),
    ]) == 3
    capsys.readouterr()


def test_cli_score_xent_and_bad_score_table(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert cli_main([
        "corpus", "--toy", "reverse", "--size", "60", "--vocab", "8",
        "--min-len", "3", "--max-len", "5", "--seed", "1",
        "--out-dir", str(corpus_dir),
    ]) == 0
    ckpt_path = tmp_path / "scorer.ckpt"
    assert cli_main([
        "pretrain", "--corpus-dir", str(corpus_dir), "--preset", "tiny",
        "--learning-rate", "1e-3", "--batch-size", "16", "--max-epochs", "1",
        "--out", str(ckpt_path),
    ]) == 0
    paths = {}
    for metric in ("xent", "ppl"):
        paths[metric] = tmp_path / f"scores_{metric}.txt"
        assert cli_main([
            "score", "--corpus-dir", str(corpus_dir), "--metric", metric,
            "--ckpt", str(ckpt_path), "--out", str(paths[metric]),
        ]) == 0
    xent = ScoreTable.load(paths["xent"])
    ppl = ScoreTable.load(paths["ppl"])
    assert xent.metric == "xent" and xent.indices() == ppl.indices()
    for h, p in zip(xent.scores, ppl.scores):
        assert math.isclose(2.0**h.value, p.value, rel_tol=1e-7)

    bad = tmp_path / "bad_scores.txt"
    bad.write_text(paths["ppl"].read_text().replace("\t", " ", 1))
    capsys.readouterr()
    assert cli_main([
        "order", "--corpus-dir", str(corpus_dir), "--strategy", "ppl:asc",
        "--scores", str(bad),
        "--epochs", "1", "--out", str(tmp_path / "plan.txt"),
    ]) == 3
    assert "score table line 2" in capsys.readouterr().err


def test_cli_spec_file_loading(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("WRONG HEADER\n")
    assert cli_main(["experiment", "--spec", str(bad)]) == 2


@pytest.mark.parametrize("key", ["trainer.preset", "scorer.presets"])
def test_cli_refuses_an_unknown_preset_before_writing(tmp_path, capsys, key):
    spec = tiny_spec(tmp_path)
    lines = [
        f"{key} = nosuch" if line.startswith(key) else line
        for line in spec_to_text(spec).splitlines()
    ]
    path = tmp_path / "bad.spec"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["experiment", "--spec", str(path)]) == 2
    assert "unknown preset 'nosuch'" in capsys.readouterr().err
    assert not spec.output_dir.exists()


def test_spec_key_given_twice_is_refused_naming_the_line(tmp_path):
    text = spec_to_text(tiny_spec(tmp_path)) + "corpus.size = 80\n"
    line = text.count("\n")
    with pytest.raises(ConfigError, match=f"spec line {line}: spec key corpus.size given twice"):
        spec_from_text(text)


def test_cli_stages_replay_an_experiment(tmp_path, capsys):
    spec = tiny_spec(
        tmp_path,
        strategies=(
            Strategy("ppl", direction="asc"),
            Strategy("length", side="source", direction="asc"),
            Strategy("shuffle_once"),
        ),
        seed=4,
    )
    spec.corpus.seed = None  # the experiment seed draws the toy corpus
    report = run_experiment(spec)
    exp, rep = Path(spec.output_dir), tmp_path / "replay"
    c, t = spec.corpus, spec.train
    seed = ["--seed", spec.seed]
    train_flags = [
        "--learning-rate", repr(t.learning_rate), "--batch-size", t.batch_size,
        "--max-epochs", t.max_epochs, "--patience", t.patience,
        "--clip-norm", repr(t.clip_norm), *seed,
    ]
    corpus = ["--corpus-dir", rep / "corpus"]

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    run(
        "corpus", "--toy", c.toy_task, "--size", c.size, "--vocab", c.vocab,
        "--min-len", c.min_len, "--max-len", c.max_len, *seed, "--out-dir", rep / "corpus",
    )
    run("pretrain", *corpus, "--preset", "tiny", *train_flags, "--out", rep / "scorer_tiny.ckpt")
    run(
        "score", *corpus, "--metric", "ppl", "--ckpt", rep / "scorer_tiny.ckpt",
        "--out", rep / "scores_ppl_tiny.txt",
    )
    run(
        "score", *corpus, "--metric", "length:source",
        "--out", rep / "scores_length-source.txt",
    )
    meta = report_from_tsv((exp / "report.tsv").read_text()).metadata
    capsys.readouterr()
    for n in range(len(report.rows)):
        token, scorer = meta[f"row.{n}.strategy"], meta[f"row.{n}.scorer"]
        name = token.replace(":", "-") + ("" if scorer == "none" else f"_{scorer}")
        metric = token.split(":")[0]
        # without --scores, a length table comes from the corpus directory
        scores = [] if scorer == "none" else ["--scores", rep / f"scores_{metric}_{scorer}.txt"]
        plan, model = rep / f"plan_{name}.txt", rep / f"model_{name}.ckpt"
        run("order", *corpus, "--strategy", token, *scores, "--epochs", t.max_epochs, *seed,
            "--out", plan)
        run("train", *corpus, "--plan", plan, "--preset", "tiny", *train_flags, "--out", model)
        run("eval", *corpus, "--ckpt", model)
    evals = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("ppl=")]

    replayed = sorted(p.relative_to(rep) for p in rep.rglob("*") if p.is_file())
    assert len(replayed) == 6 + 2 + 1 + 2 + 3 + 3  # corpus dir, then artifacts
    for rel in replayed:
        assert (rep / rel).read_bytes() == (exp / rel).read_bytes(), rel
    test_pairs = len((exp / "corpus" / "test.src").read_text().splitlines())
    assert evals == [
        EvalResult(r.test_perplexity, r.test_bleu, test_pairs).to_line()
        for r in report.rows
    ]


def test_readme_command_lines_parse():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line]
    assert all(argv[0] == "curricula" for argv in commands)
    parser = build_parser()
    assert {parser.parse_args(argv[1:]).command for argv in commands} == {
        "corpus", "pretrain", "score", "order", "train", "eval", "experiment", "report",
    }


@pytest.mark.parametrize("noise", [-0.5, math.nan, 1.5])
def test_cli_refuses_label_noise_outside_the_unit_interval_before_writing(
    tmp_path, capsys, noise
):
    spec = tiny_spec(tmp_path, noise=0.5)  # a spec cannot be built with a bad noise
    path = tmp_path / "bad.spec"
    path.write_text(spec_to_text(spec).replace("corpus.noise = 0.5", f"corpus.noise = {noise!r}"))
    capsys.readouterr()
    assert cli_main(["experiment", "--spec", str(path)]) == 2
    assert f"{path}: corpus.noise must be in [0, 1], got {noise}" in capsys.readouterr().err
    assert not spec.output_dir.exists()


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    assert cli_main(["corpus", "--toy", "reverse", "--size", "60", "--out-dir", str(out)]) == 0
    return out


_REPORT_HEAD = "strategy\tscorer\tepochs\ttest_ppl\ttest_bleu\n"
_ORDER = "order --corpus-dir {tmp}/corpus --epochs 1 --out {tmp}/plan.txt --strategy"
_TRAIN = "train --corpus-dir {tmp}/corpus --plan {tmp}/plan.txt --out {tmp}/m.ckpt"
_SCORE_METRIC = "score --corpus-dir {tmp}/corpus --out {tmp}/s.txt --metric"
_SCORE = _SCORE_METRIC + " length:source"
_METRIC_NAMES = "length:source, length:target, xent, ppl or bleu"


@pytest.mark.parametrize(
    "files, argv, code, message",
    [
        pytest.param(
            {"bad.spec": "CURRICULA-SPEC v1\ncorpus.toy = copy\ncorpus.size = abc\n"},
            "experiment --spec {tmp}/bad.spec", 2, "corpus.size", id="spec-non-integer",
        ),
        pytest.param(
            {"plan.txt": "CURRICULA-ORDER v1 shuffle_once 0 1\n0 1 x\n"},
            _TRAIN, 3, "plan line 2", id="plan-index",
        ),
        pytest.param(
            {"plan.txt": "CURRICULA-ORDER v1 shuffle_once 0 1\n0 99999999999999999999\n"},
            _TRAIN, 3, "plan line 2", id="plan-index-overflow",
        ),
        pytest.param(
            {"plan.txt": "CURRICULA-ORDER v1 shuffle_once s 1\n0 1\n"},
            _TRAIN, 3, "plan line 1", id="plan-seed",
        ),
        pytest.param(
            {"plan.txt": "CURRICULA-ORDER v1 shuffle_once 0 one\n0 1\n"},
            _TRAIN, 3, "plan line 1", id="plan-epochs",
        ),
        pytest.param(
            {"plan.txt": "CURRICULA-ORDER v1 length:source 0 1\n0 1\n"},
            _TRAIN, 3, "ordering plan line 1: cannot parse strategy token",
            id="plan-strategy",
        ),
        pytest.param(
            {"corpus/train.src": "a b\nc <pad>\n", "corpus/train.tgt": "b a\nc d\n"},
            _SCORE, 3, "reserved token '<pad>' appears in line 2", id="corpus-reserved-token",
        ),
        pytest.param(
            {"run/report.tsv": _REPORT_HEAD + "Random\tnone\t2\t1.5\n"},
            "report --run-dir {tmp}/run", 3, "report line 2", id="report-field-count",
        ),
        pytest.param(
            {"run/report.tsv": "# seed\t1\n" + _REPORT_HEAD + "Random\tnone\t2\tabc\t0.1\n"},
            "report --run-dir {tmp}/run", 3, "report line 3", id="report-non-numeric",
        ),
        pytest.param(
            {"corpus/src.vocab": "CURRICULA-VOCAB v1\n<pad>\t0\t0\n<bos>\tx\t0\n"},
            "eval --corpus-dir {tmp}/corpus --ckpt {tmp}/m.ckpt", 3, "vocabulary line 3",
            id="vocab-id",
        ),
        pytest.param(
            {}, _ORDER + " length", 2, "expected one of shuffle_every_epoch",
            id="order-length-bare",
        ),
        pytest.param(
            {}, _ORDER + " length:asc", 2, "length:source:asc, length:source:desc",
            id="order-length-no-side",
        ),
        pytest.param(
            {}, _ORDER + " ppl", 2, "ppl:asc, ppl:desc", id="order-ppl-no-direction",
        ),
        pytest.param({}, _ORDER + " ppl:asc", 2, "ppl scores", id="order-ppl-no-scores"),
        pytest.param(
            {}, _ORDER + " shuffle_once --scores {tmp}/nosuch.txt", 2, "takes no --scores",
            id="order-shuffle-with-scores",
        ),
        pytest.param(
            {}, _SCORE + " --ckpt {tmp}/nosuch.ckpt", 2, "length:source scores count tokens "
            "and take no --ckpt", id="score-length-with-ckpt",
        ),
        pytest.param(
            {}, _SCORE_METRIC + " foo --ckpt {tmp}/nosuch.ckpt", 2, _METRIC_NAMES,
            id="score-unknown-metric-with-ckpt",
        ),
        pytest.param(
            {}, _SCORE_METRIC + " ppl", 2, "ppl scores need --ckpt, a scorer checkpoint",
            id="score-ppl-no-ckpt",
        ),
        pytest.param({}, _SCORE_METRIC + " length", 2, _METRIC_NAMES, id="score-length-bare"),
        pytest.param({}, _SCORE_METRIC + " foo", 2, _METRIC_NAMES, id="score-unknown-metric"),
        pytest.param(
            {}, "pretrain --corpus-dir {tmp}/corpus --out {tmp}/m.ckpt --clip-norm nan", 2,
            "clip_norm must be > 0", id="pretrain-clip-norm-nan",
        ),
        pytest.param(
            {}, "pretrain --corpus-dir {tmp}/corpus --out {tmp}/m.ckpt --learning-rate inf", 2,
            "learning_rate must be > 0 and finite", id="pretrain-learning-rate-inf",
        ),
        pytest.param(
            {"bad.spec": "CURRICULA-SPEC v1\ncorpus.toy = copy\nstrategies = shuffle_once\n"
                         "trainer.preset = tiny\ntrain.learning_rate = nan\n"
                         "output_dir = {tmp}/run\n"},
            "experiment --spec {tmp}/bad.spec", 2, "learning_rate must be > 0 and finite",
            id="spec-learning-rate-nan",
        ),
        pytest.param(
            {"bad.spec": "CURRICULA-SPEC v1\ncorpus.toy = copy\ncorpus.noise = -0.5\n"
                         "strategies = shuffle_once\ntrainer.preset = tiny\n"
                         "output_dir = {tmp}/run\n"},
            "experiment --spec {tmp}/bad.spec", 2,
            "bad.spec: corpus.noise must be in [0, 1], got -0.5", id="spec-noise-negative",
        ),
        pytest.param(
            {}, "corpus --out-dir {tmp}/c", 2, "train_src", id="corpus-no-input",
        ),
    ],
)
def test_cli_bad_input_exits_with_its_error_code(
    tmp_path, cli_corpus, capsys, files, argv, code, message
):
    shutil.copytree(cli_corpus, tmp_path / "corpus")
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text.format(tmp=tmp_path))
    capsys.readouterr()
    assert cli_main(argv.format(tmp=tmp_path).split()) == code
    assert message in capsys.readouterr().err


def test_cli_order_writes_a_plan_for_every_strategy_token(tmp_path, cli_corpus):
    lengths = score_corpus(None, load_corpus_dir(cli_corpus).encoded["train"], "length:source")
    for metric in ("ppl", "bleu"):  # any values of the right metric serve
        replace(lengths, metric=metric).save(tmp_path / f"{metric}.txt")
    plan = tmp_path / "plan.txt"
    for strategy in table_one_strategies():
        token = strategy.token()
        model_based = strategy.kind in ("ppl", "bleu")
        scores = ["--scores", tmp_path / f"{strategy.kind}.txt"] if model_based else []
        argv = ["order", "--corpus-dir", cli_corpus, "--strategy", token, *scores,
                "--epochs", 2, "--out", plan]
        assert cli_main([str(a) for a in argv]) == 0
        assert plan.read_text().startswith(f"CURRICULA-ORDER v1 {token} ")
        assert OrderingPlan.load(plan).strategy == strategy


def test_cli_score_writes_a_table_for_every_metric_name(tmp_path, cli_corpus):
    data = load_corpus_dir(cli_corpus)
    config = ModelConfig.preset("tiny", len(data.src_vocab), len(data.tgt_vocab))
    save_checkpoint(ModelCheckpoint(
        config, init_params(config, seed=1),
        data.src_vocab.fingerprint(), data.tgt_vocab.fingerprint(),
    ), tmp_path / "m.ckpt")
    out = tmp_path / "s.txt"
    for metric in ("length:source", "length:target", "xent", "ppl", "bleu"):
        ckpt = [] if metric.startswith("length") else ["--ckpt", tmp_path / "m.ckpt"]
        argv = ["score", "--corpus-dir", cli_corpus, "--metric", metric, "--split", "test",
                *ckpt, "--out", out]
        assert cli_main([str(a) for a in argv]) == 0
        table = ScoreTable.load(out)
        assert table.metric == metric and table.indices() == data.splits["test"].indices()


@pytest.mark.parametrize(
    "name, content, argv, code",
    [
        pytest.param("corpus/train.src", None, _SCORE, 3, id="corpus"),
        pytest.param("corpus/src.vocab", None, _SCORE, 3, id="vocabulary"),
        pytest.param(
            "scores.txt", b"CURRICULA-SCORES v1 length:source none\n0\t\xff\n",
            _ORDER + " length:source:asc --scores {tmp}/scores.txt",
            3, id="score-table",
        ),
        pytest.param(
            "plan.txt", b"CURRICULA-ORDER v1 shuffle_once 0 1\n0 \xff\n", _TRAIN, 3,
            id="plan",
        ),
        pytest.param(
            "run/report.tsv", b"# seed\t\xff\n", "report --run-dir {tmp}/run", 3,
            id="report",
        ),
        pytest.param(
            "bad.spec", b"CURRICULA-SPEC v1\n# \xff\n", "experiment --spec {tmp}/bad.spec",
            2, id="spec",
        ),
    ],
)
def test_cli_file_that_is_not_utf8_exits_with_its_error_code(
    tmp_path, cli_corpus, capsys, name, content, argv, code
):
    shutil.copytree(cli_corpus, tmp_path / "corpus")
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    if content is None:  # one byte that is not UTF-8 in the file's second line
        lines = path.read_bytes().split(b"\n")
        lines[1] += b"\xff"
        content = b"\n".join(lines)
    path.write_bytes(content)
    capsys.readouterr()
    assert cli_main(argv.format(tmp=tmp_path).split()) == code
    assert f"{path} is not UTF-8 text" in capsys.readouterr().err


def tensor_section(entries):
    """The parameter section for (name, shape) entries, every value 0.0."""
    chunks = [struct.pack("<I", len(entries))]
    for name, shape in entries:
        name_b = name.encode()
        header = f"<H{len(name_b)}sB{len(shape)}I"
        chunks.append(struct.pack(header, len(name_b), name_b, len(shape), *shape))
        chunks.append(bytes(8 * math.prod(shape)))
    return b"".join(chunks)


_CONFIG = asdict(ModelConfig(4, 4, 1, 1, False, 0.0, 6, 6))
_TENSORS = parameter_shapes(ModelConfig(**_CONFIG))
_ONE_TENSOR = tensor_section([("w", (1,))])  # w = [0.0]


def config_section(**changes) -> bytes:
    """The canonical config section of `_CONFIG` with `changes` applied."""
    return json.dumps({**_CONFIG, **changes}, sort_keys=True, separators=(",", ":")).encode()


def crafted_checkpoint(
    path, config=json.dumps(_CONFIG, sort_keys=True, separators=(",", ":")).encode(),
    vocab=b'{"src":"a","tgt":"b"}',
    params=tensor_section(_TENSORS), history=b"[]", version=FORMAT_VERSION,
):
    """A checkpoint file from raw section bytes, with a valid trailing hash."""
    path.write_bytes(checkpoint_file([config, vocab, params, history], version=version))


@pytest.mark.parametrize(
    "sections, section, cause",
    [
        pytest.param(
            {"config": json.dumps({**_CONFIG, "bogus": 1}).encode()},
            "config", TypeError, id="config-unknown-key",
        ),
        pytest.param(
            {"config": b'{"embed_dim": "\xff"}'}, "config", UnicodeDecodeError,
            id="config-not-utf8",
        ),
        pytest.param(
            {"config": config_section(hidden_dim=4.0)}, "config", ConfigError,
            id="config-float-dimension",
        ),
        pytest.param(
            {"config": config_section(decoder_layers=True)}, "config", ConfigError,
            id="config-bool-dimension",
        ),
        pytest.param(
            {"config": config_section(dropout_p=0)}, "config", ConfigError,
            id="config-int-dropout",
        ),
        pytest.param(
            {"config": config_section(dropout_p=False)}, "config", ConfigError,
            id="config-bool-dropout",
        ),
        pytest.param({"vocab": b'{"tgt":"b"}'}, "vocab", KeyError, id="vocab-no-src"),
        pytest.param({"history": b"5"}, "history", TypeError, id="history-not-a-list"),
        pytest.param(
            {"params": struct.pack("<IH2sBI", 1, 2, b"\xff\xfe", 1, 1) + bytes(8)},
            "parameter", UnicodeDecodeError, id="tensor-name-not-utf8",
        ),
    ],
)
def test_malformed_checkpoint_section_is_a_format_error(
    tmp_path, cli_corpus, capsys, sections, section, cause
):
    crafted_checkpoint(tmp_path / "ok.ckpt")  # the unaltered sections load
    assert load_checkpoint(tmp_path / "ok.ckpt").params["out_b"].tolist() == [0.0] * 6
    crafted_checkpoint(tmp_path / "m.ckpt", **sections)
    with pytest.raises(CheckpointFormatError, match=f"malformed {section} section") as err:
        load_checkpoint(tmp_path / "m.ckpt")
    assert isinstance(err.value.__cause__, cause)
    capsys.readouterr()
    argv = ["eval", "--corpus-dir", str(cli_corpus), "--ckpt", str(tmp_path / "m.ckpt")]
    assert cli_main(argv) == 3
    assert f"malformed {section} section" in capsys.readouterr().err


def test_overflowing_perplexity_fails_ppl_scoring_and_evaluates_to_inf(
    tmp_path, cli_corpus, capsys
):
    data = load_corpus_dir(cli_corpus)
    config = ModelConfig.preset("tiny", len(data.src_vocab), len(data.tgt_vocab))
    path = tmp_path / "m.ckpt"
    save_checkpoint(overflowing_checkpoint(ModelCheckpoint(
        config, init_params(config, seed=1),
        data.src_vocab.fingerprint(), data.tgt_vocab.fingerprint(),
    )), path)
    corpus = ["--corpus-dir", str(cli_corpus), "--ckpt", str(path)]
    capsys.readouterr()
    out = tmp_path / "s.txt"
    assert cli_main(["score", "--metric", "ppl", "--out", str(out), *corpus]) == 3
    first = data.encoded["train"][0].index
    assert f"non-finite score at index {first}" in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(["eval", *corpus]) == 0
    assert capsys.readouterr().out.startswith("ppl=inf bleu=")


@pytest.mark.parametrize("command", ["eval", "score --metric ppl --out {tmp}/s.txt"])
def test_version_1_checkpoint_is_refused(tmp_path, cli_corpus, capsys, command):
    path = tmp_path / "v1.ckpt"
    crafted_checkpoint(path, version=1)  # well formed but for its version
    message = "unsupported checkpoint version 1; supported: 2"
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)
    capsys.readouterr()
    argv = command.format(tmp=tmp_path).split()
    assert cli_main(argv + ["--corpus-dir", str(cli_corpus), "--ckpt", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_parameter_section_must_end_at_its_last_tensor(tmp_path, cli_corpus, capsys):
    path = tmp_path / "m.ckpt"
    crafted_checkpoint(path, params=tensor_section(_TENSORS) + b"junk")
    message = "malformed parameter section: 4 bytes after its last tensor"
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)
    capsys.readouterr()
    argv = ["eval", "--corpus-dir", str(cli_corpus), "--ckpt", str(path)]
    assert cli_main(argv) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "tensors, message",
    [
        pytest.param(lambda t: [("w", (1,))], "tensor 0 is ('w', (1,))", id="one-tensor-w"),
        pytest.param(lambda t: t[:-1], "tensor 9 is missing", id="missing-tensor"),
        pytest.param(
            lambda t: t[:-1] + [("out_b", (5,))], "tensor 9 is ('out_b', (5,))",
            id="wrong-shape",
        ),
        pytest.param(
            lambda t: t + [("extra", (2,))],
            "tensor 10 is ('extra', (2,)), the config wants none", id="extra-tensor",
        ),
    ],
)
def test_checkpoint_tensors_must_fit_the_config(
    tmp_path, cli_corpus, capsys, tensors, message
):
    # the corpus's vocabularies, so that only the tensors are wrong
    data = load_corpus_dir(cli_corpus)
    config = ModelConfig(4, 4, 1, 1, False, 0.0, len(data.src_vocab), len(data.tgt_vocab))
    vocab = {"src": data.src_vocab.fingerprint(), "tgt": data.tgt_vocab.fingerprint()}
    path = tmp_path / "m.ckpt"
    crafted_checkpoint(
        path,
        config=json.dumps(asdict(config), sort_keys=True, separators=(",", ":")).encode(),
        vocab=json.dumps(vocab, sort_keys=True, separators=(",", ":")).encode(),
        params=tensor_section(tensors(parameter_shapes(config))),
    )
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(path)
    assert message in str(err.value)
    capsys.readouterr()
    argv = ["eval", "--corpus-dir", str(cli_corpus), "--ckpt", str(path)]
    assert cli_main(argv) == 3
    assert message in capsys.readouterr().err
