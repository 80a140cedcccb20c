"""Experiment orchestration: toy corpora, scorer pretraining, the
score -> order -> train -> evaluate pipeline, and results tables.

An experiment runs every requested strategy against the same data, the same
initial parameters and the same training configuration, so the ordering is
the only thing that differs between rows. Rerunning a spec reproduces every
persisted artifact byte for byte; wall-clock timestamps go to the run log
only, never into reports or checkpoints.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .corpus import (
    ParallelCorpus,
    SentencePair,
    Vocabulary,
    build_vocab,
    encode_corpus,
    filter_corpus,
    load_parallel_corpus,
    truncate_corpus,
    write_corpus,
)
from .checkpoint import ModelCheckpoint, save_checkpoint
from .errors import ConfigError, CurriculaError, DataError
from .evaluate import evaluate_model
from .metrics import ScoreTable, length_scores, score_corpus
from .ordering import (
    OrderingPlan,
    Strategy,
    make_ordering,
    parse_strategy,
    verify_plan,
)
from .rng import derive_seed, make_rng
from .seq2seq import ModelConfig, init_params
from .trainer import TrainConfig, fit

SPEC_HEADER = "CURRICULA-SPEC v1"

TOY_TASKS = ("copy", "reverse", "digit-translation")

_DIGIT_WORDS = (
    "zero", "one", "two", "three", "four",
    "five", "six", "seven", "eight", "nine",
)


# ---------------------------------------------------------------------------
# Toy corpora
# ---------------------------------------------------------------------------

def toy_alphabet(task: str, vocab: int) -> tuple[str, ...]:
    if task == "digit-translation":
        return tuple(str(d) for d in range(min(vocab, 10)))
    return tuple(str(i) for i in range(vocab))


def _toy_target(task: str, src: tuple[str, ...]) -> tuple[str, ...]:
    if task == "copy":
        return src
    if task == "reverse":
        return tuple(reversed(src))
    return tuple(_DIGIT_WORDS[int(tok)] for tok in src)


def generate_toy_corpus(
    task: str,
    size: int,
    vocab: int,
    length_range: tuple[int, int],
    seed: int,
) -> tuple[ParallelCorpus, ParallelCorpus, ParallelCorpus]:
    """Deterministic synthetic pairs split 80/10/10 with no pair repeated.

    Tasks: copy (target = source), reverse (target = reversed source),
    digit-translation (digit tokens mapped to word tokens).
    """
    if task not in TOY_TASKS:
        raise ConfigError(f"unknown toy task {task!r}; choose from {TOY_TASKS}")
    if size < 30:
        raise ConfigError(f"toy corpus size must be >= 30, got {size}")
    lo, hi = length_range
    if not (1 <= lo <= hi <= 60):
        raise ConfigError(f"length range must satisfy 1 <= lo <= hi <= 60: {length_range}")
    if vocab < 2:
        raise ConfigError(f"toy vocab must be >= 2, got {vocab}")
    alphabet = toy_alphabet(task, vocab)
    rng = make_rng("toy", task, size, vocab, lo, hi, seed)
    seen: set[tuple[str, ...]] = set()
    pairs: list[SentencePair] = []
    attempts = 0
    while len(pairs) < size:
        attempts += 1
        if attempts > 200 * size:
            raise ConfigError(
                "token space too small to draw that many distinct pairs"
            )
        length = int(rng.integers(lo, hi + 1))
        src = tuple(alphabet[int(j)] for j in rng.integers(0, len(alphabet), length))
        if src in seen:
            continue
        seen.add(src)
        pairs.append(SentencePair(len(pairs), src, _toy_target(task, src)))
    n_train = int(size * 0.8)
    n_val = int(size * 0.1)
    names = {"src_name": f"{task}-src", "tgt_name": f"{task}-tgt"}
    train = ParallelCorpus(tuple(pairs[:n_train]), **names)
    val = ParallelCorpus(tuple(pairs[n_train : n_train + n_val]), **names)
    test = ParallelCorpus(tuple(pairs[n_train + n_val :]), **names)
    return train, val, test


def corrupt_targets(
    corpus: ParallelCorpus, fraction: float, alphabet, seed: int
) -> ParallelCorpus:
    """Label noise: replace the targets of a fraction of pairs with random
    token strings of the same length. Indices are untouched."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"fraction must be in [0, 1], got {fraction}")
    if fraction == 0.0:
        return corpus
    alphabet = tuple(alphabet)
    rng = make_rng("noise", fraction, seed)
    n_noisy = int(len(corpus) * fraction)
    noisy_positions = set(
        int(i) for i in rng.choice(len(corpus), size=n_noisy, replace=False)
    )
    out = []
    for pos, pair in enumerate(corpus.pairs):
        if pos in noisy_positions:
            tgt = tuple(
                alphabet[int(j)]
                for j in rng.integers(0, len(alphabet), len(pair.tgt_tokens))
            )
            out.append(SentencePair(pair.index, pair.src_tokens, tgt))
        else:
            out.append(pair)
    return ParallelCorpus(tuple(out), corpus.src_name, corpus.tgt_name)


# ---------------------------------------------------------------------------
# Experiment specification
# ---------------------------------------------------------------------------

@dataclass
class CorpusSpec:
    # toy generator
    toy_task: str | None = None
    size: int = 200
    vocab: int = 12
    min_len: int = 3
    max_len: int = 8
    noise: float = 0.0
    seed: int | None = None
    # file-based corpus
    train_src: str | None = None
    train_tgt: str | None = None
    val_src: str | None = None
    val_tgt: str | None = None
    test_src: str | None = None
    test_tgt: str | None = None
    filter_min: int = 5
    filter_max: int = 60
    take: int | None = None
    # vocabulary
    min_count: int = 1


@dataclass
class ExperimentSpec:
    corpus: CorpusSpec
    strategies: tuple[Strategy, ...]
    scorer_presets: tuple[str, ...]
    trainer_preset: str
    train: TrainConfig
    seed: int
    output_dir: Path

    def __post_init__(self):
        if not self.strategies:
            raise ConfigError("an experiment needs at least one strategy")
        tokens = [s.token() for s in self.strategies]
        if len(set(tokens)) != len(tokens):
            raise ConfigError("strategies must be unique")
        needs_scorer = any(s.kind in ("ppl", "bleu") for s in self.strategies)
        if needs_scorer and not self.scorer_presets:
            raise ConfigError("ppl/bleu strategies need at least one scorer preset")


def spec_to_text(spec: ExperimentSpec) -> str:
    c = spec.corpus
    lines = [SPEC_HEADER]
    if c.toy_task is not None:
        lines += [
            f"corpus.toy = {c.toy_task}",
            f"corpus.size = {c.size}",
            f"corpus.vocab = {c.vocab}",
            f"corpus.min_len = {c.min_len}",
            f"corpus.max_len = {c.max_len}",
        ]
        if c.noise:
            lines.append(f"corpus.noise = {c.noise!r}")
        if c.seed is not None:
            lines.append(f"corpus.seed = {c.seed}")
    else:
        lines += [
            f"corpus.train_src = {c.train_src}",
            f"corpus.train_tgt = {c.train_tgt}",
            f"corpus.val_src = {c.val_src}",
            f"corpus.val_tgt = {c.val_tgt}",
            f"corpus.test_src = {c.test_src}",
            f"corpus.test_tgt = {c.test_tgt}",
            f"corpus.filter_min = {c.filter_min}",
            f"corpus.filter_max = {c.filter_max}",
        ]
        if c.take is not None:
            lines.append(f"corpus.take = {c.take}")
    lines.append(f"corpus.min_count = {c.min_count}")
    lines.append("strategies = " + " ".join(s.token() for s in spec.strategies))
    if spec.scorer_presets:
        lines.append("scorer.presets = " + " ".join(spec.scorer_presets))
    lines.append(f"trainer.preset = {spec.trainer_preset}")
    t = spec.train
    lines += [
        f"train.learning_rate = {t.learning_rate!r}",
        f"train.batch_size = {t.batch_size}",
        f"train.max_epochs = {t.max_epochs}",
        f"train.patience = {t.patience}",
        f"train.clip_norm = {t.clip_norm!r}",
        f"seed = {spec.seed}",
        f"output_dir = {spec.output_dir}",
    ]
    return "\n".join(lines) + "\n"


def spec_from_text(text: str) -> ExperimentSpec:
    lines = text.splitlines()
    if not lines or lines[0].strip() != SPEC_HEADER:
        raise ConfigError(f"bad spec header; expected {SPEC_HEADER!r}")
    kv: dict[str, str] = {}
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ConfigError(f"bad spec line (need 'key = value'): {ln!r}")
        key, value = ln.split("=", 1)
        kv[key.strip()] = value.strip()

    def pop(key, default=None):
        return kv.pop(key, default)

    corpus = CorpusSpec()
    if "corpus.toy" in kv:
        corpus.toy_task = pop("corpus.toy")
        corpus.size = int(pop("corpus.size", corpus.size))
        corpus.vocab = int(pop("corpus.vocab", corpus.vocab))
        corpus.min_len = int(pop("corpus.min_len", corpus.min_len))
        corpus.max_len = int(pop("corpus.max_len", corpus.max_len))
        corpus.noise = float(pop("corpus.noise", corpus.noise))
        seed = pop("corpus.seed")
        corpus.seed = int(seed) if seed is not None else None
    else:
        for k in ("train_src", "train_tgt", "val_src", "val_tgt", "test_src", "test_tgt"):
            value = pop(f"corpus.{k}")
            if value is None:
                raise ConfigError(f"file corpus spec is missing corpus.{k}")
            setattr(corpus, k, value)
        corpus.filter_min = int(pop("corpus.filter_min", corpus.filter_min))
        corpus.filter_max = int(pop("corpus.filter_max", corpus.filter_max))
        take = pop("corpus.take")
        corpus.take = int(take) if take is not None else None
    corpus.min_count = int(pop("corpus.min_count", corpus.min_count))

    raw = pop("strategies")
    if raw is None:
        raise ConfigError("spec is missing 'strategies'")
    strategies = tuple(parse_strategy(tok) for tok in raw.split())
    scorers = tuple(pop("scorer.presets", "").split())
    trainer_preset = pop("trainer.preset")
    if trainer_preset is None:
        raise ConfigError("spec is missing 'trainer.preset'")
    # working seeds always derive from the experiment seed, so the spec file
    # has no train.seed key
    train = TrainConfig(
        learning_rate=float(pop("train.learning_rate", 1e-5)),
        batch_size=int(pop("train.batch_size", 128)),
        max_epochs=int(pop("train.max_epochs", 10)),
        patience=int(pop("train.patience", 5)),
        clip_norm=float(pop("train.clip_norm", 5.0)),
        seed=0,
    )
    seed = int(pop("seed", 0))
    output_dir = pop("output_dir")
    if output_dir is None:
        raise ConfigError("spec is missing 'output_dir'")
    if kv:
        raise ConfigError(f"unknown spec keys: {sorted(kv)}")
    return ExperimentSpec(
        corpus=corpus,
        strategies=strategies,
        scorer_presets=scorers,
        trainer_preset=trainer_preset,
        train=train,
        seed=seed,
        output_dir=Path(output_dir),
    )


def load_spec(path) -> ExperimentSpec:
    return spec_from_text(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    strategy: str  # human-readable strategy label
    scorer: str  # scorer preset name, or "none"
    epochs: int
    test_perplexity: float
    test_bleu: float  # fraction; rendered x100 in markdown


@dataclass
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    metadata: dict[str, str] = field(default_factory=dict)


def report_to_tsv(report: ExperimentReport) -> str:
    lines = [f"# {k}\t{v}" for k, v in report.metadata.items()]
    lines.append("strategy\tscorer\tepochs\ttest_ppl\ttest_bleu")
    for r in report.rows:
        lines.append(
            f"{r.strategy}\t{r.scorer}\t{r.epochs}\t{r.test_perplexity!r}\t{r.test_bleu!r}"
        )
    return "\n".join(lines) + "\n"


def report_from_tsv(text: str) -> ExperimentReport:
    metadata: dict[str, str] = {}
    rows: list[ReportRow] = []
    header_seen = False
    for ln in text.splitlines():
        if not ln:
            continue
        if ln.startswith("# "):
            key, value = ln[2:].split("\t", 1)
            metadata[key] = value
            continue
        if not header_seen:
            if ln != "strategy\tscorer\tepochs\ttest_ppl\ttest_bleu":
                raise DataError(f"bad report header: {ln!r}")
            header_seen = True
            continue
        strategy, scorer, epochs, ppl, bleu = ln.split("\t")
        rows.append(ReportRow(strategy, scorer, int(epochs), float(ppl), float(bleu)))
    if not header_seen:
        raise DataError("report TSV has no header line")
    return ExperimentReport(rows=tuple(rows), metadata=metadata)


def report_to_markdown(report: ExperimentReport) -> str:
    lines = [
        "| Data Ordering Pattern | Epochs | Test PPL | Test BLEU |",
        "| --- | --- | --- | --- |",
    ]
    for r in report.rows:
        name = r.strategy if r.scorer == "none" else f"{r.strategy} ({r.scorer} scorer)"
        lines.append(
            f"| {name} | {r.epochs} | {r.test_perplexity:.2f} | {100 * r.test_bleu:.1f} |"
        )
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, fmt: str, path) -> None:
    if not report.rows:
        raise ConfigError("cannot emit an empty report")
    if fmt == "tsv":
        text = report_to_tsv(report)
    elif fmt == "markdown":
        text = report_to_markdown(report)
    else:
        raise ConfigError(f"unknown report format {fmt!r}; use tsv or markdown")
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------

@dataclass
class PreparedData:
    train: ParallelCorpus
    val: ParallelCorpus
    test: ParallelCorpus
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    train_enc: tuple
    val_enc: tuple
    test_enc: tuple


def prepare_data(spec: ExperimentSpec) -> PreparedData:
    c = spec.corpus
    if c.toy_task is not None:
        corpus_seed = c.seed if c.seed is not None else spec.seed
        train, val, test = generate_toy_corpus(
            c.toy_task, c.size, c.vocab, (c.min_len, c.max_len), corpus_seed
        )
        if c.noise > 0.0:
            train = corrupt_targets(
                train, c.noise, toy_alphabet(c.toy_task, c.vocab),
                derive_seed(corpus_seed, "noise"),
            )
    else:
        train = load_parallel_corpus(c.train_src, c.train_tgt)
        train = filter_corpus(train, c.filter_min, c.filter_max)
        if c.take is not None:
            train = truncate_corpus(train, c.take)
        val = load_parallel_corpus(c.val_src, c.val_tgt)
        test = load_parallel_corpus(c.test_src, c.test_tgt)
    src_vocab = build_vocab(train, "source", c.min_count)
    tgt_vocab = build_vocab(train, "target", c.min_count)
    return PreparedData(
        train, val, test, src_vocab, tgt_vocab,
        encode_corpus(train, src_vocab, tgt_vocab),
        encode_corpus(val, src_vocab, tgt_vocab),
        encode_corpus(test, src_vocab, tgt_vocab),
    )


def _pretrain(
    data: PreparedData, preset: str, train_config: TrainConfig, seed: int
) -> tuple[ModelCheckpoint, int]:
    config = ModelConfig.preset(preset, len(data.src_vocab), len(data.tgt_vocab))
    params = init_params(config, derive_seed("scorer-init", preset, seed))
    plan = make_ordering(
        Strategy("shuffle_every_epoch"),
        None,
        data.train.indices(),
        train_config.max_epochs,
        seed=derive_seed("scorer-order", preset, seed),
    )
    scorer_train = replace(train_config, seed=derive_seed("scorer-train", preset, seed))
    ckpt, _, epochs = fit(
        params,
        config,
        plan,
        data.train_enc,
        data.val_enc,
        scorer_train,
        data.src_vocab.fingerprint(),
        data.tgt_vocab.fingerprint(),
    )
    return ckpt, epochs


def pretrain_scorer(spec: ExperimentSpec, preset: str) -> ModelCheckpoint:
    """Train a scorer of the given preset on the spec's training split,
    shuffled every epoch, and return its best checkpoint."""
    data = prepare_data(spec)
    ckpt, _ = _pretrain(data, preset, spec.train, spec.seed)
    return ckpt


def _strategy_rows(spec: ExperimentSpec) -> list[tuple[Strategy, str]]:
    """(strategy, scorer preset) per report row; 'none' when no model is used."""
    rows = []
    for strategy in spec.strategies:
        if strategy.kind in ("ppl", "bleu"):
            for preset in spec.scorer_presets:
                rows.append((strategy, preset))
        else:
            rows.append((strategy, "none"))
    return rows


def _file_token(strategy: Strategy, scorer: str) -> str:
    tok = strategy.token().replace(":", "-")
    return tok if scorer == "none" else f"{tok}_{scorer}"


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every (strategy, scorer) row of the spec and persist all artifacts.

    All rows share the corpus, the initial trainer parameters and the train
    configuration; only the data ordering differs. A second run of the same
    spec writes byte-identical scores, plans, checkpoints and reports.
    """
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_lines = [f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] experiment started"]

    data = prepare_data(spec)
    corpus_dir = out / "corpus"
    corpus_dir.mkdir(exist_ok=True)
    for name, split in (("train", data.train), ("val", data.val), ("test", data.test)):
        write_corpus(split, corpus_dir / f"{name}.src", corpus_dir / f"{name}.tgt")
    data.src_vocab.save(corpus_dir / "src.vocab")
    data.tgt_vocab.save(corpus_dir / "tgt.vocab")

    trainer_config = ModelConfig.preset(
        spec.trainer_preset, len(data.src_vocab), len(data.tgt_vocab)
    )
    init_seed = derive_seed("trainer-init", spec.seed)
    shared_init = init_params(trainer_config, init_seed)
    init_ckpt = ModelCheckpoint(
        config=trainer_config,
        params=shared_init,
        src_vocab_fingerprint=data.src_vocab.fingerprint(),
        tgt_vocab_fingerprint=data.tgt_vocab.fingerprint(),
    )
    save_checkpoint(init_ckpt, out / "init.ckpt")

    rows_wanted = _strategy_rows(spec)
    scorer_presets_needed = sorted({s for _, s in rows_wanted if s != "none"})
    scorers: dict[str, ModelCheckpoint] = {}
    for preset in scorer_presets_needed:
        ckpt, epochs = _pretrain(data, preset, spec.train, spec.seed)
        scorers[preset] = ckpt
        save_checkpoint(ckpt, out / f"scorer_{preset}.ckpt")
        log_lines.append(
            f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] scorer {preset} converged "
            f"at epoch {epochs}, fingerprint {ckpt.fingerprint[:12]}"
        )

    tables: dict[tuple[str, str], ScoreTable] = {}

    def _table_for(strategy: Strategy, scorer: str) -> ScoreTable | None:
        metric = strategy.required_metric
        if metric is None:
            return None
        key = (metric, scorer)
        if key not in tables:
            if metric.startswith("length:"):
                table = length_scores(data.train, metric.split(":")[1])
                name = f"scores_{metric.replace(':', '-')}.txt"
            else:
                table = score_corpus(scorers[scorer], data.train_enc, metric)
                name = f"scores_{metric}_{scorer}.txt"
            table.save(out / name)
            tables[key] = table
        return tables[key]

    report_rows: list[ReportRow] = []
    metadata: dict[str, str] = {
        "seed": str(spec.seed),
        "trainer_preset": spec.trainer_preset,
        "train_config": (
            f"lr={spec.train.learning_rate!r} batch={spec.train.batch_size} "
            f"max_epochs={spec.train.max_epochs} patience={spec.train.patience} "
            f"clip={spec.train.clip_norm!r}"
        ),
        "convergence": "early stop on validation perplexity",
        "init_fingerprint": init_ckpt.fingerprint,
        "train_corpus_hash": data.train.content_hash(),
        "src_vocab_fingerprint": data.src_vocab.fingerprint(),
        "tgt_vocab_fingerprint": data.tgt_vocab.fingerprint(),
    }
    for preset in scorer_presets_needed:
        metadata[f"scorer_fingerprint.{preset}"] = scorers[preset].fingerprint

    for n, (strategy, scorer) in enumerate(rows_wanted):
        stage = "score"
        try:
            table = _table_for(strategy, scorer)
            stage = "order"
            plan = make_ordering(
                strategy,
                table,
                data.train.indices(),
                spec.train.max_epochs,
                seed=derive_seed("order", spec.seed, strategy.token()),
            )
            check = verify_plan(plan, data.train.indices(), table)
            if not check.ok:
                raise DataError(f"plan verification failed: {check.violation}")
            plan.save(out / f"plan_{_file_token(strategy, scorer)}.txt")
            stage = "train"
            row_train = replace(
                spec.train, seed=derive_seed("trainer-run", spec.seed)
            )
            ckpt, _, epochs = fit(
                shared_init,
                trainer_config,
                plan,
                data.train_enc,
                data.val_enc,
                row_train,
                data.src_vocab.fingerprint(),
                data.tgt_vocab.fingerprint(),
            )
            save_checkpoint(ckpt, out / f"model_{_file_token(strategy, scorer)}.ckpt")
            stage = "evaluate"
            result = evaluate_model(ckpt, data.test_enc)
        except CurriculaError as exc:
            # the same class, so that the CLI's exit code still follows it;
            # anything else propagates unchanged
            raise type(exc)(
                f"strategy {strategy.token()} failed during {stage}: {exc}"
            ) from exc
        report_rows.append(
            ReportRow(
                strategy=strategy.label(),
                scorer=scorer,
                epochs=epochs,
                test_perplexity=result.perplexity,
                test_bleu=result.bleu,
            )
        )
        metadata[f"row.{n}.strategy"] = strategy.token()
        metadata[f"row.{n}.scorer"] = scorer
        metadata[f"row.{n}.init_fingerprint"] = init_ckpt.fingerprint
        metadata[f"row.{n}.plan_fingerprint"] = plan.fingerprint()
        if table is not None:
            metadata[f"row.{n}.scores_fingerprint"] = hashlib.sha256(
                table.to_text().encode("utf-8")
            ).hexdigest()
        metadata[f"row.{n}.checkpoint_fingerprint"] = ckpt.fingerprint
        log_lines.append(
            f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] row {n} "
            f"{strategy.token()} ({scorer}) done"
        )

    report = ExperimentReport(rows=tuple(report_rows), metadata=metadata)
    emit_report(report, "tsv", out / "report.tsv")
    emit_report(report, "markdown", out / "report.md")
    (out / "run.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    return report


# ---------------------------------------------------------------------------
# Small-scorer pipeline sanity experiment
# ---------------------------------------------------------------------------

def run_directional_sanity(
    output_dir,
    seeds=(1, 2, 3),
    size: int = 1000,
    vocab: int = 20,
    min_len: int = 5,
    max_len: int = 10,
    noise: float = 0.2,
    preset: str = "small",
    train: TrainConfig | None = None,
) -> dict:
    """Ascending-perplexity order vs a one-shot shuffle on a noisy toy task.

    For each seed, runs the full pretrain-scorer -> score -> order -> train
    -> evaluate pipeline for both strategies and reports the mean test-BLEU
    delta. The delta's sign is informative, not asserted: this exists to
    exercise the comparison pipeline end to end.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if train is None:
        train = TrainConfig(
            learning_rate=1e-3, batch_size=16, max_epochs=20, patience=20, seed=0
        )
    asc_bleus, shuffle_bleus, lines = [], [], []
    lines.append("seed\tstrategy\tscorer\tepochs\ttest_ppl\ttest_bleu\treport")
    for seed in seeds:
        spec = ExperimentSpec(
            corpus=CorpusSpec(
                toy_task="reverse", size=size, vocab=vocab,
                min_len=min_len, max_len=max_len, noise=noise, seed=seed,
            ),
            strategies=(Strategy("ppl", direction="asc"), Strategy("shuffle_once")),
            scorer_presets=(preset,),
            trainer_preset=preset,
            train=replace(train, seed=seed),
            seed=seed,
            output_dir=out / f"seed_{seed}",
        )
        report = run_experiment(spec)
        for row in report.rows:
            lines.append(
                f"{seed}\t{row.strategy}\t{row.scorer}\t{row.epochs}"
                f"\t{row.test_perplexity!r}\t{row.test_bleu!r}"
                f"\t{spec.output_dir / 'report.tsv'}"
            )
            if row.strategy.startswith("Ascending PPL"):
                asc_bleus.append(row.test_bleu)
            else:
                shuffle_bleus.append(row.test_bleu)
    mean_asc = sum(asc_bleus) / len(asc_bleus)
    mean_shuffle = sum(shuffle_bleus) / len(shuffle_bleus)
    delta = mean_asc - mean_shuffle
    lines.append(f"# mean_bleu.ppl_asc\t{mean_asc!r}")
    lines.append(f"# mean_bleu.shuffle_once\t{mean_shuffle!r}")
    lines.append(f"# delta\t{delta!r}")
    (out / "directional_sanity.tsv").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    return {
        "seeds": tuple(seeds),
        "mean_bleu_ppl_asc": mean_asc,
        "mean_bleu_shuffle_once": mean_shuffle,
        "delta": delta,
        "summary_path": out / "directional_sanity.tsv",
    }
