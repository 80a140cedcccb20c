"""Experiment orchestration: toy corpora, the pipeline stages, experiment
specs and results tables.

Each pipeline stage is one function here, and it owns its checks, its file
layout and the derivation of its working seeds from the experiment seed:
`prepare_data`, `save_corpus_dir`/`load_corpus_dir`, `pretrain_scorer`,
`make_plan`, `init_trainer` and `train_model`. Scoring and evaluation are
`metrics.score_corpus` and `evaluate.evaluate_model` over a split's
encoded pairs; scoring takes the scorer checkpoint or, for a length
metric, none. `run_experiment` composes them, and the command line calls
the same functions one stage at a time. Both read a corpus through
`load_corpus_dir`: an experiment writes its `corpus/` directory and runs
every later stage on what it reads back, so its pairs are numbered by
their line in `corpus/` and each of its artifacts can be rewritten from
that directory.

A corpus is a `ToyCorpus` or a `FileCorpus`, each checked when it is made
and each making its own splits. Each holds its table of spec keys, and the
`TrainConfig` keys have one table too: the spec writer, the spec reader and
the command-line flags all read them. Only the spec reader and the `corpus`
command choose between the two kinds.

An experiment runs every requested strategy against the same data, the same
initial parameters and the same training configuration, so the ordering is
the only thing that differs between rows. Rerunning a spec reproduces every
persisted artifact byte for byte; wall-clock timestamps go to the run log
only, never into reports or checkpoints.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .corpus import (
    EncodedPair,
    ParallelCorpus,
    SentencePair,
    TextLines,
    Vocabulary,
    at_least_one,
    build_vocab,
    check_lengths,
    encode_corpus,
    filter_corpus,
    load_parallel_corpus,
    read_text,
    truncate_corpus,
    write_corpus,
    write_file,
)
from .checkpoint import ModelCheckpoint, save_checkpoint
from .errors import ConfigError, CurriculaError, DataError
from .evaluate import evaluate_model
from .metrics import MODEL_METRICS, ScoreTable, _workers, score_corpus
from .ordering import (
    Strategy,
    make_ordering,
    parse_strategy,
    verify_plan,
)
from .rng import derive_seed, make_rng
from .runtime import environment
from .seq2seq import ModelConfig, _measured_blas, init_params
from .trainer import TrainConfig, fit

SPEC_HEADER = "CURRICULA-SPEC v1"
REPORT_COLUMNS = "strategy\tscorer\tepochs\ttest_ppl\ttest_bleu"

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


def _check_toy(task: str, size: int, vocab: int, lo: int, hi: int) -> None:
    if task not in TOY_TASKS:
        raise ConfigError(f"unknown toy task {task!r}; choose from {TOY_TASKS}")
    if size < 30:
        raise ConfigError(f"toy corpus size must be >= 30, got {size}")
    if not (1 <= lo <= hi <= 60):
        raise ConfigError(f"toy lengths must satisfy 1 <= min_len <= max_len <= 60: {lo, hi}")
    if vocab < 2:
        raise ConfigError(f"toy vocab must be >= 2, got {vocab}")
    sources = sum(len(toy_alphabet(task, vocab)) ** n for n in range(lo, hi + 1))
    if size > sources:
        raise ConfigError(
            f"toy corpus size {size} exceeds the {sources} distinct sources of its "
            "alphabet and lengths"
        )


def _check_noise(name: str, fraction: float) -> None:
    # written so that NaN fails: every comparison with NaN is false
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {fraction}")


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
    lo, hi = length_range
    _check_toy(task, size, vocab, lo, hi)
    alphabet = toy_alphabet(task, vocab)
    rng = make_rng("toy", task, size, len(alphabet), lo, hi, seed)
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
    train = ParallelCorpus(tuple(pairs[:n_train]))
    val = ParallelCorpus(tuple(pairs[n_train : n_train + n_val]))
    test = ParallelCorpus(tuple(pairs[n_train + n_val :]))
    return train, val, test


def corrupt_targets(
    corpus: ParallelCorpus, fraction: float, alphabet, seed: int
) -> ParallelCorpus:
    """Label noise: replace the targets of a fraction of pairs with random
    token strings of the same length. Indices are untouched."""
    _check_noise("fraction", fraction)
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
    return ParallelCorpus(tuple(out))


# ---------------------------------------------------------------------------
# Experiment specification
# ---------------------------------------------------------------------------

# One `key = value` line of a spec file and the field it sets; kind converts
# the value. A key whose field is None is not written, nor an optional key
# whose field is the default. A float is written with repr.
SpecKey = namedtuple("SpecKey", "key field kind optional", defaults=(False,))

# Every spec key of a corpus, in file order: a ToyCorpus reads TOY_KEYS,
# and a FileCorpus FILE_CORPUS_KEYS, each then MIN_COUNT.
TOY_KEYS = (
    SpecKey("corpus.toy", "toy_task", str),
    SpecKey("corpus.size", "size", int),
    SpecKey("corpus.vocab", "vocab", int),
    SpecKey("corpus.min_len", "min_len", int),
    SpecKey("corpus.max_len", "max_len", int),
    SpecKey("corpus.noise", "noise", float, optional=True),
    SpecKey("corpus.seed", "seed", int, optional=True),
)
FILE_CORPUS_KEYS = (
    *(SpecKey(f"corpus.{k}", k, str)
      for k in ("train_src", "train_tgt", "val_src", "val_tgt", "test_src", "test_tgt")),
    SpecKey("corpus.filter_min", "filter_min", int),
    SpecKey("corpus.filter_max", "filter_max", int),
    SpecKey("corpus.take", "take", int, optional=True),
)
MIN_COUNT = SpecKey("corpus.min_count", "min_count", int)
# One key per TrainConfig field, of its default's type, but for the seed:
# working seeds always derive from the experiment seed.
TRAIN_KEYS = tuple(
    SpecKey(f"train.{f.name}", f.name, type(f.default))
    for f in fields(TrainConfig) if f.name != "seed"
)


@dataclass(frozen=True)
class ToyCorpus:
    """Synthetic pairs drawn from `seed`, or the experiment seed when it is
    None; `noise` is the share of training targets replaced at random."""

    toy_task: str
    size: int = 200
    vocab: int = 12
    min_len: int = 3
    max_len: int = 8
    noise: float = 0.0
    seed: int | None = None
    min_count: int = 1
    keys = (*TOY_KEYS, MIN_COUNT)

    def __post_init__(self):
        _check_toy(self.toy_task, self.size, self.vocab, self.min_len, self.max_len)
        _check_noise("corpus.noise", self.noise)
        at_least_one("corpus.min_count", self.min_count)

    def splits(self, seed: int) -> tuple[ParallelCorpus, ParallelCorpus, ParallelCorpus]:
        corpus_seed = self.seed if self.seed is not None else seed
        train, val, test = generate_toy_corpus(
            self.toy_task, self.size, self.vocab, (self.min_len, self.max_len), corpus_seed
        )
        train = corrupt_targets(  # the corpus itself at noise 0.0
            train, self.noise, toy_alphabet(self.toy_task, self.vocab),
            derive_seed(corpus_seed, "noise"),
        )
        return train, val, test


@dataclass(frozen=True)
class FileCorpus:
    """Six line-aligned text files; training keeps the distinct pairs of
    `filter_min`..`filter_max` tokens a side, the first `take` when set."""

    train_src: str
    train_tgt: str
    val_src: str
    val_tgt: str
    test_src: str
    test_tgt: str
    filter_min: int = 5
    filter_max: int = 60
    take: int | None = None
    min_count: int = 1
    keys = (*FILE_CORPUS_KEYS, MIN_COUNT)

    def __post_init__(self):
        check_lengths(self.filter_min, self.filter_max, ("corpus.filter_min", "corpus.filter_max"))
        if self.take is not None:
            at_least_one("corpus.take", self.take)
        at_least_one("corpus.min_count", self.min_count)

    def splits(self, seed: int) -> tuple[ParallelCorpus, ParallelCorpus, ParallelCorpus]:
        train = load_parallel_corpus(self.train_src, self.train_tgt)
        train = filter_corpus(train, self.filter_min, self.filter_max)
        if self.take is not None:
            train = truncate_corpus(train, self.take)
        val = load_parallel_corpus(self.val_src, self.val_tgt)
        test = load_parallel_corpus(self.test_src, self.test_tgt)
        return train, val, test


@dataclass
class ExperimentSpec:
    corpus: ToyCorpus | FileCorpus
    strategies: tuple[Strategy, ...]
    scorer_presets: tuple[str, ...]
    trainer_preset: str
    train: TrainConfig
    seed: int
    output_dir: Path

    def __post_init__(self):
        if not self.strategies:
            raise ConfigError("an experiment needs at least one strategy")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("strategies must be unique")
        if len(set(self.scorer_presets)) != len(self.scorer_presets):
            raise ConfigError("scorer presets must be unique")
        scored = any(s.required_metric in MODEL_METRICS for s in self.strategies)
        if scored and not self.scorer_presets:
            raise ConfigError("ppl/bleu strategies need at least one scorer preset")
        if self.scorer_presets and not scored:
            raise ConfigError(
                f"scorer presets {' '.join(self.scorer_presets)} train a scorer that no "
                "strategy uses: only ppl/bleu strategies order by one"
            )
        for preset in (self.trainer_preset, *self.scorer_presets):
            ModelConfig.preset(preset, 1, 1)  # fails on an unknown name


def _spec_lines(obj, keys) -> list[str]:
    lines = []
    for k in keys:
        value = getattr(obj, k.field)
        if value is not None and not (k.optional and value == getattr(type(obj), k.field)):
            lines.append(f"{k.key} = {value!r}" if k.kind is float else f"{k.key} = {value}")
    return lines


def spec_to_text(spec: ExperimentSpec) -> str:
    lines = [SPEC_HEADER, *_spec_lines(spec.corpus, spec.corpus.keys)]
    lines.append("strategies = " + " ".join(s.token() for s in spec.strategies))
    if spec.scorer_presets:
        lines.append("scorer.presets = " + " ".join(spec.scorer_presets))
    lines.append(f"trainer.preset = {spec.trainer_preset}")
    lines += _spec_lines(spec.train, TRAIN_KEYS)
    lines += [f"seed = {spec.seed}", f"output_dir = {spec.output_dir}"]
    return "\n".join(lines) + "\n"


def spec_from_text(text: str, source=None) -> ExperimentSpec:
    lines = TextLines(text, "spec", source, ConfigError)
    lines.header(SPEC_HEADER)
    kv: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    for number, line in lines.numbered():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise lines.fail(number, f"bad spec line (need 'key = value'): {line!r}")
        if key in kv:
            raise lines.fail(number, f"spec key {key} given twice, first on line {kv[key][0]}")
        if not value:  # the writer writes none, and an empty output_dir is the cwd
            raise lines.fail(number, f"spec key {key} has no value")
        kv[key] = number, value

    def pop(key, kind=str, default=None):
        if key not in kv:
            return default
        number, value = kv.pop(key)
        with lines.at(number, f"spec key {key}: expected {kind.__name__}, got {value!r}"):
            return kind(value)

    kind = ToyCorpus if "corpus.toy" in kv else FileCorpus
    corpus = {k.field: pop(k.key, k.kind) for k in kind.keys if k.key in kv}
    # a field without a default, such as a file path, is no class attribute
    missing = [k.key for k in kind.keys if k.field not in corpus and not hasattr(kind, k.field)]
    missing += [key for key in ("strategies", "trainer.preset", "output_dir") if key not in kv]
    if missing:
        raise lines.fail(None, f"spec is missing {missing[0]!r}")
    number, raw = kv.pop("strategies")
    with lines.at(number):
        strategies = tuple(parse_strategy(tok) for tok in raw.split())
    scorers = tuple(pop("scorer.presets", default="").split())
    trainer_preset = pop("trainer.preset")
    train = {k.field: pop(k.key, k.kind) for k in TRAIN_KEYS if k.key in kv}
    seed = pop("seed", int, 0)
    output_dir = Path(pop("output_dir"))
    if kv:
        raise lines.fail(min(n for n, _ in kv.values()), f"unknown spec keys: {sorted(kv)}")
    with lines.at(None):
        return ExperimentSpec(
            corpus=kind(**corpus),
            strategies=strategies,
            scorer_presets=scorers,
            trainer_preset=trainer_preset,
            train=TrainConfig(**train),
            seed=seed,
            output_dir=output_dir,
        )


def load_spec(path) -> ExperimentSpec:
    return spec_from_text(read_text(path, ConfigError), path)


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
    lines.append(REPORT_COLUMNS)
    for r in report.rows:
        lines.append(
            f"{r.strategy}\t{r.scorer}\t{r.epochs}\t{r.test_perplexity!r}\t{r.test_bleu!r}"
        )
    return "\n".join(lines) + "\n"


def report_from_tsv(text: str, source=None) -> ExperimentReport:
    """Read `report_to_tsv`'s text: `# <key>\\t<value>` metadata lines, the
    column line, then one line per row."""
    lines = TextLines(text, "report", source)
    metadata: dict[str, str] = {}
    rows: list[ReportRow] = []
    header_seen = False
    for number, line in lines.numbered(start=1):
        if line.startswith("# "):
            key, tab, value = line[2:].partition("\t")
            if not tab:
                raise lines.fail(number, "metadata needs '# <key>\\t<value>'")
            metadata[key] = value
        elif not header_seen:
            if line != REPORT_COLUMNS:
                raise lines.fail(number, f"bad header {line!r}")
            header_seen = True
        else:
            with lines.at(number, "expected five tab-separated fields with numeric "
                          f"epochs, test_ppl and test_bleu, got {line!r}"):
                strategy, scorer, epochs, ppl, bleu = line.split("\t")
                rows.append(ReportRow(strategy, scorer, int(epochs), float(ppl), float(bleu)))
    if not header_seen:
        raise lines.fail(None, "report TSV has no header line")
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


def render_report(report: ExperimentReport, fmt: str) -> str:
    """The report as `tsv` or `markdown` text."""
    if fmt == "tsv":
        return report_to_tsv(report)
    if fmt == "markdown":
        return report_to_markdown(report)
    raise ConfigError(f"unknown report format {fmt!r}; use tsv or markdown")


def emit_report(report: ExperimentReport, fmt: str, path) -> None:
    if not report.rows:
        raise ConfigError("cannot emit an empty report")
    write_file(path, render_report(report, fmt))


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

@dataclass
class PreparedData:
    """A corpus's splits, the vocabularies of its training split, and every
    split encoded with them."""

    splits: dict[str, ParallelCorpus]
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    encoded: dict[str, tuple[EncodedPair, ...]] = field(init=False)

    def __post_init__(self):
        self.encoded = {
            name: encode_corpus(split, self.src_vocab, self.tgt_vocab)
            for name, split in self.splits.items()
        }


def prepare_data(corpus: ToyCorpus | FileCorpus, seed: int) -> PreparedData:
    """Make the corpus's splits, from the experiment seed, and build the
    vocabularies of its training split."""
    train, val, test = corpus.splits(seed)
    return PreparedData(
        {"train": train, "val": val, "test": test},
        build_vocab(train, "source", corpus.min_count),
        build_vocab(train, "target", corpus.min_count),
    )


def save_corpus_dir(data: PreparedData, corpus_dir) -> None:
    """Write `<split>.src`, `<split>.tgt`, `src.vocab` and `tgt.vocab`."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for name, split in data.splits.items():
        write_corpus(split, corpus_dir / f"{name}.src", corpus_dir / f"{name}.tgt")
    data.src_vocab.save(corpus_dir / "src.vocab")
    data.tgt_vocab.save(corpus_dir / "tgt.vocab")


def load_corpus_dir(corpus_dir) -> PreparedData:
    """Read what `save_corpus_dir` wrote; each split's pairs are numbered by
    their line, from 0. The one corpus input of `run_experiment`'s stages
    and of the stage commands."""
    d = Path(corpus_dir)
    vocabs = Vocabulary.load(d / "src.vocab"), Vocabulary.load(d / "tgt.vocab")
    splits = {
        s: load_parallel_corpus(d / f"{s}.src", d / f"{s}.tgt") for s in ("train", "val", "test")
    }
    return PreparedData(splits, *vocabs)


def pretrain_scorer(
    data: PreparedData, preset: str, train: TrainConfig, seed: int
) -> tuple[ModelCheckpoint, int]:
    """Train a scorer of the given preset on the training split, shuffled
    every epoch; return its best checkpoint and that checkpoint's epoch."""
    config = ModelConfig.preset(preset, len(data.src_vocab), len(data.tgt_vocab))
    params = init_params(config, derive_seed("scorer-init", preset, seed))
    plan = make_ordering(
        Strategy("shuffle_every_epoch"),
        None,
        data.splits["train"].indices(),
        train.max_epochs,
        seed=derive_seed("scorer-order", preset, seed),
    )
    scorer_train = replace(train, seed=derive_seed("scorer-train", preset, seed))
    ckpt, _, epochs = fit(
        params, config, plan, data.encoded["train"], data.encoded["val"], scorer_train
    )
    return ckpt, epochs


def make_plan(strategy: Strategy, table, data: PreparedData, epochs: int, seed: int):
    """The strategy's ordering of the training split, verified against the
    score table."""
    indices = data.splits["train"].indices()
    plan = make_ordering(
        strategy, table, indices, epochs, seed=derive_seed("order", seed, strategy.token())
    )
    check = verify_plan(plan, indices, table)
    if not check.ok:
        raise DataError(f"plan verification failed: {check.violation}")
    return plan


def init_trainer(data: PreparedData, preset: str, seed: int) -> ModelCheckpoint:
    """The initial parameters that every row of an experiment trains from."""
    config = ModelConfig.preset(preset, len(data.src_vocab), len(data.tgt_vocab))
    return ModelCheckpoint(
        config=config,
        params=init_params(config, derive_seed("trainer-init", seed)),
        src_vocab_fingerprint=data.src_vocab.fingerprint(),
        tgt_vocab_fingerprint=data.tgt_vocab.fingerprint(),
    )


def train_model(init: ModelCheckpoint, plan, data: PreparedData, train, seed: int):
    """Train from `init` along the plan; returns what `fit` returns."""
    row_train = replace(train, seed=derive_seed("trainer-run", seed))
    return fit(
        init.params, init.config, plan, data.encoded["train"], data.encoded["val"], row_train
    )


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------

def _strategy_rows(spec: ExperimentSpec) -> list[tuple[Strategy, str]]:
    """(strategy, scorer preset) per report row; 'none' when no model is used."""
    rows = []
    for strategy in spec.strategies:
        if strategy.required_metric in MODEL_METRICS:
            for preset in spec.scorer_presets:
                rows.append((strategy, preset))
        else:
            rows.append((strategy, "none"))
    return rows


def _file_token(token: str, scorer: str) -> str:
    tok = token.replace(":", "-")
    return tok if scorer == "none" else f"{tok}_{scorer}"


def _environment_line(data: PreparedData, presets) -> str:
    """What produced the bits and how inference ran: numpy, the BLAS and its
    core and threads, the CPUs, the inference workers of each preset's model
    and whether `_rows_matmul` takes its measured paths on this BLAS."""
    env = environment()
    vocab = len(data.src_vocab), len(data.tgt_vocab)
    workers = ", ".join(f"{p} {_workers(ModelConfig.preset(p, *vocab))}" for p in presets)
    return (
        f"environment: numpy {env.numpy} | {env.blas} | core {env.core or 'unknown'}"
        f" | blas threads {env.blas_threads or 'unknown'} | cpus {env.cpus}"
        f" | inference workers {workers}"
        f" | measured blas {'yes' if _measured_blas() else 'no'}"
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every (strategy, scorer) row of the spec and persist all artifacts.

    All rows share the corpus, the initial trainer parameters and the train
    configuration; only the data ordering differs. Every stage runs on the
    `corpus/` directory the run wrote, as the stage commands do. A second
    run of the same spec writes byte-identical scores, plans, checkpoints
    and reports.
    """
    started = f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] experiment started"
    out = Path(spec.output_dir)
    save_corpus_dir(prepare_data(spec.corpus, spec.seed), out / "corpus")
    data = load_corpus_dir(out / "corpus")  # what every stage command reads
    init_ckpt = init_trainer(data, spec.trainer_preset, spec.seed)
    save_checkpoint(init_ckpt, out / "init.ckpt")

    rows_wanted = _strategy_rows(spec)
    scorer_presets_needed = sorted(spec.scorer_presets)  # each is used by some row
    presets = dict.fromkeys([spec.trainer_preset, *scorer_presets_needed])
    log_lines = [_environment_line(data, presets), started]
    scorers: dict[str, ModelCheckpoint] = {}
    for preset in scorer_presets_needed:
        ckpt, epochs = pretrain_scorer(data, preset, spec.train, spec.seed)
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
            table = score_corpus(scorers.get(scorer), data.encoded["train"], metric)
            table.save(out / f"scores_{_file_token(metric, scorer)}.txt")
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
        "train_corpus_hash": data.splits["train"].content_hash(),
        "src_vocab_fingerprint": data.src_vocab.fingerprint(),
        "tgt_vocab_fingerprint": data.tgt_vocab.fingerprint(),
    }
    for preset in scorer_presets_needed:
        metadata[f"scorer_fingerprint.{preset}"] = scorers[preset].fingerprint

    for n, (strategy, scorer) in enumerate(rows_wanted):
        name = _file_token(strategy.token(), scorer)
        stage = "score"
        try:
            table = _table_for(strategy, scorer)
            stage = "order"
            plan = make_plan(strategy, table, data, spec.train.max_epochs, spec.seed)
            plan.save(out / f"plan_{name}.txt")
            stage = "train"
            ckpt, _, epochs = train_model(init_ckpt, plan, data, spec.train, spec.seed)
            save_checkpoint(ckpt, out / f"model_{name}.ckpt")
            stage = "evaluate"
            result = evaluate_model(ckpt, data.encoded["test"])
        except CurriculaError as exc:
            # the same class, so that the CLI's exit code still follows it,
            # with the same attributes, made without calling its __init__,
            # whose arguments may be any; anything else propagates unchanged
            wrapped = type(exc).__new__(
                type(exc), f"strategy {strategy.token()} failed during {stage}: {exc}")
            vars(wrapped).update(vars(exc))
            raise wrapped from exc
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
            metadata[f"row.{n}.scores_fingerprint"] = table.fingerprint()
        metadata[f"row.{n}.checkpoint_fingerprint"] = ckpt.fingerprint
        log_lines.append(
            f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] row {n} "
            f"{strategy.token()} ({scorer}) done"
        )

    report = ExperimentReport(rows=tuple(report_rows), metadata=metadata)
    emit_report(report, "markdown", out / "report.md")
    write_file(out / "run.log", "\n".join(log_lines) + "\n")
    emit_report(report, "tsv", out / "report.tsv")  # last: it marks the run whole
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
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("the directional sanity experiment needs at least one seed")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if train is None:
        train = TrainConfig(
            learning_rate=1e-3, batch_size=16, max_epochs=20, patience=20, seed=0
        )
    ascending = Strategy("ppl", direction="asc")
    asc_bleus, shuffle_bleus, lines = [], [], []
    lines.append("seed\tstrategy\tscorer\tepochs\ttest_ppl\ttest_bleu\treport")
    for seed in seeds:
        spec = ExperimentSpec(
            corpus=ToyCorpus(
                toy_task="reverse", size=size, vocab=vocab,
                min_len=min_len, max_len=max_len, noise=noise, seed=seed,
            ),
            strategies=(ascending, Strategy("shuffle_once")),
            scorer_presets=(preset,),
            trainer_preset=preset,
            train=train,
            seed=seed,
            output_dir=out / f"seed_{seed}",
        )
        report = run_experiment(spec)
        for row in report.rows:
            lines.append(
                f"{seed}\t{row.strategy}\t{row.scorer}\t{row.epochs}"
                f"\t{row.test_perplexity!r}\t{row.test_bleu!r}"
                f"\t{(spec.output_dir / 'report.tsv').relative_to(out)}"
            )
            if row.strategy == ascending.label():
                asc_bleus.append(row.test_bleu)
            else:
                shuffle_bleus.append(row.test_bleu)
    mean_asc = sum(asc_bleus) / len(asc_bleus)
    mean_shuffle = sum(shuffle_bleus) / len(shuffle_bleus)
    delta = mean_asc - mean_shuffle
    lines.append(f"# mean_bleu.ppl_asc\t{mean_asc!r}")
    lines.append(f"# mean_bleu.shuffle_once\t{mean_shuffle!r}")
    lines.append(f"# delta\t{delta!r}")
    write_file(out / "directional_sanity.tsv", "\n".join(lines) + "\n")
    return {
        "seeds": seeds,
        "mean_bleu_ppl_asc": mean_asc,
        "mean_bleu_shuffle_once": mean_shuffle,
        "delta": delta,
        "summary_path": out / "directional_sanity.tsv",
    }
