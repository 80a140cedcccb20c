"""Command-line front end.

Subcommands mirror the pipeline stages: corpus, pretrain, score, order,
train, eval, experiment, report. Each stage command is argument parsing
around one stage function, the same function that `run_experiment` calls:
a stage function of `harness`, `metrics.score_corpus` for score, or
`evaluate.evaluate_model` for eval. `--seed` is the experiment seed from
which a `harness` stage derives its working seeds. Run with an
experiment's seed and train flags over its `corpus/` directory, the stage
commands therefore rewrite that experiment's artifacts byte for byte,
unless the corpus came from files whose filter dropped lines (`corpus/`
renumbers the pairs that remain). Train and corpus flags come from the
spec key tables of `harness`, and `order --strategy` and `score --metric`
take the tokens that spec `strategies` lines, plan headers and
score-table headers hold (`ppl:asc`, `length:source`). A stage refuses an
input it would not use, such as `score --ckpt` with a length metric or
`corpus --toy` with a file corpus flag, before it opens any file.
Exit codes: 0 success, 2 configuration error (a bad spec among them), 3 data
error (any other bad file), 4 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import read_text
from .errors import ConfigError, DataError, NumericalError
from .evaluate import evaluate_model
from .harness import (
    FILE_CORPUS_KEYS,
    MIN_COUNT,
    TOY_KEYS,
    TRAIN_KEYS,
    FileCorpus,
    ToyCorpus,
    emit_report,
    init_trainer,
    load_corpus_dir,
    load_spec,
    make_plan,
    prepare_data,
    pretrain_scorer,
    render_report,
    report_from_tsv,
    run_experiment,
    save_corpus_dir,
    train_model,
)
from .metrics import MODEL_METRICS, ScoreTable, needs_scorer, score_corpus
from .ordering import OrderingPlan, parse_strategy
from .trainer import TrainConfig


# The corpus command's flags, of both kinds: corpus.noise and corpus.seed
# only a spec sets, and --seed, the experiment seed, draws a toy corpus.
_CORPUS_FLAGS = tuple(
    k for k in (*TOY_KEYS, *FILE_CORPUS_KEYS, MIN_COUNT)
    if k.key not in ("corpus.noise", "corpus.seed")
)


def _flag(k) -> str:
    return "--" + k.key.split(".", 1)[1].replace("_", "-")  # train.batch_size is --batch-size


def _add_flags(p: argparse.ArgumentParser, keys) -> None:
    """A flag per spec key, of its type, and --seed. A spec-key flag left
    out is no attribute of the parsed arguments: its field's default holds."""
    for k in keys:
        p.add_argument(_flag(k), dest=k.field, type=k.kind, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=0)


def _given(args, keys) -> dict:
    return {k.field: getattr(args, k.field) for k in keys if hasattr(args, k.field)}


def _train_config(args) -> TrainConfig:
    # the stage functions derive the training seed from --seed themselves
    return TrainConfig(**_given(args, TRAIN_KEYS))


def _corpus(args) -> ToyCorpus | FileCorpus:
    """The corpus of the given flags: --toy chooses the toy kind, and a flag
    of the other kind is refused."""
    toy = hasattr(args, "toy_task")
    kind, name = (ToyCorpus, "a toy corpus (--toy)") if toy else (FileCorpus, "a file corpus")
    given = _given(args, _CORPUS_FLAGS)
    other = [_flag(k) for k in _CORPUS_FLAGS if k.field in given and k not in kind.keys]
    if other:
        raise ConfigError(f"{name} takes no {', '.join(other)}")
    # a field without a default, a file path, is no class attribute
    missing = [_flag(k) for k in kind.keys if k.field not in given and not hasattr(kind, k.field)]
    if missing:
        raise ConfigError(f"a corpus needs --toy or six files; missing {', '.join(missing)}")
    return kind(**given)


def _cmd_corpus(args) -> int:
    data = prepare_data(_corpus(args), args.seed)
    save_corpus_dir(data, args.out_dir)
    sizes = " / ".join(f"{len(split)} {name}" for name, split in data.splits.items())
    print(f"corpus written to {args.out_dir} ({sizes})")
    return 0


def _cmd_pretrain(args) -> int:
    data = load_corpus_dir(args.corpus_dir)
    ckpt, epochs = pretrain_scorer(data, args.preset, _train_config(args), args.seed)
    save_checkpoint(ckpt, args.out)
    print(f"pretrained {args.preset} scorer: best epoch {epochs}, "
          f"fingerprint {ckpt.fingerprint[:16]}, saved to {args.out}")
    return 0


def _cmd_score(args) -> int:
    model_metric = needs_scorer(args.metric)
    if model_metric and not args.ckpt:
        raise ConfigError(f"{args.metric} scores need --ckpt, a scorer checkpoint")
    if args.ckpt and not model_metric:
        raise ConfigError(f"{args.metric} scores count tokens and take no --ckpt")
    data = load_corpus_dir(args.corpus_dir)
    scorer = load_checkpoint(args.ckpt) if args.ckpt else None
    table = score_corpus(scorer, data.encoded[args.split], args.metric)
    table.save(args.out)
    print(f"{len(table)} {table.metric} scores written to {args.out}")
    return 0


def _cmd_order(args) -> int:
    strategy = parse_strategy(args.strategy)
    metric = strategy.required_metric
    if metric is None and args.scores:
        raise ConfigError(f"{strategy.token()} orders by no scores and takes no --scores")
    if metric in MODEL_METRICS and not args.scores:
        raise ConfigError(
            f"{strategy.token()} orders by {metric} scores: pass --scores, a table "
            "that `curricula score` wrote"
        )
    data = load_corpus_dir(args.corpus_dir)
    if args.scores:
        table = ScoreTable.load(args.scores)
    elif metric is not None:  # a length table comes from the corpus directory
        table = score_corpus(None, data.encoded["train"], metric)
    else:
        table = None
    plan = make_plan(strategy, table, data, args.epochs, args.seed)
    plan.save(args.out)
    print(f"plan for {strategy.token()} over {args.epochs} epochs written to {args.out}")
    return 0


def _cmd_train(args) -> int:
    data = load_corpus_dir(args.corpus_dir)
    plan = OrderingPlan.load(args.plan)
    init = init_trainer(data, args.preset, args.seed)
    ckpt, history, epochs = train_model(init, plan, data, _train_config(args), args.seed)
    save_checkpoint(ckpt, args.out)
    print(
        f"trained {args.preset} on {plan.strategy.token()}: best epoch {epochs}, "
        f"final train loss {history[-1]['train_loss']:.4f} bits/token, saved to {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    data = load_corpus_dir(args.corpus_dir)
    ckpt = load_checkpoint(args.ckpt)
    print(evaluate_model(ckpt, data.encoded[args.split]).to_line())
    return 0


def _cmd_experiment(args) -> int:
    spec = load_spec(args.spec)
    report = run_experiment(spec)
    print(f"{len(report.rows)} rows written to {Path(spec.output_dir) / 'report.tsv'}")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.run_dir, "report.tsv")
    report = report_from_tsv(read_text(path), path)
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"report written to {args.out}")
    else:
        print(render_report(report, args.format), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curricula",
        description="Data-ordering curricula for desk-scale seq2seq translation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="generate a toy corpus or load+filter files")
    _add_flags(p, _CORPUS_FLAGS)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("pretrain", help="train a scorer model on a corpus dir")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--preset", default="small")
    p.add_argument("--out", required=True)
    _add_flags(p, TRAIN_KEYS)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("score", help="compute a per-pair score table")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--metric", required=True, help="a score-table metric, e.g. length:source")
    p.add_argument("--split", choices=["train", "val", "test"], default="train")
    p.add_argument("--ckpt")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("order", help="build an ordering plan")
    p.add_argument("--strategy", required=True, help="a strategy token, e.g. ppl:asc")
    p.add_argument("--scores")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("train", help="train a model along a plan")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--preset", default="small")
    p.add_argument("--out", required=True)
    _add_flags(p, TRAIN_KEYS)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="test perplexity and BLEU of a checkpoint")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run a full experiment spec")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="re-render a persisted report")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--format", choices=["tsv", "markdown"], default="markdown")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
