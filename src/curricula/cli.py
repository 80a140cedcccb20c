"""Command-line front end.

Subcommands mirror the pipeline stages: corpus, pretrain, score, order,
train, eval, experiment, report. Each stage command is argument parsing
around one stage function of `harness`, the same function that
`run_experiment` calls, and `--seed` is the experiment seed from which
that function derives its working seeds. Run with an experiment's seed and
train flags over its `corpus/` directory, the stage commands therefore
rewrite that experiment's artifacts byte for byte, unless the corpus came
from files whose filter dropped lines (`corpus/` renumbers the pairs that
remain). Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import read_text
from .errors import ConfigError, DataError, NumericalError
from .harness import (
    FILE_KEYS,
    CorpusSpec,
    emit_report,
    evaluate_split,
    init_trainer,
    load_corpus_dir,
    load_spec,
    make_plan,
    prepare_data,
    pretrain_scorer,
    report_from_tsv,
    report_to_markdown,
    report_to_tsv,
    run_experiment,
    save_corpus_dir,
    score_table,
    train_model,
)
from .metrics import ScoreTable
from .ordering import OrderingPlan, Strategy
from .trainer import TrainConfig


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--clip-norm", type=float, default=TrainConfig.clip_norm)
    p.add_argument("--seed", type=int, default=0)


def _train_config(args) -> TrainConfig:
    # the stage functions derive the training seed from --seed themselves
    return TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        clip_norm=args.clip_norm,
    )


def _cmd_corpus(args) -> int:
    corpus = CorpusSpec(
        toy_task=args.toy, size=args.size, vocab=args.vocab,
        min_len=args.min_len, max_len=args.max_len,
        filter_min=args.filter_min, filter_max=args.filter_max,
        take=args.take, min_count=args.min_count,
        **{k: getattr(args, k) for k in FILE_KEYS},
    )
    data = prepare_data(corpus, args.seed)
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
    data = load_corpus_dir(args.corpus_dir)
    metric = f"length:{args.side}" if args.metric == "length" else args.metric
    scorer = load_checkpoint(args.ckpt) if args.ckpt else None
    table = score_table(data, metric, scorer, args.split)
    table.save(args.out)
    print(f"{len(table)} {table.metric} scores written to {args.out}")
    return 0


def _cmd_order(args) -> int:
    strategy = Strategy(args.strategy, side=args.side, direction=args.direction)
    data = load_corpus_dir(args.corpus_dir)
    metric = strategy.required_metric
    if metric is None:
        table = None
    elif args.scores:
        table = ScoreTable.load(args.scores)
    else:
        table = score_table(data, metric)
    plan = make_plan(strategy, table, data, args.epochs, args.seed)
    plan.save(args.out)
    print(f"plan for {strategy.token()} over {args.epochs} epochs written to {args.out}")
    return 0


def _cmd_train(args) -> int:
    data = load_corpus_dir(args.corpus_dir)
    plan = OrderingPlan.load(args.plan)
    init = init_trainer(data, args.preset, args.seed)
    ckpt, stats, epochs = train_model(init, plan, data, _train_config(args), args.seed)
    save_checkpoint(ckpt, args.out)
    last = stats[-1]
    print(
        f"trained {args.preset} on {plan.strategy.token()}: best epoch {epochs}, "
        f"final train loss {last.train_loss:.4f} bits/token, saved to {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    data = load_corpus_dir(args.corpus_dir)
    ckpt = load_checkpoint(args.ckpt)
    print(evaluate_split(ckpt, data, args.split, args.max_decode_len).to_line())
    return 0


def _cmd_experiment(args) -> int:
    spec = load_spec(args.spec)
    report = run_experiment(spec)
    print(f"{len(report.rows)} rows written to {Path(spec.output_dir) / 'report.tsv'}")
    return 0


def _cmd_report(args) -> int:
    report = report_from_tsv(read_text(Path(args.run_dir, "report.tsv")))
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"report written to {args.out}")
    else:
        text = report_to_tsv(report) if args.format == "tsv" else report_to_markdown(report)
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curricula",
        description="Data-ordering curricula for desk-scale seq2seq translation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="generate a toy corpus or load+filter files")
    p.add_argument("--toy", choices=["copy", "reverse", "digit-translation"])
    p.add_argument("--size", type=int, default=CorpusSpec.size)
    p.add_argument("--vocab", type=int, default=CorpusSpec.vocab)
    p.add_argument("--min-len", type=int, default=CorpusSpec.min_len)
    p.add_argument("--max-len", type=int, default=CorpusSpec.max_len)
    p.add_argument("--seed", type=int, default=0)
    for key in FILE_KEYS:
        p.add_argument("--" + key.replace("_", "-"))
    p.add_argument("--filter-min", type=int, default=CorpusSpec.filter_min)
    p.add_argument("--filter-max", type=int, default=CorpusSpec.filter_max)
    p.add_argument("--take", type=int)
    p.add_argument("--min-count", type=int, default=CorpusSpec.min_count)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("pretrain", help="train a scorer model on a corpus dir")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--preset", default="small")
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("score", help="compute a per-pair score table")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument(
        "--metric", choices=["length", "xent", "ppl", "bleu"], required=True
    )
    p.add_argument("--side", choices=["source", "target"], default="source")
    p.add_argument("--split", choices=["train", "val", "test"], default="train")
    p.add_argument("--ckpt")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("order", help="build an ordering plan")
    p.add_argument(
        "--strategy",
        choices=["shuffle_every_epoch", "shuffle_once", "length", "ppl", "bleu"],
        required=True,
    )
    p.add_argument("--side", choices=["source", "target"])
    p.add_argument("--direction", choices=["asc", "desc"])
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
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="test perplexity and BLEU of a checkpoint")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--max-decode-len", type=int)
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
