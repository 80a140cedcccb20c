"""Command-line front end.

Subcommands mirror the pipeline stages: corpus, pretrain, score, order,
train, eval, experiment, report. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import (
    Vocabulary,
    build_vocab,
    encode_corpus,
    filter_corpus,
    load_parallel_corpus,
    truncate_corpus,
    write_corpus,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, NumericalError
from .evaluate import evaluate_model
from .harness import (
    emit_report,
    generate_toy_corpus,
    load_spec,
    report_from_tsv,
    report_to_markdown,
    report_to_tsv,
    run_experiment,
)
from .metrics import ScoreTable, length_scores, score_corpus
from .ordering import OrderingPlan, Strategy, make_ordering, verify_plan
from .rng import derive_seed
from .seq2seq import ModelConfig, init_params
from .trainer import TrainConfig, fit


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learning-rate", type=float, default=1e-5)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--max-epochs", type=int, default=10)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--clip-norm", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        clip_norm=args.clip_norm,
        seed=args.seed,
    )


def _load_split(corpus_dir: Path, split: str):
    return load_parallel_corpus(
        corpus_dir / f"{split}.src", corpus_dir / f"{split}.tgt"
    )


def _load_corpus_dir(corpus_dir: Path):
    corpus_dir = Path(corpus_dir)
    src_vocab = Vocabulary.load(corpus_dir / "src.vocab")
    tgt_vocab = Vocabulary.load(corpus_dir / "tgt.vocab")
    splits = {s: _load_split(corpus_dir, s) for s in ("train", "val", "test")}
    encoded = {
        s: encode_corpus(c, src_vocab, tgt_vocab) for s, c in splits.items()
    }
    return splits, encoded, src_vocab, tgt_vocab


def _cmd_corpus(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.toy:
        train, val, test = generate_toy_corpus(
            args.toy, args.size, args.vocab, (args.min_len, args.max_len), args.seed
        )
    else:
        if not (args.train_src and args.train_tgt):
            raise ConfigError("either --toy or --train-src/--train-tgt is required")
        train = load_parallel_corpus(args.train_src, args.train_tgt)
        train = filter_corpus(train, args.filter_min, args.filter_max)
        if args.take:
            train = truncate_corpus(train, args.take)
        if not (args.val_src and args.val_tgt and args.test_src and args.test_tgt):
            raise ConfigError("file corpora need --val-src/--val-tgt/--test-src/--test-tgt")
        val = load_parallel_corpus(args.val_src, args.val_tgt)
        test = load_parallel_corpus(args.test_src, args.test_tgt)
    for name, split in (("train", train), ("val", val), ("test", test)):
        write_corpus(split, out / f"{name}.src", out / f"{name}.tgt")
    build_vocab(train, "source", args.min_count).save(out / "src.vocab")
    build_vocab(train, "target", args.min_count).save(out / "tgt.vocab")
    print(f"corpus written to {out} ({len(train)} train / {len(val)} val / {len(test)} test)")
    return 0


def _cmd_pretrain(args) -> int:
    splits, encoded, src_vocab, tgt_vocab = _load_corpus_dir(args.corpus_dir)
    config = ModelConfig.preset(args.preset, len(src_vocab), len(tgt_vocab))
    train_config = _train_config(args)
    params = init_params(config, derive_seed("scorer-init", args.preset, args.seed))
    plan = make_ordering(
        Strategy("shuffle_every_epoch"),
        None,
        splits["train"].indices(),
        train_config.max_epochs,
        seed=derive_seed("scorer-order", args.preset, args.seed),
    )
    ckpt, _, epochs = fit(
        params, config, plan, encoded["train"], encoded["val"], train_config,
        src_vocab.fingerprint(), tgt_vocab.fingerprint(),
    )
    save_checkpoint(ckpt, args.out)
    print(f"pretrained {args.preset} scorer: best epoch {epochs}, "
          f"fingerprint {ckpt.fingerprint[:16]}, saved to {args.out}")
    return 0


def _cmd_score(args) -> int:
    splits, encoded, _, _ = _load_corpus_dir(args.corpus_dir)
    if args.metric == "length":
        table = length_scores(splits[args.split], args.side)
    else:
        if not args.ckpt:
            raise ConfigError(f"--metric {args.metric} needs --ckpt")
        ckpt = load_checkpoint(args.ckpt)
        table = score_corpus(ckpt, encoded[args.split], args.metric)
    table.save(args.out)
    print(f"{len(table)} {table.metric} scores written to {args.out}")
    return 0


def _cmd_order(args) -> int:
    splits, _, _, _ = _load_corpus_dir(args.corpus_dir)
    if args.strategy in ("shuffle_every_epoch", "shuffle_once"):
        strategy = Strategy(args.strategy)
        table = None
    elif args.strategy == "length":
        if not args.side or not args.direction:
            raise ConfigError("length ordering needs --side and --direction")
        strategy = Strategy("length", side=args.side, direction=args.direction)
        table = ScoreTable.load(args.scores) if args.scores else length_scores(
            splits["train"], args.side
        )
    else:
        if not args.direction:
            raise ConfigError(f"{args.strategy} ordering needs --direction")
        if not args.scores:
            raise ConfigError(f"{args.strategy} ordering needs --scores")
        strategy = Strategy(args.strategy, direction=args.direction)
        table = ScoreTable.load(args.scores)
    plan = make_ordering(
        strategy, table, splits["train"].indices(), args.epochs, seed=args.seed
    )
    check = verify_plan(plan, splits["train"].indices(), table)
    if not check.ok:
        raise DataError(f"plan verification failed: {check.violation}")
    plan.save(args.out)
    print(f"plan for {strategy.token()} over {args.epochs} epochs written to {args.out}")
    return 0


def _cmd_train(args) -> int:
    splits, encoded, src_vocab, tgt_vocab = _load_corpus_dir(args.corpus_dir)
    plan = OrderingPlan.load(args.plan)
    config = ModelConfig.preset(args.preset, len(src_vocab), len(tgt_vocab))
    train_config = _train_config(args)
    params = init_params(config, derive_seed("trainer-init", args.seed))
    ckpt, stats, epochs = fit(
        params, config, plan, encoded["train"], encoded["val"], train_config,
        src_vocab.fingerprint(), tgt_vocab.fingerprint(),
    )
    save_checkpoint(ckpt, args.out)
    last = stats[-1]
    print(
        f"trained {args.preset} on {plan.strategy.token()}: best epoch {epochs}, "
        f"final train loss {last.train_loss:.4f} bits/token, saved to {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    _, encoded, _, _ = _load_corpus_dir(args.corpus_dir)
    ckpt = load_checkpoint(args.ckpt)
    result = evaluate_model(ckpt, encoded[args.split], args.max_decode_len)
    print(result.to_line())
    return 0


def _cmd_experiment(args) -> int:
    spec = load_spec(args.spec)
    report = run_experiment(spec)
    print(f"{len(report.rows)} rows written to {Path(spec.output_dir) / 'report.tsv'}")
    return 0


def _cmd_report(args) -> int:
    report = report_from_tsv(Path(args.run_dir, "report.tsv").read_text("utf-8"))
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
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--vocab", type=int, default=12)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-src")
    p.add_argument("--train-tgt")
    p.add_argument("--val-src")
    p.add_argument("--val-tgt")
    p.add_argument("--test-src")
    p.add_argument("--test-tgt")
    p.add_argument("--filter-min", type=int, default=5)
    p.add_argument("--filter-max", type=int, default=60)
    p.add_argument("--take", type=int)
    p.add_argument("--min-count", type=int, default=1)
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
