"""In-memory spans around calls into `curricula`, and the metrics derived from them.

The package imports functions with `from x import y`, so a function has one
binding in the module that defines it and one in every module (and the
package namespace) that imports it. `Tracer.install` therefore replaces every
binding of the original function object across all loaded `curricula`
modules, not only the defining one, and `uninstall` puts them all back.

A span records name, start, end, parent span and run id. Self time is a
span's duration minus the time its child spans cover; calls are sequential
in one thread, so children never overlap and their durations add up.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _fit_tokens(args, kwargs, result):
    # every epoch run steps through each training pair's target once
    epochs = len(result[1])
    pairs = _arg(args, kwargs, 3, "train_pairs")
    return {"tokens": epochs * sum(len(p.tgt_out_ids) for p in pairs)}


def _batch_tokens(args, kwargs, result):
    return {"tokens": int(_arg(args, kwargs, 2, "batch").tgt_lengths.sum())}


def _batch_rows(args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 2, "batch").size)}


def _decode_steps(args, kwargs, result):
    budget = _arg(args, kwargs, 3, "max_len")
    hit = len(result) >= budget
    # the EOS step is generated too, though it is not returned
    return {"tokens": len(result) + (0 if hit else 1), "budget_hit": int(hit)}


def _adam_params(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    return {"params": sum(int(p.size) for p in params.values())}


def _clipped(args, kwargs, result):
    # within the norm, clip_gradients returns its input dict untouched
    return {"clipped": int(result is not _arg(args, kwargs, 0, "grads"))}


def _pairs(pos, name):
    def count(args, kwargs, result):
        return {"pairs": len(_arg(args, kwargs, pos, name))}
    return count


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# Wrapped by every run: the boundaries the end-to-end metrics are read at.
BOUNDARY = {
    "trainer.fit": _fit_tokens,
    "metrics.score_corpus": _pairs(1, "pairs"),
    "evaluate.evaluate_model": _pairs(1, "test_pairs"),
}

# Wrapped by traced runs only. A name is `module.function` or
# `module.Class.method`, relative to the `curricula` package.
LAYERS = {
    **BOUNDARY,
    "harness.prepare_data": None,
    "harness.generate_toy_corpus": None,
    "harness.emit_report": None,
    "corpus.build_vocab": None,
    "corpus.encode_corpus": None,
    "corpus.write_corpus": None,
    "corpus.Vocabulary.save": None,
    "seq2seq.init_params": None,
    "seq2seq.loss_and_gradients": _batch_tokens,
    "seq2seq.forward_teacher_forced": _batch_rows,
    "seq2seq.greedy_decode": _decode_steps,
    "seq2seq.make_batch": None,
    "trainer.train_epoch": None,
    "trainer.adam_step": _adam_params,
    "trainer.clip_gradients": _clipped,
    "trainer.validation_perplexity": None,
    "metrics.corpus_cross_entropy": _pairs(2, "pairs"),
    "metrics.sentence_bleu": None,
    "metrics.ScoreTable.save": None,
    "evaluate.corpus_bleu": None,
    "checkpoint.save_checkpoint": _saved_bytes,
    "checkpoint.load_checkpoint": _loaded_bytes,
    "ordering.make_ordering": None,
    "ordering.verify_plan": None,
    "ordering.schedule_batches": None,
    "ordering.OrderingPlan.save": None,
}

# Pipeline stage of the outermost staged span. `trainer.fit` is pretraining
# before a run's first `verify_plan` and training after it: a scorer's own
# shuffle plan comes from `make_ordering` too, but only row plans are verified.
STAGES = {
    "harness.prepare_data": "prepare",
    "harness.generate_toy_corpus": "prepare",
    "corpus.build_vocab": "prepare",
    "corpus.encode_corpus": "prepare",
    "seq2seq.init_params": "prepare",
    "metrics.score_corpus": "score",
    "ordering.make_ordering": "order",
    "ordering.verify_plan": "order",
    "evaluate.evaluate_model": "evaluate",
    "checkpoint.save_checkpoint": "io",
    "checkpoint.load_checkpoint": "io",
    "corpus.write_corpus": "io",
    "corpus.Vocabulary.save": "io",
    "metrics.ScoreTable.save": "io",
    "ordering.OrderingPlan.save": "io",
    "harness.emit_report": "io",
}
STAGE_NAMES = ("prepare", "pretrain", "score", "order", "train", "evaluate", "io")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    run: int
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps `curricula` functions so that each call records a span."""

    def __init__(self, targets: dict, run: int, spans: list[Span] | None = None):
        self.targets = targets
        self.run = run
        self.spans: list[Span] = [] if spans is None else spans
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, run, clock = self.spans, self._stack, self.run, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, run)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "curricula" or key.startswith("curricula.")
        ]
        for name, count in self.targets.items():
            module_name, *owner, attr = name.split(".")
            holder = importlib.import_module(f"curricula.{module_name}")
            if owner:  # a method: patch the class attribute
                holder = getattr(holder, owner[0])
                self._patch(holder, attr, self._wrap(name, getattr(holder, attr), count))
                continue
            original = getattr(holder, attr)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, holder, attr, wrapper):
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.seconds
    return [s.seconds - c for s, c in zip(spans, covered)]


def stage_seconds(spans: list[Span]) -> dict[str, float]:
    """Seconds per pipeline stage, from each run's outermost staged spans."""
    totals = dict.fromkeys(STAGE_NAMES, 0.0)
    first_verified: dict[int, float] = {}
    for span in spans:
        if span.name == "ordering.verify_plan":
            first_verified.setdefault(span.run, span.start)
    for span in spans:
        stage = _stage_of(span, first_verified)
        if stage is None:
            continue
        parent, nested = span.parent, False
        while parent >= 0 and not nested:
            nested = _stage_of(spans[parent], first_verified) is not None
            parent = spans[parent].parent
        if not nested:
            totals[stage] += span.seconds
    return totals


def _stage_of(span: Span, first_verified: dict[int, float]) -> str | None:
    if span.name == "trainer.fit":
        before = span.start < first_verified.get(span.run, float("inf"))
        return "pretrain" if before else "train"
    return STAGES.get(span.name)


def work_and_seconds(spans: list[Span], name: str, key: str) -> tuple[float, float]:
    """Work counted under `key`, and seconds spent, inside `name` spans."""
    chosen = [s for s in spans if s.name == name]
    return sum(s.counts[key] for s in chosen), sum(s.seconds for s in chosen)


def throughput(spans: list[Span], name: str, key: str) -> float:
    work, seconds = work_and_seconds(spans, name, key)
    return work / seconds if seconds else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[Span], runs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics averaged per run; rates and ratios are 0.0 when
    the layer was not reached."""
    self_s = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span, s in zip(spans, self_s):
        calls[span.name] += 1
        own[span.name] += s
        durations[span.name].append(span.seconds)
        for key, value in (span.counts or {}).items():
            counts[span.name][key] += value

    def per_run(value):
        return value / runs

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for stage, seconds in stage_seconds(spans).items():
        out[f"harness.{stage}_s"] = (per_run(seconds), "s")
    out["harness.train_tokens_per_s"] = (
        throughput(spans, "trainer.fit", "tokens"), "tokens/s"
    )

    def basic(name, *fields):
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (per_run(calls[name]), "count")
            elif field == "self_s":
                out[f"{name}.self_s"] = (per_run(own[name]), "s")
            else:
                out[f"{name}.{field}"] = (per_run(counts[name][field]), "count")

    lg = "seq2seq.loss_and_gradients"
    basic(lg, "calls", "self_s")
    out[f"{lg}.us_per_token"] = (ratio(own[lg], counts[lg]["tokens"], 1e6), "us/token")
    out[f"{lg}.p50_ms"] = (_percentile(durations[lg], 50) * 1e3, "ms")
    out[f"{lg}.p99_ms"] = (_percentile(durations[lg], 99) * 1e3, "ms")

    ft = "seq2seq.forward_teacher_forced"
    basic(ft, "calls", "self_s")
    out[f"{ft}.rows_per_call"] = (ratio(counts[ft]["rows"], calls[ft]), "rows/call")

    gd = "seq2seq.greedy_decode"
    basic(gd, "calls", "self_s", "tokens")
    out[f"{gd}.us_per_token"] = (ratio(own[gd], counts[gd]["tokens"], 1e6), "us/token")
    out[f"{gd}.budget_hit_ratio"] = (ratio(counts[gd]["budget_hit"], calls[gd]), "ratio")

    basic("seq2seq.make_batch", "calls", "self_s")

    ad = "trainer.adam_step"
    basic(ad, "calls", "self_s")
    out[f"{ad}.ns_per_param"] = (ratio(own[ad], counts[ad]["params"], 1e9), "ns/param")
    cg = "trainer.clip_gradients"
    out[f"{cg}.clip_ratio"] = (ratio(counts[cg]["clipped"], calls[cg]), "ratio")
    basic("trainer.validation_perplexity", "calls", "self_s")
    basic("trainer.train_epoch", "self_s")

    basic("metrics.score_corpus", "calls", "pairs", "self_s")
    basic("metrics.corpus_cross_entropy", "calls", "pairs", "self_s")
    basic("metrics.sentence_bleu", "calls", "self_s")
    basic("evaluate.evaluate_model", "self_s")
    basic("evaluate.corpus_bleu", "self_s")

    for name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        basic(name, "calls", "self_s")
        out[f"{name}.mb"] = (per_run(counts[name]["bytes"]) / 1e6, "MB")

    basic("ordering.make_ordering", "calls", "self_s")
    basic("ordering.verify_plan", "calls", "self_s")
    basic("ordering.schedule_batches", "self_s")
    basic("corpus.encode_corpus", "self_s")
    basic("corpus.build_vocab", "self_s")
    basic("harness.generate_toy_corpus", "self_s")
    return out


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(spans):
            record = {
                "id": i, "name": span.name, "start": span.start, "end": span.end,
                "parent": span.parent, "run": span.run,
            }
            if span.counts:
                record["counts"] = span.counts
            fh.write(json.dumps(record) + "\n")
