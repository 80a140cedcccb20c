"""Per-pair difficulty metrics: length, cross-entropy/perplexity, BLEU.
`score_corpus` scores all five: `length:source` and `length:target` count
tokens, and the `MODEL_METRICS` run a scorer checkpoint (`needs_scorer`).

Cross-entropy is the teacher-forced mean negative log2-probability per
target token, so perplexity `2 ** H` lands in the familiar per-token range.
BLEU-4 is one counts function, `bleu_counts` (per order, a pair's clipped
n-gram matches and candidate n-grams), and one combiner, `bleu_from_counts`
(brevity penalty min(1, exp(1 - |ref|/|cand|))): sentence BLEU adds one to
both counts of each order >= 2, and corpus BLEU sums the counts over pairs,
unsmoothed. A pair's reference is its target without EOS (`reference_ids`);
a pair with an empty target has none and is refused before any decode.
Scoring never mutates the model. A score table is a `TextFile`, read back
through the shared `TextLines`.

Scoring, validation and evaluation run pairs in chunks, through
`corpus_cross_entropy` and `decode_pairs`. A call runs on up to W threads:
the calling one and helpers, started only when there is work for them, that
take work from one queue (`_Helpers.run`). W is the CPUs this process may
use over the BLAS's own threads (`runtime.environment`), and 1 for a model
of at most `_SERIAL_HIDDEN` hidden units, whose chunks two threads run
slower than one (`_workers`). With two chunks or more, up to W threads take
chunks. A chunk then holds at most `_SCORE_POSITIONS // W` padded positions,
so together the chunks in flight stay within `_SCORE_POSITIONS` positions,
the bound of one serial chunk, though not within its rows (`_SCORE_CHUNK`).
With one chunk, as when a test set of a few pairs is evaluated, the calling
thread runs it, and each large product it makes is cut by columns into up
to W parts that the same `run` computes at the same time
(`seq2seq._rows_matmul`). No bit depends on W: inference is batch-invariant,
each chunk writes only its own pairs' results, and a column part has the
bits of the whole product.
"""

from __future__ import annotations

import functools
import math
import queue
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .checkpoint import ModelCheckpoint
from .corpus import EncodedPair, TextFile, TextLines
from .errors import ConfigError, DataError, FingerprintError
from .runtime import environment
from .seq2seq import (
    _BLOCK_ROWS, _COLUMN_HELPERS, forward_teacher_forced, greedy_decode, make_batch,
)

SCORES_HEADER = "CURRICULA-SCORES v1"

BLEU_ORDER = 4

SCORE_DIGITS = 9  # of a persisted score

MODEL_METRICS = ("xent", "ppl", "bleu")
METRICS = ("length:source", "length:target", *MODEL_METRICS)


@dataclass(frozen=True)
class PairScore:
    index: int
    value: float


@dataclass
class ScoreTable(TextFile):
    """One metric value per corpus pair, tagged with the scoring model.

    Values are rounded on construction to the 9 significant digits a score
    file keeps, so a table read back from its file orders pairs exactly as
    the table that wrote it: `from_text(t.to_text()) == t`.
    """

    metric: str
    scorer_fingerprint: str
    scores: tuple[PairScore, ...]

    def __post_init__(self):
        seen = set()
        for s in self.scores:
            if s.index in seen:
                raise DataError(f"duplicate index {s.index} in score table")
            seen.add(s.index)
            if not math.isfinite(s.value):
                raise DataError(f"non-finite score at index {s.index}")
        self.scores = tuple(
            PairScore(s.index, float(f"{s.value:.{SCORE_DIGITS}g}"))
            for s in sorted(self.scores, key=lambda s: s.index)
        )

    def __len__(self) -> int:
        return len(self.scores)

    def indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.scores)

    def value_map(self) -> dict[int, float]:
        return {s.index: s.value for s in self.scores}

    def to_text(self) -> str:
        lines = [f"{SCORES_HEADER} {self.metric} {self.scorer_fingerprint}"]
        for s in self.scores:
            lines.append(f"{s.index}\t{s.value:.{SCORE_DIGITS}g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, source=None) -> "ScoreTable":
        lines = TextLines(text, "score table", source)
        metric, scorer = lines.header(SCORES_HEADER, "metric", "scorer")
        scores = []
        for number, line in lines.numbered():
            with lines.at(number, f"expected '<index>\\t<value>', got {line!r}"):
                index, value = line.split("\t")
                scores.append(PairScore(int(index), float(value)))
        with lines.at(None):
            return cls(metric=metric, scorer_fingerprint=scorer, scores=tuple(scores))


def _check_fingerprints(model, pairs) -> None:
    """Refuse any pair whose vocabulary fingerprints differ from those of
    `model`: a checkpoint, or a pair that names the vocabularies a model is
    trained on."""
    for pair in pairs:
        if (
            model.src_vocab_fingerprint != pair.src_vocab_fingerprint
            or model.tgt_vocab_fingerprint != pair.tgt_vocab_fingerprint
        ):
            raise FingerprintError(
                f"pair {pair.index} was encoded with different vocabularies "
                "than the model was trained on"
            )


def pair_cross_entropy(model: ModelCheckpoint, pair: EncodedPair) -> float:
    """Teacher-forced cross-entropy of one pair, in bits per target token."""
    _check_fingerprints(model, [pair])
    entropies, _ = corpus_cross_entropy(model.params, model.config, [pair])
    return float(entropies[0])


def perplexity(cross_entropy: float) -> float:
    """2 ** cross_entropy, or inf once that overflows a float (past 1,024
    bits per token)."""
    try:
        return 2.0 ** float(cross_entropy)
    except OverflowError:
        return math.inf


def pair_perplexity(model: ModelCheckpoint, pair: EncodedPair) -> float:
    return perplexity(pair_cross_entropy(model, pair))


def _ngram_counts(seq, n: int) -> Counter:
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def bleu_counts(candidate, reference) -> tuple[tuple[int, int], ...]:
    """(clipped matches, candidate n-gram total) of one pair at each order 1
    to `BLEU_ORDER`."""
    return tuple(
        (sum((_ngram_counts(candidate, n) & _ngram_counts(reference, n)).values()),
         max(len(candidate) - n + 1, 0))
        for n in range(1, BLEU_ORDER + 1)
    )


def bleu_from_counts(counts, cand_len: int, ref_len: int, smoothed: bool) -> float:
    """BLEU in [0, 1] from per-order (matches, total) `counts` and the
    candidate and reference lengths: 0 for an empty candidate or a zero
    precision. `smoothed` adds one to both counts of every order >= 2."""
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n, (matches, total) in enumerate(counts, 1):
        if smoothed and n >= 2:
            matches, total = matches + 1, total + 1
        if matches == 0:
            return 0.0
        log_sum += math.log(matches / total) / BLEU_ORDER
    brevity = min(1.0, math.exp(1.0 - ref_len / cand_len))
    return brevity * math.exp(log_sum)


def sentence_bleu(candidate, reference) -> float:
    """Smoothed sentence-level BLEU-4 in [0, 1]."""
    candidate, reference = list(candidate), list(reference)
    if not reference:
        raise ConfigError("sentence_bleu requires a non-empty reference")
    return bleu_from_counts(bleu_counts(candidate, reference), len(candidate),
                            len(reference), smoothed=True)


def reference_ids(pair: EncodedPair) -> tuple[int, ...]:
    """A pair's BLEU reference: its target ids without EOS."""
    reference = pair.tgt_out_ids[:-1]
    if not reference:
        raise ConfigError(f"pair {pair.index} has an empty target: no BLEU reference")
    return reference


def default_decode_len(source_length: int) -> int:
    """Decode budget for BLEU scoring: generous but bounded."""
    return max(2 * source_length, 80)


def pair_bleu(model: ModelCheckpoint, pair: EncodedPair) -> float:
    """Sentence BLEU of the model's greedy translation against the reference."""
    _check_fingerprints(model, [pair])
    reference = reference_ids(pair)
    (decoded,) = decode_pairs(model.params, model.config, [pair])
    return sentence_bleu(decoded, reference)


def needs_scorer(metric: str) -> bool:
    """Whether a score-table metric runs a scorer model; refuses any name
    that is not one of `METRICS`."""
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; expected "
                          f"{', '.join(METRICS[:-1])} or {METRICS[-1]}")
    return metric in MODEL_METRICS


def score_corpus(model: ModelCheckpoint | None, pairs, metric: str) -> ScoreTable:
    """Score every encoded pair with one metric of `METRICS`.

    A length metric counts the source tokens or the target tokens without
    EOS, and takes no model (its table's scorer is `none`); `xent`, `ppl`
    and `bleu` need one. Pairs are independent of each other, and each gets
    the bits that scoring it alone gives; results are emitted in
    corpus-index order whatever order they were supplied in.
    """
    pairs = list(pairs)
    if not needs_scorer(metric):
        if model is not None:
            raise ConfigError(f"{metric} scores count tokens and take no model")
        scorer = "none"
        values = [len(p.src_ids) if metric == "length:source" else len(p.tgt_out_ids) - 1
                  for p in pairs]
    elif model is None:
        raise ConfigError(f"{metric} scores need a scorer model")
    else:
        _check_fingerprints(model, pairs)
        scorer = model.fingerprint
        if metric == "bleu":
            references = [reference_ids(p) for p in pairs]
            decoded = decode_pairs(model.params, model.config, pairs)
            values = [sentence_bleu(d, r) for d, r in zip(decoded, references)]
        else:
            entropies, _ = corpus_cross_entropy(model.params, model.config, pairs)
            values = [h if metric == "xent" else perplexity(h) for h in entropies]
    return ScoreTable(
        metric=metric,
        scorer_fingerprint=scorer,
        scores=tuple(PairScore(p.index, float(v)) for p, v in zip(pairs, values)),
    )


# Rows per batched call. Any size gives the same bits; these were chosen by
# measurement at the three presets. A scoring chunk also stops before its
# rows times its longest source or target exceed _SCORE_POSITIONS, and a
# decoding chunk before its rows times its longest source do, which bounds
# the memory of one call on long pairs. With W workers a chunk takes at most
# W times these rows, an even share of the pairs, in whole _BLOCK_ROWS
# blocks, and at most _SCORE_POSITIONS // W positions: on two workers, 100
# pairs of 5-10 tokens decode as two chunks of 56 and 44 rows, not
# 32/32/32/4, which left one thread twice the other's rows. Together the
# chunks in flight stay within _SCORE_POSITIONS positions, but not within the
# rows of a serial chunk that rows cap: `fit` validates those 100 pairs on a
# `small` model as 56 + 44 rows at once, not 64 then 36. With the helper's
# own malloc arena (`_workers`), that sets perfbench `train-small`'s peak
# RSS (2 vCPUs): 4.3 MB (6.1%) over a serial run at seed 1, 5.6 MB (7.8%)
# at seed 101.
_SCORE_CHUNK = 64
_SCORE_POSITIONS = 1024
_DECODE_CHUNK = 32

# A model of at most _SERIAL_HIDDEN hidden units runs inference on one
# thread: its chunks spend much of their time in Python, under the GIL, and
# a second thread slows them. Speed-up of W = 2 over W = 1 on 2 vCPUs, one
# BLAS thread, OpenBLAS 0.3.31 (SkylakeX kernels), for corpus_cross_entropy
# on 800 reverse pairs / decode_pairs on 100 (budget 20), untrained models
# of the `small` layout with embed = hidden = H:
#   H 32 0.65x / 0.53x, 48 0.89x / 0.67x, 64 1.22x / 0.70x,
#   96 1.28-1.71x / 0.93-0.96x, 112 1.59x / 1.03x,
#   128 1.39-1.49x / 1.22-1.25x, 192 1.74x / 1.35x;
#   the `tiny` preset (32 units, attention) 0.70x / 0.66x.
_SERIAL_HIDDEN = 112


def _workers(config) -> int:
    """The most threads that run one call's chunks, or the column parts of
    its large products when it has one chunk (a helper starts only once the
    call has work for it): the CPUs this process may use over the BLAS's
    own threads, or 1 when the BLAS's thread count cannot be read. A model
    of at most `_SERIAL_HIDDEN` hidden units, such as `tiny`, runs
    serially, since two threads run its chunks slower than one. A helper
    allocates from its own malloc arena, which cannot reuse what the calling
    thread has freed: on 2 vCPUs, fanning `small` out raised the peak RSS of
    perfbench's `train-small` by about 5 MB (7%)."""
    if config.hidden_dim <= _SERIAL_HIDDEN:
        return 1
    env = environment()
    return max(1, env.cpus // env.blas_threads) if env.blas_threads else 1


def _chunks(keys, size: int, workers: int):
    """Indices sorted by key, cut into runs of at most `size * workers` rows
    (and at most an even share of the keys among `workers`) whose length
    times their largest key field after the first stays within
    `_SCORE_POSITIONS // workers` (a longer key runs alone). The key's first
    field is a group that no run straddles."""
    share = -(-len(keys) // workers)
    size = min(size * workers, max(_BLOCK_ROWS, -(-share // _BLOCK_ROWS) * _BLOCK_ROWS))
    positions = _SCORE_POSITIONS // workers
    chunk: list[int] = []
    widest = 0  # the run's largest key field after the first
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        width = max(keys[i][1:])
        if chunk and (
            len(chunk) == size
            or keys[i][0] != keys[chunk[0]][0]
            or (len(chunk) + 1) * max(widest, width) > positions
        ):
            yield chunk
            chunk, widest = [], 0
        chunk.append(i)
        widest = max(widest, width)
    if chunk:
        yield chunk


class _Helpers:
    """Up to `workers` - 1 helper threads of one `_run_chunks` call, started
    on demand, that take work from one queue: the call's chunks, or the
    column parts of a product (`run`).

    Once a piece of work fails no thread starts another, and its error is
    kept. `close` joins every helper started.
    """

    def __init__(self, workers: int):
        self.workers = workers  # the helpers and the calling thread
        self.queue: queue.SimpleQueue = queue.SimpleQueue()
        self.errors: list[BaseException] = []
        self.threads: list[threading.Thread] = []  # started ones only

    def _drain(self) -> None:
        while (work := self.queue.get()) is not None:
            work()

    def _attempt(self, part, done=None) -> None:
        """`part()`, unless a piece of work has failed; keeps its error, then
        releases `done`."""
        try:
            if not self.errors:
                part()
        except BaseException as exc:  # re-raised by the calling thread
            self.errors.append(exc)
        finally:
            if done is not None:
                done.release()

    def run(self, parts) -> None:
        """Every callable of `parts` on min(len(parts), W) threads, helpers
        started as needed: the calling thread runs the first, then any part
        no helper has started. Returns once all have ended, and raises the
        first error kept."""
        while len(self.threads) < min(len(parts), self.workers) - 1:
            thread = threading.Thread(
                target=self._drain, name=f"curricula-chunks-{len(self.threads) + 1}")
            thread.start()
            self.threads.append(thread)
        pending = []  # a lock per queued part, held until that part ends
        for part in parts[1:]:
            done = threading.Lock()
            done.acquire()
            self.queue.put(functools.partial(self._attempt, part, done))
            pending.append(done)
        if parts:
            self._attempt(parts[0])
        while True:
            try:
                work = self.queue.get_nowait()
            except queue.Empty:
                break
            work()
        for done in pending:
            done.acquire()
        if self.errors:
            raise self.errors[0]

    def close(self) -> None:
        for _ in self.threads:
            self.queue.put(None)
        for thread in self.threads:
            thread.join()


def _run_chunks(work, keys, size: int, config) -> None:
    """`work(chunk)` for every chunk of `_chunks(keys, size, W)`, W being
    `_workers(config)`, through one `_Helpers(W).run`: the calling thread
    and up to W - 1 helpers, each started only when there is work for it.

    With two chunks or more, the threads take chunks from one queue. With
    one, the calling thread runs it, and the helpers compute column parts of
    each large product it makes (`seq2seq._rows_matmul`), which have the
    bits of the whole product.

    Once a piece of work fails no thread starts another. Every helper is
    joined before this returns, and the first error is raised as it was
    raised.
    """
    workers = _workers(config)
    chunks = [functools.partial(work, c) for c in _chunks(keys, size, workers)]
    helpers = _Helpers(workers)
    token = _COLUMN_HELPERS.set(helpers if len(chunks) == 1 else None)
    try:
        helpers.run(chunks)
    finally:
        _COLUMN_HELPERS.reset(token)
        helpers.close()


def corpus_cross_entropy(params, config, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (cross-entropy, token count) arrays, in input order.

    Pairs are sorted by length and scored in chunks of up to `_SCORE_CHUNK`
    rows and `_SCORE_POSITIONS` padded positions (on W workers, W times the
    rows and a W-th of the positions: `_chunks`) through
    `forward_teacher_forced`, whose per-row losses do not depend on
    the batch. A pair's entropy therefore has the bits that
    `pair_cross_entropy` (this function on one pair) gives, and corpus-level
    aggregates built from it agree bit-for-bit with the per-pair metric,
    however many threads (`_workers`) ran the chunks.
    """
    entropies = np.empty(len(pairs))
    token_counts = np.array([float(len(p.tgt_out_ids)) for p in pairs])
    keys = [(0, len(p.src_ids), len(p.tgt_out_ids)) for p in pairs]

    def score(chunk):
        batch = make_batch([pairs[i] for i in chunk])
        result = forward_teacher_forced(params, config, batch, dropout_on=False, seed=0)
        entropies[chunk] = result.pair_losses

    _run_chunks(score, keys, _SCORE_CHUNK, config)
    return entropies, token_counts


def decode_pairs(params, config, pairs, max_decode_len: int | None = None):
    """Greedy translations of `pairs`, in input order.

    Each pair's budget is `max_decode_len`, or `default_decode_len` of its
    source. Pairs are sorted by budget and source length and decoded in
    chunks of up to `_DECODE_CHUNK` rows and `_SCORE_POSITIONS` padded source
    positions (on W workers, W times the rows and a W-th of the positions)
    that share one budget; a pair's tokens do not depend on its chunk, nor on
    the thread (`_workers`) that ran it.
    """
    if max_decode_len is not None and max_decode_len < 1:
        raise ConfigError(f"max_decode_len must be >= 1, got {max_decode_len}")
    budgets = [
        max_decode_len if max_decode_len is not None
        else default_decode_len(len(p.src_ids))
        for p in pairs
    ]
    decoded: list[list[int]] = [[] for _ in pairs]
    keys = [(b, len(p.src_ids)) for b, p in zip(budgets, pairs)]

    def decode(chunk):
        out = greedy_decode(params, config, [pairs[i].src_ids for i in chunk],
                            budgets[chunk[0]])
        for i, tokens in zip(chunk, out):
            decoded[i] = tokens

    _run_chunks(decode, keys, _DECODE_CHUNK, config)
    return decoded
