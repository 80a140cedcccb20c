"""Data-ordering strategies and deterministic per-epoch batch schedules.

Ten strategies: shuffle every epoch, shuffle once, and ascending/descending
orders by source length, target length, perplexity and BLEU. Metric orders
are fixed before training and reused every epoch; only the per-epoch shuffle
draws a fresh permutation each epoch, from a counter-based stream keyed by
(seed, epoch) so different run lengths share their common prefix.

Sorting is stable with the original corpus index as tie-breaker in both
directions (descending negates the key rather than reversing), so ties are
ordered identically either way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import read_text
from .errors import ConfigError, CoverageError, DataError, MetricMismatchError
from .metrics import ScoreTable
from .rng import make_rng

ORDER_HEADER = "CURRICULA-ORDER v1"

_SIDES = ("source", "target")
_DIRECTIONS = ("asc", "desc")


@dataclass(frozen=True)
class Strategy:
    """One of the ten ordering patterns.

    kind: shuffle_every_epoch | shuffle_once | length | ppl | bleu.
    Metric kinds carry a direction (and a side, for length); shuffle kinds
    draw from the seed passed to `make_ordering`.
    """

    kind: str
    side: str | None = None
    direction: str | None = None

    def __post_init__(self):
        if self.kind in ("shuffle_every_epoch", "shuffle_once"):
            if self.side is not None or self.direction is not None:
                raise ConfigError(f"{self.kind} takes no side/direction")
        elif self.kind == "length":
            if self.side not in _SIDES or self.direction not in _DIRECTIONS:
                raise ConfigError("length strategy needs side and direction")
        elif self.kind in ("ppl", "bleu"):
            if self.side is not None or self.direction not in _DIRECTIONS:
                raise ConfigError(f"{self.kind} strategy needs a direction only")
        else:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")

    @property
    def is_fixed(self) -> bool:
        """True when every epoch reuses one permutation."""
        return self.kind != "shuffle_every_epoch"

    @property
    def required_metric(self) -> str | None:
        if self.kind == "length":
            return f"length:{self.side}"
        if self.kind in ("ppl", "bleu"):
            return self.kind
        return None

    def token(self) -> str:
        """Compact single-word form used in files and on the command line."""
        if self.kind in ("shuffle_every_epoch", "shuffle_once"):
            return self.kind
        if self.kind == "length":
            return f"length:{self.side}:{self.direction}"
        return f"{self.kind}:{self.direction}"

    def label(self) -> str:
        """Human-readable row name matching the usual results-table wording."""
        if self.kind == "shuffle_every_epoch":
            return "Random Shuffle every epoch"
        if self.kind == "shuffle_once":
            return "Random Shuffle once"
        direction = "Ascending" if self.direction == "asc" else "Descending"
        if self.kind == "length":
            return f"{direction} Sequence Length Order for {self.side} language"
        name = "PPL" if self.kind == "ppl" else "BLEU"
        return f"{direction} {name} Order"


def parse_strategy(token: str) -> Strategy:
    parts = token.split(":")
    if parts[0] in ("shuffle_every_epoch", "shuffle_once") and len(parts) == 1:
        return Strategy(parts[0])
    if parts[0] == "length" and len(parts) == 3:
        return Strategy("length", side=parts[1], direction=parts[2])
    if parts[0] in ("ppl", "bleu") and len(parts) == 2:
        return Strategy(parts[0], direction=parts[1])
    raise ConfigError(f"cannot parse strategy token {token!r}")


def table_one_strategies() -> tuple[Strategy, ...]:
    """The ten patterns in their customary reporting order."""
    return (
        Strategy("shuffle_every_epoch"),
        Strategy("shuffle_once"),
        Strategy("length", side="source", direction="asc"),
        Strategy("length", side="source", direction="desc"),
        Strategy("length", side="target", direction="asc"),
        Strategy("length", side="target", direction="desc"),
        Strategy("ppl", direction="asc"),
        Strategy("ppl", direction="desc"),
        Strategy("bleu", direction="asc"),
        Strategy("bleu", direction="desc"),
    )


@dataclass
class OrderingPlan:
    """A strategy plus the permutation of corpus indices for every epoch."""

    strategy: Strategy
    seed: int
    epoch_permutations: tuple[np.ndarray, ...]

    @property
    def num_epochs(self) -> int:
        return len(self.epoch_permutations)

    def to_text(self) -> str:
        lines = [
            f"{ORDER_HEADER} {self.strategy.token()} {self.seed} {self.num_epochs}"
        ]
        for perm in self.epoch_permutations:
            lines.append(" ".join(str(int(i)) for i in perm))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "OrderingPlan":
        lines = text.splitlines()
        if not lines:
            raise DataError("empty ordering plan")
        head = lines[0].split(" ")
        if len(head) != 5 or " ".join(head[:2]) != ORDER_HEADER:
            raise DataError(f"bad ordering plan header: {lines[0]!r}")
        try:
            strategy = parse_strategy(head[2])
        except ConfigError as exc:
            raise DataError(f"ordering plan line 1: {exc}") from exc
        perms, number = [], 1
        try:
            seed, epochs = int(head[3]), int(head[4])
            for number, ln in enumerate(lines[1:], start=2):
                if ln:
                    perms.append(np.array([int(x) for x in ln.split(" ")], dtype=np.int64))
        except (ValueError, OverflowError) as exc:
            raise DataError(f"ordering plan line {number}: expected integers") from exc
        if len(perms) != epochs:
            raise DataError(
                f"plan declares {epochs} epochs but contains {len(perms)}"
            )
        return cls(strategy=strategy, seed=seed, epoch_permutations=tuple(perms))

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "OrderingPlan":
        return cls.from_text(read_text(path))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


def _sorted_permutation(
    scores: ScoreTable, indices: np.ndarray, descending: bool
) -> np.ndarray:
    values = scores.value_map()
    key = np.array([values[int(i)] for i in indices])
    if descending:
        key = -key
    order = np.lexsort((indices, key))  # stable: value first, then index
    return indices[order]


def make_ordering(
    strategy: Strategy,
    scores: ScoreTable | None,
    corpus_indices,
    num_epochs: int,
    seed: int = 0,
) -> OrderingPlan:
    """Build the per-epoch permutations for one strategy.

    Metric strategies need a ScoreTable of the matching metric covering the
    corpus indices exactly; shuffle strategies need only a seed.
    """
    if num_epochs < 1:
        raise ConfigError(f"num_epochs must be >= 1, got {num_epochs}")
    indices = np.array(sorted(int(i) for i in corpus_indices), dtype=np.int64)
    if indices.size == 0:
        raise ConfigError("corpus_indices must be non-empty")
    if len(set(indices.tolist())) != indices.size:
        raise ConfigError("corpus_indices contains duplicates")

    required = strategy.required_metric
    if required is not None:
        if scores is None:
            raise MetricMismatchError(
                f"strategy {strategy.token()} needs a {required} score table"
            )
        if scores.metric != required:
            raise MetricMismatchError(
                f"strategy {strategy.token()} needs metric {required}, "
                f"got {scores.metric}"
            )
        have = set(scores.indices())
        want = set(indices.tolist())
        if have != want:
            missing = sorted(want - have)[:5]
            extra = sorted(have - want)[:5]
            raise CoverageError(
                f"score table does not cover the corpus exactly "
                f"(missing {missing}, extra {extra})"
            )
        perm = _sorted_permutation(scores, indices, strategy.direction == "desc")
        perms = tuple(perm for _ in range(num_epochs))
    elif strategy.kind == "shuffle_once":
        rng = make_rng("order", "shuffle_once", seed)
        perm = rng.permutation(indices)
        perms = tuple(perm for _ in range(num_epochs))
    else:  # shuffle_every_epoch
        perms = tuple(
            make_rng("order", "shuffle_every_epoch", seed, "epoch", e)
            .permutation(indices)
            for e in range(num_epochs)
        )
    return OrderingPlan(strategy=strategy, seed=seed, epoch_permutations=perms)


@dataclass
class BatchSchedule:
    """Each epoch's permutation chunked sequentially into minibatches."""

    epochs: tuple[tuple[np.ndarray, ...], ...]


def schedule_batches(plan: OrderingPlan, batch_size: int) -> BatchSchedule:
    """Chunk every epoch permutation in order; the last short batch is kept."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    epochs = []
    for perm in plan.epoch_permutations:
        batches = tuple(
            perm[i : i + batch_size] for i in range(0, len(perm), batch_size)
        )
        epochs.append(batches)
    return BatchSchedule(epochs=tuple(epochs))


@dataclass(frozen=True)
class PlanCheck:
    ok: bool
    violation: str | None = None


def verify_plan(
    plan: OrderingPlan, corpus_indices, scores: ScoreTable | None = None
) -> PlanCheck:
    """Audit a plan: bijections per epoch, epoch-constancy for fixed
    strategies, and (when scores are supplied) sort monotonicity.

    Violations are reported, not raised; the first one found wins.
    """
    want = sorted(int(i) for i in corpus_indices)
    want_set = set(want)
    for e, perm in enumerate(plan.epoch_permutations):
        got = [int(i) for i in perm]
        got_set = set(got)
        if len(got) != len(got_set):
            dup = next(i for i in got_set if got.count(i) > 1)
            return PlanCheck(False, f"epoch {e}: index {dup} repeated")
        if got_set != want_set:
            missing = sorted(want_set - got_set)
            extra = sorted(got_set - want_set)
            if missing:
                return PlanCheck(False, f"epoch {e}: missing index {missing[0]}")
            return PlanCheck(False, f"epoch {e}: unexpected index {extra[0]}")
    if plan.strategy.is_fixed:
        first = plan.epoch_permutations[0]
        for e, perm in enumerate(plan.epoch_permutations[1:], start=1):
            if not np.array_equal(first, perm):
                return PlanCheck(False, f"fixed strategy drift at epoch {e}")
    required = plan.strategy.required_metric
    if scores is not None and required is not None:
        if scores.metric != required:
            return PlanCheck(
                False, f"score table metric {scores.metric} != {required}"
            )
        values = scores.value_map()
        ascending = plan.strategy.direction == "asc"
        for e, perm in enumerate(plan.epoch_permutations):
            along = [values[int(i)] for i in perm]
            for a, b in zip(along, along[1:]):
                if ascending and a > b:
                    return PlanCheck(False, f"epoch {e}: not non-decreasing")
                if not ascending and a < b:
                    return PlanCheck(False, f"epoch {e}: not non-increasing")
    return PlanCheck(True, None)
