"""Adam training over a batch schedule, with early stopping on validation
perplexity and deterministic end-to-end behavior for a fixed seed.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .checkpoint import ModelCheckpoint
from .errors import ConfigError, NumericalError, StructuralError
from .metrics import corpus_cross_entropy, perplexity
from .ordering import OrderingPlan, schedule_batches
from .rng import derive_seed
from .seq2seq import ModelConfig, loss_and_gradients, make_batch

__all__ = [
    "TrainConfig",
    "AdamState",
    "EpochStats",
    "ModelCheckpoint",
    "adam_step",
    "train_epoch",
    "fit",
    "validation_perplexity",
]

# Adam's moment decay rates and the term that keeps its denominator positive
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 128
    max_epochs: int = 10
    patience: int = 5
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails: every comparison with NaN is false
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be > 0, got {self.clip_norm}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")


@dataclass
class AdamState:
    """Adam's moments per tensor and step count. `adam_step` updates the `m`
    and `v` arrays in place, and the state it returns shares them."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def fresh(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
        )


@dataclass
class EpochStats:
    epoch: int
    train_loss: float  # mean of batch mean-losses, bits/token
    val_perplexity: float | None = None
    seconds: float = 0.0


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """Euclidean norm over all tensors, summed in dict order. Each sum of
    squares is numpy's own reduction, not BLAS, whose bits depend on its
    thread count."""
    total = 0.0
    for g in grads.values():
        flat = g.ravel()
        total += float(np.einsum("i,i->", flat, flat))
    return math.sqrt(total)


class _Scaled(Mapping):
    """Gradients that are multiplied by one factor when each is read, so
    that no more than one scaled tensor need exist at a time."""

    def __init__(self, grads: dict[str, np.ndarray], scale: float):
        self.grads, self.scale = grads, scale

    def __getitem__(self, name: str) -> np.ndarray:
        return self.grads[name] * self.scale

    def __iter__(self):
        return iter(self.grads)

    def __len__(self) -> int:
        return len(self.grads)


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> Mapping:
    """Scale all gradients down when their global norm exceeds clip_norm.

    Within the norm, the dict is returned untouched, bit for bit. Beyond
    it, a mapping whose tensor `g` reads as a new array `g * (clip_norm /
    norm)`, made when it is read: nothing is copied up front.
    """
    norm = global_grad_norm(grads)
    if norm <= clip_norm:
        return grads
    return _Scaled(grads, clip_norm / norm)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update over norm-clipped gradients.

    Updates `state.m` and `state.v` in place, and the returned state shares
    them. The new parameters are fresh arrays; `params` and `grads` are
    never written. A clipped gradient is scaled one tensor at a time, as the
    loop reaches it, so besides the new parameters a step holds at most two
    temporaries of one tensor's size.
    """
    if set(params) != set(grads) or any(
        params[k].shape != grads[k].shape for k in params
    ):
        raise StructuralError("parameter and gradient structures do not match")
    if set(params) != set(state.m):
        raise StructuralError("optimizer state does not match the parameters")
    grads = clip_gradients(grads, config.clip_norm)
    t = state.t + 1
    b1, b2 = BETA1, BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    new_params: dict[str, np.ndarray] = {}
    for k in params:
        # each line keeps the operation order of the out-of-place formula
        g, m, v = grads[k], state.m[k], state.v[k]
        tmp = np.multiply(g, 1.0 - b1)
        m *= b1
        m += tmp  # m = b1 * m + (1 - b1) * g
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v *= b2
        v += tmp  # v = b2 * v + (1 - b2) * (g * g)
        del g  # a scaled gradient is freed before the step is made
        np.sqrt(np.divide(v, bias2, out=tmp), out=tmp)
        tmp += EPSILON
        step = np.divide(m, bias1)
        step *= config.learning_rate
        step /= tmp  # lr * (m / bias1) / (sqrt(v / bias2) + eps)
        new_params[k] = np.subtract(params[k], step, out=step)
    return new_params, AdamState(m=state.m, v=state.v, t=t)


def train_epoch(
    params: dict[str, np.ndarray],
    adam: AdamState,
    epoch_batches,
    pairs_by_index: dict,
    model_config: ModelConfig,
    config: TrainConfig,
    epoch: int,
):
    """One pass over the epoch's batches, in schedule order.

    Dropout masks derive from (seed, epoch, batch index), so rerunning an
    epoch reproduces it exactly. A step's gradients are released once Adam
    has used them; `params` is never written.
    """
    started = time.perf_counter()
    losses = []
    for bi, batch_indices in enumerate(epoch_batches):
        batch = make_batch([pairs_by_index[int(i)] for i in batch_indices])
        seed = derive_seed("train", config.seed, epoch, bi)
        try:
            result, grads = loss_and_gradients(
                params, model_config, batch, dropout_on=True, seed=seed
            )
        except NumericalError as exc:
            raise NumericalError(f"epoch {epoch}, batch {bi}: {exc}") from exc
        if not math.isfinite(result.mean_loss):
            raise NumericalError(f"non-finite loss in epoch {epoch}, batch {bi}")
        losses.append(result.mean_loss)
        params, adam = adam_step(params, grads, adam, config)
        del result, grads  # not kept through the next batch's passes
    stats = EpochStats(
        epoch=epoch,
        train_loss=float(np.mean(losses)),
        seconds=time.perf_counter() - started,
    )
    return params, adam, stats


def validation_perplexity(params, model_config: ModelConfig, pairs) -> float:
    """Token-weighted corpus perplexity: 2 ** (sum H_p*T_p / sum T_p), inf
    if that overflows a float."""
    entropies, tokens = corpus_cross_entropy(params, model_config, pairs)
    return perplexity((entropies * tokens).sum() / tokens.sum())


def fit(
    init_params: dict[str, np.ndarray],
    model_config: ModelConfig,
    plan: OrderingPlan,
    train_pairs,
    val_pairs,
    config: TrainConfig,
    src_vocab_fingerprint: str,
    tgt_vocab_fingerprint: str,
) -> tuple[ModelCheckpoint, list[EpochStats], int]:
    """Train along the plan, early-stopping on validation perplexity.

    Keeps the best epoch's parameters; stops after `patience` epochs without
    improvement or at max_epochs. Returns (best checkpoint, per-epoch stats,
    epochs to convergence = the best epoch's number, 0 if none had a finite
    perplexity).

    `adam_step` never writes its input, so no parameters are copied: a fit
    holds the parameters, Adam's two moments, the best epoch's parameters
    and one step's gradients. `init_params` is never written, and the
    checkpoint shares no array with it.
    """
    if not val_pairs:
        raise ConfigError("fit requires a non-empty validation set")
    if plan.num_epochs < config.max_epochs:
        raise ConfigError(
            f"plan has {plan.num_epochs} epochs but max_epochs={config.max_epochs}"
        )
    pairs_by_index = {p.index: p for p in train_pairs}
    for perm in plan.epoch_permutations[: config.max_epochs]:
        for i in perm:
            if int(i) not in pairs_by_index:
                raise ConfigError(f"plan index {int(i)} not present in the corpus")
    schedule = schedule_batches(plan, config.batch_size)

    # the latest parameters are popped for each epoch, so that no local here
    # holds an epoch's input, unless it is the best, while it trains
    latest = {"params": init_params}
    adam = AdamState.fresh(init_params)
    best_ppl = math.inf
    best_epoch = 0
    best_params = init_params
    bad_streak = 0
    all_stats: list[EpochStats] = []
    for epoch in range(1, config.max_epochs + 1):
        latest["params"], adam, stats = train_epoch(
            latest.pop("params"),
            adam,
            schedule.epochs[epoch - 1],
            pairs_by_index,
            model_config,
            config,
            epoch,
        )
        stats.val_perplexity = validation_perplexity(latest["params"], model_config, val_pairs)
        all_stats.append(stats)
        if stats.val_perplexity < best_ppl:
            best_ppl = stats.val_perplexity
            best_epoch = epoch
            best_params = latest["params"]
            bad_streak = 0
        else:
            bad_streak += 1
            if bad_streak >= config.patience:
                break
    history = tuple(
        {
            "epoch": s.epoch,
            "train_loss": s.train_loss,
            "val_perplexity": s.val_perplexity,
        }
        for s in all_stats
    )
    if best_epoch == 0:  # the caller's arrays are not handed back
        best_params = {k: v.copy() for k, v in init_params.items()}
    ckpt = ModelCheckpoint(
        config=model_config,
        params=best_params,
        src_vocab_fingerprint=src_vocab_fingerprint,
        tgt_vocab_fingerprint=tgt_vocab_fingerprint,
        history=history,
    )
    return ckpt, all_stats, best_epoch
