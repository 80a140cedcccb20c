"""Encoder-decoder LSTM with optional additive attention, on plain numpy.

Everything is float64 and hand-rolled: parameter initialization, the
teacher-forced forward pass, exact reverse-mode gradients, and greedy
decoding. The point is full determinism for a fixed seed and gradients
that can be checked against finite differences.

Layout of one LSTM layer: gate pre-activations are `x @ Wx + h_prev @ Wh + b`
with the 4H columns ordered [input, forget, output, candidate]. The cell
turns them into the gates in place and the backward pass keeps that one
array, a row per live position (see below), as its `GATES` cache. The three
sigmoid gates are one fused (B, 3H) slice computed as
`0.5 * (1 + tanh(x / 2))`: tanh saturates at +-1 instead of overflowing, so
no input, however large, raises a floating-point warning or leaves [0, 1],
and no sign mask is needed. One layer function (`_lstm_forward`, stepping
the one cell `_lstm_cell`), with optional attention, and its one reverse
pass (`_lstm_backward`, gate derivatives in `_lstm_cell_backward`) serve
every layer of both layouts; attention feeds the first decoder layer of the
attention layout. One stack walker (`_lstm_stack`) runs the encoder and the
decoder for training, scoring and decoding, and one reverse walker
(`_lstm_stack_backward`) runs back through either.

A layer runs only the live positions of its batch, those before each row's
end (`_Steps`). The stack orders the rows longest first once, so the rows
live at step t are a leading block, and the cell, `h @ Wh`, the attention
read and their reverse run on that block alone. A row that has ended keeps
its state, which is its final state; there is no mask arithmetic. Values per
position are packed step after step, so the input product and the weight
gradients cover live positions only. Outputs (zero where no step ran), final
states and gradients come back in the caller's row order. Columns past
every row's end are dropped before the pass, so no result depends on a PAD
position or on the PAD embeddings, and extra PAD columns change no bit.

Inference is batch-invariant: a pair's scores and greedy tokens have the
same bits whether it is run alone or in any batch, in any row, next to any
amount of padding. Two things would otherwise leak the batch into a row:
- The BLAS picks its kernel by shape (GEMV for one row, an unpacked
  small-matrix kernel for small products, blocked GEMM above), and the
  kernels round differently. Every matmul whose row count depends on the
  batch therefore goes through `_rows_matmul`, which never sends the BLAS
  fewer than `_BLOCK_ROWS` rows, zero-padding the last block. A product
  whose `_BLOCK_ROWS`-row call is small, or whose width is not a multiple
  of `_COLUMN_BLOCK`, runs in blocks of `_BLOCK_ROWS` rows, so every call
  has one shape and one kernel. Any other product runs blocked GEMM at
  every row count, which gives a row the same bits however many rows share
  the call, so its full blocks go to the BLAS in one call that packs the
  weight once, not once per block. That kernel also gives a column the same
  bits in any part of whole column blocks past the small-product bound, so
  a `metrics._run_chunks` call of one chunk on several workers has such a
  product cut by columns and its helper threads compute all parts but one.
  Both rest on measurements of one BLAS and kernel set (`_MEASURED_BLAS`);
  on any other, every product runs in blocks of `_BLOCK_ROWS` rows.
- numpy's pairwise summation regroups terms when the summed length changes.
  Sums over padded axes (attention denominator and the context's share of
  the gates over source positions, a pair's loss over target positions)
  therefore run strictly left to right, where trailing exact zeros change
  nothing.
The first layer of each stack reads only token embeddings, so its input
product depends on the id alone. Inference therefore takes it from a
per-call table (`_IdTable`) that projects each distinct id once, when the
call first sees it. A layer projects the unseen ids of all its positions
before its first step, and each step then takes its own rows from the
table into a step-sized gate array, so that layer has no pre-activation
array over every position. A scoring call thus projects the ids of its
batch, and greedy decoding keeps one table for all its steps, so a step
whose tokens are all known runs no input product. Since `_rows_matmul`
gives a row the same bits whatever rows share its call, a table row
carries exactly the bits of the per-position product.
Inference keeps no array that only the backward pass reads: a layer drops
its packed input once it is projected, the teacher-forced pass keeps no
keys, and its key projections and source mask are freed once the first
decoder layer, their last reader, has run.
Training keeps plain numpy (`_TRAINING`): its loss is a batch mean, its
bits are pinned by every checkpoint trained so far, and the weight gradient
needs the embedded input anyway. Its products that can reduce over more
than `_REDUCE_RUN` rows go through `_runs_matmul`, so that no training bit
depends on the BLAS thread count.

Attention is additive: score(q, k) = v . tanh(q @ Wq + k @ Wk), softmaxed
over the non-PAD source positions of each pair. The query is the previous
hidden state of the first decoder layer, and the resulting context vector is
concatenated to that layer's input embedding — the same layer both asks and
consumes, which keeps the recurrence self-contained. The context is a
weighted sum of the keys K, so its share of the gates is
`ctx @ Wc = sum_s alpha_s * (K_s @ Wc)`, Wc being the last H rows of that
layer's Wx. The layer therefore never forms the context: both key
projections, `kwk = K @ Wk` and `kwc = K @ Wc`, are made once per call, in
the decoder's row order, and each step adds its weighted `kwc` rows into its
gates. A decoding step streams no context weight, and training finishes the
Wc and K gradients from `d_kwc` outside the layer, as it does for Wk.

Dropout (inverted, rate p) is applied to every layer's output sequence where
it is consumed from above: as the next layer's input, as attention keys
(encoder top layer), and as the projection input (decoder top layer).
Recurrent connections, state copies and attention queries see raw states.
Masks depend only on (seed, shapes), never on parameter values.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .corpus import BOS_ID, EOS_ID, PAD_ID, EncodedPair
from .errors import CapabilityError, ConfigError, EncodingError, NumericalError
from .rng import derive_seed
from .runtime import environment

LN2 = float(np.log(2.0))

_PRESETS = {
    # name: (embed, hidden, enc_layers, dec_layers, attention, dropout)
    "base": (512, 512, 2, 2, True, 0.2),
    "small": (128, 128, 1, 2, False, 0.2),
    "tiny": (32, 32, 1, 1, True, 0.2),
}


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int
    hidden_dim: int
    encoder_layers: int
    decoder_layers: int
    use_attention: bool
    dropout_p: float
    src_vocab_size: int
    tgt_vocab_size: int

    def __post_init__(self):
        dims = (
            self.embed_dim,
            self.hidden_dim,
            self.encoder_layers,
            self.decoder_layers,
            self.src_vocab_size,
            self.tgt_vocab_size,
        )
        if any(type(d) is not int for d in dims):
            raise ConfigError(f"model dimensions must be integers: {self}")
        if type(self.use_attention) is not bool:
            raise ConfigError(f"use_attention must be a bool: {self}")
        if type(self.dropout_p) is not float:
            raise ConfigError(f"dropout_p must be a float: {self}")
        if any(d < 1 for d in dims):
            raise ConfigError(f"all model dimensions must be >= 1: {self}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")

    @classmethod
    def preset(
        cls, name: str, src_vocab_size: int, tgt_vocab_size: int
    ) -> "ModelConfig":
        if name not in _PRESETS:
            raise ConfigError(
                f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
            )
        embed, hidden, enc, dec, attn, drop = _PRESETS[name]
        return cls(embed, hidden, enc, dec, attn, drop, src_vocab_size, tgt_vocab_size)


def parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every tensor name and shape, in the fixed canonical order."""
    e, h = config.embed_dim, config.hidden_dim
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("src_embed", (config.src_vocab_size, e)),
        ("tgt_embed", (config.tgt_vocab_size, e)),
    ]
    din = e
    for layer in range(config.encoder_layers):
        shapes += [
            (f"enc{layer}_Wx", (din, 4 * h)),
            (f"enc{layer}_Wh", (h, 4 * h)),
            (f"enc{layer}_b", (4 * h,)),
        ]
        din = h
    dec0_in = e + (h if config.use_attention else 0)
    for layer in range(config.decoder_layers):
        din = dec0_in if layer == 0 else h
        shapes += [
            (f"dec{layer}_Wx", (din, 4 * h)),
            (f"dec{layer}_Wh", (h, 4 * h)),
            (f"dec{layer}_b", (4 * h,)),
        ]
    if config.use_attention:
        shapes += [
            ("attn_Wq", (h, h)),
            ("attn_Wk", (h, h)),
            ("attn_v", (h,)),
        ]
    shapes += [
        ("out_W", (h, config.tgt_vocab_size)),
        ("out_b", (config.tgt_vocab_size,)),
    ]
    return shapes


def parameter_count(config: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape in parameter_shapes(config))


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Uniform init in [-0.08, 0.08]; forget-gate biases start at 1.0."""
    rng = np.random.Generator(np.random.Philox(key=derive_seed("init", seed)))
    params: dict[str, np.ndarray] = {}
    h = config.hidden_dim
    for name, shape in parameter_shapes(config):
        params[name] = rng.uniform(-0.08, 0.08, size=shape)
    for name in params:
        if name.endswith("_b") and name != "out_b":
            params[name][h : 2 * h] = 1.0
    return params


@dataclass
class Batch:
    """Padded id matrices for a group of encoded pairs."""

    src: np.ndarray  # (B, S) int64, PAD beyond each row's length
    src_lengths: np.ndarray  # (B,)
    tgt_in: np.ndarray  # (B, T)
    tgt_out: np.ndarray  # (B, T)
    tgt_lengths: np.ndarray  # (B,)

    @property
    def size(self) -> int:
        return self.src.shape[0]


def make_batch(pairs: list[EncodedPair] | tuple[EncodedPair, ...]) -> Batch:
    if not pairs:
        raise ConfigError("cannot build an empty batch")
    b = len(pairs)
    s = max(len(p.src_ids) for p in pairs)
    t = max(len(p.tgt_out_ids) for p in pairs)
    src = np.full((b, max(s, 1)), PAD_ID, dtype=np.int64)
    tgt_in = np.full((b, t), PAD_ID, dtype=np.int64)
    tgt_out = np.full((b, t), PAD_ID, dtype=np.int64)
    src_lengths = np.zeros(b, dtype=np.int64)
    tgt_lengths = np.zeros(b, dtype=np.int64)
    for i, p in enumerate(pairs):
        src[i, : len(p.src_ids)] = p.src_ids
        tgt_in[i, : len(p.tgt_in_ids)] = p.tgt_in_ids
        tgt_out[i, : len(p.tgt_out_ids)] = p.tgt_out_ids
        src_lengths[i] = len(p.src_ids)
        tgt_lengths[i] = len(p.tgt_out_ids)
    return Batch(src, src_lengths, tgt_in, tgt_out, tgt_lengths)


@dataclass
class ForwardResult:
    mean_loss: float  # bits/token, masked token-weighted mean
    pair_losses: np.ndarray  # (B,) masked per-pair means, bits/token
    log_probs: np.ndarray  # (B, T, V) base-2 log-probabilities


_BLOCK_ROWS = 8
# OpenBLAS runs a product of at most _SMALL_PRODUCT multiply-adds through an
# unpacked small-matrix kernel, and a larger one through blocked GEMM; the
# two round differently. Blocked GEMM gives a row the same bits whatever the
# row count only when N is a multiple of _COLUMN_BLOCK: narrower last column
# blocks round by row count. Measured with OpenBLAS 0.3.31 (SkylakeX
# kernels) for K up to 1,024 and N up to 4,100, at 8 to 1,032 rows, under 1
# and 2 threads. The same kernel gives a column the same bits in a call over
# any whole column blocks that is itself past _SMALL_PRODUCT: measured for
# K 64 to 1,024 and N 256 to 4,096, cut at multiples of 8, at 8 to 200 rows,
# under 1 and 2 threads. _MEASURED_BLAS holds the (BLAS, core) pairs of
# `runtime.Environment` measured so; any other runs every product in blocks.
_SMALL_PRODUCT = 100**3
_COLUMN_BLOCK = 8
_MEASURED_BLAS = frozenset({("scipy-openblas 0.3.31.188.0", "SkylakeX")})

# The helpers of the `metrics._run_chunks` call whose one chunk this thread
# runs on several workers: an object whose `workers` is W and whose
# `run(parts)` calls every callable of `parts`, the first on this thread,
# returning once all have ended. None anywhere else, and always on a helper
# thread, so that column parts never nest.
_COLUMN_HELPERS: ContextVar = ContextVar("column_helpers", default=None)


def _measured_blas() -> bool:
    """Whether this process's BLAS and core are ones `_rows_matmul`'s
    one-call path and column parts were measured on."""
    env = environment()
    return (env.blas, env.core) in _MEASURED_BLAS


@functools.cache
def _column_parts(k: int, n: int, workers: int) -> tuple[slice, ...]:
    """Column slices cutting a (K, N) weight into as many parts as possible,
    at most `workers`, each a whole number of `_COLUMN_BLOCK`s wide and
    past `_SMALL_PRODUCT` at `_BLOCK_ROWS` rows; one slice when two such
    parts do not fit."""
    blocks = n // _COLUMN_BLOCK
    for parts in range(min(workers, blocks), 1, -1):
        if _BLOCK_ROWS * k * (blocks // parts) * _COLUMN_BLOCK > _SMALL_PRODUCT:
            edges = [blocks * i // parts * _COLUMN_BLOCK for i in range(parts + 1)]
            return tuple(slice(a, b) for a, b in zip(edges, edges[1:]))
    return (slice(0, n),)


def _rows_matmul(a: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """`a @ w` for a 2-D `w`, written into the (rows, N) array `out` when one
    is given, with each row's bits independent of the other rows.

    Leading axes of `a` are flattened into rows. No BLAS call gets fewer than
    `_BLOCK_ROWS` rows: the rows past the last full block go in one
    zero-padded block. When a `_BLOCK_ROWS`-row call already runs blocked
    GEMM over whole column blocks, on a BLAS in `_MEASURED_BLAS`, every full
    block goes in one call, since that kernel gives a row the same bits for
    any row count. While `_COLUMN_HELPERS` holds a `metrics._run_chunks`
    call's helpers, that product is cut by columns (`_column_parts`) and
    their `run` computes the parts at the same time, since that kernel also
    gives a column the same bits in any such part. Otherwise the full
    blocks go as one stack, a view of `out`, that numpy runs as one BLAS
    call per block, so every call has the shape (_BLOCK_ROWS, K) @ (K, N).
    """
    rows = a.reshape(-1, a.shape[-1])
    m = rows.shape[0]
    if out is None:
        out = np.empty((m, w.shape[1]))
    full = m - m % _BLOCK_ROWS
    k, n = w.shape
    tail = None
    if full < m:
        tail = np.zeros((_BLOCK_ROWS, k))
        tail[: m - full] = rows[full:]
    one_call = (_BLOCK_ROWS * k * n > _SMALL_PRODUCT and n % _COLUMN_BLOCK == 0
                and _measured_blas())
    blocks = (full,) if one_call else (-1, _BLOCK_ROWS)  # leading shape of a call

    def part(cols_w, cols_out):
        if full:
            np.matmul(rows[:full].reshape(*blocks, k), cols_w,
                      out=cols_out[:full].reshape(*blocks, cols_w.shape[1], copy=False))
        if tail is not None:
            cols_out[full:] = (tail @ cols_w)[: m - full]

    helpers = _COLUMN_HELPERS.get() if one_call else None
    parts = _column_parts(k, n, helpers.workers) if helpers else ()
    if len(parts) > 1:
        helpers.run([functools.partial(part, w[:, c], out[:, c]) for c in parts])
    else:
        part(w, out)
    return out.reshape(*a.shape[:-1], w.shape[1])


# OpenBLAS gives a product the same bits under 1 and 2 threads when it
# reduces over at most _REDUCE_RUN rows; past that, only at multiples of 32.
# Measured with OpenBLAS 0.3.31 (SkylakeX kernels) on (128, K) @ (K, 24) and
# (K, 512) products, K from 8 to 1,600.
_REDUCE_RUN = 384


def _runs_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b` for 2-D arrays, the reduction axis summed in runs of at most
    `_REDUCE_RUN`, left to right, so that its bits do not depend on the BLAS
    thread count: one call when K <= `_REDUCE_RUN`."""
    out = a[:, :_REDUCE_RUN] @ b[:_REDUCE_RUN]
    for k in range(_REDUCE_RUN, a.shape[1], _REDUCE_RUN):
        out += a[:, k : k + _REDUCE_RUN] @ b[k : k + _REDUCE_RUN]
    return out


def _sum_left(x: np.ndarray) -> np.ndarray:
    """Sum over axis 1, strictly left to right, so trailing zeros are neutral."""
    total = x[:, 0].copy()
    for k in range(1, x.shape[1]):
        total += x[:, k]
    return total


@dataclass(frozen=True)
class _Mode:
    """How a forward pass runs: for training or for inference."""

    backward: bool  # keep the per-step values the backward pass reads
    matmul: Callable  # (..., K) @ (K, N) over a batch-dependent number of rows
    score: Callable  # (B, S, H) . (H,) -> (B, S)
    total: Callable  # (B, S, ...) -> (B, ...), summed over positions
    context: Callable  # adds (B, S) weights . (B, S, 4H) kwc into (B, 4H) gates


def _add_left(gates, alpha, kwc):
    """gates += sum over s of alpha[:, s] * kwc[:, s], strictly left to right,
    so that a zero weight adds an exact zero; no (B, S, 4H) temporary."""
    term = np.empty_like(gates)
    for s in range(alpha.shape[1]):
        # alpha[:, s, None] * kwc[:, s], one product per element, in a
        # loop that runs faster than the broadcasting multiply
        gates += np.einsum("b,bg->bg", alpha[:, s], kwc[:, s], out=term)


_TRAINING = _Mode(
    backward=True,
    matmul=np.matmul,
    score=np.matmul,
    total=lambda x: x.sum(axis=1),
    context=lambda gates, alpha, kwc: np.add(
        gates, np.einsum("bs,bsg->bg", alpha, kwc), out=gates
    ),
)

_INVARIANT = _Mode(
    backward=False,
    matmul=_rows_matmul,
    score=lambda u, v: _rows_matmul(u, v.reshape(-1, 1))[..., 0],
    total=_sum_left,
    context=_add_left,
)


def _lstm_cell(a, c, c_new=None, tanh_c=None, h_new=None):
    """Overwrites pre-activations a (B, 4H) with the gates [i, f, o, g] and
    returns (gates, tanh(c_new), c_new, h_new) for cell state c, writing the
    last three into the arrays given for them."""
    hdim = c.shape[1]
    s = a[:, : 3 * hdim]  # sigmoid(x) = (1 + tanh(x / 2)) / 2
    s *= 0.5
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    np.tanh(a[:, 3 * hdim :], out=a[:, 3 * hdim :])
    i, f, o, g = (a[:, k * hdim : (k + 1) * hdim] for k in range(4))
    c_new = np.multiply(f, c, out=c_new)
    c_new += i * g
    tanh_c = np.tanh(c_new, out=tanh_c)
    return a, tanh_c, c_new, np.multiply(o, tanh_c, out=h_new)


def _attention_alpha(qs, kwk, v, mask, mode, u=None):
    """Masked additive-attention weights; PAD positions are exactly zero.
    u = tanh(q @ Wq + k @ Wk) is written into the array `u` when one is given."""
    u = np.add(qs[:, None, :], kwk, out=u)
    np.tanh(u, out=u)
    e = mode.score(u, v)
    neg = np.where(mask, e, -np.inf)
    peak = neg.max(axis=1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)  # rows with no valid position
    ex = np.where(mask, np.exp(e - peak), 0.0)
    denom = mode.total(ex)[:, None]
    return np.divide(ex, denom, out=np.zeros_like(ex), where=denom > 0)


@dataclass(frozen=True)
class _Steps:
    """The live positions of a (B, T) layout, which is all a layer runs.

    Rows run longest first: sorted row r is caller row `order[r]`, and at
    step t the leading `live[t]` sorted rows are live. Values per position
    are packed step after step into (N, ...) arrays, N the number of live
    positions, step t owning rows `start[t]` to `start[t] + live[t]`. A
    layer keeps its states in one (B + N, H) array: the sorted initial
    states, then each position's new state. Step t reads its previous states
    from rows `prev[t]` on, `previous` lists that row for every position,
    and `final` the row of each caller row's last state.
    """

    bsz: int
    tlen: int
    order: np.ndarray  # caller row of each sorted row
    inverse: np.ndarray  # sorted row of each caller row
    live: list[int]
    start: list[int]
    prev: list[int]
    pos: np.ndarray  # flat caller position b * T + t of each packed one
    final: np.ndarray
    previous: np.ndarray


def _steps(lengths, bsz: int, tlen: int) -> _Steps:
    """The live positions of a (B, T) layout whose row b runs lengths[b]
    steps, or every row T steps without `lengths`, the rows then staying
    in their order."""
    if lengths is None:
        lengths = np.full(bsz, tlen)
    order = np.argsort(-lengths, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(bsz)
    sorted_lengths = lengths[order]
    # (step, sorted row) of every live position, step after step
    t, r = np.nonzero(np.arange(sorted_lengths[0])[:, None] < sorted_lengths)
    live = np.bincount(t, minlength=sorted_lengths[0])
    start = np.cumsum(live) - live
    base = np.concatenate([[0], bsz + start])  # state row before step t, per t
    pos, previous = order[r] * tlen + t, base[t] + r
    final = base[lengths] + inverse
    return _Steps(bsz, tlen, order, inverse, live.tolist(), start.tolist(),
                  base[:-1].tolist(), pos, final, previous)


def _pack(x, steps):
    """(B, T, ...) caller layout -> (N, ...) live positions, step after step."""
    return x.reshape(-1, *x.shape[2:])[steps.pos]


def _unpack(xp, steps):
    """Inverse of `_pack`, zero at the positions no step ran."""
    tail = xp.shape[1:]
    out = np.zeros((steps.bsz * steps.tlen, *tail))
    out[steps.pos] = xp
    return out.reshape(steps.bsz, steps.tlen, *tail)


class _IdTable:
    """The first-layer input products `embed[id] @ Wx[:E]` of the token ids
    that one inference call has seen, a row per distinct id, projected when
    the id is first seen. `_rows_matmul` is row-invariant, so a row carries
    the bits the per-position product would. Only ids seen have a row.
    """

    def __init__(self, embed, Wx):
        self.embed, self.W = embed, Wx[: embed.shape[1]]
        self.slot = np.full(len(embed), -1)  # table row of each id, -1 if none
        self.rows = np.empty((0, Wx.shape[1]))  # the first `size` rows are used
        self.size = 0

    def slots(self, ids):
        """The table row of each of (N,) ids, projecting the ids not seen
        before."""
        # the distinct unseen ids, ascending (np.unique would import numpy.ma)
        new = np.flatnonzero(np.bincount(ids[self.slot[ids] < 0]))
        if new.size:
            size = self.size + new.size
            if size > len(self.rows):  # double, so that growing copies little
                room = min(max(size, 2 * len(self.rows)), len(self.embed))
                grown = np.empty((room, self.rows.shape[1]))
                grown[: self.size] = self.rows[: self.size]
                self.rows = grown
            _rows_matmul(self.embed[new], self.W, out=self.rows[self.size : size])
            self.slot[new] = np.arange(self.size, size)
            self.size = size
        return self.slot[ids]


def _lstm_forward(Wx, Wh, b, X, h0, c0, mode, steps, attn=None):
    """Run one LSTM layer over a (B, T, Din) input, at the live positions
    of `steps` only: a row stops at its last step and keeps its state.

    X may instead be a pair (ids, table) of (B, T) token ids and the
    `_IdTable` that holds their input products: the first layer in
    inference gets its input product ready-made this way, projecting the
    call's unseen ids once, and each step takes its rows from the table.
    Only training keeps a pre-activation array for every position.
    With `attn = (Wq, v, kwk, kwc, src_mask)`, step t also attends over the
    encoder outputs K with the layer's previous hidden state as query, and
    adds the context's share of the gates, sum_s alpha_s * (K_s @ Wc), Wc
    being the last H rows of Wx. `kwk` is K @ Wk and `kwc` is K @ Wc, both
    made once per call; their rows, like the mask's, are in the layer's
    sorted row order (`steps.order`), so every step reads them in place.
    Returns (outputs (B, T, H), (hT, cT), cache): the outputs are zero
    where no step ran, and (hT, cT) is each row's state after its last step.
    """
    bsz, hdim = steps.bsz, Wh.shape[0]
    # pre-activations, made gates in place
    if isinstance(X, tuple):
        ids, table = X
        slots = table.slots(_pack(ids, steps))  # each position's table row
        npos, gates, step_gates = len(slots), None, np.empty((bsz, Wh.shape[1]))
    else:
        xp = _pack(X, steps)
        gates = mode.matmul(xp, Wx[: xp.shape[1]])
        if not mode.backward:  # only the weight gradient reads it again
            xp = None
        gates += b
        npos = len(gates)
    hs = np.empty((bsz + npos, hdim))  # initial states, then each new one
    cs = np.empty_like(hs)
    hs[:bsz] = h0[steps.order]
    cs[:bsz] = c0[steps.order]
    tc = np.empty((npos, hdim)) if mode.backward else None
    if attn is not None:
        Wq, v, kwk, kwc, src_mask = attn
        if mode.backward:
            # per sorted row and step, zero where no step ran
            alphas = np.zeros((bsz, steps.tlen, kwk.shape[1]))
            us = np.empty((npos, *kwk.shape[1:]))
    for t, n in enumerate(steps.live):
        cur = slice(steps.start[t], steps.start[t] + n)
        prev = slice(steps.prev[t], steps.prev[t] + n)
        new = slice(bsz + cur.start, bsz + cur.stop)
        h = hs[prev]
        if gates is None:  # mode "clip" takes into `out` unbuffered; slots are valid
            a = np.take(
                table.rows, slots[cur], axis=0, out=step_gates[:n], mode="clip"
            )
            a += b
        else:
            a = gates[cur]
        if attn is not None:
            alpha = _attention_alpha(
                mode.matmul(h, Wq), kwk[:n], v, src_mask[:n], mode,
                us[cur] if mode.backward else None,
            )
            mode.context(a, alpha, kwc[:n])
            if mode.backward:
                alphas[:n, t] = alpha
        a += mode.matmul(h, Wh)
        _lstm_cell(a, cs[prev], cs[new], None if tc is None else tc[cur], hs[new])
    out, final = _unpack(hs[bsz:], steps), (hs[steps.final], cs[steps.final])
    if not mode.backward:
        return out, final, None
    cache = dict(steps=steps, X=xp, GATES=gates, TC=tc, H=hs, C=cs, attn=None)
    if attn is not None:
        cache.update(attn=(Wq, v, kwk, kwc), A=alphas, U=us)
    return out, final, cache


def _lstm_cell_backward(da, dh, dc, gates, tanh_c, c_prev):
    """Reverse of one `_lstm_cell` step from the gradients on its new h and c.

    Writes the pre-activation gradients into `da` (B, 4H) and returns the
    gradient on the previous cell state.
    """
    hdim = dh.shape[1]
    i, f, o, g = (gates[:, k * hdim : (k + 1) * hdim] for k in range(4))
    d_c = dc + dh * o * (1.0 - tanh_c * tanh_c)
    np.multiply(d_c, g, out=da[:, :hdim])
    np.multiply(d_c, c_prev, out=da[:, hdim : 2 * hdim])
    np.multiply(dh, tanh_c, out=da[:, 2 * hdim : 3 * hdim])
    s = gates[:, : 3 * hdim]  # (d * s) * (1 - s) over the sigmoid gates
    d_s = da[:, : 3 * hdim]
    d_s *= s
    d_s *= 1.0 - s
    da[:, 3 * hdim :] = (d_c * i) * (1.0 - g * g)
    return d_c * f


def _lstm_backward(Wx, Wh, cache, dH, dhT, dcT):
    """Reverse-mode pass for `_lstm_forward`, over the same live positions.

    dH carries the gradient every consumer put on the output sequence (None:
    no consumer); dhT/dcT the gradient on the final state, which a row's
    last step receives. Returns (dX, dWx, dWh, db, dh0, dc0, d_attn), where
    dWx covers the input rows of Wx only, and d_attn is None without
    attention and otherwise (dWq, dv, d_kwk, d_kwc), their rows in the order
    of the forward's `attn`. The attention query gradient lands on
    the previous step's hidden state, which is why this loop cannot be
    collapsed across time.
    """
    steps, xp, gates, tc, hs, cs = (
        cache[k] for k in ("steps", "X", "GATES", "TC", "H", "C")
    )
    din = xp.shape[1]
    d_gates = np.empty_like(gates)
    d_out = None if dH is None else _pack(dH, steps)
    # per sorted row, the gradient on its latest state; a finished row's
    # waits untouched until the loop reaches its end
    dh_next, dc_next = dhT[steps.order], dcT[steps.order]
    WhT = np.ascontiguousarray(Wh.T)
    attn = cache["attn"]
    if attn is not None:
        Wq, v, kwk, kwc = attn
        d_kwk, dv = np.zeros_like(kwk), np.zeros_like(v)
        # each step's da, per sorted row and step like the forward's `A`
        d_read = np.zeros((steps.bsz, steps.tlen, gates.shape[1]))
        dqs = np.empty((len(gates), Wh.shape[0]))
    for t in reversed(range(len(steps.live))):
        n = steps.live[t]
        cur = slice(steps.start[t], steps.start[t] + n)
        prev = slice(steps.prev[t], steps.prev[t] + n)
        dh = dh_next[:n] if d_out is None else d_out[cur] + dh_next[:n]
        da = d_gates[cur]
        dc_next[:n] = _lstm_cell_backward(
            da, dh, dc_next[:n], gates[cur], tc[cur], cs[prev]
        )
        np.matmul(da, WhT, out=dh_next[:n])
        if attn is not None:
            # back through the attention read, gates += alpha . kwc
            alpha = cache["A"][:n, t]
            dalpha = np.einsum("bg,bsg->bs", da, kwc[:n])
            d_read[:n, t] = da
            inner = (alpha * dalpha).sum(axis=1, keepdims=True)
            de = alpha * (dalpha - inner)
            u = cache["U"][cur]
            dv += np.einsum("bs,bsa->a", de, u)
            dz = de[:, :, None] * (1.0 - u * u) * v
            d_kwk[:n] += dz
            dq = dz.sum(axis=1, out=dqs[cur])
            dh_next[:n] += dq @ Wq.T
    h_prev = hs[steps.previous]  # each position's previous hidden state
    dWx = _runs_matmul(xp.T, d_gates)
    dWh = _runs_matmul(h_prev.T, d_gates)
    db = d_gates.sum(axis=0)
    dX = _unpack(d_gates @ Wx[:din].T, steps)
    d_attn = None
    if attn is not None:  # d_kwc of each row sums alpha.T @ da over its steps
        d_kwc = np.matmul(cache["A"].transpose(0, 2, 1), d_read)
        d_attn = (_runs_matmul(h_prev.T, dqs), dv, d_kwk, d_kwc)
    dh0, dc0 = dh_next[steps.inverse], dc_next[steps.inverse]
    return dX, dWx, dWh, db, dh0, dc0, d_attn


def _dropout_mask(rng, shape, p):
    return (rng.random(size=shape) >= p) / (1.0 - p)


def _check_batch_ids(config: ModelConfig, batch: Batch) -> None:
    if batch.src.min() < 0 or batch.src.max() >= config.src_vocab_size:
        raise EncodingError("source ids outside the model's source vocabulary")
    hi = max(batch.tgt_in.max(), batch.tgt_out.max())
    lo = min(batch.tgt_in.min(), batch.tgt_out.min())
    if lo < 0 or hi >= config.tgt_vocab_size:
        raise EncodingError("target ids outside the model's target vocabulary")


_EMBED = {"enc": "src_embed", "dec": "tgt_embed"}


def _lstm_stack(
    params, prefix, ids, states, mode, steps, attn=None, rng=None, p=0.0,
    table=None,
):
    """Layers `<prefix>0..n-1` over the embeddings of (B, T) token ids, layer
    l starting from states[l] = (h0, c0). Every layer runs the live positions
    of `steps`. `attn` is None or a list holding the first layer's
    attention; the stack takes it out of the list and drops it once that
    layer has run, so that a caller that keeps no other reference frees the
    key projections before the layers above run.

    Training embeds the ids and runs `X @ Wx`, whose X the weight gradient
    needs. Inference takes the first layer's input product from `table`, the
    `_IdTable` of the stack's embeddings (a new one when None).
    With `rng`, each layer's output draws its dropout mask in layer order.
    Returns (top-layer outputs after dropout, final (h, c) per layer,
    caches, dropout masks).
    """
    embed = params[_EMBED[prefix]]
    attn = attn.pop() if attn else None
    if not mode.backward and table is None:
        table = _IdTable(embed, params[f"{prefix}0_Wx"])
    inp = embed[ids] if mode.backward else (ids, table)
    finals, caches, drops = [], [], []
    for layer, (h0, c0) in enumerate(states):
        name = f"{prefix}{layer}"
        hs, final, cache = _lstm_forward(
            params[f"{name}_Wx"], params[f"{name}_Wh"], params[f"{name}_b"],
            inp, h0, c0, mode, steps, attn,
        )
        attn = None  # only the first layer attends
        drop = _dropout_mask(rng, hs.shape, p) if rng is not None else None
        finals.append(final)
        caches.append(cache)
        drops.append(drop)
        inp = hs * drop if drop is not None else hs
    return inp, finals, caches, drops


def _lstm_stack_backward(params, prefix, caches, drops, d_top, d_finals, grads):
    """Reverse-mode pass for `_lstm_stack`; puts the weight gradients in
    `grads`.

    d_top is the gradient on the stack's output (after dropout; None when
    nothing consumed it) and d_finals[l] the (dh, dc) on layer l's final
    state. Returns (gradient on the stack's input, per-layer (dh0, dc0), the
    first layer's d_attn).
    """
    d_out = d_top
    d_inits = [None] * len(caches)
    for layer in reversed(range(len(caches))):
        if drops[layer] is not None and d_out is not None:
            d_out = d_out * drops[layer]
        name = f"{prefix}{layer}"
        d_out, dWx, dWh, db, dh0, dc0, d_attn = _lstm_backward(
            params[f"{name}_Wx"], params[f"{name}_Wh"], caches[layer], d_out,
            *d_finals[layer],
        )
        grads[f"{name}_Wx"], grads[f"{name}_Wh"], grads[f"{name}_b"] = dWx, dWh, db
        d_inits[layer] = (dh0, dc0)
    return d_out, d_inits, d_attn


def _encode(params, config, src, lengths, mode, order=None, rng=None, p=0.0):
    """Encoder stack over (B, S) ids whose row b holds lengths[b] tokens,
    from zero states. Returns `_lstm_stack`'s outputs plus the decoder's
    `attn` or None. With attention, the outputs (the keys) and `attn` have
    their rows in the decoder's row `order`, the caller's without one, so
    that the decoder reads them in place; `attn` holds both key projections,
    each made once per call."""
    zeros = np.zeros((src.shape[0], config.hidden_dim))
    keys, finals, caches, drops = _lstm_stack(
        params, "enc", src, [(zeros, zeros)] * config.encoder_layers, mode,
        _steps(lengths, *src.shape), None, rng, p,
    )
    attn = None
    if config.use_attention:
        if order is not None:
            keys, lengths = keys[order], lengths[order]
        kwk = mode.matmul(keys, params["attn_Wk"])
        kwc = mode.matmul(keys, params["dec0_Wx"][-config.hidden_dim :])
        src_mask = np.arange(src.shape[1])[None, :] < lengths[:, None]
        attn = (params["attn_Wq"], params["attn_v"], kwk, kwc, src_mask)
    return keys, finals, caches, drops, attn


def _decoder_init(config, enc_finals):
    """Decoder layer l starts from encoder layer min(l, top)'s final state."""
    return [
        enc_finals[min(layer, config.encoder_layers - 1)]
        for layer in range(config.decoder_layers)
    ]


def _run_forward(params, config, batch, dropout_on, seed, mode):
    """Full teacher-forced pass. Returns (ForwardResult, cache-for-backward),
    the cache None unless `mode.backward`."""
    _check_batch_ids(config, batch)
    # columns past every row's end are PAD throughout: none of them is run
    batch = replace(
        batch,
        src=batch.src[:, : max(int(batch.src_lengths.max()), 1)],
        tgt_in=batch.tgt_in[:, : int(batch.tgt_lengths.max())],
        tgt_out=batch.tgt_out[:, : int(batch.tgt_lengths.max())],
    )
    bsz, tlen = batch.tgt_in.shape
    hdim = config.hidden_dim
    p = config.dropout_p if dropout_on else 0.0
    rng = (
        np.random.Generator(np.random.Philox(key=derive_seed("dropout", seed)))
        if p > 0.0
        else None
    )

    dec_steps = _steps(batch.tgt_lengths, bsz, tlen)
    keys, enc_finals, enc_caches, enc_drops, attn = _encode(
        params, config, batch.src, batch.src_lengths, mode, dec_steps.order, rng, p
    )
    if not mode.backward:  # only the backward pass reads the keys
        keys = None
    attn = [attn]  # in inference, freed once the first decoder layer has run
    top, _, dec_caches, dec_drops = _lstm_stack(
        params, "dec", batch.tgt_in, _decoder_init(config, enc_finals), mode,
        dec_steps, attn, rng, p,
    )

    logits = (
        mode.matmul(top.reshape(bsz * tlen, hdim), params["out_W"]) + params["out_b"]
    ).reshape(bsz, tlen, -1)
    peak = logits.max(axis=2, keepdims=True)
    expl = np.exp(logits - peak)
    logz = np.log(expl.sum(axis=2, keepdims=True)) + peak
    log_probs = (logits - logz) / LN2

    tgt_mask = (np.arange(tlen)[None, :] < batch.tgt_lengths[:, None]).astype(
        np.float64
    )
    picked = np.take_along_axis(log_probs, batch.tgt_out[:, :, None], axis=2)[:, :, 0]
    neg = -picked * tgt_mask
    token_counts = batch.tgt_lengths.astype(np.float64)
    pair_losses = mode.total(neg) / token_counts
    total_tokens = tgt_mask.sum()
    mean_loss = float(neg.sum() / total_tokens)

    result = ForwardResult(mean_loss, pair_losses, log_probs)
    if not mode.backward:
        return result, None
    cache = {
        "batch": batch,
        "softmax": expl / expl.sum(axis=2, keepdims=True),
        "top": top,
        "tgt_mask": tgt_mask,
        "total_tokens": total_tokens,
        "enc": (enc_caches, enc_drops),
        "dec": (dec_caches, dec_drops),
        "keys": (keys, dec_steps.inverse),
    }
    return result, cache


def forward_teacher_forced(
    params, config: ModelConfig, batch: Batch, dropout_on: bool = False, seed: int = 0
) -> ForwardResult:
    """Teacher-forced pass for scoring; each row's log-probs and pair loss
    have the same bits in any batch (see the module docstring)."""
    result, _ = _run_forward(params, config, batch, dropout_on, seed, _INVARIANT)
    return result


def loss_and_gradients(
    params, config: ModelConfig, batch: Batch, dropout_on: bool = False, seed: int = 0
):
    """Forward pass plus exact gradients of the mean loss w.r.t. every tensor,
    returned in the order of `params`."""
    result, cache = _run_forward(params, config, batch, dropout_on, seed, _TRAINING)
    batch = cache["batch"]
    bsz, tlen = batch.tgt_in.shape
    hdim = config.hidden_dim

    dlogits = cache["softmax"]  # made the logits' gradient in place
    rows = np.arange(bsz)[:, None]
    cols = np.arange(tlen)[None, :]
    dlogits[rows, cols, batch.tgt_out] -= 1.0
    dlogits *= cache["tgt_mask"][:, :, None] / (cache["total_tokens"] * LN2)

    flat = dlogits.reshape(bsz * tlen, -1)
    grads = {
        "out_W": _runs_matmul(cache["top"].reshape(bsz * tlen, hdim).T, flat),
        "out_b": flat.sum(axis=0),
    }
    d_top = _runs_matmul(flat, params["out_W"].T).reshape(bsz, tlen, hdim)

    zeros = np.zeros((bsz, hdim))
    d_y, d_dec_init, d_attn = _lstm_stack_backward(
        params, "dec", *cache["dec"], d_top,
        [(zeros, zeros)] * config.decoder_layers, grads,
    )
    grads["tgt_embed"] = np.zeros_like(params["tgt_embed"])
    np.add.at(grads["tgt_embed"], batch.tgt_in, d_y)

    # decoder initial states credit their encoder layers, top decoder layer first
    d_enc_final = [
        [np.zeros((bsz, hdim)), np.zeros((bsz, hdim))]
        for _ in range(config.encoder_layers)
    ]
    for layer in reversed(range(config.decoder_layers)):
        d_final = d_enc_final[min(layer, config.encoder_layers - 1)]
        d_final[0] += d_dec_init[layer][0]
        d_final[1] += d_dec_init[layer][1]
    d_enc_top = None  # without attention nothing reads the encoder outputs
    if d_attn is not None:  # keys and their gradients in the decoder's row order
        keys, inverse = cache["keys"]
        keys = keys.reshape(-1, hdim)
        dWq, dv, d_kwk, d_kwc = d_attn
        Wc = params["dec0_Wx"][-hdim:]
        grads["attn_Wq"] = dWq
        grads["attn_Wk"] = _runs_matmul(keys.T, d_kwk.reshape(-1, hdim))
        grads["attn_v"] = dv
        grads["dec0_Wx"] = np.concatenate(
            [grads["dec0_Wx"], _runs_matmul(keys.T, d_kwc.reshape(-1, 4 * hdim))]
        )
        d_keys = np.matmul(d_kwk, params["attn_Wk"].T) + np.matmul(d_kwc, Wc.T)
        d_enc_top = d_keys[inverse]
    d_x, _, _ = _lstm_stack_backward(
        params, "enc", *cache["enc"], d_enc_top, d_enc_final, grads
    )
    grads["src_embed"] = np.zeros_like(params["src_embed"])
    np.add.at(grads["src_embed"], batch.src, d_x)

    grads = {name: grads[name] for name in params}
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in tensor {name}")
    return result, grads


def attention_weights(
    params, config: ModelConfig, decoder_state, encoder_states, source_lengths
) -> np.ndarray:
    """Attention distribution of a decoder state over encoder positions.

    Rows sum to one over each pair's real positions; PAD columns are exactly
    zero after the masked softmax.
    """
    if not config.use_attention:
        raise CapabilityError("model configuration has attention disabled")
    q = np.asarray(decoder_state, dtype=np.float64)
    K = np.asarray(encoder_states, dtype=np.float64)
    lengths = np.asarray(source_lengths)
    mask = np.arange(K.shape[1])[None, :] < lengths[:, None]
    mode = _INVARIANT
    return _attention_alpha(mode.matmul(q, params["attn_Wq"]),
                            mode.matmul(K, params["attn_Wk"]),
                            params["attn_v"], mask, mode)


def greedy_decode(
    params, config: ModelConfig, sources, max_len: int
) -> list[list[int]]:
    """Argmax decoding of each source from BOS until EOS or max_len tokens.

    Deterministic and without dropout. A source's tokens do not depend on
    which other sources share the call: the steps run the scoring path's
    batch-invariant arithmetic, and a row that emits EOS leaves the batch.
    PAD and BOS are never emitted (their logits are excluded from the
    argmax); ties resolve to the smallest id. EOS is not returned.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    sources = [np.asarray(s, dtype=np.int64).reshape(-1) for s in sources]
    out: list[list[int]] = [[] for _ in sources]
    if not sources:
        return out
    lengths = np.array([len(s) for s in sources])
    src = np.full((len(sources), max(int(lengths.max()), 1)), PAD_ID, dtype=np.int64)
    for row, ids in enumerate(sources):
        src[row, : len(ids)] = ids
    if src.min() < 0 or src.max() >= config.src_vocab_size:
        raise EncodingError("source ids outside the model's source vocabulary")
    mode = _INVARIANT
    # every step runs its rows in their order, so the caller's order is the decoder's
    _, enc_finals, _, _, attn = _encode(params, config, src, lengths, mode)
    states = _decoder_init(config, enc_finals)
    rows = np.arange(len(sources))  # output row of each live batch row
    tokens = np.full(len(sources), BOS_ID)
    table = _IdTable(params["tgt_embed"], params["dec0_Wx"])  # for the whole call
    steps = _steps(None, len(tokens), 1)  # one step of every live row
    for _ in range(max_len):
        top, states, _, _ = _lstm_stack(
            params, "dec", tokens[:, None], states, mode, steps, [attn], table=table,
        )
        logits = mode.matmul(top[:, 0], params["out_W"]) + params["out_b"]
        logits[:, [PAD_ID, BOS_ID]] = -np.inf
        tokens = logits.argmax(axis=1)
        live = tokens != EOS_ID
        for row, token in zip(rows[live], tokens[live]):
            out[row].append(int(token))
        if not live.all():
            if not live.any():
                break
            rows, tokens = rows[live], tokens[live]
            steps = _steps(None, len(tokens), 1)
            states = [(h[live], c[live]) for h, c in states]
            if attn is not None:  # the key projections and the source mask
                attn = attn[:2] + tuple(x[live] for x in attn[2:])
    return out
