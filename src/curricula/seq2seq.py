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
- The BLAS picks its kernel by shape (GEMV for one row, a small-matrix
  kernel for small products, blocked GEMM above), and the kernels round
  differently. `_rows_matmul` therefore runs every matmul whose row count
  depends on the batch in fixed blocks of `_BLOCK_ROWS` rows, zero-padding
  the last block, so every call has the same shape.
- numpy's pairwise summation regroups terms when the summed length changes.
  Sums over padded axes (attention denominator and context over source
  positions, a pair's loss over target positions) therefore run strictly
  left to right, where trailing exact zeros change nothing.
The first layer of each stack reads only token embeddings, so its input
product depends on the id alone. Inference therefore takes it from a
per-call table (`_IdTable`) that projects each distinct id once, when the
call first sees it, and gathers its rows straight into the packed gate
array: a scoring call projects the ids of its batch, and greedy decoding
keeps one table for all its steps, so a step whose tokens are all known
runs no input product. Since `_rows_matmul` gives a row the same bits
whatever rows share its call, a table row carries exactly the bits of the
per-position product.
Training keeps plain numpy (`_TRAINING`): its loss is a batch mean, its
bits are pinned by every checkpoint trained so far, and the weight gradient
needs the embedded input anyway.

Attention is additive: score(q, k) = v . tanh(q @ Wq + k @ Wk), softmaxed
over the non-PAD source positions of each pair. The query is the previous
hidden state of the first decoder layer, and the resulting context vector is
concatenated to that layer's input embedding — the same layer both asks and
consumes, which keeps the recurrence self-contained.

Dropout (inverted, rate p) is applied to every layer's output sequence where
it is consumed from above: as the next layer's input, as attention keys
(encoder top layer), and as the projection input (decoder top layer).
Recurrent connections, state copies and attention queries see raw states.
Masks depend only on (seed, shapes), never on parameter values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .corpus import BOS_ID, EOS_ID, PAD_ID, EncodedPair
from .errors import CapabilityError, ConfigError, EncodingError, NumericalError
from .rng import derive_seed

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


def _rows_matmul(a: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """`a @ w` for a 2-D `w`, in fixed blocks of `_BLOCK_ROWS` rows of `a`,
    written into the (rows, N) array `out` when one is given.

    Leading axes of `a` are flattened into rows. The last block is
    zero-padded, so every BLAS call has the shape (_BLOCK_ROWS, K) @ (K, N)
    and a row's result does not depend on how many rows share the call.
    """
    rows = a.reshape(-1, a.shape[-1])
    m = rows.shape[0]
    if out is None:
        out = np.empty((m, w.shape[1]))
    full = m - m % _BLOCK_ROWS
    for start in range(0, full, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        np.matmul(rows[start:stop], w, out=out[start:stop])
    if full < m:
        tail = np.zeros((_BLOCK_ROWS, rows.shape[1]))
        tail[: m - full] = rows[full:]
        out[full:] = (tail @ w)[: m - full]
    return out.reshape(*a.shape[:-1], w.shape[1])


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
    context: Callable  # (B, S) weights . (B, S, H) values -> (B, H)


_TRAINING = _Mode(
    backward=True,
    matmul=np.matmul,
    score=np.matmul,
    total=lambda x: x.sum(axis=1),
    context=lambda alpha, values: np.einsum("bs,bsh->bh", alpha, values),
)

_INVARIANT = _Mode(
    backward=False,
    matmul=_rows_matmul,
    score=lambda u, v: _rows_matmul(u, v.reshape(-1, 1))[..., 0],
    total=_sum_left,
    context=lambda alpha, values: _sum_left(alpha[:, :, None] * values),
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

    def gather(self, ids):
        """The products of (N,) ids in a new (N, 4H) array, projecting the
        ids not seen before."""
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
        return np.take(self.rows, self.slot[ids], axis=0)


def _lstm_forward(Wx, Wh, b, X, h0, c0, mode, steps, attn=None):
    """Run one LSTM layer over a (B, T, Din) input, at the live positions
    of `steps` only: a row stops at its last step and keeps its state.

    X may instead be a pair (ids, table) of (B, T) token ids and the
    `_IdTable` that holds their input products: the first layer in
    inference gets its input product ready-made this way.
    With `attn = (Wq, v, K, kwk, src_mask)`, step t also reads a context
    attended over encoder outputs K (`kwk` is K @ Wk) with the layer's
    previous hidden state as query, through the last H rows of Wx.
    Returns (outputs (B, T, H), (hT, cT), cache): the outputs are zero
    where no step ran, and (hT, cT) is each row's state after its last step.
    """
    bsz, hdim = steps.bsz, Wh.shape[0]
    # pre-activations, made gates in place
    if isinstance(X, tuple):
        ids, table = X
        gates = table.gather(_pack(ids, steps))
    else:
        xp = _pack(X, steps)
        gates = mode.matmul(xp, Wx[: xp.shape[1]])
    gates += b
    npos = len(gates)
    hs = np.empty((bsz + npos, hdim))  # initial states, then each new one
    cs = np.empty_like(hs)
    hs[:bsz] = h0[steps.order]
    cs[:bsz] = c0[steps.order]
    tc = np.empty((npos, hdim)) if mode.backward else None
    if attn is not None:
        Wq, v = attn[:2]
        Wc = Wx[-hdim:]  # the rows that read the context
        K, kwk, src_mask = (x[steps.order] for x in attn[2:])
        if mode.backward:
            alphas, ctxs = np.empty((npos, K.shape[1])), np.empty((npos, hdim))
            us = np.empty((npos, *K.shape[1:]))
    for t, n in enumerate(steps.live):
        cur = slice(steps.start[t], steps.start[t] + n)
        prev = slice(steps.prev[t], steps.prev[t] + n)
        new = slice(bsz + cur.start, bsz + cur.stop)
        a, h = gates[cur], hs[prev]
        if attn is not None:
            alpha = _attention_alpha(
                mode.matmul(h, Wq), kwk[:n], v, src_mask[:n], mode,
                us[cur] if mode.backward else None,
            )
            ctx = mode.context(alpha, K[:n])
            a += mode.matmul(ctx, Wc)
            if mode.backward:
                alphas[cur], ctxs[cur] = alpha, ctx
        a += mode.matmul(h, Wh)
        _lstm_cell(a, cs[prev], cs[new], None if tc is None else tc[cur], hs[new])
    out, final = _unpack(hs[bsz:], steps), (hs[steps.final], cs[steps.final])
    if not mode.backward:
        return out, final, None
    cache = dict(steps=steps, X=xp, GATES=gates, TC=tc, H=hs, C=cs, attn=None)
    if attn is not None:
        cache.update(attn=(Wq, v, K, kwk), A=alphas, CTX=ctxs, U=us)
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
    d_attn is None without attention and otherwise (dWq, dv, dK, d_kwk),
    matching the forward's `attn`. The attention query gradient lands on
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
        Wq, v, K, kwk = attn
        dK, d_kwk, dv = np.zeros_like(K), np.zeros_like(kwk), np.zeros_like(v)
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
            # context path back through the attention read
            dctx = da @ Wx[din:].T
            alpha = cache["A"][cur]
            dalpha = np.einsum("bh,bsh->bs", dctx, K[:n])
            dK[:n] += alpha[:, :, None] * dctx[:, None, :]
            inner = (alpha * dalpha).sum(axis=1, keepdims=True)
            de = alpha * (dalpha - inner)
            u = cache["U"][cur]
            dv += np.einsum("bs,bsa->a", de, u)
            dz = de[:, :, None] * (1.0 - u * u) * v
            d_kwk[:n] += dz
            dq = dz.sum(axis=1, out=dqs[cur])
            dh_next[:n] += dq @ Wq.T
    h_prev = hs[steps.previous]  # each position's previous hidden state
    dWx = np.empty_like(Wx)
    np.matmul(xp.T, d_gates, out=dWx[:din])
    dWh = h_prev.T @ d_gates
    db = d_gates.sum(axis=0)
    dX = _unpack(d_gates @ Wx[:din].T, steps)
    d_attn = None
    if attn is not None:
        np.matmul(cache["CTX"].T, d_gates, out=dWx[din:])
        d_attn = (h_prev.T @ dqs, dv, dK[steps.inverse], d_kwk[steps.inverse])
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
    params, prefix, ids, states, mode, lengths=None, attn=None, rng=None, p=0.0,
    table=None,
):
    """Layers `<prefix>0..n-1` over the embeddings of (B, T) token ids, layer
    l starting from states[l] = (h0, c0). Row b runs its first lengths[b]
    steps (every step without `lengths`), in every layer; `attn` reaches the
    first layer.

    Training embeds the ids and runs `X @ Wx`, whose X the weight gradient
    needs. Inference takes the first layer's input product from `table`, the
    `_IdTable` of the stack's embeddings (a new one when None).
    With `rng`, each layer's output draws its dropout mask in layer order.
    Returns (top-layer outputs after dropout, final (h, c) per layer,
    caches, dropout masks).
    """
    steps = _steps(lengths, *ids.shape)
    embed = params[_EMBED[prefix]]
    if not mode.backward and table is None:
        table = _IdTable(embed, params[f"{prefix}0_Wx"])
    inp = embed[ids] if mode.backward else (ids, table)
    finals, caches, drops = [], [], []
    for layer, (h0, c0) in enumerate(states):
        name = f"{prefix}{layer}"
        hs, final, cache = _lstm_forward(
            params[f"{name}_Wx"], params[f"{name}_Wh"], params[f"{name}_b"],
            inp, h0, c0, mode, steps, attn if layer == 0 else None,
        )
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


def _encode(params, config, src, lengths, mode, rng=None, p=0.0):
    """Encoder stack over (B, S) ids whose row b holds lengths[b] tokens,
    from zero states; returns `_lstm_stack`'s outputs plus the decoder's
    `attn` or None."""
    zeros = np.zeros((src.shape[0], config.hidden_dim))
    top, finals, caches, drops = _lstm_stack(
        params, "enc", src, [(zeros, zeros)] * config.encoder_layers, mode,
        lengths, None, rng, p,
    )
    attn = None
    if config.use_attention:
        kwk = mode.matmul(top, params["attn_Wk"])
        src_mask = np.arange(src.shape[1])[None, :] < lengths[:, None]
        attn = (params["attn_Wq"], params["attn_v"], top, kwk, src_mask)
    return top, finals, caches, drops, attn


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

    enc_top, enc_finals, enc_caches, enc_drops, attn = _encode(
        params, config, batch.src, batch.src_lengths, mode, rng, p
    )
    top, _, dec_caches, dec_drops = _lstm_stack(
        params, "dec", batch.tgt_in, _decoder_init(config, enc_finals), mode,
        batch.tgt_lengths, attn, rng, p,
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
        "enc_top": enc_top,
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
        "out_W": cache["top"].reshape(bsz * tlen, hdim).T @ flat,
        "out_b": flat.sum(axis=0),
    }
    d_top = (flat @ params["out_W"].T).reshape(bsz, tlen, hdim)

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
    if d_attn is not None:
        enc_top = cache["enc_top"]
        dWq, dv, dK, d_kwk = d_attn
        grads["attn_Wq"] = dWq
        grads["attn_Wk"] = enc_top.reshape(-1, hdim).T @ d_kwk.reshape(-1, hdim)
        grads["attn_v"] = dv
        d_enc_top = dK + np.matmul(d_kwk, params["attn_Wk"].T)
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
    _, enc_finals, _, _, attn = _encode(params, config, src, lengths, mode)
    states = _decoder_init(config, enc_finals)
    rows = np.arange(len(sources))  # output row of each live batch row
    tokens = np.full(len(sources), BOS_ID)
    table = _IdTable(params["tgt_embed"], params["dec0_Wx"])  # for the whole call
    for _ in range(max_len):
        top, states, _, _ = _lstm_stack(
            params, "dec", tokens[:, None], states, mode, attn=attn, table=table
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
            states = [(h[live], c[live]) for h, c in states]
            if attn is not None:  # keys, their projection and the source mask
                attn = attn[:2] + tuple(x[live] for x in attn[2:])
    return out
