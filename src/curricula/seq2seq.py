"""Encoder-decoder LSTM with optional additive attention, on plain numpy.

Everything is float64 and hand-rolled: parameter initialization, the
teacher-forced forward pass, exact reverse-mode gradients, and greedy
decoding. The point is full determinism for a fixed seed and gradients
that can be checked against finite differences.

Layout of one LSTM layer: gate pre-activations are `x @ Wx + h_prev @ Wh + b`
with the 4H columns ordered [input, forget, output, candidate]. Encoder
layers carry their state through PAD positions unchanged (masked update).
One cell step (`_lstm_cell`) serves training, scoring and decoding.

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
Training keeps plain numpy (`_TRAINING`): its loss is a batch mean, and its
bits are pinned by every checkpoint trained so far.

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

from dataclasses import dataclass
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


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


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
    indices: np.ndarray  # (B,) corpus indices

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
    indices = np.zeros(b, dtype=np.int64)
    for i, p in enumerate(pairs):
        src[i, : len(p.src_ids)] = p.src_ids
        tgt_in[i, : len(p.tgt_in_ids)] = p.tgt_in_ids
        tgt_out[i, : len(p.tgt_out_ids)] = p.tgt_out_ids
        src_lengths[i] = len(p.src_ids)
        tgt_lengths[i] = len(p.tgt_out_ids)
        indices[i] = p.index
    return Batch(src, src_lengths, tgt_in, tgt_out, tgt_lengths, indices)


@dataclass
class ForwardResult:
    mean_loss: float  # bits/token, masked token-weighted mean
    pair_losses: np.ndarray  # (B,) masked per-pair means, bits/token
    log_probs: np.ndarray  # (B, T, V) base-2 log-probabilities


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_BLOCK_ROWS = 8


def _rows_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`a @ w` for a 2-D `w`, in fixed blocks of `_BLOCK_ROWS` rows of `a`.

    Leading axes of `a` are flattened into rows. The last block is
    zero-padded, so every BLAS call has the shape (_BLOCK_ROWS, K) @ (K, N)
    and a row's result does not depend on how many rows share the call.
    """
    rows = a.reshape(-1, a.shape[-1])
    m = rows.shape[0]
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


def _lstm_cell(a, c):
    """Gates and new state from pre-activations a (B, 4H) and cell state c."""
    hdim = c.shape[1]
    i = _sigmoid(a[:, :hdim])
    f = _sigmoid(a[:, hdim : 2 * hdim])
    o = _sigmoid(a[:, 2 * hdim : 3 * hdim])
    g = np.tanh(a[:, 3 * hdim :])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return i, f, o, g, tanh_c, c_new, o * tanh_c


def _lstm_forward(Wx, Wh, b, X, h0, c0, mode, mask=None):
    """Run one LSTM layer over a full (B, T, Din) input sequence.

    With `mask` (B, T), state updates at masked-off steps are skipped
    (carried through), so trailing PAD never alters a row's state.
    Returns (outputs (B, T, H), (hT, cT), cache).
    """
    bsz, tlen, _ = X.shape
    hdim = Wh.shape[0]
    xw = mode.matmul(X.reshape(bsz * tlen, -1), Wx).reshape(bsz, tlen, 4 * hdim) + b
    hs = np.empty((bsz, tlen, hdim))  # post-carry hidden states
    saved = []  # per step, what the backward pass reads
    h, c = h0, c0
    for t in range(tlen):
        i, f, o, g, tanh_c, c_new, h_new = _lstm_cell(xw[:, t] + mode.matmul(h, Wh), c)
        if mask is not None:
            m = mask[:, t : t + 1]
            h = m * h_new + (1.0 - m) * h
            c = m * c_new + (1.0 - m) * c
        else:
            h, c = h_new, c_new
        hs[:, t] = h
        if mode.backward:
            saved.append((i, f, o, g, tanh_c, c))  # c: post-carry cell state
    if not mode.backward:
        return hs, (h, c), None
    gi, gf, go, gg, tc, cs = (np.stack(seq, axis=1) for seq in zip(*saved))
    cache = {
        "X": X, "I": gi, "F": gf, "O": go, "G": gg, "TC": tc,
        "C": cs, "H": hs, "h0": h0, "c0": c0, "mask": mask,
    }
    return hs, (h, c), cache


def _lstm_backward(Wx, Wh, cache, dH, dhT, dcT):
    """Reverse-mode pass for `_lstm_forward`.

    dH carries the gradient every consumer put on the output sequence;
    dhT/dcT the gradient on the final state. Returns
    (dX, dWx, dWh, db, dh0, dc0).
    """
    X, mask = cache["X"], cache["mask"]
    gi, gf, go, gg = cache["I"], cache["F"], cache["O"], cache["G"]
    tc, cs, hs = cache["TC"], cache["C"], cache["H"]
    h0, c0 = cache["h0"], cache["c0"]
    bsz, tlen, hdim = hs.shape
    d_gates = np.zeros((bsz, tlen, 4 * hdim))
    dh_next = np.array(dhT, copy=True)
    dc_next = np.array(dcT, copy=True)
    for t in reversed(range(tlen)):
        dh = dH[:, t] + dh_next
        dc = dc_next
        if mask is not None:
            m = mask[:, t : t + 1]
            dh_new = dh * m
            dh_carry = dh * (1.0 - m)
            dc_new = dc * m
            dc_carry = dc * (1.0 - m)
        else:
            dh_new, dc_new = dh, dc
            dh_carry = dc_carry = 0.0
        i, f, o, g = gi[:, t], gf[:, t], go[:, t], gg[:, t]
        tanh_c = tc[:, t]
        c_prev = cs[:, t - 1] if t > 0 else c0
        d_o = dh_new * tanh_c
        d_c = dc_new + dh_new * o * (1.0 - tanh_c * tanh_c)
        d_i = d_c * g
        d_g = d_c * i
        d_f = d_c * c_prev
        dc_prev = d_c * f + dc_carry
        da = d_gates[:, t]
        da[:, :hdim] = d_i * i * (1.0 - i)
        da[:, hdim : 2 * hdim] = d_f * f * (1.0 - f)
        da[:, 2 * hdim : 3 * hdim] = d_o * o * (1.0 - o)
        da[:, 3 * hdim :] = d_g * (1.0 - g * g)
        dh_next = da @ Wh.T + dh_carry
        dc_next = dc_prev
    h_prev = np.concatenate([h0[:, None, :], hs[:, :-1]], axis=1)
    flat = d_gates.reshape(bsz * tlen, 4 * hdim)
    dWx = X.reshape(bsz * tlen, -1).T @ flat
    dWh = h_prev.reshape(bsz * tlen, hdim).T @ flat
    db = flat.sum(axis=0)
    dX = (flat @ Wx.T).reshape(X.shape)
    return dX, dWx, dWh, db, dh_next, dc_next


def _attention_alpha(qs, kwk, v, mask, mode):
    """Masked additive-attention weights; PAD positions are exactly zero."""
    u = np.tanh(qs[:, None, :] + kwk)
    e = mode.score(u, v)
    neg = np.where(mask, e, -np.inf)
    peak = neg.max(axis=1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)  # rows with no valid position
    ex = np.where(mask, np.exp(e - peak), 0.0)
    denom = mode.total(ex)[:, None]
    return np.divide(ex, denom, out=np.zeros_like(ex), where=denom > 0)


def _attn_lstm_forward(Wx, Wh, b, Wq, v, Y, K, kwk, src_mask, h0, c0, mode):
    """First decoder layer with additive attention over encoder outputs K.

    Input at step t is [y_t ; context_t] where the context is attended with
    the layer's own previous hidden state as query; `kwk` is K @ Wk.
    """
    bsz, tlen, edim = Y.shape
    hdim = Wh.shape[0]
    yw = mode.matmul(Y.reshape(bsz * tlen, edim), Wx[:edim]).reshape(
        bsz, tlen, 4 * hdim
    ) + b
    wx_ctx = Wx[edim:]
    hs = np.empty((bsz, tlen, hdim))
    saved = []  # per step, what the backward pass reads
    h, c = h0, c0
    for t in range(tlen):
        query = h
        alpha = _attention_alpha(mode.matmul(query, Wq), kwk, v, src_mask, mode)
        ctx = mode.context(alpha, K)
        a = yw[:, t] + mode.matmul(ctx, wx_ctx) + mode.matmul(h, Wh)
        i, f, o, g, tanh_c, c, h = _lstm_cell(a, c)
        hs[:, t] = h
        if mode.backward:
            saved.append((query, alpha, ctx, i, f, o, g, tanh_c, c))
    if not mode.backward:
        return hs, (h, c), None
    queries, alphas, contexts, gi, gf, go, gg, tc, cs = (
        np.stack(seq, axis=1) for seq in zip(*saved)
    )
    cache = {
        "Y": Y, "K": K, "KWK": kwk, "src_mask": src_mask,
        "I": gi, "F": gf, "O": go, "G": gg, "TC": tc, "C": cs, "H": hs,
        "Q": queries, "A": alphas, "CTX": contexts, "h0": h0, "c0": c0,
        "edim": edim,
    }
    return hs, (h, c), cache


def _attn_lstm_backward(Wx, Wh, Wq, Wk, v, cache, dH, dhT, dcT):
    """Reverse-mode pass for `_attn_lstm_forward`.

    Returns (dY, dK, dWx, dWh, db, dWq, dWk, dv, dh0, dc0). The attention
    query gradient lands on the previous step's hidden state, which is why
    this loop cannot be collapsed across time.
    """
    Y, K, kwk, src_mask = cache["Y"], cache["K"], cache["KWK"], cache["src_mask"]
    gi, gf, go, gg = cache["I"], cache["F"], cache["O"], cache["G"]
    tc, cs, hs = cache["TC"], cache["C"], cache["H"]
    queries, alphas, contexts = cache["Q"], cache["A"], cache["CTX"]
    h0, c0 = cache["h0"], cache["c0"]
    edim = cache["edim"]
    bsz, tlen, hdim = hs.shape
    wx_ctx = Wx[edim:]
    d_gates = np.zeros((bsz, tlen, 4 * hdim))
    dK = np.zeros_like(K)
    d_kwk = np.zeros_like(kwk)
    dWq = np.zeros_like(Wq)
    dv = np.zeros_like(v)
    dh_next = np.array(dhT, copy=True)
    dc_next = np.array(dcT, copy=True)
    for t in reversed(range(tlen)):
        dh = dH[:, t] + dh_next
        dc = dc_next
        i, f, o, g = gi[:, t], gf[:, t], go[:, t], gg[:, t]
        tanh_c = tc[:, t]
        c_prev = cs[:, t - 1] if t > 0 else c0
        d_o = dh * tanh_c
        d_c = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d_i = d_c * g
        d_g = d_c * i
        d_f = d_c * c_prev
        dc_next = d_c * f
        da = d_gates[:, t]
        da[:, :hdim] = d_i * i * (1.0 - i)
        da[:, hdim : 2 * hdim] = d_f * f * (1.0 - f)
        da[:, 2 * hdim : 3 * hdim] = d_o * o * (1.0 - o)
        da[:, 3 * hdim :] = d_g * (1.0 - g * g)
        # context path back through the attention read
        dctx = da @ wx_ctx.T
        alpha = alphas[:, t]
        dalpha = np.einsum("bh,bsh->bs", dctx, K)
        dK += alpha[:, :, None] * dctx[:, None, :]
        inner = (alpha * dalpha).sum(axis=1, keepdims=True)
        de = alpha * (dalpha - inner)
        q = queries[:, t]
        u = np.tanh((q @ Wq)[:, None, :] + kwk)
        dv += np.einsum("bs,bsa->a", de, u)
        dz = de[:, :, None] * (1.0 - u * u) * v
        dqs = dz.sum(axis=1)
        d_kwk += dz
        dWq += q.T @ dqs
        dh_next = da @ Wh.T + dqs @ Wq.T
    dWk = np.einsum("bsh,bsa->ha", K, d_kwk)
    dK += np.matmul(d_kwk, Wk.T)
    h_prev = np.concatenate([h0[:, None, :], hs[:, :-1]], axis=1)
    flat = d_gates.reshape(bsz * tlen, 4 * hdim)
    dWx = np.empty_like(Wx)
    dWx[:edim] = Y.reshape(bsz * tlen, edim).T @ flat
    dWx[edim:] = contexts.reshape(bsz * tlen, -1).T @ flat
    dWh = h_prev.reshape(bsz * tlen, hdim).T @ flat
    db = flat.sum(axis=0)
    dY = (flat @ Wx[:edim].T).reshape(Y.shape)
    return dY, dK, dWx, dWh, db, dWq, dWk, dv, dh_next, dc_next


def _dropout_mask(rng, shape, p):
    return (rng.random(size=shape) >= p) / (1.0 - p)


def _check_batch_ids(config: ModelConfig, batch: Batch) -> None:
    if batch.src.min() < 0 or batch.src.max() >= config.src_vocab_size:
        raise EncodingError("source ids outside the model's source vocabulary")
    hi = max(batch.tgt_in.max(), batch.tgt_out.max())
    lo = min(batch.tgt_in.min(), batch.tgt_out.min())
    if lo < 0 or hi >= config.tgt_vocab_size:
        raise EncodingError("target ids outside the model's target vocabulary")


def _encode(params, config, src, src_mask, mode, rng=None, p=0.0):
    """Encoder stack over (B, S) ids, carrying state through masked positions.

    Returns (top-layer outputs after dropout, final (h, c) per layer,
    caches, dropout masks).
    """
    zeros = np.zeros((src.shape[0], config.hidden_dim))
    inp = params["src_embed"][src]
    finals, caches, drops = [], [], []
    for layer in range(config.encoder_layers):
        hs, final, cache = _lstm_forward(
            params[f"enc{layer}_Wx"],
            params[f"enc{layer}_Wh"],
            params[f"enc{layer}_b"],
            inp,
            zeros,
            zeros,
            mode,
            mask=src_mask,
        )
        drop = _dropout_mask(rng, hs.shape, p) if rng is not None else None
        finals.append(final)
        caches.append(cache)
        drops.append(drop)
        inp = hs * drop if drop is not None else hs
    return inp, finals, caches, drops


def _decoder_init(config, enc_finals):
    """Decoder layer l starts from encoder layer min(l, top)'s final state."""
    return [
        enc_finals[min(layer, config.encoder_layers - 1)]
        for layer in range(config.decoder_layers)
    ]


def _decode_stack(params, config, Y, states, K, kwk, src_bool, mode, rng=None, p=0.0):
    """Decoder stack over (B, T, E) input embeddings from per-layer (h, c).

    K is the encoder's top output after dropout and `kwk` is K @ attn_Wk
    (both unused without attention). Returns (top-layer outputs after
    dropout, final (h, c) per layer, caches, dropout masks).
    """
    finals, caches, drops = [], [], []
    inp = Y
    for layer in range(config.decoder_layers):
        weights = (
            params[f"dec{layer}_Wx"], params[f"dec{layer}_Wh"], params[f"dec{layer}_b"]
        )
        h0, c0 = states[layer]
        if layer == 0 and config.use_attention:
            hs, final, cache = _attn_lstm_forward(
                *weights, params["attn_Wq"], params["attn_v"],
                inp, K, kwk, src_bool, h0, c0, mode,
            )
        else:
            hs, final, cache = _lstm_forward(*weights, inp, h0, c0, mode)
        drop = _dropout_mask(rng, hs.shape, p) if rng is not None else None
        finals.append(final)
        caches.append(cache)
        drops.append(drop)
        inp = hs * drop if drop is not None else hs
    return inp, finals, caches, drops


def _run_forward(params, config, batch, dropout_on, seed, mode):
    """Full teacher-forced pass. Returns (ForwardResult, cache-for-backward),
    the cache None unless `mode.backward`."""
    _check_batch_ids(config, batch)
    bsz, tlen = batch.tgt_in.shape
    hdim = config.hidden_dim
    p = config.dropout_p if dropout_on else 0.0
    rng = (
        np.random.Generator(np.random.Philox(key=derive_seed("dropout", seed)))
        if p > 0.0
        else None
    )

    src_bool = batch.src != PAD_ID
    enc_top, enc_finals, enc_caches, enc_masks = _encode(
        params, config, batch.src, src_bool.astype(np.float64), mode, rng, p
    )
    kwk = mode.matmul(enc_top, params["attn_Wk"]) if config.use_attention else None
    top, _, dec_caches, dec_masks = _decode_stack(
        params, config, params["tgt_embed"][batch.tgt_in],
        _decoder_init(config, enc_finals), enc_top, kwk, src_bool, mode, rng, p,
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
        "enc_caches": enc_caches,
        "enc_masks": enc_masks,
        "dec_caches": dec_caches,
        "dec_masks": dec_masks,
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
    """Forward pass plus exact gradients of the mean loss w.r.t. every tensor."""
    result, cache = _run_forward(params, config, batch, dropout_on, seed, _TRAINING)
    batch = cache["batch"]
    bsz, tlen = batch.tgt_in.shape
    hdim = config.hidden_dim

    dlogits = cache["softmax"].copy()
    rows = np.arange(bsz)[:, None]
    cols = np.arange(tlen)[None, :]
    dlogits[rows, cols, batch.tgt_out] -= 1.0
    dlogits *= cache["tgt_mask"][:, :, None] / (cache["total_tokens"] * LN2)

    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    flat = dlogits.reshape(bsz * tlen, -1)
    top = cache["top"]
    grads["out_W"] += top.reshape(bsz * tlen, hdim).T @ flat
    grads["out_b"] += flat.sum(axis=0)
    d_top = (flat @ params["out_W"].T).reshape(bsz, tlen, hdim)

    dec_masks = cache["dec_masks"]
    dec_caches = cache["dec_caches"]
    d_out = d_top
    if dec_masks[-1] is not None:
        d_out = d_out * dec_masks[-1]
    d_enc_final = [
        [np.zeros((bsz, hdim)), np.zeros((bsz, hdim))]
        for _ in range(config.encoder_layers)
    ]
    zeros = np.zeros((bsz, hdim))

    def _credit_init(layer, dh0, dc0):
        src_layer = min(layer, config.encoder_layers - 1)
        d_enc_final[src_layer][0] += dh0
        d_enc_final[src_layer][1] += dc0

    for layer in range(config.decoder_layers - 1, 0, -1):
        dX, dWx, dWh, db, dh0, dc0 = _lstm_backward(
            params[f"dec{layer}_Wx"],
            params[f"dec{layer}_Wh"],
            dec_caches[layer],
            d_out,
            zeros,
            zeros,
        )
        grads[f"dec{layer}_Wx"] += dWx
        grads[f"dec{layer}_Wh"] += dWh
        grads[f"dec{layer}_b"] += db
        _credit_init(layer, dh0, dc0)
        d_out = dX
        if dec_masks[layer - 1] is not None:
            d_out = d_out * dec_masks[layer - 1]

    d_enc_top = np.zeros_like(cache["enc_top"])
    if config.use_attention:
        dY, dK, dWx, dWh, db, dWq, dWk, dv, dh0, dc0 = _attn_lstm_backward(
            params["dec0_Wx"], params["dec0_Wh"],
            params["attn_Wq"], params["attn_Wk"], params["attn_v"],
            dec_caches[0], d_out, zeros, zeros,
        )
        grads["attn_Wq"] += dWq
        grads["attn_Wk"] += dWk
        grads["attn_v"] += dv
        d_enc_top += dK
    else:
        dY, dWx, dWh, db, dh0, dc0 = _lstm_backward(
            params["dec0_Wx"], params["dec0_Wh"], dec_caches[0], d_out, zeros, zeros
        )
    grads["dec0_Wx"] += dWx
    grads["dec0_Wh"] += dWh
    grads["dec0_b"] += db
    _credit_init(0, dh0, dc0)
    np.add.at(grads["tgt_embed"], batch.tgt_in, dY)

    enc_masks = cache["enc_masks"]
    enc_caches = cache["enc_caches"]
    d_out = d_enc_top
    if enc_masks[-1] is not None:
        d_out = d_out * enc_masks[-1]
    for layer in range(config.encoder_layers - 1, -1, -1):
        dX, dWx, dWh, db, _, _ = _lstm_backward(
            params[f"enc{layer}_Wx"],
            params[f"enc{layer}_Wh"],
            enc_caches[layer],
            d_out,
            d_enc_final[layer][0],
            d_enc_final[layer][1],
        )
        grads[f"enc{layer}_Wx"] += dWx
        grads[f"enc{layer}_Wh"] += dWh
        grads[f"enc{layer}_b"] += db
        d_out = dX
        if layer > 0 and enc_masks[layer - 1] is not None:
            d_out = d_out * enc_masks[layer - 1]
    np.add.at(grads["src_embed"], batch.src, d_out)

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
    src_bool = np.arange(src.shape[1])[None, :] < lengths[:, None]
    K, enc_finals, _, _ = _encode(
        params, config, src, src_bool.astype(np.float64), mode
    )
    kwk = mode.matmul(K, params["attn_Wk"]) if config.use_attention else None
    states = _decoder_init(config, enc_finals)
    rows = np.arange(len(sources))  # output row of each live batch row
    tokens = np.full(len(sources), BOS_ID)
    for _ in range(max_len):
        y = params["tgt_embed"][tokens][:, None, :]
        top, states, _, _ = _decode_stack(
            params, config, y, states, K, kwk, src_bool, mode
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
            rows, tokens, K, src_bool = (
                rows[live], tokens[live], K[live], src_bool[live]
            )
            kwk = kwk[live] if kwk is not None else None
            states = [(h[live], c[live]) for h, c in states]
    return out
