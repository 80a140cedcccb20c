"""Encoder-decoder LSTM with optional additive attention, on plain numpy.

Everything is float64 and hand-rolled: parameter initialization, the
teacher-forced forward pass, exact reverse-mode gradients, and greedy
decoding. The point is full determinism for a fixed seed and gradients
that can be checked against finite differences.

Layout of one LSTM layer: gate pre-activations are `x @ Wx + h_prev @ Wh + b`
with the 4H columns ordered [input, forget, output, candidate]. One layer
function (`_lstm_forward`, stepping the one cell `_lstm_cell`), with an
optional mask and optional attention, and its one reverse pass
(`_lstm_backward`, gate derivatives in `_lstm_cell_backward`) serve every
layer of both layouts: the mask makes encoder layers carry their state
through PAD positions unchanged, and attention feeds the first decoder layer
of the attention layout. One stack walker (`_lstm_stack`) runs the encoder
and the decoder for training, scoring and decoding, and one reverse walker
(`_lstm_stack_backward`) runs back through either.

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


def _lstm_forward(Wx, Wh, b, X, h0, c0, mode, mask=None, attn=None):
    """Run one LSTM layer over a full (B, T, Din) input sequence.

    With `mask` (B, T), state updates at masked-off steps are skipped
    (carried through), so trailing PAD never alters a row's state.
    With `attn = (Wq, v, K, kwk, src_mask)`, step t also reads a context
    attended over encoder outputs K (`kwk` is K @ Wk) with the layer's
    previous hidden state as query, through the rows of Wx below Din.
    Returns (outputs (B, T, H), (hT, cT), cache).
    """
    bsz, tlen, din = X.shape
    hdim = Wh.shape[0]
    xw = mode.matmul(X.reshape(bsz * tlen, din), Wx[:din]).reshape(
        bsz, tlen, 4 * hdim
    ) + b
    hs = np.empty((bsz, tlen, hdim))  # post-carry hidden states
    saved = []  # per step, what the backward pass reads
    h, c = h0, c0
    if attn is not None:
        Wq, v, K, kwk, src_mask = attn
    for t in range(tlen):
        a = xw[:, t]
        if attn is not None:
            alpha = _attention_alpha(mode.matmul(h, Wq), kwk, v, src_mask, mode)
            ctx = mode.context(alpha, K)
            a = a + mode.matmul(ctx, Wx[din:])
        i, f, o, g, tanh_c, c_new, h_new = _lstm_cell(a + mode.matmul(h, Wh), c)
        if mask is not None:
            m = mask[:, t : t + 1]
            h = m * h_new + (1.0 - m) * h
            c = m * c_new + (1.0 - m) * c
        else:
            h, c = h_new, c_new
        hs[:, t] = h
        if mode.backward:
            step = (i, f, o, g, tanh_c, c)  # c: post-carry cell state
            saved.append(step + (alpha, ctx) if attn is not None else step)
    if not mode.backward:
        return hs, (h, c), None
    names = ("I", "F", "O", "G", "TC", "C", "A", "CTX")
    cache = dict(zip(names, (np.stack(seq, axis=1) for seq in zip(*saved))))
    cache.update(X=X, H=hs, h0=h0, c0=c0, mask=mask, attn=attn)
    return hs, (h, c), cache


def _lstm_cell_backward(da, dh, dc, i, f, o, g, tanh_c, c_prev):
    """Reverse of one `_lstm_cell` step from the gradients on its new h and c.

    Writes the pre-activation gradients into `da` (B, 4H) and returns the
    gradient on the previous cell state.
    """
    hdim = dh.shape[1]
    d_o = dh * tanh_c
    d_c = dc + dh * o * (1.0 - tanh_c * tanh_c)
    d_i = d_c * g
    d_g = d_c * i
    d_f = d_c * c_prev
    da[:, :hdim] = d_i * i * (1.0 - i)
    da[:, hdim : 2 * hdim] = d_f * f * (1.0 - f)
    da[:, 2 * hdim : 3 * hdim] = d_o * o * (1.0 - o)
    da[:, 3 * hdim :] = d_g * (1.0 - g * g)
    return d_c * f


def _lstm_backward(Wx, Wh, cache, dH, dhT, dcT):
    """Reverse-mode pass for `_lstm_forward`.

    dH carries the gradient every consumer put on the output sequence;
    dhT/dcT the gradient on the final state. Returns
    (dX, dWx, dWh, db, dh0, dc0, d_attn), where d_attn is None without
    attention and otherwise (dWq, dv, dK, d_kwk), matching the forward's
    `attn`. The attention query gradient lands on the previous step's
    hidden state, which is why this loop cannot be collapsed across time.
    """
    X, mask, attn = cache["X"], cache["mask"], cache["attn"]
    gi, gf, go, gg = cache["I"], cache["F"], cache["O"], cache["G"]
    tc, cs, hs = cache["TC"], cache["C"], cache["H"]
    h0, c0 = cache["h0"], cache["c0"]
    bsz, tlen, din = X.shape
    hdim = hs.shape[2]
    h_prev = np.concatenate([h0[:, None, :], hs[:, :-1]], axis=1)
    if attn is not None:
        Wq, v, K, kwk, _ = attn
        dWq, dv, dK, d_kwk = (np.zeros_like(x) for x in (Wq, v, K, kwk))
    d_gates = np.zeros((bsz, tlen, 4 * hdim))
    dh_next = np.array(dhT, copy=True)
    dc_next = np.array(dcT, copy=True)
    for t in reversed(range(tlen)):
        dh = dH[:, t] + dh_next
        dc = dc_next
        dh_carry = dc_carry = 0.0
        if mask is not None:
            m = mask[:, t : t + 1]
            dh, dh_carry = dh * m, dh * (1.0 - m)
            dc, dc_carry = dc * m, dc * (1.0 - m)
        da = d_gates[:, t]
        dc_next = _lstm_cell_backward(
            da, dh, dc, gi[:, t], gf[:, t], go[:, t], gg[:, t], tc[:, t],
            cs[:, t - 1] if t > 0 else c0,
        )
        dh_next = da @ Wh.T
        if attn is not None:
            # context path back through the attention read
            dctx = da @ Wx[din:].T
            alpha = cache["A"][:, t]
            dalpha = np.einsum("bh,bsh->bs", dctx, K)
            dK += alpha[:, :, None] * dctx[:, None, :]
            inner = (alpha * dalpha).sum(axis=1, keepdims=True)
            de = alpha * (dalpha - inner)
            q = h_prev[:, t]
            u = np.tanh((q @ Wq)[:, None, :] + kwk)
            dv += np.einsum("bs,bsa->a", de, u)
            dz = de[:, :, None] * (1.0 - u * u) * v
            dqs = dz.sum(axis=1)
            d_kwk += dz
            dWq += q.T @ dqs
            dh_next = dh_next + dqs @ Wq.T
        # carries are zero in an unmasked layer; the plain layer adds them
        # anyway and the attention layer does not, which fixes the sign of
        # a zero gradient (-0.0 + 0.0 is +0.0) the same way in every run
        if mask is not None or attn is None:
            dc_next = dc_next + dc_carry
            dh_next = dh_next + dh_carry
    flat = d_gates.reshape(bsz * tlen, 4 * hdim)
    dWx = X.reshape(bsz * tlen, din).T @ flat
    dWh = h_prev.reshape(bsz * tlen, hdim).T @ flat
    db = flat.sum(axis=0)
    dX = (flat @ Wx[:din].T).reshape(X.shape)
    d_attn = None
    if attn is not None:
        ctx_grad = cache["CTX"].reshape(bsz * tlen, -1).T @ flat
        dWx = np.concatenate([dWx, ctx_grad])
        d_attn = (dWq, dv, dK, d_kwk)
    return dX, dWx, dWh, db, dh_next, dc_next, d_attn


def _dropout_mask(rng, shape, p):
    return (rng.random(size=shape) >= p) / (1.0 - p)


def _check_batch_ids(config: ModelConfig, batch: Batch) -> None:
    if batch.src.min() < 0 or batch.src.max() >= config.src_vocab_size:
        raise EncodingError("source ids outside the model's source vocabulary")
    hi = max(batch.tgt_in.max(), batch.tgt_out.max())
    lo = min(batch.tgt_in.min(), batch.tgt_out.min())
    if lo < 0 or hi >= config.tgt_vocab_size:
        raise EncodingError("target ids outside the model's target vocabulary")


def _lstm_stack(
    params, prefix, inp, states, mode, mask=None, attn=None, rng=None, p=0.0
):
    """Layers `<prefix>0..n-1` over a (B, T, D) input, layer l starting from
    states[l] = (h0, c0). `mask` reaches every layer, `attn` the first.

    With `rng`, each layer's output draws its dropout mask in layer order.
    Returns (top-layer outputs after dropout, final (h, c) per layer,
    caches, dropout masks).
    """
    finals, caches, drops = [], [], []
    for layer, (h0, c0) in enumerate(states):
        name = f"{prefix}{layer}"
        hs, final, cache = _lstm_forward(
            params[f"{name}_Wx"], params[f"{name}_Wh"], params[f"{name}_b"],
            inp, h0, c0, mode, mask, attn if layer == 0 else None,
        )
        drop = _dropout_mask(rng, hs.shape, p) if rng is not None else None
        finals.append(final)
        caches.append(cache)
        drops.append(drop)
        inp = hs * drop if drop is not None else hs
    return inp, finals, caches, drops


def _lstm_stack_backward(params, prefix, caches, drops, d_top, d_finals, grads):
    """Reverse-mode pass for `_lstm_stack`; adds weight gradients to `grads`.

    d_top is the gradient on the stack's output (after dropout) and
    d_finals[l] the (dh, dc) on layer l's final state. Returns (gradient
    on the stack's input, per-layer (dh0, dc0), the first layer's d_attn).
    """
    d_out = d_top
    d_inits = [None] * len(caches)
    for layer in reversed(range(len(caches))):
        if drops[layer] is not None:
            d_out = d_out * drops[layer]
        name = f"{prefix}{layer}"
        d_out, dWx, dWh, db, dh0, dc0, d_attn = _lstm_backward(
            params[f"{name}_Wx"], params[f"{name}_Wh"], caches[layer], d_out,
            *d_finals[layer],
        )
        grads[f"{name}_Wx"] += dWx
        grads[f"{name}_Wh"] += dWh
        grads[f"{name}_b"] += db
        d_inits[layer] = (dh0, dc0)
    return d_out, d_inits, d_attn


def _encode(params, config, src, src_bool, mode, rng=None, p=0.0):
    """Encoder stack over (B, S) ids from zero states, carrying state through
    PAD; returns `_lstm_stack`'s outputs plus the decoder's `attn` or None."""
    zeros = np.zeros((src.shape[0], config.hidden_dim))
    top, finals, caches, drops = _lstm_stack(
        params, "enc", params["src_embed"][src],
        [(zeros, zeros)] * config.encoder_layers,
        mode, src_bool.astype(np.float64), None, rng, p,
    )
    attn = None
    if config.use_attention:
        kwk = mode.matmul(top, params["attn_Wk"])
        attn = (params["attn_Wq"], params["attn_v"], top, kwk, src_bool)
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
    bsz, tlen = batch.tgt_in.shape
    hdim = config.hidden_dim
    p = config.dropout_p if dropout_on else 0.0
    rng = (
        np.random.Generator(np.random.Philox(key=derive_seed("dropout", seed)))
        if p > 0.0
        else None
    )

    enc_top, enc_finals, enc_caches, enc_drops, attn = _encode(
        params, config, batch.src, batch.src != PAD_ID, mode, rng, p
    )
    top, _, dec_caches, dec_drops = _lstm_stack(
        params, "dec", params["tgt_embed"][batch.tgt_in],
        _decoder_init(config, enc_finals), mode, None, attn, rng, p,
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

    zeros = np.zeros((bsz, hdim))
    d_y, d_dec_init, d_attn = _lstm_stack_backward(
        params, "dec", *cache["dec"], d_top,
        [(zeros, zeros)] * config.decoder_layers, grads,
    )
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
    enc_top = cache["enc_top"]
    d_enc_top = np.zeros_like(enc_top)
    if d_attn is not None:
        dWq, dv, dK, d_kwk = d_attn
        grads["attn_Wq"] += dWq
        grads["attn_Wk"] += np.einsum("bsh,bsa->ha", enc_top, d_kwk)
        grads["attn_v"] += dv
        d_enc_top += dK + np.matmul(d_kwk, params["attn_Wk"].T)
    d_x, _, _ = _lstm_stack_backward(
        params, "enc", *cache["enc"], d_enc_top, d_enc_final, grads
    )
    np.add.at(grads["src_embed"], batch.src, d_x)

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
    _, enc_finals, _, _, attn = _encode(params, config, src, src_bool, mode)
    states = _decoder_init(config, enc_finals)
    rows = np.arange(len(sources))  # output row of each live batch row
    tokens = np.full(len(sources), BOS_ID)
    for _ in range(max_len):
        y = params["tgt_embed"][tokens][:, None, :]
        top, states, _, _ = _lstm_stack(params, "dec", y, states, mode, attn=attn)
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
