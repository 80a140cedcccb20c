import math

import numpy as np
import pytest

from curricula.corpus import BOS_ID, EOS_ID, PAD_ID, EncodedPair
from curricula.errors import CapabilityError, ConfigError, EncodingError
from curricula.seq2seq import (
    LN2,
    Batch,
    ModelConfig,
    attention_weights,
    forward_teacher_forced,
    greedy_decode,
    init_params,
    loss_and_gradients,
    make_batch,
    parameter_count,
    parameter_shapes,
    _IdTable,
    _lstm_cell,
    _rows_matmul,
)
from oracles import finite_difference_check, sample_coordinates

FP = "test"

BASE_LAYOUT = ModelConfig(8, 8, 2, 2, True, 0.2, 12, 12)
SMALL_LAYOUT = ModelConfig(8, 8, 1, 2, False, 0.2, 12, 12)
# three attention-decoder layers all starting from the one encoder layer
DEEP_DECODER_LAYOUT = ModelConfig(8, 8, 1, 3, True, 0.2, 12, 12)
# an encoder deeper than its decoder
DEEP_ENCODER_LAYOUT = ModelConfig(8, 8, 3, 1, False, 0.2, 12, 12)


def mixed_pairs():
    raw = [
        (0, (4, 5, 6, 7), (5, 6)),
        (1, (8, 9, 10), (7, 8, 9, 10)),
        (2, (11, 4), (11,)),
    ]
    return [EncodedPair(i, s, (1,) + t, t + (2,), FP, FP) for i, s, t in raw]


def check_weights(config, seed=5):
    rng = np.random.default_rng(seed)
    return {n: rng.uniform(-0.5, 0.5, size=sh) for n, sh in parameter_shapes(config)}


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_deterministic():
    a = init_params(BASE_LAYOUT, seed=3)
    b = init_params(BASE_LAYOUT, seed=3)
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_init_attention_tensors_follow_preset():
    base = ModelConfig.preset("base", 50, 50)
    small = ModelConfig.preset("small", 50, 50)
    assert base.use_attention and not small.use_attention
    base_names = {n for n, _ in parameter_shapes(base)}
    small_names = {n for n, _ in parameter_shapes(small)}
    assert {"attn_Wq", "attn_Wk", "attn_v"} <= base_names
    assert not {"attn_Wq", "attn_Wk", "attn_v"} & small_names


def test_preset_dimensions():
    base = ModelConfig.preset("base", 50, 50)
    assert (base.hidden_dim, base.encoder_layers, base.decoder_layers) == (512, 2, 2)
    assert base.dropout_p == 0.2
    small = ModelConfig.preset("small", 50, 50)
    assert (small.hidden_dim, small.encoder_layers, small.decoder_layers) == (128, 1, 2)


def test_parameter_count_matches_shape_arithmetic():
    # small preset, vocab 100/100, embed 128: sum the shapes by hand
    config = ModelConfig.preset("small", 100, 100)
    embeddings = 2 * (100 * 128)
    lstm_layer = 128 * 512 + 128 * 512 + 512  # Wx + Wh + b at every layer
    projection = 128 * 100 + 100
    expected = embeddings + 3 * lstm_layer + projection  # 1 encoder + 2 decoder
    assert parameter_count(config) == expected


def test_init_bounds_and_forget_bias():
    params = init_params(BASE_LAYOUT, seed=0)
    h = BASE_LAYOUT.hidden_dim
    for name, arr in params.items():
        if name.endswith("_b") and name != "out_b":
            assert np.all(arr[h : 2 * h] == 1.0)
            rest = np.concatenate([arr[:h], arr[2 * h :]])
            assert np.all(np.abs(rest) <= 0.08)
        else:
            assert np.all(np.abs(arr) <= 0.08)


def test_zero_dimension_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(0, 8, 1, 1, False, 0.0, 12, 12)


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

def reference_sigmoid(x):
    """The masked, overflow-free sigmoid the cell computed before its tanh form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_cell_sigmoid_gates_match_the_stable_reference():
    sweep = np.concatenate(
        [np.linspace(-50.0, 50.0, 20001), [800.0, -800.0, 1e308, -1e308, 0.0, -0.0]]
    )
    hdim = sweep.size
    gates = _lstm_cell(np.tile(sweep, 4)[None, :], np.zeros((1, hdim)))[0]
    ref = reference_sigmoid(sweep)
    bound = 2 * np.finfo(np.float64).eps  # absolute, fixed from the dtype
    for k in range(3):  # input, forget and output gates
        assert np.abs(gates[0, k * hdim : (k + 1) * hdim] - ref).max() <= bound
    assert np.array_equal(gates[0, 3 * hdim :], np.tanh(sweep))


def test_cell_saturates_without_floating_point_errors():
    hdim = 4
    a = np.array([[1e3] * 4 * hdim, [-1e3] * 4 * hdim, [1e3, -1e3] * 2 * hdim])
    c = np.array([[1e3] * hdim, [-1e3] * hdim, [0.0] * hdim])
    with np.errstate(all="raise"):
        gates, tanh_c, c_new, h_new = _lstm_cell(a, c)
    sig = gates[:, : 3 * hdim]
    assert np.all((sig >= 0.0) & (sig <= 1.0))
    assert np.all(np.abs(gates[:, 3 * hdim :]) <= 1.0)
    assert np.all(np.isfinite(c_new)) and np.all(np.abs(h_new) <= 1.0)


def test_id_table_rows_are_the_per_position_products():
    config = ModelConfig.preset("small", 12, 12)
    params = {k: 8.0 * v for k, v in init_params(config, seed=2).items()}
    embed, Wx = params["tgt_embed"], params["dec0_Wx"]
    table = _IdTable(embed, Wx)
    # new ids, known ones, and every id of the vocabulary
    for ids in ([5, 3, 5, 7], [3, 3], list(range(12))[::-1], [9]):
        ids = np.array(ids)
        assert np.array_equal(table.gather(ids), _rows_matmul(embed[ids], Wx))
    assert table.size == 12 and len(table.rows) == 12  # one row per id, no more


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_fresh_init_loss_near_uniform():
    config = ModelConfig(8, 8, 1, 1, False, 0.2, 12, 10)
    params = init_params(config, seed=1)
    raw = [(0, (4, 5, 6, 7), (5, 6)), (1, (8, 9, 10), (7, 8, 9)), (2, (11, 4), (4,))]
    batch = make_batch(
        [EncodedPair(i, s, (1,) + t, t + (2,), FP, FP) for i, s, t in raw]
    )
    loss = forward_teacher_forced(params, config, batch).mean_loss
    assert abs(loss - math.log2(10)) / math.log2(10) < 0.15


def pad_cols(arr, n):
    filler = np.full((arr.shape[0], n), PAD_ID, dtype=arr.dtype)
    return np.concatenate([arr, filler], axis=1)


def test_extra_pad_columns_do_not_change_losses():
    for config in (BASE_LAYOUT, SMALL_LAYOUT):
        params = check_weights(config)
        b1 = make_batch(mixed_pairs())
        b2 = Batch(
            pad_cols(b1.src, 3), b1.src_lengths,
            pad_cols(b1.tgt_in, 2), pad_cols(b1.tgt_out, 2),
            b1.tgt_lengths,
        )
        r1 = forward_teacher_forced(params, config, b1)
        r2 = forward_teacher_forced(params, config, b2)
        assert np.array_equal(r1.pair_losses, r2.pair_losses)


def test_pair_loss_independent_of_batch_companions():
    # BLAS may pick different kernels for different batch sizes, so allow
    # last-ulp drift; a masking bug would be off by far more than this.
    for config in (BASE_LAYOUT, SMALL_LAYOUT):
        params = check_weights(config)
        pairs = mixed_pairs()
        batched = forward_teacher_forced(params, config, make_batch(pairs))
        for i, pair in enumerate(pairs):
            solo = forward_teacher_forced(params, config, make_batch([pair]))
            assert abs(solo.pair_losses[0] - batched.pair_losses[i]) < 1e-12


def test_forward_deterministic_and_loss_positive():
    params = init_params(BASE_LAYOUT, seed=2)
    batch = make_batch(mixed_pairs())
    a = forward_teacher_forced(params, BASE_LAYOUT, batch, dropout_on=True, seed=9)
    b = forward_teacher_forced(params, BASE_LAYOUT, batch, dropout_on=True, seed=9)
    assert a.mean_loss == b.mean_loss
    assert np.array_equal(a.pair_losses, b.pair_losses)
    assert np.array_equal(a.log_probs, b.log_probs)
    assert a.mean_loss > 0
    c = forward_teacher_forced(params, BASE_LAYOUT, batch, dropout_on=True, seed=10)
    assert c.mean_loss != a.mean_loss  # different masks


def test_mean_loss_is_token_weighted_mean_of_pair_losses():
    params = init_params(SMALL_LAYOUT, seed=4)
    batch = make_batch(mixed_pairs())
    r = forward_teacher_forced(params, SMALL_LAYOUT, batch)
    lengths = batch.tgt_lengths.astype(float)
    expected = float((r.pair_losses * lengths).sum() / lengths.sum())
    assert math.isclose(r.mean_loss, expected, rel_tol=1e-12)


def test_out_of_range_ids_rejected():
    params = init_params(SMALL_LAYOUT, seed=4)
    bad = EncodedPair(0, (4, 99), (1, 5), (5, 2), FP, FP)
    with pytest.raises(EncodingError):
        forward_teacher_forced(params, SMALL_LAYOUT, make_batch([bad]))


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_attention_single_position_gets_weight_one():
    params = check_weights(BASE_LAYOUT)
    q = np.zeros((1, 8))
    K = np.random.default_rng(0).standard_normal((1, 1, 8))
    alpha = attention_weights(params, BASE_LAYOUT, q, K, np.array([1]))
    assert alpha.shape == (1, 1)
    assert alpha[0, 0] == 1.0


def test_attention_rows_normalized_and_pad_exactly_zero():
    params = check_weights(BASE_LAYOUT)
    rng = np.random.default_rng(1)
    q = rng.standard_normal((4, 8))
    K = rng.standard_normal((4, 6, 8))
    lengths = np.array([1, 3, 6, 4])
    alpha = attention_weights(params, BASE_LAYOUT, q, K, lengths)
    for row, n in zip(alpha, lengths):
        assert np.all(row[n:] == 0.0)
        assert abs(row[:n].sum() - 1.0) < 1e-6


def test_attention_matches_hand_computed_scalars():
    config = ModelConfig(2, 2, 1, 1, True, 0.0, 8, 8)
    params = {n: np.zeros(sh) for n, sh in parameter_shapes(config)}
    params["attn_Wq"] = np.array([[0.3, -0.1], [0.2, 0.5]])
    params["attn_Wk"] = np.array([[-0.4, 0.6], [0.1, 0.2]])
    params["attn_v"] = np.array([0.7, -0.3])
    q = np.array([[0.25, -0.5]])
    K = np.array([[[0.1, 0.4], [-0.5, 0.2]]])
    alpha = attention_weights(params, config, q, K, np.array([2]))
    # independent scalar computation of v . tanh(q Wq + k Wk), then softmax
    qs = [
        0.25 * 0.3 + (-0.5) * 0.2,
        0.25 * (-0.1) + (-0.5) * 0.5,
    ]
    scores = []
    for k in ([0.1, 0.4], [-0.5, 0.2]):
        ks = [
            k[0] * (-0.4) + k[1] * 0.1,
            k[0] * 0.6 + k[1] * 0.2,
        ]
        scores.append(
            0.7 * math.tanh(qs[0] + ks[0]) + (-0.3) * math.tanh(qs[1] + ks[1])
        )
    z = [math.exp(s - max(scores)) for s in scores]
    expected = [e / sum(z) for e in z]
    assert np.allclose(alpha[0], expected, rtol=0, atol=1e-15)


def test_attention_requires_capability():
    params = check_weights(SMALL_LAYOUT)
    with pytest.raises(CapabilityError):
        attention_weights(
            params, SMALL_LAYOUT, np.zeros((1, 8)), np.zeros((1, 2, 8)), np.array([2])
        )


# ---------------------------------------------------------------------------
# greedy decoding
# ---------------------------------------------------------------------------

def test_decode_immediate_eos_gives_empty_output():
    config = SMALL_LAYOUT
    params = {n: np.zeros(sh) for n, sh in parameter_shapes(config)}
    params["out_b"][EOS_ID] = 10.0
    assert greedy_decode(params, config, [(4, 5)], max_len=7) == [[]]


def test_decode_caps_at_max_len():
    config = SMALL_LAYOUT
    params = {n: np.zeros(sh) for n, sh in parameter_shapes(config)}
    params["out_b"][7] = 10.0  # never EOS
    out = greedy_decode(params, config, [(4, 5)], max_len=7)
    assert out == [[7] * 7]


def test_decode_deterministic_and_clean(toy_data, tiny_checkpoint):
    pair = toy_data["train_enc"][0]
    params, config = tiny_checkpoint.params, tiny_checkpoint.config
    (a,) = greedy_decode(params, config, [pair.src_ids], 40)
    (b,) = greedy_decode(params, config, [pair.src_ids], 40)
    assert a == b
    assert PAD_ID not in a and BOS_ID not in a and EOS_ID not in a


def test_decode_argmax_ties_take_smallest_id():
    config = SMALL_LAYOUT
    params = {n: np.zeros(sh) for n, sh in parameter_shapes(config)}
    # all logits tied at zero; PAD/BOS are excluded, so EOS (id 2) wins
    assert greedy_decode(params, config, [(4,)], max_len=5) == [[]]


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences():
    batch = make_batch(mixed_pairs())
    layouts = (BASE_LAYOUT, SMALL_LAYOUT, DEEP_DECODER_LAYOUT, DEEP_ENCODER_LAYOUT)
    for config in layouts:
        params = check_weights(config)
        _, grads = loss_and_gradients(params, config, batch)
        coords = sample_coordinates(params, 120, seed=7)
        errors = finite_difference_check(
            params,
            grads,
            lambda p: forward_teacher_forced(p, config, batch).mean_loss,
            coords,
        )
        assert sum(e < 1e-4 for e in errors) >= 0.99 * len(errors)


def test_gradients_match_finite_differences_with_dropout():
    batch = make_batch(mixed_pairs())
    for config in (BASE_LAYOUT, SMALL_LAYOUT):
        params = check_weights(config)
        _, grads = loss_and_gradients(params, config, batch, dropout_on=True, seed=13)
        coords = sample_coordinates(params, 60, seed=8)
        errors = finite_difference_check(
            params,
            grads,
            lambda p: forward_teacher_forced(
                p, config, batch, dropout_on=True, seed=13
            ).mean_loss,
            coords,
        )
        assert sum(e < 1e-4 for e in errors) >= 0.99 * len(errors)


def test_unused_embedding_rows_get_zero_gradient():
    params = check_weights(SMALL_LAYOUT)
    batch = make_batch(mixed_pairs())
    _, grads = loss_and_gradients(params, SMALL_LAYOUT, batch)
    used_src = set(batch.src.ravel().tolist())
    used_tgt = set(batch.tgt_in.ravel().tolist())
    for row in range(SMALL_LAYOUT.src_vocab_size):
        if row not in used_src:
            assert np.all(grads["src_embed"][row] == 0.0)
    for row in range(SMALL_LAYOUT.tgt_vocab_size):
        if row not in used_tgt:
            assert np.all(grads["tgt_embed"][row] == 0.0)


def test_output_bias_gradient_is_masked_mean_softmax_error():
    # hand derivation: d(mean loss)/d out_b = mean over real tokens of
    # (softmax - onehot) / ln 2, because the loss is in bits
    config = SMALL_LAYOUT
    params = check_weights(config)
    batch = make_batch(mixed_pairs())
    result, grads = loss_and_gradients(params, config, batch)
    probs = 2.0 ** result.log_probs
    tlen = batch.tgt_in.shape[1]
    mask = np.arange(tlen)[None, :] < batch.tgt_lengths[:, None]
    expected = np.zeros(config.tgt_vocab_size)
    n_tokens = mask.sum()
    for b in range(batch.size):
        for t in range(tlen):
            if mask[b, t]:
                err = probs[b, t].copy()
                err[batch.tgt_out[b, t]] -= 1.0
                expected += err / (n_tokens * LN2)
    assert np.allclose(grads["out_b"], expected, rtol=1e-9, atol=1e-12)


def test_non_finite_gradients_name_the_tensor():
    from curricula.errors import NumericalError

    params = check_weights(SMALL_LAYOUT)
    params["out_W"][0, 0] = np.nan
    batch = make_batch(mixed_pairs())
    with pytest.raises(NumericalError) as err:
        loss_and_gradients(params, SMALL_LAYOUT, batch)
    assert "tensor" in str(err.value)


def test_backward_deterministic():
    params = init_params(BASE_LAYOUT, seed=6)
    batch = make_batch(mixed_pairs())
    _, g1 = loss_and_gradients(params, BASE_LAYOUT, batch, dropout_on=True, seed=21)
    _, g2 = loss_and_gradients(params, BASE_LAYOUT, batch, dropout_on=True, seed=21)
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


# ---------------------------------------------------------------------------
# batch invariance: a pair's bits do not depend on the batch it rides in
# ---------------------------------------------------------------------------

def invariance_setup(preset, n):
    """Scaled-up random weights, so that greedy outputs vary by source and
    some rows emit EOS early, and n pairs with lengths 2 to 30 on both sides."""
    config = ModelConfig.preset(preset, 24, 24)
    params = {k: 8.0 * v for k, v in init_params(config, seed=5).items()}
    params["out_b"][EOS_ID] = 2.0
    rng = np.random.default_rng(17)
    pairs = []
    for i in range(n):
        src = tuple(int(x) for x in rng.integers(4, 24, size=2 + i % 29))
        tgt = tuple(int(x) for x in rng.integers(4, 24, size=int(rng.integers(2, 31))))
        pairs.append(EncodedPair(i, src, (BOS_ID,) + tgt, tgt + (EOS_ID,), FP, FP))
    return config, params, pairs


def groupings(pairs):
    """The same pairs alone, in batches of 7, in one batch, and reversed."""
    return (
        [[p] for p in pairs],
        [pairs[k : k + 7] for k in range(0, len(pairs), 7)],
        [pairs],
        [pairs[::-1]],
    )


@pytest.mark.parametrize("preset, n", [("tiny", 64), ("small", 64), ("base", 24)])
def test_scores_do_not_depend_on_the_batch(preset, n):
    from curricula.metrics import corpus_cross_entropy

    config, params, pairs = invariance_setup(preset, n)
    seen = []
    for groups in groupings(pairs):
        bits = {}
        for group in groups:
            result = forward_teacher_forced(params, config, make_batch(group))
            for pair, loss in zip(group, result.pair_losses):
                bits[pair.index] = loss
        seen.append([bits[p.index] for p in pairs])
    entropies, _ = corpus_cross_entropy(params, config, pairs)
    seen.append(list(entropies))
    assert all(s == seen[0] for s in seen[1:])  # exact float equality


@pytest.mark.parametrize("preset, n", [("tiny", 64), ("small", 64), ("base", 24)])
def test_greedy_tokens_do_not_depend_on_the_batch(preset, n):
    config, params, pairs = invariance_setup(preset, n)
    seen = []
    for groups in groupings(pairs):
        tokens = {}
        for group in groups:
            out = greedy_decode(params, config, [p.src_ids for p in group], 12)
            tokens.update((p.index, o) for p, o in zip(group, out))
        seen.append([tokens[p.index] for p in pairs])
    assert all(s == seen[0] for s in seen[1:])
    lengths = {len(t) for t in seen[0]}
    assert 12 in lengths and min(lengths) < 12  # some rows stop at EOS
    # a row with a shorter budget than its batch mates gets a prefix
    short = pairs[::3]
    out = greedy_decode(params, config, [p.src_ids for p in short], 5)
    assert out == [seen[0][p.index][:5] for p in short]


@pytest.mark.parametrize("preset, n", [("tiny", 32), ("small", 32), ("base", 12)])
def test_greedy_tokens_are_the_teacher_forced_argmax(preset, n):
    # decoding and scoring feed the first decoder layer in different ways:
    # one step per call against all steps of a batch at once
    config, params, pairs = invariance_setup(preset, n)
    budget = 12
    decoded = greedy_decode(params, config, [p.src_ids for p in pairs], budget)
    assert min(len(t) for t in decoded) < budget  # some rows stop at EOS
    forced = [
        EncodedPair(p.index, p.src_ids, (BOS_ID, *t), (*t, EOS_ID), FP, FP)
        for p, t in zip(pairs, decoded)
    ]
    log_probs = forward_teacher_forced(params, config, make_batch(forced)).log_probs
    allowed = [i for i in range(config.tgt_vocab_size) if i not in (PAD_ID, BOS_ID)]
    for row, tokens in enumerate(decoded):
        # the token at each position, then EOS where the row stopped early
        emitted = tokens + ([EOS_ID] if len(tokens) < budget else [])
        for pos, token in enumerate(emitted):
            best = log_probs[row, pos, allowed].max()
            assert log_probs[row, pos, token] == best, (row, pos)


# ---------------------------------------------------------------------------
# PAD positions: never run, never read
# ---------------------------------------------------------------------------

def ragged_setup(preset):
    """Initial weights and a batch whose rows end at different steps."""
    config, _, pairs = invariance_setup(preset, 6 if preset == "base" else 12)
    return config, init_params(config, seed=5), make_batch(pairs)


def assert_same_training_bits(a, b):
    (ra, ga), (rb, gb) = a, b
    assert ra.mean_loss == rb.mean_loss
    assert np.array_equal(ra.pair_losses, rb.pair_losses)
    assert list(ga) == list(gb)
    for name in ga:
        assert np.array_equal(ga[name], gb[name]), name


@pytest.mark.parametrize("preset", ["tiny", "small", "base"])
def test_pad_embeddings_are_never_read(preset):
    config, params, batch = ragged_setup(preset)
    poisoned = {k: v.copy() for k, v in params.items()}
    poisoned["src_embed"][PAD_ID] = np.nan
    poisoned["tgt_embed"][PAD_ID] = np.nan
    for dropout_on in (False, True):
        assert_same_training_bits(
            loss_and_gradients(params, config, batch, dropout_on, seed=3),
            loss_and_gradients(poisoned, config, batch, dropout_on, seed=3),
        )
    clean = forward_teacher_forced(params, config, batch)
    assert np.array_equal(
        forward_teacher_forced(poisoned, config, batch).pair_losses, clean.pair_losses
    )


@pytest.mark.parametrize("preset", ["tiny", "small", "base"])
def test_trailing_pad_columns_change_no_training_bit(preset):
    config, params, batch = ragged_setup(preset)
    wider = Batch(
        pad_cols(batch.src, 3), batch.src_lengths,
        pad_cols(batch.tgt_in, 3), pad_cols(batch.tgt_out, 3),
        batch.tgt_lengths,
    )
    for dropout_on in (False, True):
        assert_same_training_bits(
            loss_and_gradients(params, config, batch, dropout_on, seed=3),
            loss_and_gradients(params, config, wider, dropout_on, seed=3),
        )
