import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curricula.checkpoint import (
    ModelCheckpoint,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from curricula.errors import (
    CheckpointCorruptError,
    CheckpointFormatError,
    ConfigError,
    StructuralError,
)
from curricula.ordering import Strategy, make_ordering
from curricula.seq2seq import (
    ModelConfig,
    forward_teacher_forced,
    init_params,
    make_batch,
)
from curricula.trainer import (
    BETA1,
    BETA2,
    EPSILON,
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    fit,
    global_grad_norm,
    train_epoch,
    validation_perplexity,
)

CONFIG = ModelConfig(8, 8, 1, 1, False, 0.0, 12, 12)


def scalarish_params(value=0.5):
    return {"w": np.array([value])}


# ---------------------------------------------------------------------------
# adam_step
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_parameters_bit_identical():
    params = scalarish_params()
    state = AdamState.fresh(params)
    new_params, new_state = adam_step(
        params, {"w": np.zeros(1)}, state, TrainConfig()
    )
    assert new_params["w"].tobytes() == params["w"].tobytes()
    assert new_state.t == 1


def test_adam_first_step_matches_hand_derivation():
    # g=1, fresh state: m_hat = v_hat = 1, so the step is -lr / (1 + eps)
    config = TrainConfig(learning_rate=1e-5)
    params = scalarish_params(0.5)
    new_params, _ = adam_step(params, {"w": np.ones(1)}, AdamState.fresh(params), config)
    expected = 0.5 - 1e-5 * 1.0 / (math.sqrt(1.0) + 1e-8)
    assert abs(new_params["w"][0] - expected) <= 1e-12


def test_adam_deterministic():
    params = init_params(CONFIG, seed=0)
    grads = {k: np.full_like(v, 0.01) for k, v in params.items()}
    state = AdamState.fresh(params)
    a_params, a_state = adam_step(params, grads, state, TrainConfig())
    b_params, b_state = adam_step(params, grads, AdamState.fresh(params), TrainConfig())
    for k in a_params:
        assert np.array_equal(a_params[k], b_params[k])
        assert np.array_equal(a_state.m[k], b_state.m[k])


def test_adam_clips_large_gradients():
    config = TrainConfig(clip_norm=1.0)
    params = scalarish_params(0.0)
    big = {"w": np.array([100.0])}
    clipped_step, _ = adam_step(params, big, AdamState.fresh(params), config)
    unit_step, _ = adam_step(
        params, {"w": np.array([1.0])}, AdamState.fresh(params), config
    )
    # after clipping to norm 1, the two updates coincide
    assert clipped_step["w"][0] == unit_step["w"][0]


def reference_adam_step(params, grads, state, config):
    """Adam written out of place, one temporary per operation."""
    grads = clip_gradients(grads, config.clip_norm)
    t = state.t + 1
    b1, b2 = BETA1, BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    new_params, new_m, new_v = {}, {}, {}
    for k in params:
        g = grads[k]
        m = b1 * state.m[k] + (1.0 - b1) * g
        v = b2 * state.v[k] + (1.0 - b2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        new_params[k] = params[k] - config.learning_rate * m_hat / (
            np.sqrt(v_hat) + EPSILON
        )
        new_m[k] = m
        new_v[k] = v
    return new_params, AdamState(m=new_m, v=new_v, t=t)


def test_adam_matches_the_out_of_place_reference_bit_for_bit():
    config = TrainConfig(learning_rate=1e-3)
    params = init_params(ModelConfig.preset("small", 30, 30), seed=0)
    state, ref_state = AdamState.fresh(params), AdamState.fresh(params)
    rng = np.random.default_rng(0)
    clipped = []
    for scale in (1e-3, 10.0, 2e-3):  # the 10.0 step is clipped
        grads = {k: rng.normal(scale=scale, size=p.shape) for k, p in params.items()}
        clipped.append(global_grad_norm(grads) > config.clip_norm)
        before = {k: (params[k].tobytes(), grads[k].tobytes()) for k in params}
        m_arrays, v_arrays = dict(state.m), dict(state.v)
        new_params, state = adam_step(params, grads, state, config)
        ref_params, ref_state = reference_adam_step(params, grads, ref_state, config)
        assert state.t == ref_state.t
        for k in params:
            assert state.m[k] is m_arrays[k] and state.v[k] is v_arrays[k], k
            assert new_params[k].tobytes() == ref_params[k].tobytes(), k
            assert state.m[k].tobytes() == ref_state.m[k].tobytes(), k
            assert state.v[k].tobytes() == ref_state.v[k].tobytes(), k
            assert (params[k].tobytes(), grads[k].tobytes()) == before[k], k
        params = new_params
    assert clipped == [False, True, False]


_NORM_BITS = """
import numpy as np
from curricula.trainer import global_grad_norm
rng = np.random.default_rng(7)
grads = {"a": rng.standard_normal((512, 256)), "b": rng.standard_normal(131072)}
print(global_grad_norm(grads).hex())
"""


def test_gradient_norm_bits_do_not_depend_on_blas_threads():
    # a BLAS dot product over 262,144 elements splits its sum by thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    bits = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", _NORM_BITS], env=env,
                             capture_output=True, text=True, check=True)
        bits.append(run.stdout.strip())
    assert bits[0] == bits[1]


def test_adam_shape_mismatch_rejected():
    params = scalarish_params()
    with pytest.raises(StructuralError):
        adam_step(params, {"w": np.zeros(2)}, AdamState.fresh(params), TrainConfig())
    with pytest.raises(StructuralError):
        adam_step(params, {"v": np.zeros(1)}, AdamState.fresh(params), TrainConfig())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(clip_norm=0.0)


# ---------------------------------------------------------------------------
# train_epoch / fit
# ---------------------------------------------------------------------------

def small_training_setup(toy_data):
    config = ModelConfig(
        12, 12, 1, 1, False, 0.1,
        len(toy_data["src_vocab"]), len(toy_data["tgt_vocab"]),
    )
    params = init_params(config, seed=5)
    pairs_by_index = {p.index: p for p in toy_data["train_enc"]}
    return config, params, pairs_by_index


def test_single_batch_epoch_equals_one_adam_step(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    indices = list(by_index)[:4]
    batch = make_batch([by_index[i] for i in indices])
    train_config = TrainConfig(learning_rate=1e-3, batch_size=4, seed=7)

    from curricula.rng import derive_seed
    from curricula.seq2seq import loss_and_gradients

    _, grads = loss_and_gradients(
        params, config, batch, dropout_on=True, seed=derive_seed("train", 7, 1, 0)
    )
    direct, _ = adam_step(params, grads, AdamState.fresh(params), train_config)

    stepped, _, stats = train_epoch(
        params, AdamState.fresh(params), [np.array(indices)], by_index,
        config, train_config, epoch=1,
    )
    for k in direct:
        assert np.array_equal(direct[k], stepped[k])
    assert stats.epoch == 1 and stats.train_loss > 0


def test_loss_decreases_on_toy_task(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    train_config = TrainConfig(
        learning_rate=1e-2, batch_size=8, max_epochs=5, patience=5, seed=1
    )
    plan = make_ordering(
        Strategy("shuffle_every_epoch"), None, list(by_index), 5, seed=3
    )
    _, stats, _ = fit(
        params, config, plan, toy_data["train_enc"], toy_data["val_enc"],
        train_config,
        toy_data["src_vocab"].fingerprint(), toy_data["tgt_vocab"].fingerprint(),
    )
    assert stats[4].train_loss < stats[0].train_loss


def test_different_plans_diverge_but_each_reproduces(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    train_config = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=2,
                               patience=5, seed=1)
    fps = (
        toy_data["src_vocab"].fingerprint(),
        toy_data["tgt_vocab"].fingerprint(),
    )
    plan_a = make_ordering(Strategy("shuffle_once"), None, list(by_index), 2, seed=1)
    plan_b = make_ordering(
        Strategy("length", side="source", direction="asc"),
        __import__("curricula.metrics", fromlist=["length_scores"]).length_scores(
            toy_data["train"], "source"
        ),
        list(by_index), 2,
    )
    ckpt_a1, _, _ = fit(params, config, plan_a, toy_data["train_enc"],
                        toy_data["val_enc"], train_config, *fps)
    ckpt_a2, _, _ = fit(params, config, plan_a, toy_data["train_enc"],
                        toy_data["val_enc"], train_config, *fps)
    ckpt_b, _, _ = fit(params, config, plan_b, toy_data["train_enc"],
                       toy_data["val_enc"], train_config, *fps)
    assert ckpt_a1.fingerprint == ckpt_a2.fingerprint
    assert ckpt_a1.fingerprint != ckpt_b.fingerprint


def test_fit_patience_arithmetic(toy_data, monkeypatch):
    config, params, by_index = small_training_setup(toy_data)
    sequence = iter([10.0, 9.0, 9.5, 9.4, 9.6, 8.0])
    monkeypatch.setattr(
        "curricula.trainer.validation_perplexity",
        lambda *a, **k: next(sequence),
    )
    train_config = TrainConfig(
        learning_rate=1e-3, batch_size=16, max_epochs=10, patience=3, seed=2
    )
    plan = make_ordering(Strategy("shuffle_once"), None, list(by_index), 10, seed=1)
    ckpt, stats, best_epoch = fit(
        params, config, plan, toy_data["train_enc"], toy_data["val_enc"],
        train_config,
        toy_data["src_vocab"].fingerprint(), toy_data["tgt_vocab"].fingerprint(),
    )
    assert len(stats) == 5  # stopped after epoch 5
    assert best_epoch == 2
    assert [s.val_perplexity for s in stats] == [10.0, 9.0, 9.5, 9.4, 9.6]


def test_fit_best_checkpoint_not_worse_than_any_epoch(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    train_config = TrainConfig(
        learning_rate=1e-2, batch_size=8, max_epochs=4, patience=4, seed=9
    )
    plan = make_ordering(Strategy("shuffle_every_epoch"), None, list(by_index), 4, seed=2)
    ckpt, stats, best_epoch = fit(
        params, config, plan, toy_data["train_enc"], toy_data["val_enc"],
        train_config,
        toy_data["src_vocab"].fingerprint(), toy_data["tgt_vocab"].fingerprint(),
    )
    best_ppl = min(s.val_perplexity for s in stats)
    assert stats[best_epoch - 1].val_perplexity == best_ppl
    assert validation_perplexity(ckpt.params, config, toy_data["val_enc"]) == best_ppl


def test_fit_max_epochs_one(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    train_config = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=1,
                               patience=1, seed=0)
    plan = make_ordering(Strategy("shuffle_once"), None, list(by_index), 1, seed=0)
    _, stats, _ = fit(
        params, config, plan, toy_data["train_enc"], toy_data["val_enc"],
        train_config,
        toy_data["src_vocab"].fingerprint(), toy_data["tgt_vocab"].fingerprint(),
    )
    assert len(stats) == 1


def test_fit_requires_validation_pairs(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    plan = make_ordering(Strategy("shuffle_once"), None, list(by_index), 1, seed=0)
    with pytest.raises(ConfigError):
        fit(
            params, config, plan, toy_data["train_enc"], [],
            TrainConfig(max_epochs=1), "a", "b",
        )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def make_ckpt(seed=0, history=()):
    params = init_params(CONFIG, seed=seed)
    return ModelCheckpoint(
        config=CONFIG, params=params,
        src_vocab_fingerprint="aaa", tgt_vocab_fingerprint="bbb",
        history=history,
    )


def test_checkpoint_round_trip_preserves_forward_bits(tmp_path):
    from curricula.corpus import EncodedPair

    ckpt = make_ckpt(seed=3, history=({"epoch": 1, "train_loss": 2.5, "val_perplexity": 6.0},))
    save_checkpoint(ckpt, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert loaded.fingerprint == ckpt.fingerprint
    assert loaded.history == ckpt.history
    assert loaded.config == ckpt.config
    rng = np.random.default_rng(0)
    for _ in range(10):
        n_src = int(rng.integers(1, 6))
        n_tgt = int(rng.integers(1, 6))
        pair = EncodedPair(
            0,
            tuple(int(x) for x in rng.integers(4, 12, n_src)),
            (1,) + tuple(int(x) for x in rng.integers(4, 12, n_tgt)),
            tuple(int(x) for x in rng.integers(4, 12, n_tgt)) + (2,),
            "aaa", "bbb",
        )
        batch = make_batch([pair])
        a = forward_teacher_forced(ckpt.params, ckpt.config, batch)
        b = forward_teacher_forced(loaded.params, loaded.config, batch)
        assert a.mean_loss == b.mean_loss
        assert np.array_equal(a.log_probs, b.log_probs)


def test_checkpoint_truncated_file_rejected(tmp_path):
    ckpt = make_ckpt()
    save_checkpoint(ckpt, tmp_path / "m.ckpt")
    data = (tmp_path / "m.ckpt").read_bytes()
    for cut in (10, len(data) // 2, len(data) - 1):
        (tmp_path / "cut.ckpt").write_bytes(data[:cut])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(tmp_path / "cut.ckpt")


def test_checkpoint_bad_magic_and_version(tmp_path):
    ckpt = make_ckpt()
    data = checkpoint_bytes(ckpt)
    (tmp_path / "bad.ckpt").write_bytes(b"NOPE" + data[4:])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(tmp_path / "bad.ckpt")
    import hashlib
    import struct

    payload = data[:-32]
    tampered = payload[:4] + struct.pack("<H", 999) + payload[6:]
    (tmp_path / "v999.ckpt").write_bytes(tampered + hashlib.sha256(tampered).digest())
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(tmp_path / "v999.ckpt")
    assert "999" in str(err.value) and "1" in str(err.value)


def test_checkpoint_bitflip_detected(tmp_path):
    ckpt = make_ckpt()
    data = bytearray(checkpoint_bytes(ckpt))
    data[len(data) // 2] ^= 0xFF
    (tmp_path / "flip.ckpt").write_bytes(bytes(data))
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(tmp_path / "flip.ckpt")


def test_checkpoint_save_and_load_do_not_copy_the_parameters(tmp_path):
    import tracemalloc

    # about 10 MB of parameters, almost all of it in the two embeddings
    config = ModelConfig(64, 8, 1, 1, True, 0.0, 9000, 9000)
    ckpt = ModelCheckpoint(
        config=config, params=init_params(config, seed=0),
        src_vocab_fingerprint="aaa", tgt_vocab_fingerprint="bbb",
    )
    size = sum(arr.nbytes for arr in ckpt.params.values())
    assert size > 9_000_000
    tracemalloc.start()
    try:
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert save_peak < 0.5 * size  # no joined payload, no tensor copies
    assert load_peak < 1.25 * size  # the returned tensors only
    assert loaded.fingerprint == ckpt.fingerprint


def test_fingerprint_tracks_parameters_not_history():
    a = make_ckpt(seed=0)
    b = make_ckpt(seed=0, history=({"epoch": 1, "train_loss": 1.0, "val_perplexity": 2.0},))
    c = make_ckpt(seed=1)
    assert a.fingerprint == b.fingerprint  # history is not identity
    assert a.fingerprint != c.fingerprint  # parameters are
    d = make_ckpt(seed=0)
    d.params["out_b"][0] = np.nextafter(d.params["out_b"][0], 1.0)  # one ulp
    d_ckpt = ModelCheckpoint(
        config=CONFIG, params=d.params,
        src_vocab_fingerprint="aaa", tgt_vocab_fingerprint="bbb",
    )
    assert d_ckpt.fingerprint != a.fingerprint


def test_checkpoint_save_is_atomic(tmp_path):
    ckpt = make_ckpt()
    target = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, target)
    first = target.read_bytes()
    save_checkpoint(make_ckpt(seed=9), target)
    assert target.read_bytes() != first
    assert list(tmp_path.iterdir()) == [target]  # no temp litter
