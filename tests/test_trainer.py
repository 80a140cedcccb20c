import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import overflowing_checkpoint
from curricula.checkpoint import (
    FORMAT_VERSION,
    ModelCheckpoint,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from curricula.errors import (
    CheckpointCorruptError,
    CheckpointFormatError,
    ConfigError,
    FingerprintError,
    StructuralError,
)
from curricula.corpus import build_vocab, encode_corpus
from curricula.harness import generate_toy_corpus
from curricula.metrics import score_corpus
from curricula.ordering import Strategy, make_ordering
from curricula.runtime import environment
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


def traced_peak(run):
    """Peak bytes that `tracemalloc` sees allocated while `run()` runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def parameter_bytes(params):
    return sum(p.nbytes for p in params.values())


def test_adam_step_peak_memory_when_clipping():
    # a clipped gradient is scaled one tensor at a time: the step holds the
    # new parameters and two temporaries of one tensor (1.31x); scaling
    # every gradient up front held a second full copy (2.15x)
    params = init_params(ModelConfig.preset("small", 30, 30), seed=0)
    rng = np.random.default_rng(0)
    grads = {k: rng.normal(scale=10.0, size=p.shape) for k, p in params.items()}
    config = TrainConfig(learning_rate=1e-3)
    assert global_grad_norm(grads) > config.clip_norm
    state = AdamState.fresh(params)
    peak = traced_peak(lambda: adam_step(params, grads, state, config))
    assert peak < 1.5 * parameter_bytes(params), peak / parameter_bytes(params)


_FIT_BITS = """
import hashlib
from curricula import CorpusSpec, Strategy, TrainConfig
from curricula.checkpoint import checkpoint_bytes
from curricula.harness import init_trainer, make_plan, prepare_data, train_model
data = prepare_data(
    CorpusSpec(toy_task="reverse", size=250, vocab=20, min_len=5, max_len=30), seed=3
)
assert len(data.splits["train"]) == 200
train = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=2, patience=2,
                    clip_norm=1.0)
plan = make_plan(Strategy("shuffle_once"), None, data, 2, seed=3)
for preset in ("small", "tiny"):
    ckpt, _, _ = train_model(init_trainer(data, preset, 3), plan, data, train, seed=3)
    print(preset, hashlib.sha256(checkpoint_bytes(ckpt)).hexdigest())
"""


def _stdout_under_blas_threads(script) -> list[str]:
    """What `script` prints in a fresh interpreter with the BLAS on 1 and
    on 2 threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        out.append(run.stdout)
    return out


def test_gradient_norm_bits_do_not_depend_on_blas_threads():
    # a BLAS dot product over 262,144 elements splits its sum by thread count
    one, two = _stdout_under_blas_threads(_NORM_BITS)
    assert one == two


@pytest.mark.skipif(environment().cpus < 2, reason="the BLAS runs 1 thread on 1 CPU")
def test_fit_bits_do_not_depend_on_blas_threads():
    # 16 pairs of up to 31 target positions reduce over up to 496 rows,
    # past the 384 that the BLAS sums alike under 1 and 2 threads
    one, two = _stdout_under_blas_threads(_FIT_BITS)
    assert one == two


def test_adam_shape_mismatch_rejected():
    params = scalarish_params()
    with pytest.raises(StructuralError):
        adam_step(params, {"w": np.zeros(2)}, AdamState.fresh(params), TrainConfig())
    with pytest.raises(StructuralError):
        adam_step(params, {"v": np.zeros(1)}, AdamState.fresh(params), TrainConfig())


def test_train_config_validation():
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=bad)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    for bad in (0.0, math.nan):
        with pytest.raises(ConfigError):
            TrainConfig(clip_norm=bad)
    TrainConfig(clip_norm=math.inf)  # a norm that never clips


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

    stepped, _, train_loss = train_epoch(
        params, AdamState.fresh(params), [np.array(indices)], by_index,
        config, train_config, epoch=1,
    )
    for k in direct:
        assert np.array_equal(direct[k], stepped[k])
    assert train_loss > 0


def test_loss_decreases_on_toy_task(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    train_config = TrainConfig(
        learning_rate=1e-2, batch_size=8, max_epochs=5, patience=5, seed=1
    )
    plan = make_ordering(
        Strategy("shuffle_every_epoch"), None, list(by_index), 5, seed=3
    )
    _, history, _ = fit(
        params, config, plan, toy_data["train_enc"], toy_data["val_enc"], train_config
    )
    assert history[4]["train_loss"] < history[0]["train_loss"]


def test_different_plans_diverge_but_each_reproduces(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    train_config = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=2,
                               patience=5, seed=1)
    plan_a = make_ordering(Strategy("shuffle_once"), None, list(by_index), 2, seed=1)
    plan_b = make_ordering(
        Strategy("length", side="source", direction="asc"),
        score_corpus(None, toy_data["train_enc"], "length:source"),
        list(by_index), 2,
    )
    ckpt_a1, _, _ = fit(params, config, plan_a, toy_data["train_enc"],
                        toy_data["val_enc"], train_config)
    ckpt_a2, _, _ = fit(params, config, plan_a, toy_data["train_enc"],
                        toy_data["val_enc"], train_config)
    ckpt_b, _, _ = fit(params, config, plan_b, toy_data["train_enc"],
                       toy_data["val_enc"], train_config)
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
    ckpt, history, best_epoch = fit(
        params, config, plan, toy_data["train_enc"], toy_data["val_enc"], train_config
    )
    assert history is ckpt.history
    assert [h["epoch"] for h in history] == [1, 2, 3, 4, 5]  # stopped after epoch 5
    assert best_epoch == 2
    assert [h["val_perplexity"] for h in history] == [10.0, 9.0, 9.5, 9.4, 9.6]


def test_fit_best_checkpoint_not_worse_than_any_epoch(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    train_config = TrainConfig(
        learning_rate=1e-2, batch_size=8, max_epochs=4, patience=4, seed=9
    )
    plan = make_ordering(Strategy("shuffle_every_epoch"), None, list(by_index), 4, seed=2)
    ckpt, history, best_epoch = fit(
        params, config, plan, toy_data["train_enc"], toy_data["val_enc"], train_config
    )
    best_ppl = min(h["val_perplexity"] for h in history)
    assert history[best_epoch - 1]["val_perplexity"] == best_ppl
    assert validation_perplexity(ckpt.params, config, toy_data["val_enc"]) == best_ppl


def test_fit_max_epochs_one(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    train_config = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=1,
                               patience=1, seed=0)
    plan = make_ordering(Strategy("shuffle_once"), None, list(by_index), 1, seed=0)
    _, history, _ = fit(
        params, config, plan, toy_data["train_enc"], toy_data["val_enc"], train_config
    )
    assert len(history) == 1


def test_fit_requires_validation_pairs(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    plan = make_ordering(Strategy("shuffle_once"), None, list(by_index), 1, seed=0)
    with pytest.raises(ConfigError):
        fit(params, config, plan, toy_data["train_enc"], [], TrainConfig(max_epochs=1))


@pytest.mark.parametrize("odd_split", ["train", "val"])
def test_fit_refuses_pairs_of_other_vocabularies_before_training(
    toy_data, monkeypatch, odd_split
):
    config, params, by_index = small_training_setup(toy_data)
    other_src = build_vocab(toy_data["test"], "source", 2)
    assert other_src.fingerprint() != toy_data["src_vocab"].fingerprint()
    splits = {"train": toy_data["train_enc"], "val": toy_data["val_enc"]}
    splits[odd_split] = encode_corpus(
        toy_data[odd_split], other_src, toy_data["tgt_vocab"]
    )

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr("curricula.trainer.loss_and_gradients", no_step)
    plan = make_ordering(Strategy("shuffle_once"), None, list(by_index), 1, seed=0)
    with pytest.raises(FingerprintError, match="different vocabularies"):
        fit(params, config, plan, splits["train"], splits["val"], TrainConfig(max_epochs=1))


def test_fit_checkpoint_carries_the_vocabularies_of_its_pairs(toy_data):
    config, params, by_index = small_training_setup(toy_data)
    plan = make_ordering(Strategy("shuffle_once"), None, list(by_index), 1, seed=0)
    ckpt, _, _ = fit(
        params, config, plan, toy_data["train_enc"], toy_data["val_enc"],
        TrainConfig(learning_rate=1e-3, max_epochs=1, patience=1),
    )
    assert ckpt.src_vocab_fingerprint == toy_data["src_vocab"].fingerprint()
    assert ckpt.tgt_vocab_fingerprint == toy_data["tgt_vocab"].fingerprint()


@pytest.mark.parametrize("improves", [True, False], ids=["improves", "never-improves"])
def test_fit_neither_writes_nor_returns_the_initial_parameters(
    toy_data, monkeypatch, improves
):
    config, params, by_index = small_training_setup(toy_data)
    before = {k: v.tobytes() for k, v in params.items()}
    if not improves:
        monkeypatch.setattr(
            "curricula.trainer.validation_perplexity", lambda *a, **k: math.inf
        )
    train_config = TrainConfig(
        learning_rate=1e-2, batch_size=8, max_epochs=2, patience=2, seed=1
    )
    plan = make_ordering(Strategy("shuffle_once"), None, list(by_index), 2, seed=1)
    ckpt, history, best_epoch = fit(
        params, config, plan, toy_data["train_enc"], toy_data["val_enc"], train_config
    )
    assert list(ckpt.params) == list(params)
    for k, p in params.items():
        assert p.tobytes() == before[k], k
        assert not np.shares_memory(ckpt.params[k], p), k
    if improves:
        assert best_epoch > 0
    else:  # an infinite perplexity is no improvement: the initial values come back
        assert best_epoch == 0
        assert [h["val_perplexity"] for h in history] == [math.inf, math.inf]
        assert all(ckpt.params[k].tobytes() == before[k] for k in params)


def test_validation_perplexity_past_the_float_range_is_infinite(
    toy_data, tiny_checkpoint
):
    model = overflowing_checkpoint(tiny_checkpoint)
    ppl = validation_perplexity(model.params, model.config, toy_data["val_enc"])
    assert ppl == math.inf


@pytest.mark.parametrize(
    "perplexities", [None, (3.0, 4.0, 5.0)], ids=["2-epochs", "3-epochs-worsening"]
)
def test_fit_peak_memory(monkeypatch, perplexities):
    # a 2-epoch fit holds the parameters, Adam's two moments, the best
    # epoch's parameters, one step's gradients and the new parameters of an
    # Adam step: 6.9x the parameter bytes here. Copying the parameters for
    # the running and the best state and keeping a step's gradients through
    # the next batch took 8.9x. An epoch that follows one without
    # improvement holds no more (6.9x): keeping its input alive took 7.9x.
    epochs = 2
    if perplexities is not None:
        epochs = len(perplexities)
        values = iter(perplexities)
        monkeypatch.setattr(
            "curricula.trainer.validation_perplexity", lambda *a, **k: next(values)
        )
    train, val, _ = generate_toy_corpus("reverse", 100, 20, (5, 10), seed=1)
    src_vocab = build_vocab(train, "source", 1)
    tgt_vocab = build_vocab(train, "target", 1)
    train_pairs = encode_corpus(train, src_vocab, tgt_vocab)[:80]
    val_pairs = encode_corpus(val, src_vocab, tgt_vocab)[:8]
    config = ModelConfig.preset("small", len(src_vocab), len(tgt_vocab))
    params = init_params(config, seed=1)
    plan = make_ordering(
        Strategy("shuffle_once"), None, [p.index for p in train_pairs], epochs, seed=1
    )
    train_config = TrainConfig(
        learning_rate=1e-3, batch_size=16, max_epochs=epochs, patience=epochs, seed=1
    )
    peak = traced_peak(lambda: fit(params, config, plan, train_pairs, val_pairs, train_config))
    assert peak < 7.5 * parameter_bytes(params), peak / parameter_bytes(params)


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
    from checkpoint_files import checkpoint_file, split_sections

    (tmp_path / "v999.ckpt").write_bytes(checkpoint_file(split_sections(data), version=999))
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(tmp_path / "v999.ckpt")
    assert "999" in str(err.value) and str(FORMAT_VERSION) in str(err.value)


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
