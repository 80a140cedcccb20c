"""The bits of three small fixed runs, pinned per environment.

`golden.json` maps an environment key (numpy version, BLAS name and
version, BLAS core) to the sha256 of each run's output. A change that moves
the bits of a run updates that run's digest, so the move shows in the diff.
An environment with no entry is skipped, never taken as a match: the BLAS
kernels decide the rounding, so another machine's bits prove nothing here.

The runs go in one subprocess with the BLAS pinned to 1 thread, and again
in one with 2 threads, whose digests must agree: no bit depends on the BLAS
thread count. To write the entry of the current environment:

    PYTHONPATH=src python tests/test_golden.py --update
"""

import ctypes.util
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from curricula.runtime import environment, openblas_info

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def environment_key() -> str:
    """numpy version, BLAS name and version, and the BLAS core in use."""
    return environment().key()


def _files_digest(out: Path) -> str:
    """sha256 over every file below `out` but run.log, in path order, with
    `out` itself cut from the bytes."""
    prefix = os.fsencode(out) + b"/"
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name != "run.log":
            h.update(str(path.relative_to(out)).encode("utf-8") + b"\0")
            h.update(path.read_bytes().replace(prefix, b""))
    return h.hexdigest()


def tiny_experiment(out: Path) -> str:
    """All ten strategies, ppl and bleu scored by a tiny-preset scorer."""
    from curricula import ExperimentSpec, ToyCorpus, TrainConfig, run_experiment
    from curricula.ordering import table_one_strategies

    run_experiment(ExperimentSpec(
        corpus=ToyCorpus(
            toy_task="reverse", size=40, vocab=8, min_len=3, max_len=6, seed=1
        ),
        strategies=table_one_strategies(),
        scorer_presets=("tiny",),
        trainer_preset="tiny",
        train=TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=1, patience=1),
        seed=7,
        output_dir=out,
    ))
    return _files_digest(out)


def base_scores() -> str:
    """Log-probabilities, cross-entropies and greedy tokens of an untrained
    base-preset model. The 9-digit scores an experiment persists seldom see
    a move in the last bits; the log-probabilities show every one."""
    from curricula import (
        ModelConfig, build_vocab, encode_corpus, generate_toy_corpus, init_params,
    )
    from curricula.metrics import corpus_cross_entropy, decode_pairs
    from curricula.seq2seq import forward_teacher_forced, make_batch

    train, _, _ = generate_toy_corpus("reverse", 30, 12, (3, 8), seed=2)
    src_vocab = build_vocab(train, "source", 1)
    tgt_vocab = build_vocab(train, "target", 1)
    pairs = encode_corpus(train, src_vocab, tgt_vocab)[:8]
    config = ModelConfig.preset("base", len(src_vocab), len(tgt_vocab))
    params = init_params(config, seed=4)
    log_probs = forward_teacher_forced(params, config, make_batch(pairs)).log_probs
    entropies, counts = corpus_cross_entropy(params, config, pairs)
    tokens = decode_pairs(params, config, pairs)
    h = hashlib.sha256(log_probs.tobytes() + entropies.tobytes() + counts.tobytes())
    h.update(json.dumps(tokens).encode("utf-8"))
    return h.hexdigest()


def small_fit() -> str:
    """Checkpoint bytes of a short small-preset fit."""
    from curricula import Strategy, ToyCorpus, TrainConfig
    from curricula.checkpoint import checkpoint_bytes
    from curricula.harness import init_trainer, make_plan, prepare_data, train_model

    data = prepare_data(
        ToyCorpus(toy_task="reverse", size=48, vocab=10, min_len=3, max_len=8), seed=5
    )
    train = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=2, patience=2)
    plan = make_plan(Strategy("shuffle_once"), None, data, 2, seed=5)
    ckpt, _, _ = train_model(init_trainer(data, "small", 5), plan, data, train, seed=5)
    return hashlib.sha256(checkpoint_bytes(ckpt)).hexdigest()


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        experiment = tiny_experiment(Path(tmp) / "run")
    return {
        "tiny_experiment": experiment,
        "base_scores": base_scores(),
        "small_fit": small_fit(),
    }


def pinned_digests(threads: str = "1") -> dict[str, str]:
    """`digests()` computed in a subprocess with the BLAS on `threads`."""
    path = os.pathsep.join(filter(None, (
        str(HERE.parent / "src"), str(HERE), os.environ.get("PYTHONPATH"),
    )))
    env = {**os.environ, "PYTHONPATH": path,
           "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    script = "import json, test_golden; print(json.dumps(test_golden.digests()))"
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_environment_key_names_the_entry_of_its_numpy_and_blas():
    """A machine with the numpy and BLAS of an entry reads that entry's key:
    a key that lost the core would silently skip the golden bits."""
    key = environment_key()
    numpy_and_blas = key.rpartition(" | ")[0] + " | "
    entries = [k for k in json.loads(GOLDEN.read_text(encoding="utf-8"))
               if k.startswith(numpy_and_blas)]
    if not entries:
        pytest.skip(f"no golden entry for {numpy_and_blas!r}")
    assert key in entries


def test_a_library_without_the_openblas_symbols_gives_none(tmp_path):
    (tmp_path / "not_a_library.so").write_bytes(b"not ELF")
    assert openblas_info(tmp_path / "not_a_library.so") is None
    libc = ctypes.util.find_library("c")
    if libc is None:
        pytest.skip("no C library found to load")
    assert openblas_info(libc) is None


def test_artifact_bits_match_the_golden_file():
    key = environment_key()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(key)
    if golden is None:
        pytest.skip(f"no golden digests for environment {key!r}")
    got = pinned_digests()
    moved = sorted(name for name in golden if got.get(name) != golden[name])
    assert set(got) == set(golden) and not moved, f"bits moved in {moved}: {got}"
    assert pinned_digests("2") == got, "bits depend on the BLAS thread count"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(__doc__)
    table = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    table[environment_key()] = pinned_digests()
    text = json.dumps(table, indent=2, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
