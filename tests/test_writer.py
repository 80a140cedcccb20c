"""Every artifact reaches disk through `corpus.write_file`: atomically, with
the umask's mode, and with `report.tsv` as the last file of a run."""

import ast
import os
from pathlib import Path

import pytest

import curricula
from curricula import checkpoint, corpus, harness
from curricula.checkpoint import ModelCheckpoint, save_checkpoint
from curricula.corpus import ParallelCorpus, SentencePair, build_vocab, write_corpus, write_file
from curricula.errors import DataError
from curricula.harness import (
    ExperimentReport,
    ExperimentSpec,
    ReportRow,
    ToyCorpus,
    emit_report,
    run_directional_sanity,
    run_experiment,
)
from curricula.ordering import Strategy
from curricula.seq2seq import init_params
from curricula.trainer import TrainConfig

TRAIN = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=1, patience=1, seed=0)


def tiny_spec(out):
    return ExperimentSpec(
        corpus=ToyCorpus(toy_task="reverse", size=40, vocab=6, min_len=2, max_len=4, seed=1),
        strategies=(Strategy("shuffle_once"), Strategy("ppl", direction="asc")),
        scorer_presets=("tiny",),
        trainer_preset="tiny",
        train=TRAIN,
        seed=3,
        output_dir=out,
    )


def files_below(out: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------

def test_str_is_written_as_utf8_and_buffers_in_order(tmp_path):
    write_file(tmp_path / "t.txt", "a\r\nβ\n")
    assert (tmp_path / "t.txt").read_bytes() == "a\r\nβ\n".encode("utf-8")
    write_file(tmp_path / "b.bin", (memoryview(b"ab"), b"", bytearray(b"cd")))
    assert (tmp_path / "b.bin").read_bytes() == b"abcd"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin", "t.txt"]


def test_failing_buffer_leaves_the_old_file_and_no_temp_file(tmp_path):
    target = tmp_path / "f.bin"
    target.write_bytes(b"old")

    def chunks():
        yield b"new"
        raise DataError("source failed")

    with pytest.raises(DataError, match="source failed"):
        write_file(target, chunks())
    assert target.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [target]


def _pairs(n):
    return ParallelCorpus(tuple(
        SentencePair(i, ("a",) * (i + 1), ("b",) * (n - i)) for i in range(n)
    ))


def _report(fmt):
    rows = (ReportRow("Random Shuffle once", "none", 3, 4.5, 0.25),)
    return lambda path: emit_report(ExperimentReport(rows=rows), fmt, path)


def _checkpoint(tiny_checkpoint, seed):
    ckpt = ModelCheckpoint(
        config=tiny_checkpoint.config, params=init_params(tiny_checkpoint.config, seed),
        src_vocab_fingerprint="aaa", tgt_vocab_fingerprint="bbb",
    )
    return lambda path: save_checkpoint(ckpt, path)


WRITERS = {
    # name: (the first write, a second write of other bytes), each taking a path
    "text_file": lambda _: (
        build_vocab(_pairs(2), "source", 1).save,
        build_vocab(_pairs(3), "source", 1).save,
    ),
    "write_corpus": lambda _: tuple(
        (lambda path, c=c: write_corpus(c, path, path.with_suffix(".tgt")))
        for c in (_pairs(2), _pairs(3))
    ),
    "emit_report": lambda _: (_report("tsv"), _report("markdown")),
    "save_checkpoint": lambda ckpt: (_checkpoint(ckpt, 1), _checkpoint(ckpt, 2)),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_the_existing_file_whole(
    tmp_path, monkeypatch, tiny_checkpoint, writer
):
    first, second = WRITERS[writer](tiny_checkpoint)
    target = tmp_path / "artifact.src"
    first(target)
    before = files_below(tmp_path)

    def replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk gone"):
        second(target)
    assert files_below(tmp_path) == before  # the old bytes, and no temp file
    monkeypatch.undo()
    second(target)
    assert files_below(tmp_path)[target] != before[target]


# ---------------------------------------------------------------------------
# run directories
# ---------------------------------------------------------------------------

@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def test_every_artifact_of_a_run_gets_the_umask_mode(tmp_path, umask_022):
    out = tmp_path / "sanity"
    summary = run_directional_sanity(
        out, seeds=(1,), size=40, vocab=6, min_len=2, max_len=4, preset="tiny", train=TRAIN,
    )
    written = files_below(out)
    assert {p.suffix for p in written} >= {".ckpt", ".txt", ".tsv", ".md", ".log", ".vocab"}
    assert {p.name: p.stat().st_mode & 0o777 for p in written} == {p.name: 0o644 for p in written}
    # the summary names each seed's report relative to the output directory
    assert summary["summary_path"] == out / "directional_sanity.tsv"
    rows = (out / "directional_sanity.tsv").read_text().splitlines()[1:3]
    assert [row.split("\t")[-1] for row in rows] == ["seed_1/report.tsv"] * 2


def test_a_complete_run_writes_the_report_last_and_everything_through_the_writer(
    tmp_path, monkeypatch
):
    order = []

    def recording(path, data):
        order.append(Path(path))
        write_file(path, data)

    for module in (corpus, checkpoint, harness):
        monkeypatch.setattr(module, "write_file", recording)
    out = tmp_path / "run"
    run_experiment(tiny_spec(out))
    assert order[-1] == out / "report.tsv"
    assert sorted(order) == sorted(files_below(out))


def test_a_run_whose_last_row_fails_leaves_no_report(tmp_path, monkeypatch):
    calls = []

    def evaluate(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise DataError("evaluation failed")
        return real(*args, **kwargs)

    real = harness.evaluate_model
    monkeypatch.setattr(harness, "evaluate_model", evaluate)
    out = tmp_path / "run"
    with pytest.raises(DataError, match="failed during evaluate"):
        run_experiment(tiny_spec(out))
    assert (out / "model_shuffle_once.ckpt").exists()
    assert not (out / "report.tsv").exists()


# ---------------------------------------------------------------------------
# one writer
# ---------------------------------------------------------------------------

_WRITES = {"write_text", "write_bytes", "mkstemp", "NamedTemporaryFile"}


def _writes(tree: ast.AST):
    """The calls under `tree` that may write a file."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if name in _WRITES or (owner == "os" and name in ("replace", "rename", "open", "fdopen")):
            yield node
        elif name == "open":
            # open(file, mode) and io.open(file, mode), or path.open(mode)
            at = 1 if owner in (None, "io") else 0
            mode = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r")
            )
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                yield node


def test_only_the_writer_writes_files():
    package = Path(curricula.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writers = [
            f for f in tree.body
            if path.name == "corpus.py" and getattr(f, "name", None) == "write_file"
        ]
        allowed = {id(call) for f in writers for call in _writes(f)}
        found += [
            f"{path.name}:{call.lineno}" for call in _writes(tree) if id(call) not in allowed
        ]
    assert found == []


def test_the_scan_sees_each_kind_of_write():
    source = """
path.write_text(t); path.write_bytes(b); tempfile.mkstemp(); os.replace(a, b)
open(p, "w"); open(p, mode="ab"); io.open(p, "x"); path.open("r+"); open(p, m)
os.open(p, flags); os.fdopen(fd, "wb")
open(p); open(p, "rb"); path.open(); path.open("r"); s.replace("a", "b")
"""
    assert [call.lineno for call in _writes(ast.parse(source))] == [2] * 4 + [3] * 5 + [4] * 2
