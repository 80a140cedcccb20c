"""The five text artifacts: vocabulary, score table, ordering plan, report
and spec. Each is read by one shared line reader, so each keeps one error
contract: a malformed line raises the format's error class naming
`<path>:<line>`, and the command line exits 2 for a spec and 3 otherwise."""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curricula import harness
from curricula.cli import main as cli_main
from curricula.corpus import Vocabulary, read_text
from curricula.errors import ConfigError, CurriculaError, DataError
from curricula.harness import (
    ExperimentSpec,
    ToyCorpus,
    load_spec,
    report_from_tsv,
    report_to_tsv,
    run_experiment,
    spec_from_text,
    spec_to_text,
)
from curricula.metrics import ScoreTable
from curricula.ordering import OrderingPlan, Strategy
from curricula.trainer import TrainConfig


def _report_load(path):
    return report_from_tsv(read_text(path), path)


# format -> (file in the run directory, load, to_text, from_text)
FORMATS = {
    "vocabulary": (
        "corpus/src.vocab", Vocabulary.load, Vocabulary.to_text, Vocabulary.from_text,
    ),
    "score table": (
        "scores_length-source.txt", ScoreTable.load, ScoreTable.to_text,
        ScoreTable.from_text,
    ),
    "plan": (
        "plan_length-source-asc.txt", OrderingPlan.load, OrderingPlan.to_text,
        OrderingPlan.from_text,
    ),
    "report": ("report.tsv", _report_load, report_to_tsv, report_from_tsv),
    "spec": ("run.spec", load_spec, spec_to_text, spec_from_text),
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A tiny experiment's directory, with the spec that made it as `run.spec`."""
    out = tmp_path_factory.mktemp("text") / "run"
    spec = ExperimentSpec(
        corpus=ToyCorpus(toy_task="reverse", size=40, vocab=6, min_len=2, max_len=4),
        strategies=(Strategy("shuffle_once"), Strategy("length", "source", "asc")),
        scorer_presets=(),
        trainer_preset="tiny",
        train=TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=1, patience=1),
        seed=3,
        output_dir=out,
    )
    run_experiment(spec)
    (out / "run.spec").write_text(spec_to_text(spec), encoding="utf-8")
    return out


@pytest.mark.parametrize("fmt", FORMATS)
def test_written_file_round_trips_byte_for_byte(run_dir, fmt):
    name, load, to_text, _ = FORMATS[fmt]
    path = run_dir / name
    assert to_text(load(path)).encode("utf-8") == path.read_bytes()


@st.composite
def mutated(draw, raw: bytes) -> bytes:
    """The bytes with one byte flipped, cut short, with bytes appended, or
    with one byte that the formats treat specially inserted."""
    kind = draw(st.sampled_from(["flip", "truncate", "append", "insert"]))
    if kind == "flip":
        out = bytearray(raw)
        out[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "insert":
        at = draw(st.integers(0, len(raw)))
        byte = draw(st.sampled_from(list(b"\t\n\r #=:-.0e") + [0x1F, 0xFF]))
        return raw[:at] + bytes([byte]) + raw[at:]
    return raw + draw(st.binary(min_size=1, max_size=16))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(data=st.data())
def test_mutated_file_is_refused_or_reads_back_to_its_own_text(run_dir, data):
    fmt = data.draw(st.sampled_from(sorted(FORMATS)), label="format")
    name, load, to_text, from_text = FORMATS[fmt]
    path = run_dir.parent / f"mutated_{Path(name).name}"
    path.write_bytes(data.draw(mutated((run_dir / name).read_bytes())))
    try:
        value = load(path)
    except CurriculaError:
        return
    text = to_text(value)
    assert to_text(from_text(text)) == text


_CORPUS_FILES = [f"{part}.{side}" for part in ("train", "val", "test") for side in ("src", "tgt")]

# a file of the run directory -> the command that reads its mutated copy (in
# {dir}, with fresh copies of the corpus files) and stops soon after
_COMMANDS = {
    "report.tsv": "report --run-dir {dir} --format tsv",
    "scores_length-source.txt": (
        "order --corpus-dir {run}/corpus --strategy length:source:asc "
        "--scores {dir}/scores_length-source.txt --epochs 1 --out {dir}/plan.txt"
    ),
    "plan_length-source-asc.txt": (
        "train --corpus-dir {run}/corpus --plan {dir}/plan_length-source-asc.txt "
        "--preset tiny --max-epochs 1 --batch-size 64 --out {dir}/m.ckpt"
    ),
    "run.spec": "experiment --spec {dir}/run.spec",
    **dict.fromkeys(
        (f"corpus/{name}" for name in _CORPUS_FILES),
        "corpus " + " ".join(f"--{n.replace('.', '-')} {{dir}}/{n}" for n in _CORPUS_FILES)
        + " --filter-min 1 --out-dir {dir}/corpus",
    ),
}


class _Fitted(Exception):
    """Raised by every fit of a mutated spec's experiment: its run stops
    before training."""


def _no_fit(*args, **kwargs):
    raise _Fitted


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(data=st.data())
def test_cli_ends_in_a_documented_exit_code_on_a_mutated_file(run_dir, data):
    name = data.draw(st.sampled_from(sorted(_COMMANDS)), label="file")
    work = run_dir.parent / "cli"
    work.mkdir(exist_ok=True)
    for corpus_file in _CORPUS_FILES:
        (work / corpus_file).write_bytes((run_dir / "corpus" / corpus_file).read_bytes())
    raw = (run_dir / name).read_bytes()
    if name == "run.spec":
        # the output_dir line is never mutated, so the experiment writes in
        # {dir}; a mutation that adds a second one is refused as a duplicate
        raw = b"".join(
            line for line in raw.splitlines(keepends=True)
            if not line.startswith(b"output_dir")
        )
        text = data.draw(mutated(raw)) + f"\noutput_dir = {work / 'experiment'}\n".encode()
    else:
        text = data.draw(mutated(raw))
    (work / Path(name).name).write_bytes(text)
    argv = _COMMANDS[name].format(dir=work, run=run_dir).split()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        if name == "run.spec":
            stack.enter_context(pytest.MonkeyPatch.context()).setattr(harness, "fit", _no_fit)
        try:
            code = cli_main(argv)
        except _Fitted:
            return
    assert code in (0, 2, 3, 4)


# format -> (a malformed line, its line number, the error class, the command
# that reads the file as {path}, its exit code)
_MALFORMED = {
    "vocabulary": (
        "CURRICULA-VOCAB v1\n<pad>\t0\t0\n<bos>\tone\t0\n", 3, DataError,
        "eval --corpus-dir {dir} --ckpt {dir}/none.ckpt", 3,
    ),
    "score table": (
        "CURRICULA-SCORES v1 length:source none\n0\t1.0\n1 2.0\n", 3, DataError,
        "order --corpus-dir {run}/corpus --strategy length:source:asc "
        "--scores {path} --epochs 1 --out {dir}/plan.txt", 3,
    ),
    "plan": (
        "CURRICULA-ORDER v1 shuffle_once 0 1\n\n0 1 x\n", 3, DataError,
        "train --corpus-dir {run}/corpus --plan {path} --out {dir}/m.ckpt", 3,
    ),
    "report": (
        "# seed\t1\nstrategy\tscorer\tepochs\ttest_ppl\ttest_bleu\nRandom\tnone\t2\t1.5\n",
        3, DataError, "report --run-dir {dir}", 3,
    ),
    "spec": (
        "CURRICULA-SPEC v1\n# a comment\ncorpus.toy = copy\ncorpus.size = ten\n", 4,
        ConfigError, "experiment --spec {path}", 2,
    ),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_malformed_line_names_the_file_and_line(run_dir, tmp_path, capsys, fmt):
    name, load, _, _ = FORMATS[fmt]
    text, line, error, command, code = _MALFORMED[fmt]
    if fmt == "vocabulary":  # eval reads the vocabulary from a corpus directory
        for part in ("train", "val", "test"):
            for side in ("src", "tgt"):
                src = run_dir / "corpus" / f"{part}.{side}"
                (tmp_path / src.name).write_bytes(src.read_bytes())
        (tmp_path / "tgt.vocab").write_bytes((run_dir / "corpus" / "tgt.vocab").read_bytes())
    path = tmp_path / Path(name).name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error, match=f"^{re.escape(str(path))}:{line}: ") as err:
        load(path)
    assert type(err.value) is error and err.value.__cause__ is not None
    capsys.readouterr()
    argv = command.format(path=path, dir=tmp_path, run=run_dir).split()
    assert cli_main(argv) == code
    assert f"{path}:{line}: " in capsys.readouterr().err


def test_text_without_a_file_names_the_line_only():
    with pytest.raises(DataError, match=r"^score table line 2: expected '<index>\\t<value>'"):
        ScoreTable.from_text("CURRICULA-SCORES v1 ppl fp\n0 1.0\n")
