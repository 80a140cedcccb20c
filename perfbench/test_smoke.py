"""The benchmark's own tests: each workload at toy size, and the tracer.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import curricula  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from curricula import harness, trainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_the_declared_metrics(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0  # failed_ratio 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_patches_every_consumer_namespace_and_restores_it():
    original_fit, original_adam = harness.fit, trainer.adam_step
    with tracing.Tracer(tracing.LAYERS, run=0) as tracer:
        assert harness.fit is trainer.fit is curricula.fit
        assert harness.fit is not original_fit
        assert trainer.adam_step is not original_adam
        curricula.sentence_bleu([1, 2, 3, 4], [1, 2, 3, 4])
    assert harness.fit is original_fit and trainer.adam_step is original_adam
    assert [s.name for s in tracer.spans] == ["metrics.sentence_bleu"]


def test_self_time_subtracts_children_and_stages_take_outermost_spans():
    Span = tracing.Span
    spans = [
        Span("trainer.fit", 0.0, 4.0, -1, 0),  # before the first verified plan
        Span("trainer.train_epoch", 0.5, 3.0, 0, 0),
        Span("checkpoint.save_checkpoint", 3.0, 3.5, 0, 0),
        Span("ordering.verify_plan", 5.0, 6.0, -1, 0),
        Span("trainer.fit", 6.0, 9.0, -1, 0),
    ]
    assert tracing.self_times(spans) == [1.0, 2.5, 0.5, 1.0, 3.0]
    stages = tracing.stage_seconds(spans)
    assert stages["pretrain"] == 4.0 and stages["train"] == 3.0
    assert stages["order"] == 1.0 and stages["io"] == 0.0
