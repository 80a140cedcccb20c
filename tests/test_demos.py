"""The quick demos run to the end. Each runs in its own interpreter from an
empty directory, since demo 03 writes its artifacts under `runs/`. Demo 04
trains a small scorer for most of a minute and is left out of that, but
every demo's imports from `curricula` are checked to exist."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curricula
from curricula.checkpoint import load_checkpoint

DEMOS = Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_corpus_and_orderings",
        "02_difficulty_metrics",
        "03_table_structure_experiment",
    ],
)
def test_demo_runs(tmp_path, name):
    src = str(Path(curricula.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    ckpts = list(tmp_path.glob("runs/**/*.ckpt"))
    assert bool(ckpts) == name.startswith("03")  # demo 03 saves checkpoints
    for ckpt in ckpts:
        assert load_checkpoint(ckpt).fingerprint


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_imports_exist(path):
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "curricula"
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{name}" for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
