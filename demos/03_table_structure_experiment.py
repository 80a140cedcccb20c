"""Reproduce the structure of the paper-style results tables on toy data.

A full experiment: pretrain scorers, score the corpus, build every ordering,
train one model per ordering from a shared initialization, evaluate, and
emit the report. Ten rows for the strategy table; eight rows for the
small-vs-base scorer comparison (here with desk-scale presets so it runs in
seconds).

Run:  python demos/03_table_structure_experiment.py
"""

from pathlib import Path

from curricula import (
    ExperimentSpec,
    Strategy,
    ToyCorpus,
    TrainConfig,
    run_experiment,
    table_one_strategies,
)

out = Path("runs/demo_tables")

# Ten-row table: every ordering pattern, one scorer.
spec = ExperimentSpec(
    corpus=ToyCorpus(toy_task="reverse", size=100, vocab=8, min_len=3, max_len=6, seed=3),
    strategies=table_one_strategies(),
    scorer_presets=("tiny",),
    trainer_preset="tiny",
    train=TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=3, patience=3, seed=0),
    seed=11,
    output_dir=out / "ten_rows",
)
report = run_experiment(spec)
print((out / "ten_rows" / "report.md").read_text())

# Eight-row table: ppl/bleu orderings crossed with two scorer presets.
spec2 = ExperimentSpec(
    corpus=ToyCorpus(toy_task="reverse", size=100, vocab=8, min_len=3, max_len=6, seed=3),
    strategies=(
        Strategy("ppl", direction="asc"),
        Strategy("ppl", direction="desc"),
        Strategy("bleu", direction="asc"),
        Strategy("bleu", direction="desc"),
    ),
    scorer_presets=("tiny", "small"),
    trainer_preset="tiny",
    train=TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=3, patience=3, seed=0),
    seed=11,
    output_dir=out / "eight_rows",
)
report2 = run_experiment(spec2)
print((out / "eight_rows" / "report.md").read_text())
print("artifacts under", out)
