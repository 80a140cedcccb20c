"""Run one `curricula` benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout: it imports `curricula` from
`src/` beside this directory. One process is one closed loop with a single
caller. It repeats the workload's set-up and timed section until `--seconds`
is used up, at least twice, and checks every repetition's outputs.

The last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, aggregated over repetitions. With `--trace 1`, repetitions
alternate between traced and untraced, and the metrics are the per-layer
ones from the traced repetitions, plus the tracing overhead. The line
before it holds the environment, the artifact digest and the test scores.
"""

import os
import sys
import time

# Pinned before numpy is imported, so that BLAS starts with one thread.
PINNED = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 2  # the artifact digest is compared between repetitions

# Throughput metric -> (span, counted work): work over seconds inside the span,
# pooled over a run's untraced repetitions.
THROUGHPUTS = {
    "score_pairs_per_s": ("metrics.score_corpus", "pairs"),
    "eval_pairs_per_s": ("evaluate.evaluate_model", "pairs"),
    "train_tokens_per_s": ("trainer.fit", "tokens"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "experiment_s": "s",
    "score_pairs_per_s": "pairs/s",
    "eval_pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
}


def environment(numpy, seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": PINNED,
        "seed": seed,
    }


def import_seconds() -> float:
    """Time a fresh interpreter takes to import numpy and curricula."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import numpy, curricula; print(time.perf_counter() - t)"
    )
    return float(subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="toy sizes, for the benchmark's own test"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "curricula" / "__init__.py").is_file():
        print(f"perfbench: no curricula sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    out = OUTPUT_DIR / f"{workload.name}-{os.getpid()}"
    try:
        return measure(args, workload, sizes, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(args, workload, sizes, out: Path) -> int:
    import numpy
    import tracing
    import workloads

    clock = time.perf_counter
    reps: list[dict] = []
    traced_spans: list = []
    problems: list[str] = []
    attempted = failed = 0
    digests: set[str] = set()
    began = clock()
    while True:
        run = len(reps)
        traced = bool(args.trace) and run % 2 == 0
        tracer = tracing.Tracer(
            tracing.LAYERS if traced else tracing.BOUNDARY, run,
            traced_spans if traced else None,
        )
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        attempted += workload.ops_per_rep
        try:
            with tracer:
                started = clock()
                ctx = workload.setup(out, args.seed, sizes)
                timed = clock()
                result = workload.run(ctx)
                ended = clock()
            output = workload.check(ctx, result)
        except Exception:  # a failed repetition is reported, not raised
            traceback.print_exc(file=sys.stderr)
            failed += workload.ops_per_rep
            break
        rep_spans = [s for s in traced_spans if s.run == run] if traced else tracer.spans
        rep_problems = list(output.problems)
        if traced:
            reached = {s.name for s in rep_spans}
            rep_problems += [
                f"traced run recorded no {name} span"
                for name in workload.expected_spans if name not in reached
            ]
        digests.add(workloads.artifact_digest(out))
        if len(digests) > 1:
            rep_problems.append("artifact digest differs between repetitions")
        if rep_problems:
            failed += workload.ops_per_rep
            problems += [f"repetition {run}: {p}" for p in rep_problems]
        reps.append({
            "traced": traced,
            # one import sample per repetition: the host slows down in bursts
            # of about a second, which samples taken back to back share
            "import_s": import_seconds(),
            "setup_s": timed - started,
            "experiment_s": ended - timed,
            **{
                metric: tracing.work_and_seconds(rep_spans, name, key)
                for metric, (name, key) in THROUGHPUTS.items()
            },
            "rows": output.rows,
        })
        elapsed = clock() - began
        # stop when a repetition of average length would end past the deadline
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > args.seconds:
            break

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    metrics = {}
    info = {
        "workload": workload.name,
        "reps": len(reps),
        "experiment_s": [rep["experiment_s"] for rep in reps],
        "environment": environment(numpy, args.seed),
        "artifact_digest": sorted(digests),
    }
    if reps:
        rows = reps[0]["rows"]
        info["test_ppl_mean"] = statistics.fmean(r[0] for r in rows)
        info["test_bleu_mean"] = statistics.fmean(r[1] for r in rows)
        if any(rep["rows"] != rows for rep in reps):
            failed = attempted
            print("perfbench: test scores differ between repetitions", file=sys.stderr)
        plain = [rep for rep in reps if not rep["traced"]] or reps
        info["train_tokens_per_s"] = pooled(plain, "train_tokens_per_s")
        if args.trace:
            metrics = trace_metrics(reps, traced_spans, info, workload, args)
        else:
            metrics = end_to_end_metrics(plain)
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def pooled(reps: list[dict], metric: str) -> float:
    work = sum(rep[metric][0] for rep in reps)
    seconds = sum(rep[metric][1] for rep in reps)
    return work / seconds if seconds else 0.0


def end_to_end_metrics(reps: list[dict]) -> dict:
    values = {
        "setup_s": statistics.median(rep["import_s"] for rep in reps)
        + statistics.median(rep["setup_s"] for rep in reps),
        # a mean: the host's speed shifts between levels for tens of seconds
        # at a time, and the median of a few repetitions jumps with it
        "experiment_s": statistics.fmean(rep["experiment_s"] for rep in reps),
        "score_pairs_per_s": pooled(reps, "score_pairs_per_s"),
        "eval_pairs_per_s": pooled(reps, "eval_pairs_per_s"),
    }
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def trace_metrics(reps, spans, info, workload, args) -> dict:
    import tracing

    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps if not rep["traced"]]
    layers = tracing.layer_metrics(spans, len(traced))
    layers["harness.test_ppl_mean"] = (info["test_ppl_mean"], "ppl")
    layers["harness.test_bleu_mean"] = (info["test_bleu_mean"], "bleu")
    # means, as for experiment_s
    layers["trace.overhead_ratio"] = (
        statistics.fmean(rep["experiment_s"] for rep in traced)
        / statistics.fmean(rep["experiment_s"] for rep in plain)
        if plain else 0.0,
        "ratio",
    )
    OUTPUT_DIR.mkdir(exist_ok=True)
    tracing.write_spans(spans, OUTPUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
    return {name: {"value": v, "unit": u} for name, (v, u) in sorted(layers.items())}


if __name__ == "__main__":
    sys.exit(main())
