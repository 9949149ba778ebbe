"""STGNN benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload run-stgnn --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the program is imported from
``src``).  The seed makes the inputs; then the benchmark repeats whole
pipeline rounds, each in a fresh process, until ``--seconds`` have passed,
checks every round's outputs against values computed from the edge file
alone, and prints one JSON object as the last line of standard output:
the end-to-end metrics (medians over the rounds) with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  End-to-end times are CPU seconds
rescaled to a reference core speed (corespeed.py).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import expected
import layers
from workloads import SETUP_REPEATS, SPLIT_RATIO, WINDOW_P, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
# One BLAS thread: the matrices are small, and a second thread would share
# the one core each measured process is pinned to.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every process the benchmark starts must end before the run's 180 s limit.
DEADLINE_S = 170.0

# The operations of one round: its pipeline stages.
OPERATIONS = {
    "run": ("load", "split", "fit", "train", "evaluate", "checkpoint"),
    "eval": ("checkpoint", "load", "split", "evaluate"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_events_per_s": "events/s",
    "eval_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "best_auc": "AUC",
}


class BenchmarkError(RuntimeError):
    pass


class Runner:
    """Starts the benchmark's processes for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, src: Path, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.src = src
        self.workdir = workdir
        self.dataset = workdir / "stream.txt"
        self.checkpoint = workdir / "prep" / "seed_00" / "checkpoint.npz"
        self.started = time.monotonic()

    def call(self, mode: str, **job) -> dict:
        job = dict(job, mode=mode, src=str(self.src), verb=self.workload.verb)
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchmarkError(f"no time left for the {mode} process")
        env = dict(os.environ, **SINGLE_THREAD)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "pipeline.py"), json.dumps(job)],
                stdout=subprocess.PIPE,
                env=env,
                timeout=timeout,
                text=True,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{mode} process ran out of time") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"{mode} process exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def config(self, outdir: Path, for_training: bool = False) -> dict:
        return self.workload.config(str(self.dataset), str(outdir), self.seed, for_training=for_training)

    def prep(self) -> dict:
        return self.call(
            "prep",
            dataset=str(self.dataset),
            seed=self.seed,
            stream=self.workload.stream,
            config=self.config(self.workdir / "prep", for_training=True),
        )

    def setup(self) -> list[float]:
        rec = self.call(
            "setup",
            repeats=SETUP_REPEATS,
            config=self.config(self.workdir / "setup"),
            checkpoint=str(self.checkpoint),
        )
        return rec["setup_s"]

    def round(self, index: int, trace: bool) -> tuple[dict, Path]:
        outdir = self.workdir / f"round_{index:02d}"
        outdir.mkdir()
        rec = self.call(
            "round", trace=trace, config=self.config(outdir), checkpoint=str(self.checkpoint)
        )
        return rec, outdir


def check_round(w: Workload, exp: expected.Expected, rec: dict, outdir: Path, prep: dict) -> dict[str, list[str]]:
    """Failures per operation (pipeline stage) of one round."""
    ops = {
        "load": expected.check_load(exp, rec["num_events"], rec["num_nodes"]),
        "split": expected.check_split(exp, rec["t_split"], rec["train_events"], rec["test_pairs"]),
    }
    if w.verb == "run":
        seed_dir = outdir / "seed_00"
        with open(seed_dir / "metrics.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(seed_dir / "loss_history.csv", encoding="utf-8") as fh:
            csv_losses = [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]
        ops["fit"] = expected.check_fit(exp, doc["fit"], WINDOW_P)
        ops["train"] = expected.check_train(rec["loss_history"], w.epochs)
        if csv_losses != rec["loss_history"] or doc["epochs_ran"] != len(rec["loss_history"]):
            ops["train"].append("train: loss CSV or epochs_ran disagrees with the loss history")
        ops["evaluate"] = expected.check_evaluate(exp, doc, w.auc_floor)
        saved_digest = rec["saved_digest"]
    else:
        with open(outdir / "eval.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        ops["evaluate"] = expected.check_evaluate(exp, doc, w.auc_floor)
        if doc["best_auc"] != prep["best_auc"]:
            ops["evaluate"].append(
                f"evaluate: best_auc {doc['best_auc']!r} differs from the training run's "
                f"{prep['best_auc']!r} on the same checkpoint"
            )
        saved_digest = prep["digest"]
    ops["checkpoint"] = []
    if rec["loaded_digest"] != saved_digest:
        ops["checkpoint"].append("checkpoint: loaded tensors differ from the saved ones")
    rec["best_auc"] = doc["best_auc"]
    return ops


def run_benchmark(w: Workload, seed: int, seconds: float, trace: bool, src: Path, workdir: Path) -> dict:
    """Prepare inputs, run rounds for ``seconds``, check them, summarise."""
    runner = Runner(w, seed, src, workdir)
    prep = runner.prep()
    exp = expected.expected_from_file(runner.dataset, SPLIT_RATIO)

    start = time.monotonic()
    setup_samples = [] if trace else runner.setup()
    rounds: list[tuple[bool, dict | None]] = []
    attempted = failed = 0
    problems: list[str] = []
    while True:
        # a traced run alternates untraced and traced rounds
        traced = trace and len(rounds) % 2 == 1
        try:
            rec, outdir = runner.round(len(rounds), traced)
            ops = check_round(w, exp, rec, outdir, prep)
        except (BenchmarkError, OSError, KeyError, ValueError) as exc:
            ops = {op: [f"round {len(rounds)}: {exc!r}"] for op in OPERATIONS[w.verb]}
            rec = None
        attempted += len(ops)
        failed += sum(1 for msgs in ops.values() if msgs)
        problems += [m for msgs in ops.values() for m in msgs]
        rounds.append((traced, rec))
        enough = len(rounds) >= (2 if trace else 1)
        now = time.monotonic()
        if enough and (now - start >= seconds or now - runner.started >= DEADLINE_S):
            break

    done = [(traced, rec) for traced, rec in rounds if rec is not None]
    if not done:
        raise BenchmarkError("no round completed: " + "; ".join(problems))
    # Rounds of one seed must agree bitwise, traced or not.
    correct = len({(rec["best_auc"], tuple(rec.get("loss_history", ()))) for _, rec in done}) == 1
    if not correct:
        problems.append("rounds of one seed disagree on best_auc or the loss history")

    plain = [rec for traced, rec in done if not traced]
    if trace:
        metrics = traced_metrics(w, plain, [rec for traced, rec in done if traced])
    else:
        metrics = end_to_end_metrics(plain, setup_samples, prep)
    for msg in problems:
        print(f"check: {msg}", file=sys.stderr)
    walls = ", ".join(f"{rec['wall_run_s']:.3f}" for _, rec in done)
    print(f"rounds: {len(rounds)}; wall-clock run_s per completed round: {walls}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(plain: list[dict], setup_samples: list[float], prep: dict) -> dict:
    """Medians over the rounds.  An "eval" workload trains only to make its
    checkpoint, so its training rate comes from that one training run."""
    med = lambda key: statistics.median(rec[key] for rec in plain)
    trained = plain if "train_s" in plain[0] else [prep]
    values = {
        "setup_s": statistics.median(setup_samples + [rec["setup_s"] for rec in plain]),
        "train_events_per_s": statistics.median(r["trained_events"] / r["train_s"] for r in trained),
        "eval_s": med("eval_s"),
        "run_s": med("run_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "best_auc": plain[0]["best_auc"],
    }
    return {name: _metric(v, END_TO_END_UNITS[name]) for name, v in values.items()}


def traced_metrics(w: Workload, plain: list[dict], traced: list[dict]) -> dict:
    if not plain or not traced:
        raise BenchmarkError("a traced run needs one untraced and one traced round")
    first = traced[0]
    silent = [n for n in w.must_fire if n not in first["absent"] and first["calls"].get(n, 0) == 0]
    if silent:
        raise BenchmarkError(f"wrappers that must fire on {w.name} saw no calls: {silent}")
    if first["absent"]:
        print(f"trace: absent from the program: {first['absent']}", file=sys.stderr)
    print(json.dumps({"spans": first["spans"]}), file=sys.stderr)

    units = layers.units()
    values = {
        name: statistics.median(rec["layers"][name] for rec in traced) for name in first["layers"]
    }
    run_traced = statistics.median(rec["run_s"] for rec in traced)
    run_plain = statistics.median(rec["run_s"] for rec in plain)
    values |= {
        "trace.run_s": run_traced,
        "trace.untraced_run_s": run_plain,
        "trace.overhead": run_traced / run_plain,
    }
    return {name: _metric(v, units[name]) for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "stgnn" / "__init__.py").is_file():
        print(f"error: no stgnn package under {src}; run from the repository root", file=sys.stderr)
        return 2
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=work_root))
    try:
        result = run_benchmark(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), src, workdir
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
