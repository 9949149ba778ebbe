"""One process of the benchmark: make the inputs, repeat set-up, or run a round.

Usage (run.py starts it; the job is one JSON argument):

    python3 perfbench/pipeline.py '{"mode": "round", "src": "src", ...}'

Modes:
    prep   write the synthetic stream; for an "eval" workload also train
           the checkpoint with ``cli.run_single_rep`` and report the
           training time (the only training an "eval" workload does).
    setup  repeat the pipeline up to the first training or evaluation
           call ``repeats`` times and report each set-up time.
    round  run the whole pipeline once, as ``stgnn run`` (one seed) or
           ``stgnn eval`` would, and report its timings, peak memory, the
           stage outputs the checks need and, when traced, the per-layer
           metrics.

Times are CPU seconds of this process rescaled to a reference core speed
by a probe on the same core (see corespeed.py).  The record is printed as
one JSON line, last on standard output.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

from corespeed import CoreSpeed
from layers import install, layer_metrics
from tracing import Tracer


STGNN_MODULES = (
    "cli",
    "evaluation",
    "model",
    "powerlaw",
    "significance",
    "synthetic",
    "temporal_graph",
    "training",
)


class _SetupDone(Exception):
    pass


def checkpoint_digest(params, feats, seed) -> str:
    """SHA-256 over every saved tensor's name, dtype, shape and bytes."""
    h = hashlib.sha256()
    tensors = sorted(vars(params).items()) + [("feats", feats)]
    for name, a in tensors:
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    h.update(f"seed|{int(seed)}".encode())
    return h.hexdigest()


def _prep(job: dict, mods: dict) -> dict:
    mods["synthetic"].generate_synthetic(job["dataset"], seed=job["seed"], **job["stream"])
    if job["verb"] != "eval":
        return {}
    tracer, captured = Tracer(), {}
    install(tracer, mods, captured, trace=False)
    cli = mods["cli"]
    with CoreSpeed() as speed:
        doc = cli.run_single_rep(cli.ExperimentConfig(**job["config"]), 0)
    tracer.uninstall()
    _path, params, feats, seed = captured["saved"]
    return {
        "digest": checkpoint_digest(params, feats, seed),
        "best_auc": doc["best_auc"],
        "train_s": _stage_seconds(speed, tracer, "training.train"),
        "trained_events": captured["split"].train.num_events * len(captured["train"].loss_history),
    }


def _stage_seconds(speed: CoreSpeed, tracer: Tracer, name: str) -> float:
    t0, t1, c0, c1 = tracer.spans[name].intervals[0]
    return speed.reference_seconds(c1 - c0, t0, t1)


def _setup(job: dict, mods: dict) -> dict:
    """Time the pipeline up to the entry of training (run) or evaluation
    (eval), stopping it there, ``repeats`` times in this process."""
    cli = mods["cli"]
    owner, attr = (mods["training"], "train") if job["verb"] == "run" else (mods["evaluation"], "evaluate")
    original = getattr(owner, attr)

    def stop(*args, **kwargs):
        raise _SetupDone(time.perf_counter(), time.process_time())

    setattr(owner, attr, stop)
    spans = []
    try:
        with CoreSpeed() as speed:
            for _ in range(job["repeats"]):
                config = cli.ExperimentConfig(**job["config"])
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    if job["verb"] == "run":
                        cli.run_single_rep(config, 0)
                    else:
                        cli.eval_checkpoint(job["checkpoint"], config)
                except _SetupDone as done:
                    t1, c1 = done.args
                    spans.append((c1 - c0, t0, t1))
    finally:
        setattr(owner, attr, original)
    return {"setup_s": [speed.reference_seconds(*span) for span in spans]}


def _round(job: dict, mods: dict) -> dict:
    cli, model = mods["cli"], mods["model"]
    config = cli.ExperimentConfig(**job["config"])
    tracer, captured = Tracer(), {}
    install(tracer, mods, captured, trace=job["trace"])
    with CoreSpeed() as speed:
        c0, t0 = time.process_time(), time.perf_counter()
        if job["verb"] == "run":
            cli.run_single_rep(config, 0)
            entry = "training.train"
        else:
            report = cli.eval_checkpoint(job["checkpoint"], config)
            with open(Path(config.outdir) / "eval.json", "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2)
            entry = "evaluation.evaluate"
        t1, c1 = time.perf_counter(), time.process_time()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    entry_t, _, entry_c, _ = tracer.spans[entry].intervals[0]
    graph, split = captured["graph"], captured["split"]
    rec = {
        "setup_s": speed.reference_seconds(entry_c - c0, t0, entry_t),
        "eval_s": _stage_seconds(speed, tracer, "evaluation.evaluate"),
        "run_s": speed.reference_seconds(c1 - c0, t0, t1),
        "wall_run_s": t1 - t0,
        "peak_rss_mb": peak_rss_mb,
        "num_events": graph.num_events,
        "num_nodes": graph.num_nodes,
        "t_split": split.t_split,
        "train_events": split.train.num_events,
        "test_pairs": len(split.test_pairs),
    }
    if job["verb"] == "run":
        result = captured["train"]
        rec["train_s"] = _stage_seconds(speed, tracer, "training.train")
        rec["trained_events"] = split.train.num_events * len(result.loss_history)
        rec["loss_history"] = list(result.loss_history)
        path, params, feats, seed = captured["saved"]
        rec["saved_digest"] = checkpoint_digest(params, feats, seed)
        rec["loaded_digest"] = checkpoint_digest(*model.load_checkpoint(path))
    else:
        rec["loaded_digest"] = checkpoint_digest(*captured["loaded"])
    if job["trace"]:
        rec["layers"] = layer_metrics(tracer)
        rec["calls"] = {name: span.calls for name, span in tracer.spans.items()}
        rec["absent"] = tracer.absent
        rec["spans"] = tracer.span_table()
    return rec


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    sys.path.insert(0, job["src"])
    mods = {name: importlib.import_module(f"stgnn.{name}") for name in STGNN_MODULES}
    handler = {"prep": _prep, "setup": _setup, "round": _round}[job["mode"]]
    print(json.dumps(handler(job, mods)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
