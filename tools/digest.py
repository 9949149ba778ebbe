"""Stage-by-stage output digests of the benchmark workloads.

    python3 tools/digest.py --label parent --seeds 1-3
    python3 tools/digest.py --compare DIGEST_parent.json DIGEST_change.json

The first form runs each workload of ``perfbench/workloads.py`` once per
seed, on the stream the benchmark writes for that seed, and stores the
SHA-256 of every stage's output in ``DIGEST_<label>.json``.  It runs the
``src/`` beside this file, so a copy of the tool in another checkout
digests that checkout.  ``--tiny`` runs the workloads on the benchmark's
tiny stream instead.  The stages, in pipeline order:

    graph      the loaded graph's columns and CSR pair index
    split      t_split, the training graph and the held-out pairs
    gaps       the sorted inter-event gaps of the training graph
    fit        the power-law fit and the window size
    labels     the positive samples and their labels
    table      each candidate table's answers: every training event's
               endpoints at its time, and every node at t_split
    negatives  each epoch's negative column
    batches    every computation tree with its samples (_capture_chunk)
    loss       the loss history
    params     the trained parameters and features
    neighbors  the candidate lists each evaluation reads: every node's
               ``top_m_neighbors`` ids, scores and mask at t_split
    report     the evaluation report

A table is digested through its answers, not its arrays, so that a
change of its storage alone leaves the digest as it was.  An ``eval``
workload digests the training of its checkpoint and then the evaluation.

The second form names, for each workload and seed, every stage whose
digest differs, in pipeline order, and exits non-zero unless every stage
is equal.  BLAS builds round matrix products differently, so compare
digests made on one host only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from stgnn import cli, evaluation, model, powerlaw, significance, synthetic, temporal_graph, training  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

STAGES = (
    "graph", "split", "gaps", "fit", "labels", "table", "negatives", "batches", "loss", "params", "neighbors", "report"
)


def _feed(h, obj) -> None:
    """Add obj to the hash h, typed, so that equal digests mean equal values."""
    if isinstance(obj, np.ndarray):
        h.update(f"array|{obj.dtype.str}|{obj.shape}|".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        _feed(h, [type(obj).__name__, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}])
    elif isinstance(obj, dict):
        h.update(f"dict|{len(obj)}|".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq|{len(obj)}|".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (float, np.floating)):
        h.update(f"float|{float(obj).hex()}|".encode())
    else:
        h.update(f"{type(obj).__name__}|{obj!r}|".encode())


class Recorder:
    """One SHA-256 and a call count per stage, fed in call order."""

    def __init__(self):
        self.hashes = {stage: hashlib.sha256() for stage in STAGES}
        self.calls = dict.fromkeys(STAGES, 0)
        self.t_split = None

    def add(self, stage: str, obj) -> None:
        _feed(self.hashes[stage], obj)
        self.calls[stage] += 1

    def result(self) -> dict:
        return {stage: {"sha256": self.hashes[stage].hexdigest(), "calls": self.calls[stage]} for stage in STAGES}


def _graph(g) -> list:
    return [g.num_nodes, g.src, g.dst, g.t, g.pair_key, g.pair_ptr, g.pair_t, list(g.raw_ids)]


def _table_answers(table, g, t_split: float) -> list:
    """The table's lookups at both endpoints of every event of g, at the
    event's time, and at every node at t_split."""
    every = np.arange(g.num_nodes)
    nodes = np.concatenate([g.src, g.dst, every])
    ts = np.concatenate([g.t, g.t, np.full(g.num_nodes, t_split)])
    return list(table.lookup(nodes, ts))


@contextlib.contextmanager
def _spies(rec: Recorder):
    """Wrap the pipeline's stage functions so that each call feeds rec."""
    patched = []

    def spy(owner, name, record):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            record(out, *args)
            return out

        patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def on_split(split, g, *_):
        rec.t_split = split.t_split
        rec.add("graph", _graph(g))
        rec.add("split", [split.t_split, _graph(split.train), split.test_pairs])

    table_cls = significance.TopMTable
    original_build = table_cls.build.__func__

    def build(cls, g, m, rng=None):
        table = original_build(cls, g, m, rng)
        rec.add("table", _table_answers(table, g, rec.t_split))
        return table

    spy(temporal_graph, "split_train_test", on_split)
    spy(powerlaw, "collect_inter_event_times", lambda gaps, *_: rec.add("gaps", np.sort(gaps)))
    spy(cli, "_fit_window", lambda out, *_: rec.add("fit", out))
    spy(training, "build_positive_samples", lambda out, *_: rec.add("labels", out))
    spy(training, "_negative_column", lambda out, *_: rec.add("negatives", out))
    spy(training, "_capture_chunk", lambda fb, *_: rec.add("batches", fb))
    spy(training, "train", lambda res, *_: (rec.add("loss", res.loss_history), rec.add("params", [res.params, res.feats])))
    spy(model, "top_m_neighbors", lambda lists, *_: rec.add("neighbors", lists))
    spy(evaluation, "evaluate", lambda report, *_: rec.add("report", report.to_dict()))
    patched.append((table_cls, "build", table_cls.build))
    table_cls.build = classmethod(build)
    try:
        yield
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def digest_workload(w, seed: int) -> dict:
    """Run workload w for one seed in a temporary directory, as the benchmark
    does, and return each stage's digest and call count."""
    rec = Recorder()
    with tempfile.TemporaryDirectory(prefix="digest-") as work, _spies(rec):
        work = Path(work)
        dataset = str(work / "stream.txt")
        synthetic.generate_synthetic(dataset, seed=seed, **w.stream)
        if w.verb == "run":
            cli.run_single_rep(cli.ExperimentConfig(**w.config(dataset, str(work / "run"), seed)), 0)
        else:
            trained = cli.ExperimentConfig(**w.config(dataset, str(work / "prep"), seed, for_training=True))
            cli.run_single_rep(trained, 0)
            config = cli.ExperimentConfig(**w.config(dataset, str(work / "eval"), seed))
            cli.eval_checkpoint(str(work / "prep" / "seed_00" / "checkpoint.npz"), config)
    return rec.result()


def make_digest(label: str, seeds: list[int], small: bool = False) -> dict:
    workloads = {name: tiny(w) if small else w for name, w in WORKLOADS.items()}
    return {
        "label": label,
        "tiny": small,
        "host": {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()},
        "digests": {name: {str(s): digest_workload(w, s) for s in seeds} for name, w in workloads.items()},
    }


def compare(a: dict, b: dict) -> list[tuple[str, str, list[str]]]:
    """(workload, seed, the differing stages in pipeline order) for every
    workload and seed in either digest; a side with no entry differs at
    every stage."""
    rows = []
    for name in sorted(a["digests"].keys() | b["digests"].keys()):
        da, db = a["digests"].get(name, {}), b["digests"].get(name, {})
        for seed in sorted(da.keys() | db.keys(), key=int):
            sa, sb = da.get(seed, {}), db.get(seed, {})
            rows.append((name, seed, [s for s in STAGES if sa.get(s) != sb.get(s)]))
    return rows


def parse_seeds(text: str) -> list[int]:
    """'1-3' -> [1, 2, 3]; '1,4' -> [1, 4]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="write DIGEST_<label>.json")
    parser.add_argument("--seeds", default="1-3", help="seeds as 1-3 or 1,4 (default 1-3)")
    parser.add_argument("--tiny", action="store_true", help="run the workloads on the tiny stream")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        rows = compare(*docs)
        for name, seed, stages in rows:
            print(f"{name} seed {seed}: " + (f"differs at stages {', '.join(stages)}" if stages else "equal"))
        return 0 if rows and not any(stages for *_, stages in rows) else 1
    if not args.label:
        parser.error("give --label to write a digest, or --compare A B")
    doc = make_digest(args.label, parse_seeds(args.seeds), args.tiny)
    path = f"DIGEST_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
