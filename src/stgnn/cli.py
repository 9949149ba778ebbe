"""Experiment orchestration and command-line entry points.

Verbs:
    run    load -> split -> fit window -> train -> evaluate, repeated over
           seeds; writes per-seed metrics JSON, loss CSVs, checkpoints,
           and an aggregate (optionally the full four-variant grid).
    sweep  repeat an experiment over values of one hyperparameter (p or m)
           and emit a plot-ready CSV.
    synth  generate a planted-ties synthetic edge list.
    fit    power-law fit and window size only, printed as JSON; the same
           config flags and file, checks and window stage (``_fit_window``)
           as run.
    eval   score a saved checkpoint against a dataset split.

Configuration comes from an optional JSON file plus CLI flags; flags win.
Every report echoes the fully resolved configuration so any run can be
reproduced from its own output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stgnn import evaluation, model, powerlaw, synthetic, temporal_graph, training

logger = logging.getLogger(__name__)

ABLATIONS = ("BGNN", "BGNN+S", "BGNN+I", "STGNN")
# ablation name -> (use_significant_selection, use_intimate_window)
ABLATION_FLAGS = {
    "BGNN": (False, False),
    "BGNN+S": (True, False),
    "BGNN+I": (False, True),
    "STGNN": (True, True),
}


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment end to end."""

    dataset: str
    time_unit: float
    outdir: str = "runs"
    split_ratio: float = 0.75
    repetitions: int = 10
    seed: int = 0
    ablation: str = "STGNN"
    lr: float = 0.01
    epochs: int = 50
    batch_size: int = 128
    m: int = 10
    p: float = 0.5
    lam: float = 1.0
    d0: int = 128
    d1: int = 16
    d2: int = 16
    early_stop_patience: int = 10
    window_size: float | None = None  # overrides the power-law window
    per_node_map: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.ablation not in ABLATION_FLAGS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must lie in [0, 1), got {self.p}")
        temporal_graph.check_time_unit(self.time_unit)
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError(f"split_ratio must lie in (0, 1), got {self.split_ratio}")
        if self.window_size is not None and not (math.isfinite(self.window_size) and self.window_size > 0):
            raise ValueError(f"window_size must be positive and finite, got {self.window_size}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        self.train_config(0)  # TrainConfig checks the training fields

    def train_config(self, rep: int) -> training.TrainConfig:
        sel, win = ABLATION_FLAGS[self.ablation]
        return training.TrainConfig(
            lr=self.lr,
            epochs=self.epochs,
            batch_size=self.batch_size,
            m=self.m,
            lam=self.lam,
            seed=rep_seed(self.seed, rep),
            d0=self.d0,
            d1=self.d1,
            d2=self.d2,
            use_significant_selection=sel,
            use_intimate_window=win,
            early_stop_patience=self.early_stop_patience,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def rep_seed(master_seed: int, rep: int) -> int:
    """Per-repetition seed derived from the master seed."""
    return int(np.random.SeedSequence([int(master_seed), int(rep)]).generate_state(1)[0])


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    base: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            base = json.load(fh)
    if overrides:
        base.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**base)


def _fit_window(train_g, config: ExperimentConfig):
    """Power-law fit and window size for the training stream.

    A user-supplied window size replaces the fitted one; the fit is then
    only reported, and omitted when it fails.  Window-ablated runs fall
    back to no window at all when the fit is degenerate.
    """
    try:
        fit = powerlaw.fit_power_law(powerlaw.collect_inter_event_times(train_g))
    except ValueError as exc:
        if config.window_size is not None:
            return float(config.window_size), None
        if isinstance(exc, powerlaw.DegenerateFitError) and not ABLATION_FLAGS[config.ablation][1]:
            return None, None
        raise
    if config.window_size is not None:
        return float(config.window_size), _fit_to_dict(fit, delta=None)
    delta = powerlaw.intimate_window_size(fit, config.p)
    return delta, _fit_to_dict(fit, delta)


def _fit_to_dict(fit: powerlaw.PowerLawFit, delta: float | None) -> dict:
    return {
        "alpha": fit.alpha,
        "xmin": fit.xmin,
        "c": fit.c,
        "ks_distance": fit.ks_distance,
        "n_tail": fit.n_tail,
        "delta": delta,
    }


def run_single_rep(config: ExperimentConfig, rep: int) -> dict:
    """One seed of the full pipeline; returns the per-seed report dict."""
    g = temporal_graph.load_edge_list(config.dataset, time_unit=config.time_unit)
    split = temporal_graph.split_train_test(g, ratio=config.split_ratio)
    delta, fit_dict = _fit_window(split.train, config)
    tc = config.train_config(rep)
    result = training.train(split.train, tc, delta)
    report = evaluation.evaluate(
        split, result.params, result.feats, tc, per_node_map=config.per_node_map
    )

    seed_dir = Path(config.outdir) / f"seed_{rep:02d}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(seed_dir / "checkpoint.npz", result.params, result.feats, tc.seed)
    with open(seed_dir / "loss_history.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss,wall_time\n")
        for i, (loss, secs) in enumerate(zip(result.loss_history, result.epoch_seconds)):
            fh.write(f"{i},{loss!r},{secs:.3f}\n")

    doc = {
        "dataset": config.dataset,
        "seed": config.seed,
        "rep": rep,
        "rep_seed": tc.seed,
        "ablation": config.ablation,
        **report.to_dict(),
        "fit": fit_dict,
        "epochs_ran": len(result.loss_history),
        "final_loss": result.loss_history[-1] if result.loss_history else None,
        "skipped_negatives": result.skipped_negatives,
        "config": config.to_dict(),
    }
    with open(seed_dir / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return doc


def _aggregate(per_seed: list[dict]) -> dict:
    def stats(key):
        vals = np.asarray([d[key] for d in per_seed], dtype=np.float64)
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        return {"mean": float(vals.mean()), "std": std, "values": vals.tolist()}

    return {
        "n_reps": len(per_seed),
        "best_auc": stats("best_auc"),
        "best_map": stats("best_map"),
        "reference_auc": stats("reference_auc"),
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all repetitions of one configuration and aggregate them.

    Per-seed outputs are written as they finish, so a late failure still
    leaves partial results on disk.
    """
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2)
    g = temporal_graph.load_edge_list(config.dataset, time_unit=config.time_unit)
    temporal_graph.write_node_map(g, outdir / "node_map.csv")

    reps = list(range(config.repetitions))
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_seed = list(pool.map(_rep_worker, [(config.to_dict(), r) for r in reps]))
    else:
        per_seed = [run_single_rep(config, r) for r in reps]

    agg = {
        "dataset": config.dataset,
        "ablation": config.ablation,
        **_aggregate(per_seed),
        "config": config.to_dict(),
    }
    with open(outdir / "aggregate.json", "w", encoding="utf-8") as fh:
        json.dump(agg, fh, indent=2)
    return agg


def _rep_worker(args: tuple[dict, int]) -> dict:
    cfg_dict, rep = args
    return run_single_rep(ExperimentConfig(**cfg_dict), rep)


def run_ablation_grid(config: ExperimentConfig) -> dict:
    """Run all four model variants under identical seeds and data."""
    outdir = Path(config.outdir)
    grid = {}
    for name in ABLATIONS:
        sub = dataclasses.replace(
            config,
            ablation=name,
            outdir=str(outdir / name.replace("+", "_")),
        )
        grid[name] = run_experiment(sub)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "grid.json", "w", encoding="utf-8") as fh:
        json.dump(grid, fh, indent=2)
    return grid


def run_sweep(config: ExperimentConfig, parameter: str, values: list) -> Path:
    """Aggregate metrics per value of one hyperparameter; CSV for plotting."""
    if parameter not in ("p", "m"):
        raise ValueError(f"sweep parameter must be 'p' or 'm', got {parameter!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    for v in values:
        if parameter == "p" and not 0.0 <= v < 1.0:
            raise ValueError(f"swept p values must lie in [0, 1), got {v}")
        if parameter == "m" and not (float(v).is_integer() and v >= 1):
            raise ValueError(f"swept m values must be positive integers, got {v}")
    # typed as the config field, so outputs are named m_2 rather than m_2.0
    values = [float(v) if parameter == "p" else int(v) for v in values]

    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for v in values:
        sub = dataclasses.replace(config, outdir=str(outdir / f"{parameter}_{v}"), **{parameter: v})
        agg = run_experiment(sub)
        rows.append(
            (
                v,
                agg["best_auc"]["mean"],
                agg["best_auc"]["std"],
                agg["best_map"]["mean"],
                agg["best_map"]["std"],
            )
        )
    csv_path = outdir / f"sweep_{parameter}.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("value,mean_auc,std_auc,mean_map,std_map\n")
        for row in rows:
            fh.write(",".join(repr(x) for x in row) + "\n")
    return csv_path


def eval_checkpoint(
    checkpoint: str, config: ExperimentConfig, rep: int = 0
) -> evaluation.MetricsReport:
    """Score a saved checkpoint against the configured dataset split.

    The checkpoint must match the configured m and the dataset's node
    count; a mismatch raises before anything is evaluated.
    """
    params, feats, seed = model.load_checkpoint(checkpoint)
    g = temporal_graph.load_edge_list(config.dataset, time_unit=config.time_unit)
    if params.m != config.m or feats.shape[0] != g.num_nodes:
        raise ValueError(
            f"checkpoint {checkpoint} has beta of length {params.m} and {feats.shape[0]} "
            f"feature rows, but the config sets m = {config.m} and {config.dataset} has "
            f"{g.num_nodes} nodes"
        )
    split = temporal_graph.split_train_test(g, ratio=config.split_ratio)
    tc = config.train_config(rep)
    tc = dataclasses.replace(tc, seed=seed)
    return evaluation.evaluate(split, params, feats, tc, per_node_map=config.per_node_map)


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None, help="JSON config file")
    sub.add_argument("--dataset", type=str, default=None)
    sub.add_argument("--time-unit", dest="time_unit", type=float, default=None)
    sub.add_argument("--outdir", type=str, default=None)
    sub.add_argument("--split-ratio", dest="split_ratio", type=float, default=None)
    sub.add_argument("--reps", dest="repetitions", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--ablation", type=str, default=None, choices=ABLATIONS)
    sub.add_argument("--lr", type=float, default=None)
    sub.add_argument("--epochs", type=int, default=None)
    sub.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--decay", dest="lam", type=float, default=None)
    sub.add_argument("--window-size", dest="window_size", type=float, default=None)
    sub.add_argument("--per-node-map", dest="per_node_map", action="store_const", const=True, default=None)
    sub.add_argument("--jobs", type=int, default=None)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    keys = [f.name for f in dataclasses.fields(ExperimentConfig)]
    overrides = {k: getattr(args, k, None) for k in keys}
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="stgnn", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)

    p_run = subs.add_parser("run", help="train and evaluate over repeated seeds")
    _add_config_flags(p_run)
    p_run.add_argument("--grid", action="store_true", help="run all four ablation variants")

    p_sweep = subs.add_parser("sweep", help="sweep hyperparameter p or m")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=("p", "m"))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")

    p_synth = subs.add_parser("synth", help="generate a planted-ties synthetic stream")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--nodes", type=int, default=100)
    p_synth.add_argument("--pairs", type=int, default=20)
    p_synth.add_argument("--background-events", type=int, default=600)
    p_synth.add_argument("--horizon", type=float, default=100.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--events-per-pair", type=int, default=70)
    p_synth.add_argument("--communities", type=int, default=10)
    p_synth.add_argument("--within-prob", type=float, default=0.9)
    p_synth.add_argument("--background-recurrence", type=float, default=0.5)
    p_synth.add_argument("--gap-alpha", type=float, default=2.2)

    p_fit = subs.add_parser("fit", help="power-law fit and window size only")
    _add_config_flags(p_fit)

    p_eval = subs.add_parser("eval", help="evaluate a saved checkpoint")
    _add_config_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            config = _config_from_args(args)
            if args.grid:
                run_ablation_grid(config)
            else:
                run_experiment(config)
        elif args.verb == "sweep":
            config = _config_from_args(args)
            values = [float(v) for v in args.values.split(",") if v.strip()]
            run_sweep(config, args.param, values)
        elif args.verb == "synth":
            out, pairs = synthetic.generate_synthetic(
                args.out,
                n_nodes=args.nodes,
                n_significant_pairs=args.pairs,
                n_background_events=args.background_events,
                horizon=args.horizon,
                seed=args.seed,
                events_per_significant_pair=args.events_per_pair,
                n_communities=args.communities,
                within_community_prob=args.within_prob,
                gap_alpha=args.gap_alpha,
                background_recurrence=args.background_recurrence,
            )
            print(json.dumps({"edge_list": str(out), "planted_pairs": str(pairs)}))
        elif args.verb == "fit":
            config = _config_from_args(args)
            g = temporal_graph.load_edge_list(config.dataset, time_unit=config.time_unit)
            split = temporal_graph.split_train_test(g, ratio=config.split_ratio)
            _, fit_dict = _fit_window(split.train, config)
            print(json.dumps(fit_dict, indent=2))
        elif args.verb == "eval":
            config = _config_from_args(args)
            report = eval_checkpoint(args.checkpoint, config)
            print(json.dumps(report.to_dict(), indent=2))
    except Exception:
        logger.exception("run failed; partial results (if any) were preserved")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
