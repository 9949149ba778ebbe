"""Experiment orchestration and command-line entry points.

Verbs:
    run    load -> split -> fit window once, then train -> evaluate once
           per seed; writes per-seed metrics JSON, loss CSVs, checkpoints,
           and an aggregate.
    sweep  repeat an experiment over values of one config field (p, m or
           the ablation name) and emit a plot-ready CSV.
    synth  generate a planted-ties synthetic edge list.
    fit    power-law fit and window size only, printed as JSON; the same
           config flags and file, checks and window stage (``_fit_window``)
           as run.
    eval   score a saved checkpoint against a dataset split, under the
           model config the checkpoint stores; a dataset whose training
           split differs from the one trained on is refused.

Configuration comes from an optional JSON file plus CLI flags; flags win.
Every report echoes the fully resolved configuration so any run can be
reproduced from its own output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stgnn import evaluation, model, powerlaw, significance, synthetic, temporal_graph, training

logger = logging.getLogger(__name__)


@dataclass(kw_only=True)
class ExperimentConfig(training.TrainConfig):
    """Everything needed to reproduce one experiment end to end: the
    training fields of stgnn.training.TrainConfig, whose ``seed`` is here
    the master seed of the repetitions, plus the data, window and run
    fields."""

    dataset: str
    time_unit: float
    outdir: str = "runs"
    split_ratio: float = 0.75
    repetitions: int = 10
    p: float = 0.5
    window_size: float | None = None  # overrides the power-law window
    per_node_map: bool = False
    jobs: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must lie in [0, 1), got {self.p}")
        temporal_graph.check_time_unit(self.time_unit)
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError(f"split_ratio must lie in (0, 1), got {self.split_ratio}")
        if self.window_size is not None and not (math.isfinite(self.window_size) and self.window_size > 0):
            raise ValueError(f"window_size must be positive and finite, got {self.window_size}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


# the fields that say where a run reads and writes and how it is spread
# over processes; every other field is part of the model a checkpoint holds
RUN_FIELDS = ("dataset", "outdir", "repetitions", "per_node_map", "jobs")


def model_fields(config: ExperimentConfig) -> dict:
    """The fields of ``config`` that a checkpoint stores and ``eval`` checks."""
    return {k: v for k, v in dataclasses.asdict(config).items() if k not in RUN_FIELDS}


def rep_seed(master_seed: int, rep: int) -> int:
    """Per-repetition seed derived from the master seed."""
    return int(np.random.SeedSequence([int(master_seed), int(rep)]).generate_state(1)[0])


def _experiment_config(given: dict) -> ExperimentConfig:
    """An ExperimentConfig of the ``given`` fields; a key it does not
    declare, as in a config file or checkpoint written by another
    version, is named rather than passed on."""
    unknown = sorted(given.keys() - {f.name for f in dataclasses.fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
    return ExperimentConfig(**given)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    base: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot open config {path}: {exc.strerror}") from None
        except ValueError as exc:  # malformed JSON or text
            raise ValueError(f"cannot parse config {path}: {exc}") from None
        if not isinstance(base, dict):
            raise ValueError(f"config {path} must hold a JSON object, got {type(base).__name__}")
    if overrides:
        base.update({k: v for k, v in overrides.items() if v is not None})
    return _experiment_config(base)


def _load_split(config: ExperimentConfig):
    """The configured dataset, loaded in its time unit, and its split."""
    g = temporal_graph.load_edge_list(config.dataset, time_unit=config.time_unit)
    return g, temporal_graph.split_train_test(g, ratio=config.split_ratio)


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
        if isinstance(exc, powerlaw.DegenerateFitError) and not config.use_intimate_window:
            return None, None
        raise
    if config.window_size is not None:
        return float(config.window_size), {**dataclasses.asdict(fit), "delta": None}
    delta = powerlaw.intimate_window_size(fit, config.p)
    if delta > 700:  # so the warning comes before the window reaches the underflow age
        logger.warning("the fitted window is %.4g time units, near or past the age of about 745 where "
                       "exp(-age) underflows to 0; rescale time with a larger --time-unit", delta)
    return delta, {**dataclasses.asdict(fit), "delta": delta}


def _prepare(config: ExperimentConfig):
    """The stages a repetition does not change: load, split, the density
    check and the window fit.  Returns (graph, split, delta, data report),
    where the data report holds the fit and the zero-score share that
    every seed's metrics.json repeats: the share of the training pairs
    with a contact before t_split whose decayed significance score at
    t_split underflows to 0."""
    g, split = _load_split(config)
    evaluation.check_negative_supply(g, split)
    delta, fit_dict = _fit_window(split.train, config)
    # the stream starts at time 0 < t_split, so some pair has a contact before it
    _, scores, _ = significance.pair_significance(split.train, split.t_split)
    share = float(np.mean(scores == 0.0))
    if share > 0.5:
        logger.warning(
            "%.0f%% of the training pairs' significance scores underflow to 0 at the split; "
            "rescale time with a larger --time-unit",
            100 * share,
        )
    return g, split, delta, {"fit": fit_dict, "zero_score_share": share}


def run_single_rep(config: ExperimentConfig, rep: int) -> dict:
    """One seed of the full pipeline; returns the per-seed report dict."""
    return _run_rep(config, *_prepare(config)[1:], rep)


def _run_rep(config: ExperimentConfig, split, delta, data_report: dict, rep: int) -> dict:
    """Train and evaluate seed ``rep`` on a prepared split and window, and
    write its ``seed_NN/`` outputs; returns the per-seed report dict."""
    tc = dataclasses.replace(config, seed=rep_seed(config.seed, rep))
    result = training.train(split.train, tc, delta)
    report = evaluation.evaluate(
        split, result.params, result.feats, tc, per_node_map=config.per_node_map
    )

    seed_dir = Path(config.outdir) / f"seed_{rep:02d}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(
        seed_dir / "checkpoint.npz", result.params, result.feats, tc.seed,
        config=model_fields(config), train_digest=temporal_graph.stream_digest(split.train),
    )
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
        **data_report,
        "epochs_ran": len(result.loss_history),
        "final_loss": result.loss_history[-1] if result.loss_history else None,
        "skipped_negatives": result.skipped_negatives,
        "config": dataclasses.asdict(config),
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

    The dataset is loaded, split, checked and fitted once, before anything
    is written, so bad input leaves no output.  The repetitions share that
    split and window.  Per-seed outputs are written as they finish, so a
    late failure still leaves partial results on disk.
    """
    g, split, delta, data_report = _prepare(config)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2)
    temporal_graph.write_node_map(g, outdir / "node_map.csv")
    del g  # the repetitions read the split only

    rep = functools.partial(_run_rep, config, split, delta, data_report)
    reps = range(config.repetitions)
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_seed = list(pool.map(rep, reps))
    else:
        per_seed = [rep(r) for r in reps]

    agg = {
        "dataset": config.dataset,
        "ablation": config.ablation,
        **_aggregate(per_seed),
        "config": dataclasses.asdict(config),
    }
    with open(outdir / "aggregate.json", "w", encoding="utf-8") as fh:
        json.dump(agg, fh, indent=2)
    return agg


def run_sweep(config: ExperimentConfig, parameter: str, values: list) -> dict:
    """Run one experiment per value of p, m or the ablation name, each in
    its own ``<parameter>_<value>`` directory, and write their best AUC and
    MAP to ``sweep_<parameter>.csv`` for plotting; returns each value's
    aggregate."""
    if parameter not in ("p", "m", "ablation"):
        raise ValueError(f"sweep parameter must be 'p', 'm' or 'ablation', got {parameter!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if parameter != "ablation":
        values = [float(v) for v in values]
        for v in values:
            if parameter == "m" and not (v.is_integer() and v >= 1):
                raise ValueError(f"swept m values must be positive integers, got {v}")
        # typed as the config field, so outputs are named m_2 rather than m_2.0
        values = [v if parameter == "p" else int(v) for v in values]
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"sweep values must be distinct, got {repeated[0]!r} more than once")

    outdir = Path(config.outdir)
    # every value is checked, as its config, before the first run writes anything
    subs = [dataclasses.replace(config, outdir=str(outdir / f"{parameter}_{v}"), **{parameter: v}) for v in values]
    outdir.mkdir(parents=True, exist_ok=True)
    aggs = {v: run_experiment(sub) for v, sub in zip(values, subs)}
    with open(outdir / f"sweep_{parameter}.csv", "w", encoding="utf-8") as fh:
        fh.write("value,mean_auc,std_auc,mean_map,std_map\n")
        for v, agg in aggs.items():
            row = (v, agg["best_auc"]["mean"], agg["best_auc"]["std"], agg["best_map"]["mean"], agg["best_map"]["std"])
            fh.write(",".join(map(str, row)) + "\n")
    return aggs


def eval_checkpoint(checkpoint: str, config: ExperimentConfig) -> evaluation.MetricsReport:
    """Score a saved checkpoint against the configured dataset split.

    Before anything is evaluated, the model fields of ``config`` must
    equal the ones the checkpoint was trained with, and the dataset's
    training split must hash as it did in training; either mismatch
    raises, naming the fields or both digests.
    """
    trained, train_digest = model.checkpoint_config(checkpoint)
    given = model_fields(config)
    differ = sorted(k for k in given.keys() | trained.keys() if given.get(k) != trained.get(k))
    if differ:
        raise ValueError(
            f"the config differs from the one checkpoint {checkpoint} was trained with: "
            + ", ".join(f"{k} = {given.get(k)!r} (trained with {trained.get(k)!r})" for k in differ)
        )
    params, feats, seed = model.load_checkpoint(checkpoint)
    g, split = _load_split(config)
    digest = temporal_graph.stream_digest(split.train)
    if digest != train_digest:
        raise ValueError(
            f"the training split of {config.dataset} has digest {digest}, but checkpoint "
            f"{checkpoint} was trained on a split with digest {train_digest}"
        )
    evaluation.check_negative_supply(g, split)
    del g  # the split holds copies of what evaluation reads
    config = dataclasses.replace(config, seed=seed)
    return evaluation.evaluate(split, params, feats, config, per_node_map=config.per_node_map)


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
    sub.add_argument("--ablation", type=str, default=None, choices=training.ABLATION_FLAGS)
    sub.add_argument("--lr", type=float, default=None)
    sub.add_argument("--epochs", type=int, default=None)
    sub.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("--p", type=float, default=None)
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

    p_sweep = subs.add_parser("sweep", help="sweep p, m or the ablation variant")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=("p", "m", "ablation"))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")

    # flags left out take generate_synthetic's defaults
    p_synth = subs.add_parser(
        "synth", help="generate a planted-ties synthetic stream", argument_default=argparse.SUPPRESS
    )
    p_synth.add_argument("--out", dest="path", required=True)
    p_synth.add_argument("--nodes", dest="n_nodes", type=int)
    p_synth.add_argument("--pairs", dest="n_significant_pairs", type=int)
    p_synth.add_argument("--background-events", dest="n_background_events", type=int)
    p_synth.add_argument("--horizon", type=float)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--events-per-pair", dest="events_per_significant_pair", type=int)
    p_synth.add_argument("--communities", dest="n_communities", type=int)
    p_synth.add_argument("--within-prob", dest="within_community_prob", type=float)
    p_synth.add_argument("--background-recurrence", type=float)
    p_synth.add_argument("--gap-alpha", type=float)

    p_fit = subs.add_parser("fit", help="power-law fit and window size only")
    _add_config_flags(p_fit)

    # the model config comes from the checkpoint
    p_eval = subs.add_parser("eval", help="evaluate a saved checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--per-node-map", dest="per_node_map", action="store_true")

    args = parser.parse_args(argv)
    failed = f"{args.verb} failed"
    if args.verb in ("run", "sweep"):  # the verbs that write as they go
        failed += "; partial results (if any) were preserved"
    try:
        if args.verb == "run":
            run_experiment(_config_from_args(args))
        elif args.verb == "sweep":
            config = _config_from_args(args)
            run_sweep(config, args.param, [v.strip() for v in args.values.split(",") if v.strip()])
        elif args.verb == "synth":
            given = {k: v for k, v in vars(args).items() if k != "verb"}
            out, pairs = synthetic.generate_synthetic(**given)
            print(json.dumps({"edge_list": str(out), "planted_pairs": str(pairs)}))
        elif args.verb == "fit":
            config = _config_from_args(args)
            _, fit_dict = _fit_window(_load_split(config)[1].train, config)
            print(json.dumps(fit_dict, indent=2))
        elif args.verb == "eval":
            trained, _ = model.checkpoint_config(args.checkpoint)
            config = _experiment_config({**trained, "dataset": args.dataset, "per_node_map": args.per_node_map})
            report = eval_checkpoint(args.checkpoint, config)
            print(json.dumps(report.to_dict(), indent=2))
    except ValueError as exc:
        # the library's own errors (config, input, parse, fit, density) need no traceback
        logger.error("%s: %s", failed, exc)
        return 1
    except Exception:
        logger.exception(failed)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
