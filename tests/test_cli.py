import collections
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from stgnn import evaluation, powerlaw, temporal_graph, training
from stgnn.cli import (
    ExperimentConfig,
    _fit_window,
    _prepare,
    eval_checkpoint,
    load_config,
    main,
    model_fields,
    rep_seed,
    run_experiment,
    run_single_rep,
    run_sweep,
)
from stgnn.model import checkpoint_config, init_params, load_checkpoint, save_checkpoint
from stgnn.powerlaw import DegenerateFitError
from stgnn.synthetic import generate_synthetic
from stgnn.temporal_graph import load_edge_list, split_train_test, stream_digest
from stgnn.training import ABLATION_FLAGS
from reference_model import Event, from_events


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    path, _ = generate_synthetic(
        root / "synth.txt", n_nodes=40, n_significant_pairs=6,
        n_background_events=150, events_per_significant_pair=25,
        horizon=60.0, seed=11, n_communities=4,
    )
    return path


def quick_config(dataset, outdir, **kw):
    base = dict(
        dataset=str(dataset),
        time_unit=1.0,
        outdir=str(outdir),
        repetitions=1,
        seed=0,
        epochs=3,
        batch_size=64,
        m=4,
        d0=16,
        d1=8,
        d2=8,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_ablation_flag_mapping(self):
        assert ABLATION_FLAGS["BGNN"] == (False, False)
        assert ABLATION_FLAGS["BGNN+S"] == (True, False)
        assert ABLATION_FLAGS["BGNN+I"] == (False, True)
        assert ABLATION_FLAGS["STGNN"] == (True, True)

    def test_flags_override_file(self, tmp_path, dataset):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"dataset": str(dataset), "time_unit": 1.0, "seed": 1}))
        cfg = load_config(cfg_file, {"seed": 42, "epochs": None})
        assert cfg.seed == 42  # flag wins
        assert cfg.epochs == 50  # None override ignored

    def test_invalid_ablation(self, dataset):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset=str(dataset), time_unit=1.0, ablation="SGNN")

    def test_rep_seeds_distinct(self):
        seeds = {rep_seed(0, r) for r in range(10)}
        assert len(seeds) == 10


class TestConfigValidation:
    def test_bad_p(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="edges.txt", time_unit=1.0, p=1.0)

    @pytest.mark.parametrize(
        "field", ["m", "batch_size", "time_unit", "split_ratio", "lr", "epochs", "d0", "d1", "d2"]
    )
    def test_bad_training_field_fails_before_load(self, tmp_path, field):
        # the dataset does not exist, so only the config check can raise
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(dataset=str(tmp_path / "missing.txt"), **{"time_unit": 1.0, field: 0})

    @pytest.mark.parametrize("time_unit", [float("nan"), float("inf"), -86400.0])
    def test_non_finite_time_unit_names_the_flag(self, tmp_path, time_unit):
        # inf used to pass and fail three stages later, at the split
        with pytest.raises(ValueError, match="--time-unit"):
            ExperimentConfig(dataset=str(tmp_path / "missing.txt"), time_unit=time_unit)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_time_unit_fails_before_output(self, tmp_path, dataset, caplog, value):
        out = tmp_path / "out"
        argv = ["run", "--dataset", str(dataset), "--outdir", str(out), "--epochs", "1"]
        assert main(argv + ["--time-unit", value]) == 1
        assert "--time-unit" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("window-size", "0"), ("window-size", "-1"), ("window-size", "nan"), ("jobs", "0")]
    )
    def test_bad_run_field_fails_before_output(self, tmp_path, dataset, caplog, flag, value):
        out = tmp_path / "out"
        argv = ["run", "--dataset", str(dataset), "--time-unit", "1", "--outdir", str(out), "--epochs", "1"]
        assert main(argv + [f"--{flag}", value]) == 1
        assert flag.replace("-", "_") in caplog.text
        assert not out.exists()


    @pytest.mark.parametrize(
        "field, value",
        [
            ("m", 2.5), ("epochs", 1.5), ("batch_size", 64.5), ("d1", 8.5), ("repetitions", 1.5),
            ("jobs", 1.5), ("seed", 1.5), ("m", True), ("per_node_map", "no"), ("lr", "0.01"),
            ("dataset", 5), ("ablation", ["STGNN"]),
        ],
    )
    def test_config_file_field_types(self, tmp_path, dataset, caplog, field, value):
        # each used to pass the checks: the run then failed after writing
        # its config (or, for seed and per_node_map, ran with another value)
        out = tmp_path / "out"
        cfg_file = tmp_path / "cfg.json"
        cfg = {"dataset": str(dataset), "time_unit": 1.0, "outdir": str(out), "epochs": 1, field: value}
        cfg_file.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_file)]) == 1
        assert f"{field} must be of type" in caplog.text
        assert not out.exists()

    def test_unknown_config_file_field_fails_with_one_line(self, tmp_path, dataset, caplog):
        # an undeclared key used to reach ExperimentConfig as a TypeError traceback
        out = tmp_path / "out"
        cfg_file = tmp_path / "cfg.json"
        cfg = {"dataset": str(dataset), "time_unit": 1.0, "outdir": str(out), "decay": 0.5}
        cfg_file.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_file)]) == 1
        assert "unknown config field(s): decay" in caplog.text and "Traceback" not in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot open config {path}: "),
            ("[1, 2]", "config {path} must hold a JSON object, got list"),
            ('{"dataset": ', "cannot parse config {path}: "),
        ],
        ids=["missing", "not-an-object", "malformed"],
    )
    def test_bad_config_file_fails_with_one_line(self, tmp_path, caplog, text, message):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        assert main(["run", "--config", str(path), "--outdir", str(tmp_path / "x")]) == 1
        assert message.format(path=path) in caplog.text
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "x").exists()

    def test_negative_seed_fails_before_output(self, tmp_path, dataset, caplog):
        # it used to fail only in rep_seed, with a message that named no field
        out = tmp_path / "out"
        argv = ["run", "--dataset", str(dataset), "--time-unit", "1", "--outdir", str(out), "--epochs", "1"]
        assert main(argv + ["--seed", "-1"]) == 1
        assert "seed must be a non-negative integer, got -1" in caplog.text
        assert not out.exists()


def equal_gap_stream():
    """One pair meeting every time unit: its gap fit is degenerate."""
    return from_events([Event(0, 1, float(t)) for t in range(20)])


def short_gap_stream():
    """Five distinct gaps: too few to fit, though not degenerate."""
    return from_events([Event(0, 1, t) for t in (0.0, 1.0, 3.0, 6.0, 10.0, 15.0)])


class TestFitWindow:
    def test_window_size_reports_fit_without_delta(self, dataset):
        cfg = ExperimentConfig(dataset=str(dataset), time_unit=1.0, window_size=2.5)
        delta, fit = _fit_window(load_edge_list(dataset), cfg)
        assert delta == 2.5
        assert fit["alpha"] > 1.0
        assert fit["delta"] is None

    def test_window_size_survives_failed_fit(self):
        cfg = ExperimentConfig(dataset="edges.txt", time_unit=1.0, window_size=2.5)
        assert _fit_window(equal_gap_stream(), cfg) == (2.5, None)
        assert _fit_window(short_gap_stream(), cfg) == (2.5, None)

    def test_failed_fit_without_window_size(self):
        cfg = ExperimentConfig(dataset="edges.txt", time_unit=1.0)
        with pytest.raises(DegenerateFitError):
            _fit_window(equal_gap_stream(), cfg)
        ablated = dataclasses.replace(cfg, ablation="BGNN+S")
        assert _fit_window(equal_gap_stream(), ablated) == (None, None)
        with pytest.raises(ValueError, match="at least 10 samples"):
            _fit_window(short_gap_stream(), ablated)


@pytest.fixture(scope="module")
def ulp_gap_datasets(tmp_path_factory):
    """Twelve pairs meeting twice in training, nine a gap of 0.5 (or 2.0)
    apart and three one ulp further, then five late contacts.  The
    power-law fit overflows at 0.5, and its constant c underflows to 0 at
    2.0."""
    paths = []
    for scale in (0.5, 2.0):
        gap = float(np.nextafter(scale, 3.0))
        rows = [f"{2 * i} {2 * i + 1} {t!r}" for i in range(12) for t in (0.0, scale if i < 9 else gap)]
        rows += [f"{i} {i + 2} 10.0" for i in range(0, 20, 4)]
        path = tmp_path_factory.mktemp("ulp") / "edges.txt"
        path.write_text("\n".join(rows) + "\n")
        paths.append(path)
    return paths


class TestOverflowingFit:
    """A fit that overflows takes the fallbacks of a degenerate one, at
    both gap scales of ``ulp_gap_datasets``."""

    def run(self, dataset, outdir, *flags):
        argv = ["run", "--dataset", str(dataset), "--time-unit", "1", "--outdir", str(outdir)]
        return main(argv + ["--epochs", "1", *flags])

    def test_window_size_fallback(self, ulp_gap_datasets, tmp_path):
        for i, dataset in enumerate(ulp_gap_datasets):
            assert self.run(dataset, tmp_path / str(i), "--window-size", "1.5") == 0, dataset
            doc = json.loads((tmp_path / str(i) / "seed_00" / "metrics.json").read_text())
            assert doc["fit"] is None and doc["config"]["window_size"] == 1.5

    def test_window_ablated_fallback(self, ulp_gap_datasets, tmp_path):
        for i, dataset in enumerate(ulp_gap_datasets):
            assert self.run(dataset, tmp_path / str(i), "--ablation", "BGNN+S") == 0, dataset
            assert json.loads((tmp_path / str(i) / "seed_00" / "metrics.json").read_text())["fit"] is None

    def test_stgnn_fails_naming_the_fit(self, ulp_gap_datasets, tmp_path, caplog):
        for i, dataset in enumerate(ulp_gap_datasets):
            caplog.clear()
            assert self.run(dataset, tmp_path / str(i)) == 1, dataset
            assert "power-law fit of the inter-event times overflowed" in caplog.text
            assert not (tmp_path / str(i)).exists()


def seed_outputs(seed_dir):
    """A seed directory's metrics less the echoed config, its loss column
    and its checkpoint tensors."""
    doc = json.loads((seed_dir / "metrics.json").read_text())
    del doc["config"]
    losses = [r.rsplit(",", 1)[0] for r in (seed_dir / "loss_history.csv").read_text().splitlines()]
    with np.load(seed_dir / "checkpoint.npz") as ckpt:
        tensors = {name: (ckpt[name].dtype, ckpt[name].shape, ckpt[name].tobytes()) for name in ckpt.files}
    return doc, losses, tensors


class TestRun:
    def test_single_rep_outputs(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "run")
        agg = run_experiment(cfg)
        out = tmp_path / "run"
        assert (out / "config.json").exists()
        assert (out / "node_map.csv").exists()
        assert (out / "aggregate.json").exists()
        seed_dir = out / "seed_00"
        assert (seed_dir / "metrics.json").exists()
        assert (seed_dir / "loss_history.csv").exists()
        assert (seed_dir / "checkpoint.npz").exists()
        doc = json.loads((seed_dir / "metrics.json").read_text())
        assert doc["fit"]["alpha"] > 1.0
        assert doc["fit"]["delta"] > 0.0
        assert doc["zero_score_share"] == 0.0
        assert agg["best_auc"]["mean"] == doc["best_auc"]

    def test_aggregate_mean_matches_hand_average(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "run2", repetitions=2, epochs=2)
        agg = run_experiment(cfg)
        vals = agg["best_auc"]["values"]
        assert len(vals) == 2
        assert agg["best_auc"]["mean"] == pytest.approx(np.mean(vals))
        assert agg["best_auc"]["std"] == pytest.approx(np.std(vals, ddof=1))

    def test_rerun_from_echoed_config_is_identical(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "r1", epochs=2)
        run_experiment(cfg)
        echoed = json.loads((tmp_path / "r1" / "seed_00" / "metrics.json").read_text())["config"]
        echoed["outdir"] = str(tmp_path / "r2")
        agg2 = run_experiment(ExperimentConfig(**echoed))
        doc1 = json.loads((tmp_path / "r1" / "seed_00" / "metrics.json").read_text())
        doc2 = json.loads((tmp_path / "r2" / "seed_00" / "metrics.json").read_text())
        assert doc1["best_auc"] == doc2["best_auc"]
        assert doc1["similarity"] == doc2["similarity"]
        losses1 = [r.rsplit(",", 1)[0] for r in
                   (tmp_path / "r1" / "seed_00" / "loss_history.csv").read_text().splitlines()]
        losses2 = [r.rsplit(",", 1)[0] for r in
                   (tmp_path / "r2" / "seed_00" / "loss_history.csv").read_text().splitlines()]
        assert losses1 == losses2  # wall_time column may differ
        assert agg2["best_auc"]["values"] == [doc1["best_auc"]]

    def test_one_load_split_and_fit_per_experiment(self, dataset, tmp_path, monkeypatch):
        # each repetition used to load, split and fit the dataset again
        calls = collections.Counter()

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(temporal_graph, "load_edge_list")
        counted(temporal_graph, "split_train_test")
        counted(powerlaw, "fit_power_law")
        run_experiment(quick_config(dataset, tmp_path / "run", repetitions=3, epochs=1))
        assert calls == {"load_edge_list": 1, "split_train_test": 1, "fit_power_law": 1}

    def test_reps_match_single_rep_calls(self, dataset, tmp_path):
        # the repetitions share one prepared split, serially and in the pool
        ref = quick_config(dataset, tmp_path / "ref", repetitions=3, epochs=2)
        for r in range(3):
            run_single_rep(ref, r)
        for jobs in (1, 2):
            out = tmp_path / f"jobs_{jobs}"
            run_experiment(dataclasses.replace(ref, outdir=str(out), jobs=jobs))
            for r in range(3):
                name = f"seed_{r:02d}"
                assert seed_outputs(out / name) == seed_outputs(tmp_path / "ref" / name), (jobs, name)

    def test_eval_checkpoint_matches_run(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "run3", epochs=2)
        run_experiment(cfg)
        doc = json.loads((tmp_path / "run3" / "seed_00" / "metrics.json").read_text())
        report = eval_checkpoint(str(tmp_path / "run3" / "seed_00" / "checkpoint.npz"), cfg)
        assert report.best_auc == pytest.approx(doc["best_auc"])


# the checkpoint fixture's settings that are not quick_config's defaults
CKPT_KW = dict(epochs=1, time_unit=2.0)


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    """A checkpoint trained with m = 4 and time unit 2 on the 40-node
    dataset."""
    out = tmp_path_factory.mktemp("ckpt")
    run_experiment(quick_config(dataset, out, **CKPT_KW))
    return str(out / "seed_00" / "checkpoint.npz")


@pytest.fixture
def no_evaluation(monkeypatch):
    def entered(*args, **kwargs):
        raise AssertionError("evaluation.evaluate was entered")

    monkeypatch.setattr(evaluation, "evaluate", entered)


def edited_copy(dataset, path):
    """The dataset with its first contact moved 0.25 later, inside the
    training window."""
    lines = Path(dataset).read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    u, v, t = lines[first].split()
    lines[first] = f"{u} {v} {float(t) + 0.25!r}\n"
    path.write_text("".join(lines))
    return path


class TestEvalCheckpointChecks:
    @pytest.mark.parametrize("m", [2, 6])
    def test_other_m_rejected(self, dataset, checkpoint, tmp_path, m):
        with pytest.raises(ValueError, match=rf"m = {m} \(trained with 4\)"):
            eval_checkpoint(checkpoint, quick_config(dataset, tmp_path, **CKPT_KW, m=m))

    @pytest.mark.parametrize(
        "field, value", [("ablation", "BGNN"), ("split_ratio", 0.6), ("time_unit", 3600.0)]
    )
    def test_other_model_field_rejected(self, dataset, checkpoint, tmp_path, no_evaluation, field, value):
        trained = checkpoint_config(checkpoint)[0][field]
        cfg = quick_config(dataset, tmp_path, **{**CKPT_KW, field: value})
        with pytest.raises(ValueError, match=rf"{field} = {value!r} \(trained with {trained!r}\)"):
            eval_checkpoint(checkpoint, cfg)

    def test_run_fields_may_differ(self, dataset, checkpoint, tmp_path):
        cfg = quick_config(dataset, tmp_path / "elsewhere", **CKPT_KW, repetitions=3, jobs=2, per_node_map=True)
        report = eval_checkpoint(checkpoint, cfg)
        assert all("map_per_node" in sim for sim in report.similarity.values())

    def test_other_dataset_rejected(self, checkpoint, tmp_path, no_evaluation):
        wider, _ = generate_synthetic(
            tmp_path / "wide.txt", n_nodes=60, n_significant_pairs=6,
            n_background_events=300, horizon=60.0, seed=12, n_communities=4,
        )
        assert load_edge_list(wider).num_nodes == 60
        with pytest.raises(ValueError, match="training split of .* has digest [0-9a-f]{64}, .* digest [0-9a-f]{64}"):
            eval_checkpoint(checkpoint, quick_config(wider, tmp_path, **CKPT_KW))

    def test_edited_training_window_rejected(self, dataset, checkpoint, tmp_path, no_evaluation, caplog):
        edited = edited_copy(dataset, tmp_path / "edited.txt")
        _, trained_digest = checkpoint_config(checkpoint)
        with pytest.raises(ValueError, match=f"has digest [0-9a-f]{{64}}, .* with digest {trained_digest}"):
            eval_checkpoint(checkpoint, quick_config(edited, tmp_path, **CKPT_KW))
        assert main(["eval", "--checkpoint", checkpoint, "--dataset", str(edited)]) == 1
        assert trained_digest in caplog.text and "Traceback" not in caplog.text

    def test_eval_verb_fails_with_the_message(self, dataset, checkpoint, tmp_path, capsys):
        # the model config comes from the checkpoint, so eval takes no config flag
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", checkpoint, "--dataset", str(dataset), "--time-unit", "1.0", "--m", "6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --time-unit 1.0 --m 6" in capsys.readouterr().err

    def test_eval_verb_reproduces_the_run(self, checkpoint, dataset, capsys):
        doc = json.loads((Path(checkpoint).parent / "metrics.json").read_text())
        assert main(["eval", "--checkpoint", checkpoint, "--dataset", str(dataset)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best_auc"] == doc["best_auc"]
        assert report["reference_auc"] == doc["reference_auc"]

    def test_unknown_checkpoint_field_fails_with_one_line(self, dataset, checkpoint, tmp_path, caplog):
        # a stored field that ExperimentConfig does not declare, as the
        # decay rate is in checkpoints written before it was removed
        trained, digest = checkpoint_config(checkpoint)
        path = tmp_path / "older.npz"
        save_checkpoint(path, *load_checkpoint(checkpoint), config={**trained, "lam": 1.0}, train_digest=digest)
        assert main(["eval", "--checkpoint", str(path), "--dataset", str(dataset)]) == 1
        assert "eval failed: unknown config field(s): lam" in caplog.text and "Traceback" not in caplog.text

    def test_checkpoint_without_config_fails_with_one_line(self, dataset, tmp_path, caplog):
        params = init_params(np.random.default_rng(0), d0=16, d1=8, d2=8, m=4)
        path = tmp_path / "bare.npz"
        np.savez(path, feats=np.zeros((40, 16)), seed=np.asarray(0), **dict(params.arrays()))
        with pytest.raises(ValueError, match="holds no model config or training-split digest"):
            checkpoint_config(path)
        assert main(["eval", "--checkpoint", str(path), "--dataset", str(dataset)]) == 1
        assert "holds no model config" in caplog.text and "Traceback" not in caplog.text

    @pytest.mark.parametrize(
        "content", [b"", b"not a checkpoint\n", b"PK\x03\x04 a broken archive"], ids=["empty", "text", "broken-zip"]
    )
    def test_checkpoint_that_is_not_npz_fails_with_one_line(self, dataset, tmp_path, caplog, content):
        path = tmp_path / "model.npz"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))} is not an .npz archive"):
            checkpoint_config(path)
        assert main(["eval", "--checkpoint", str(path), "--dataset", str(dataset)]) == 1
        assert "is not an .npz archive" in caplog.text and "Traceback" not in caplog.text


@pytest.fixture(scope="module")
def dense_dataset(tmp_path_factory):
    """60 nodes and 3,000 uniform contacts: fewer never-linked pairs than
    held-out pairs."""
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("dense") / "dense.txt"
    lines = []
    for t in np.sort(rng.uniform(0.0, 100.0, size=3000)).tolist():
        u, v = rng.choice(60, size=2, replace=False)
        lines.append(f"{u} {v} {t!r}\n")
    path.write_text("".join(lines))
    return path


@pytest.fixture(scope="module")
def budget_dataset(tmp_path_factory):
    """60 nodes whose 20 never-linked pairs just supply the 20 held-out
    pairs: the test-negative sampler expects 60**2 / 2 * (1/20 + ... + 1/1),
    about 6,476 tries, over its budget of 200 * 20 + 1000.  Every other
    pair has two training contacts, and the held-out pairs a third after
    the split."""
    rng = np.random.default_rng(0)
    pairs = rng.permutation([(u, v) for u in range(60) for v in range(u + 1, 60)]).tolist()
    rows = [(u, v, t) for u, v in pairs[40:] for t in rng.uniform(0.0, 70.0, size=2).tolist()]
    rows += [(u, v, 80.0 + i) for i, (u, v) in enumerate(pairs[:20])]
    rows.sort(key=lambda row: row[2])
    path = tmp_path_factory.mktemp("budget") / "budget.txt"
    path.write_text("".join(f"{u} {v} {t!r}\n" for u, v, t in rows))
    return path


@pytest.fixture
def no_training(monkeypatch):
    def entered(*args, **kwargs):
        raise AssertionError("training.train was entered")

    monkeypatch.setattr(training, "train", entered)


class TestTooDense:
    def test_run_fails_before_training(self, dense_dataset, tmp_path, no_training):
        g = load_edge_list(dense_dataset)
        assert g.num_nodes == 60
        with pytest.raises(ValueError, match=r"too dense for the evaluation protocol: \d+ never-linked pairs .* \d+ held-out pairs"):
            run_single_rep(quick_config(dense_dataset, tmp_path), 0)

    def test_run_verb_leaves_no_output(self, dense_dataset, tmp_path, caplog):
        # the check used to run inside the first repetition, after the
        # experiment had written its config.json and node_map.csv
        out = tmp_path / "out"
        argv = ["run", "--dataset", str(dense_dataset), "--time-unit", "1", "--outdir", str(out)]
        assert main(argv + ["--epochs", "1"]) == 1
        assert "too dense for the evaluation protocol" in caplog.text
        assert not out.exists()

    def test_try_budget_fails_before_training(self, budget_dataset, tmp_path, no_training, caplog):
        # the supply check used to pass, and the sampler to run out of tries after training
        out = tmp_path / "out"
        argv = ["run", "--dataset", str(budget_dataset), "--time-unit", "1", "--outdir", str(out), "--epochs", "1"]
        assert main(argv) == 1
        assert "too dense for the evaluation protocol: 20 never-linked pairs" in caplog.text
        assert "Traceback" not in caplog.text
        assert not out.exists()

    def test_eval_fails_before_evaluating(self, dense_dataset, tmp_path, no_evaluation):
        cfg = quick_config(dense_dataset, tmp_path)
        params = init_params(np.random.default_rng(0), d0=cfg.d0, d1=cfg.d1, d2=cfg.d2, m=cfg.m)
        digest = stream_digest(split_train_test(load_edge_list(dense_dataset)).train)
        save_checkpoint(
            tmp_path / "ckpt.npz", params, np.zeros((60, cfg.d0)), 0, config=model_fields(cfg), train_digest=digest
        )
        with pytest.raises(ValueError, match="too dense for the evaluation protocol"):
            eval_checkpoint(str(tmp_path / "ckpt.npz"), cfg)


@pytest.fixture(scope="module")
def seconds_dataset(tmp_path_factory):
    """200 nodes and 1,500 contacts whose gaps are log-uniform from 1 s
    to 1 day, in seconds."""
    rng = np.random.default_rng(0)
    t = np.cumsum(np.exp(rng.uniform(0.0, np.log(86400.0), size=1500)))
    lines = []
    for ti in t.tolist():
        u, v = rng.choice(200, size=2, replace=False)
        lines.append(f"{u} {v} {ti!r}\n")
    path = tmp_path_factory.mktemp("seconds") / "seconds.txt"
    path.write_text("".join(lines))
    return path


class TestZeroScoreShare:
    def test_seconds_stream_warns(self, seconds_dataset, tmp_path, caplog):
        # at one unit per second every training pair's score exp(-age) underflows
        report = _prepare(quick_config(seconds_dataset, tmp_path, time_unit=1.0))[3]
        assert report["zero_score_share"] > 0.5
        assert "underflow to 0" in caplog.text
        assert "--time-unit" in caplog.text

    def test_days_stream_is_silent(self, seconds_dataset, tmp_path, caplog):
        report = _prepare(quick_config(seconds_dataset, tmp_path, time_unit=86400.0))[3]
        assert report["zero_score_share"] == 0.0
        assert report["fit"]["delta"] < 700.0  # the window warning is silent too
        assert "underflow" not in caplog.text


class TestWindowUnderflow:
    def test_seconds_stream_warns_once(self, seconds_dataset, tmp_path, caplog):
        # gaps from 1 s to a day, counted in seconds, fit a window of far more
        # than the about 745 units past which exp(-age) underflows to 0
        _, _, delta, report = _prepare(quick_config(seconds_dataset, tmp_path, time_unit=1.0))
        assert delta == report["fit"]["delta"] > 700.0
        warned = [r.getMessage() for r in caplog.records if "fitted window" in r.getMessage()]
        assert len(warned) == 1 and "--time-unit" in warned[0]

    def test_fit_verb_warns(self, seconds_dataset, caplog, capsys):
        assert main(["fit", "--dataset", str(seconds_dataset), "--time-unit", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] > 700.0
        assert "fitted window" in caplog.text


class TestGridAndSweep:
    def test_ablation_grid_emits_four_aggregates(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "grid", epochs=1)
        grid = run_sweep(cfg, "ablation", list(ABLATION_FLAGS))
        assert set(grid) == {"BGNN", "BGNN+S", "BGNN+I", "STGNN"}
        assert (tmp_path / "grid" / "sweep_ablation.csv").exists()
        for name in grid:
            assert grid[name]["ablation"] == name

    def test_m_sweep_rows(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "sweep", epochs=1)
        run_sweep(cfg, "m", [2, 4])
        lines = (tmp_path / "sweep" / "sweep_m.csv").read_text().strip().splitlines()
        assert lines[0] == "value,mean_auc,std_auc,mean_map,std_map"
        assert len(lines) == 3

    def test_p_sweep_validates_range(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "sweep2")
        with pytest.raises(ValueError):
            run_sweep(cfg, "p", [0.5, 1.2])

    def test_unknown_parameter(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "sweep3")
        with pytest.raises(ValueError):
            run_sweep(cfg, "lr", [0.1])

    @pytest.mark.parametrize(
        "parameter, values, repeated", [("m", ["2", "2.0"], "2"), ("ablation", ["BGNN", "BGNN"], "'BGNN'")]
    )
    def test_repeated_value_rejected(self, dataset, tmp_path, parameter, values, repeated):
        # a repeated value used to run twice into one directory
        out = tmp_path / "dup"
        with pytest.raises(ValueError, match=f"distinct, got {repeated} more than once"):
            run_sweep(quick_config(dataset, out), parameter, values)
        assert not out.exists()


class TestMain:
    def test_synth_verb(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "s.txt"), "--nodes", "30",
                   "--pairs", "4", "--background-events", "80", "--seed", "5",
                   "--communities", "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert (tmp_path / "s.txt").exists()
        assert out["planted_pairs"].endswith("_planted.csv")

    def test_synth_verb_writes_acceptance_stream(self, tmp_path, capsys):
        # the stream of criteria 5, 6 and 8 (tests/test_acceptance.py STREAM_SPEC)
        spec = dict(
            n_nodes=100, n_significant_pairs=20, n_background_events=1000,
            events_per_significant_pair=50, horizon=100.0, seed=0, n_communities=10,
            within_community_prob=0.85, gap_alpha=2.0, background_recurrence=0.4,
        )
        rc = main(["synth", "--out", str(tmp_path / "cli.txt"), "--nodes", "100",
                   "--pairs", "20", "--background-events", "1000", "--events-per-pair", "50",
                   "--horizon", "100", "--seed", "0", "--communities", "10",
                   "--within-prob", "0.85", "--gap-alpha", "2.0",
                   "--background-recurrence", "0.4"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        edges, planted = generate_synthetic(tmp_path / "lib.txt", **spec)
        assert Path(out["edge_list"]).read_bytes() == edges.read_bytes()
        assert Path(out["planted_pairs"]).read_bytes() == planted.read_bytes()

    def test_synth_verb_defaults_are_the_library_defaults(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "a.txt")]) == 0
        out = json.loads(capsys.readouterr().out)
        edges, planted = generate_synthetic(tmp_path / "b.txt")
        assert Path(out["edge_list"]).read_bytes() == edges.read_bytes()
        assert Path(out["planted_pairs"]).read_bytes() == planted.read_bytes()

    def test_fit_verb(self, dataset, capsys):
        rc = main(["fit", "--dataset", str(dataset), "--time-unit", "1.0", "--p", "0.5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] > 1.0
        assert doc["delta"] > 0.0

    def test_fit_verb_reads_the_config_file(self, dataset, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"dataset": str(dataset), "time_unit": 1.0, "p": 0.5}))
        assert main(["fit", "--config", str(cfg_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["fit", "--dataset", str(dataset), "--time-unit", "1.0", "--p", "0.5"]) == 0
        assert doc == json.loads(capsys.readouterr().out)
        # --window-size reaches the window stage as in run: the fit is only reported
        assert main(["fit", "--config", str(cfg_file), "--window-size", "2.5"]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] is None

    def test_fit_verb_checks_flags_before_reading(self, tmp_path, caplog):
        rc = main(["fit", "--dataset", str(tmp_path / "missing.txt"), "--time-unit", "1.0", "--p", "1.5"])
        assert rc == 1
        assert "p must lie in [0, 1), got 1.5" in caplog.text

    def test_run_verb(self, dataset, tmp_path):
        rc = main([
            "run", "--dataset", str(dataset), "--time-unit", "1.0",
            "--outdir", str(tmp_path / "cli_run"), "--reps", "1",
            "--epochs", "1", "--batch-size", "64", "--m", "3", "--seed", "1",
        ])
        assert rc == 0
        assert (tmp_path / "cli_run" / "aggregate.json").exists()

    def test_sweep_verb_names_m_values_as_integers(self, dataset, tmp_path):
        out = tmp_path / "cli_sweep"
        rc = main([
            "sweep", "--dataset", str(dataset), "--time-unit", "1.0", "--outdir", str(out),
            "--reps", "1", "--epochs", "1", "--batch-size", "64", "--seed", "1",
            "--param", "m", "--values", "2,4.0",
        ])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["m_2", "m_4"]
        rows = (out / "sweep_m.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "4"]

    def test_sweep_verb_over_ablation(self, dataset, tmp_path):
        out = tmp_path / "cli_sweep"
        rc = main([
            "sweep", "--dataset", str(dataset), "--time-unit", "1.0", "--outdir", str(out),
            "--reps", "1", "--epochs", "1", "--batch-size", "64", "--seed", "1",
            "--param", "ablation", "--values", "BGNN,BGNN+S",
        ])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["ablation_BGNN", "ablation_BGNN+S"]
        rows = (out / "sweep_ablation.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["BGNN", "BGNN+S"]

    def test_sweep_verb_rejects_unknown_ablation(self, dataset, tmp_path, caplog):
        out = tmp_path / "bad_sweep"
        rc = main([
            "sweep", "--dataset", str(dataset), "--time-unit", "1.0",
            "--outdir", str(out), "--param", "ablation", "--values", "BGNN,SGNN",
        ])
        assert rc == 1
        assert "ablation must be one of" in caplog.text and "'SGNN'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2.5", "0", "inf"])
    def test_sweep_verb_rejects_non_integer_m(self, dataset, tmp_path, caplog, value):
        rc = main([
            "sweep", "--dataset", str(dataset), "--time-unit", "1.0",
            "--outdir", str(tmp_path / "bad_sweep"), "--param", "m", "--values", f"2,{value}",
        ])
        assert rc == 1
        assert f"swept m values must be positive integers, got {float(value)}\n" in caplog.text
        assert not (tmp_path / "bad_sweep").exists()

    def test_value_error_is_one_line(self, tmp_path, caplog, monkeypatch):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"dataset": "edges.txt", "time_unit": 1.0, "m": 2.5}))
        assert main(["run", "--config", str(cfg_file)]) == 1
        assert "m must be of type int, got 2.5" in caplog.text
        assert "Traceback" not in caplog.text
        # any other exception keeps its traceback
        caplog.clear()

        def fail(config):
            raise RuntimeError("not a ValueError")

        monkeypatch.setattr("stgnn.cli.run_experiment", fail)
        assert main(["run", "--dataset", "edges.txt", "--time-unit", "1"]) == 1
        assert "Traceback" in caplog.text and "RuntimeError: not a ValueError" in caplog.text

    @pytest.mark.parametrize("verb", ["run", "sweep", "fit"])
    def test_missing_dataset_fails_with_one_line(self, tmp_path, caplog, verb):
        # only run and sweep write as they go, so only they speak of partial results
        missing = tmp_path / "nope.txt"
        argv = [verb, "--dataset", str(missing), "--time-unit", "1", "--outdir", str(tmp_path / "x")]
        assert main(argv + (["--param", "m", "--values", "2"] if verb == "sweep" else [])) == 1
        partial = "; partial results (if any) were preserved" if verb != "fit" else ""
        assert f"{verb} failed{partial}: cannot open dataset {missing}: " in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize(
        "rows, time_unit",
        [(["0 1 1e300", "1 2 2e300", "0 2 3e300"], "1e-10"), (["0 1 -1.7e308", "1 2 1.7e308"], "1")],
    )
    def test_overflowing_times_fail_with_one_line(self, tmp_path, caplog, rows, time_unit):
        data, out = tmp_path / "big.txt", tmp_path / "out"
        data.write_text("\n".join(rows) + "\n")
        assert main(["run", "--dataset", str(data), "--time-unit", time_unit, "--outdir", str(out)]) == 1
        assert f"{data}: timestamps overflow at time unit {float(time_unit)} (--time-unit)\n" in caplog.text
        assert "Traceback" not in caplog.text
        assert not out.exists()

    def test_missing_checkpoint_fails_with_one_line(self, dataset, tmp_path, caplog):
        missing = tmp_path / "nope.npz"
        assert main(["eval", "--checkpoint", str(missing), "--dataset", str(dataset)]) == 1
        assert f"eval failed: cannot open checkpoint {missing}: " in caplog.text
        assert "Traceback" not in caplog.text

    def test_failure_returns_nonzero(self, tmp_path):
        for verb in (["run"], ["sweep", "--param", "m", "--values", "2"]):
            rc = main([*verb, "--dataset", str(tmp_path / "missing.txt"),
                       "--time-unit", "1.0", "--outdir", str(tmp_path / "x")])
            assert rc == 1
            # the dataset is loaded before the first output is written
            assert not list(tmp_path.rglob("config.json"))

    def test_synth_verb_makes_the_directory(self, tmp_path, capsys):
        out = tmp_path / "data" / "s.txt"
        assert main(["synth", "--out", str(out), "--nodes", "40", "--pairs", "20",
                     "--background-events", "400"]) == 0
        assert out.exists() and (tmp_path / "data" / "s_planted.csv").exists()
