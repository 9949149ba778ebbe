import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from stgnn.cli import (
    ABLATION_FLAGS,
    ExperimentConfig,
    _fit_window,
    eval_checkpoint,
    load_config,
    main,
    rep_seed,
    run_ablation_grid,
    run_experiment,
    run_single_rep,
    run_sweep,
)
from stgnn.powerlaw import DegenerateFitError
from stgnn.synthetic import generate_synthetic
from stgnn.temporal_graph import load_edge_list
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
        "field", ["m", "batch_size", "lam", "time_unit", "split_ratio", "lr", "epochs", "d0", "d1", "d2"]
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
            assert not (tmp_path / str(i) / "seed_00").exists()


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

    def test_eval_checkpoint_matches_run(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "run3", epochs=2)
        run_experiment(cfg)
        doc = json.loads((tmp_path / "run3" / "seed_00" / "metrics.json").read_text())
        report = eval_checkpoint(str(tmp_path / "run3" / "seed_00" / "checkpoint.npz"), cfg)
        assert report.best_auc == pytest.approx(doc["best_auc"])


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    """A checkpoint trained with m = 4 on the 40-node dataset."""
    out = tmp_path_factory.mktemp("ckpt")
    run_experiment(quick_config(dataset, out, epochs=1))
    return str(out / "seed_00" / "checkpoint.npz")


class TestEvalCheckpointChecks:
    @pytest.mark.parametrize("m", [2, 6])
    def test_other_m_rejected(self, dataset, checkpoint, tmp_path, m):
        n = load_edge_list(dataset).num_nodes
        with pytest.raises(ValueError, match=rf"beta of length 4 and {n} feature rows.*m = {m} and .* has {n} nodes"):
            eval_checkpoint(checkpoint, quick_config(dataset, tmp_path, m=m))

    def test_other_dataset_rejected(self, dataset, checkpoint, tmp_path):
        n = load_edge_list(dataset).num_nodes
        wider, _ = generate_synthetic(
            tmp_path / "wide.txt", n_nodes=60, n_significant_pairs=6,
            n_background_events=300, horizon=60.0, seed=12, n_communities=4,
        )
        assert load_edge_list(wider).num_nodes == 60
        with pytest.raises(ValueError, match=rf"{n} feature rows.*m = 4 and .* has 60 nodes"):
            eval_checkpoint(checkpoint, quick_config(wider, tmp_path))

    def test_eval_verb_fails_with_the_message(self, dataset, checkpoint, tmp_path, caplog):
        rc = main(["eval", "--checkpoint", checkpoint, "--dataset", str(dataset),
                   "--time-unit", "1.0", "--m", "6"])
        assert rc == 1
        assert "beta of length 4" in caplog.text and "m = 6" in caplog.text


class TestGridAndSweep:
    def test_ablation_grid_emits_four_aggregates(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "grid", epochs=1)
        grid = run_ablation_grid(cfg)
        assert set(grid) == {"BGNN", "BGNN+S", "BGNN+I", "STGNN"}
        assert (tmp_path / "grid" / "grid.json").exists()
        for name in grid:
            assert grid[name]["ablation"] == name

    def test_m_sweep_rows(self, dataset, tmp_path):
        cfg = quick_config(dataset, tmp_path / "sweep", epochs=1)
        csv_path = run_sweep(cfg, "m", [2, 4])
        lines = csv_path.read_text().strip().splitlines()
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

    @pytest.mark.parametrize("value", ["2.5", "0", "inf"])
    def test_sweep_verb_rejects_non_integer_m(self, dataset, tmp_path, caplog, value):
        rc = main([
            "sweep", "--dataset", str(dataset), "--time-unit", "1.0",
            "--outdir", str(tmp_path / "bad_sweep"), "--param", "m", "--values", f"2,{value}",
        ])
        assert rc == 1
        assert f"swept m values must be positive integers, got {float(value)}\n" in caplog.text
        assert not (tmp_path / "bad_sweep").exists()

    def test_failure_returns_nonzero(self, tmp_path):
        rc = main(["run", "--dataset", str(tmp_path / "missing.txt"),
                   "--time-unit", "1.0", "--outdir", str(tmp_path / "x")])
        assert rc == 1
