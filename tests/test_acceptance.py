"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they pass.  Criterion 7 (real-dataset reproduction) is best-effort by
design: it reports instead of asserting, and is skipped unless the
dataset path is supplied via STGNN_RADOSLAW_PATH.
"""

import json
import os
import time

import numpy as np
import pytest

from stgnn.cli import ABLATION_FLAGS, ExperimentConfig, run_ablation_grid, run_single_rep
from stgnn.evaluation import auc, mean_average_precision
from stgnn.model import init_params, random_features
from stgnn.powerlaw import PowerLawFit, fit_power_law, intimate_window_size, sample_power_law
from stgnn.significance import SignificanceIndex, TopMTable
from stgnn.synthetic import generate_synthetic
from stgnn.temporal_graph import Event, from_events, load_edge_list, split_train_test
from stgnn.training import TrainConfig, train

from conftest import index_pair_score, random_stream
from reference_model import (
    backward,
    brute_force_ap,
    brute_force_auc,
    columns,
    finite_difference,
    initial_significance,
    kink_margin,
    make_pairs,
    max_relative_error,
    pure_top_m,
    small_instance,
)

# The planted-ties stream used by criteria 5, 6, and 8: 100 nodes,
# 20 planted pairs, 2000 events (20 x 50 planted + 1000 background).
STREAM_SPEC = dict(
    n_nodes=100,
    n_significant_pairs=20,
    n_background_events=1000,
    events_per_significant_pair=50,
    horizon=100.0,
    seed=0,
    n_communities=10,
    within_community_prob=0.85,
    gap_alpha=2.0,
    background_recurrence=0.4,
)
RUN_SPEC = dict(
    time_unit=1.0,
    repetitions=10,
    seed=0,
    epochs=20,
    batch_size=128,
    m=10,
    p=0.5,
    jobs=2,
)


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def planted_stream(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    path, pairs = generate_synthetic(root / "planted.txt", **STREAM_SPEC)
    return path


@pytest.fixture(scope="module")
def grid_results(planted_stream, tmp_path_factory):
    """The full four-variant, ten-seed grid shared by criteria 5 and 6."""
    outdir = tmp_path_factory.mktemp("grid")
    config = ExperimentConfig(
        dataset=str(planted_stream), outdir=str(outdir), **RUN_SPEC
    )
    tic = time.perf_counter()
    grid = run_ablation_grid(config)
    grid["_wall_seconds"] = time.perf_counter() - tic
    return grid


class TestCriterion1:
    def test_gradient_correctness(self):
        """Analytic gradients match central differences (step 1e-5) to 1e-4
        relative over >= 20 kink-free random instances, in under 10 s."""
        tic = time.perf_counter()
        checked = 0
        seed = 0
        worst = 0.0
        while checked < 20:
            seed += 1
            g, feats, params, cfg, batch = small_instance(seed, n_nodes=6, d=3, m=2)
            if kink_margin(batch, g, feats, params, cfg) < 1e-3:
                continue  # a 1e-5 step could cross a ReLU/hinge kink here
            ana = backward(batch, g, feats, params, cfg)
            num = finite_difference(batch, g, feats, params, cfg, h=1e-5)
            worst = max(worst, max_relative_error(ana, num))
            checked += 1
        elapsed = time.perf_counter() - tic
        verdict(
            1,
            worst < 1e-4 and elapsed < 10.0,
            f"{checked} seeds, worst rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2:
    def test_power_law_recovery(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            xs = sample_power_law(10_000, 2.5, 1.0, rng)
            alpha = fit_power_law(xs).alpha
            if 2.4 <= alpha <= 2.6:
                hits += 1
        verdict(2, hits >= 9, f"alpha recovered in {hits}/10 seeds")

    def test_window_formula_identity(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            alpha = float(rng.uniform(1.05, 6.0))
            xmin = float(rng.uniform(1e-3, 1e3))
            p = float(rng.uniform(0.0, 0.999))
            c = (alpha - 1.0) * xmin ** (1.0 - alpha)
            fit = PowerLawFit(alpha=alpha, xmin=xmin, c=c, n_tail=10, ks_distance=0.0)
            got = intimate_window_size(fit, p)
            expected = xmin * (1.0 - p) ** (-1.0 / (alpha - 1.0))
            worst = max(worst, abs(got - expected) / expected)
        verdict(2, worst < 1e-9, f"window closed-form identity, worst rel err {worst:.2e}")


class TestCriterion3:
    def test_metric_oracles(self):
        rng = np.random.default_rng(3)
        trials = 0
        while trials < 1000:
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0 or labels.sum() == n:
                continue
            # coarse score grid makes ties common
            scores = rng.choice(np.linspace(0, 1, 7), size=n)
            pairs = make_pairs(scores, labels)
            assert auc(*columns(pairs)[:2]) == pytest.approx(brute_force_auc(pairs), abs=1e-12)
            assert mean_average_precision(*columns(pairs)) == pytest.approx(
                brute_force_ap(pairs), abs=1e-12
            )
            trials += 1
        verdict(3, True, f"AUC and MAP match brute force on {trials} random inputs")


class TestCriterion4:
    def test_significance_engine(self):
        rng = np.random.default_rng(4)
        g = random_stream(rng, n_nodes=40, n_events=10_000, mean_gap=0.02)
        probe_times = np.sort(rng.uniform(0, g.t_max, size=100))

        table = TopMTable.build(g, 10)
        idx = SignificanceIndex(40)
        worst = 0.0
        topm_checked = 0
        next_probe = 0
        events = g.events
        i = 0
        while i < len(events):
            j, t = i, events[i].t
            while j < len(events) and events[j].t == t:
                j += 1
            while next_probe < 100 and probe_times[next_probe] <= t:
                pt = float(probe_times[next_probe])
                u = int(rng.integers(40))
                ids, scores, mask = table.lookup([u], [pt])
                ids, scores = ids[0][mask[0]], scores[0][mask[0]]
                ref_ids, ref_scores = pure_top_m(g, u, pt, 10)
                assert list(ids) == ref_ids.tolist()
                if len(ids):
                    worst = max(
                        worst,
                        float(np.max(np.abs(scores - ref_scores) / ref_scores)),
                    )
                topm_checked += 1
                next_probe += 1
            # each pair's score before any contact of this time is added
            for e in events[i:j]:
                s_stream = index_pair_score(idx, e.u, e.v, e.t)
                s_full = initial_significance(g.pair_history(e.u, e.v, e.t), e.t)
                if s_full > 0.0:
                    worst = max(worst, abs(s_stream - s_full) / s_full)
                else:
                    assert s_stream == 0.0
            for e in events[i:j]:
                idx.add_event(e.u, e.v, e.t)
            i = j
        verdict(
            4,
            worst < 1e-9 and topm_checked >= 95,
            f"10k-event stream, worst rel err {worst:.2e}, {topm_checked} top-m probes",
        )


class TestCriterion5:
    def test_end_to_end_learning_signal(self, grid_results):
        stgnn = grid_results["STGNN"]
        mean_auc = stgnn["best_auc"]["mean"]
        ref_auc = stgnn["reference_auc"]["mean"]
        # one spot-check training run for the wall-clock budget
        per_seed_seconds = grid_results["_wall_seconds"] / 40.0
        ok = mean_auc >= 0.90 and mean_auc > ref_auc and per_seed_seconds < 300.0
        verdict(
            5,
            ok,
            f"STGNN 10-seed best AUC {mean_auc:.4f} (>=0.90), heuristic {ref_auc:.4f}, "
            f"~{per_seed_seconds:.1f}s per training run",
        )


class TestCriterion6:
    def test_ablation_ordering(self, grid_results):
        stats = {
            name: (
                grid_results[name]["best_auc"]["mean"],
                grid_results[name]["best_auc"]["std"],
            )
            for name in ABLATION_FLAGS
        }

        def leq(a, b):
            return stats[a][0] <= stats[b][0] + max(stats[a][1], stats[b][1])

        better_sub = max(("BGNN+S", "BGNN+I"), key=lambda k: stats[k][0])
        ok = leq("BGNN", "BGNN+S") and leq("BGNN", "BGNN+I") and leq(better_sub, "STGNN")
        detail = ", ".join(
            f"{name} {stats[name][0]:.4f}+-{stats[name][1]:.4f}" for name in ABLATION_FLAGS
        )
        verdict(6, ok, f"monotone within 1-std slack: {detail}")


class TestCriterion7:
    def test_radoslaw_reproduction_report(self, tmp_path):
        """Best-effort paper-number reproduction; reported, never asserted."""
        path = os.environ.get("STGNN_RADOSLAW_PATH")
        if not path:
            print(
                "ACCEPTANCE 7: REPORT - Radoslaw dataset not bundled; set "
                "STGNN_RADOSLAW_PATH to run the full protocol. Paper targets: "
                "AUC 0.8212 +- 0.05, MAP 0.7786 +- 0.06 (10-seed mean, best of "
                "three similarities). Known deviations documented in README."
            )
            return
        time_unit = float(os.environ.get("STGNN_RADOSLAW_TIME_UNIT", "86400"))
        g = load_edge_list(path, time_unit=time_unit)
        print(
            f"ACCEPTANCE 7: loaded {g.num_nodes} nodes, {g.num_events} contacts, "
            f"{len(g.pair_index)} unique edges (paper: 167 / 82.9k / 3215)"
        )
        config = ExperimentConfig(
            dataset=path,
            time_unit=time_unit,
            outdir=str(tmp_path / "radoslaw"),
            repetitions=10,
            seed=0,
            epochs=20,
            jobs=2,
        )
        from stgnn.cli import run_experiment

        agg = run_experiment(config)
        auc_mean = agg["best_auc"]["mean"]
        map_mean = agg["best_map"]["mean"]
        in_band = abs(auc_mean - 0.8212) <= 0.05 and abs(map_mean - 0.7786) <= 0.06
        print(
            f"ACCEPTANCE 7: REPORT - 10-seed mean best AUC {auc_mean:.4f} "
            f"(paper 0.8212 +- 0.05), MAP {map_mean:.4f} (paper 0.7786 +- 0.06); "
            f"{'inside' if in_band else 'outside'} the reproduction band. "
            "Unstated epochs/batching/sampling make exact reproduction impossible."
        )


class TestCriterion8:
    def test_determinism(self, planted_stream, tmp_path):
        def one_run(tag):
            config = ExperimentConfig(
                dataset=str(planted_stream),
                time_unit=1.0,
                outdir=str(tmp_path / tag),
                repetitions=1,
                seed=123,
                epochs=3,
                batch_size=128,
                m=10,
                p=0.5,
            )
            doc = run_single_rep(config, rep=0)
            losses = [
                row.rsplit(",", 1)[0]
                for row in (tmp_path / tag / "seed_00" / "loss_history.csv")
                .read_text()
                .splitlines()
            ]
            doc.pop("config")
            return doc, losses

        doc1, losses1 = one_run("a")
        doc2, losses2 = one_run("b")
        ok = doc1 == doc2 and losses1 == losses2
        verdict(8, ok, "identical config+seed reproduces loss history and metrics exactly")
