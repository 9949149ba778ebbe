"""The output checks accept the program's real outputs and reject small errors."""

import dataclasses
import json
from pathlib import Path

import pytest

import expected
import run
from workloads import SPLIT_RATIO, WINDOW_P, WORKLOADS, tiny

SRC = Path(__file__).resolve().parents[2] / "src"


def _write(path, rows):
    path.write_text("# u v t\n" + "".join(f"{u} {v} {t!r}\n" for u, v, t in rows))
    return path


def test_expected_values_by_hand(tmp_path):
    # t_max = 10 after the shift, so t_split = 7.5.  Held out: (a,b) seen
    # before, (a,c) never seen before, (b,c) only at t = 7.5 exactly.
    rows = [
        ("a", "b", 100.0),
        ("a", "b", 101.0),
        ("a", "b", 103.0),
        ("b", "c", 107.5),
        ("c", "c", 105.0),  # self-loop: not an event
        ("a", "b", 109.0),
        ("a", "c", 110.0),
        ("b", "c", 108.0),
    ]
    exp = expected.expected_from_file(_write(tmp_path / "s.txt", rows), 0.75)
    assert exp.num_nodes == 3
    assert exp.num_events == 7
    assert exp.t_split == 7.5
    assert exp.train_events == 4
    assert exp.n_pos == 3
    assert exp.reference_auc == 1.0 - 0.5 * (2 / 3)
    assert sorted(exp.train_gaps) == [1.0, 2.0]


def test_mle_alpha_and_window():
    gaps = [1.0, 2.0, 4.0, 0.5]
    alpha = expected.mle_alpha(gaps, 1.0)
    assert alpha == pytest.approx(1.0 + 3 / (0.0 + 0.6931471805599453 + 1.3862943611198906))
    assert expected.window(alpha, 1.0, 0.5) == pytest.approx(0.5 ** (-1.0 / (alpha - 1.0)))


def test_train_check():
    assert expected.check_train([2.0, 1.0], 2) == []
    assert expected.check_train([1.0, 2.0], 2)
    assert expected.check_train([2.0, float("nan")], 2)
    assert expected.check_train([2.0], 2)
    assert expected.check_train([2.0], 1) == []


@pytest.fixture(scope="module")
def tiny_round(tmp_path_factory):
    """One real tiny run-stgnn round: expected values, record and metrics.json."""
    w = tiny(WORKLOADS["run-stgnn"])
    runner = run.Runner(w, 3, SRC, tmp_path_factory.mktemp("round"))
    prep = runner.prep()
    exp = expected.expected_from_file(runner.dataset, SPLIT_RATIO)
    rec, outdir = runner.round(0, trace=False)
    doc = json.loads((outdir / "seed_00" / "metrics.json").read_text())
    return w, exp, rec, outdir, prep, doc


def test_real_round_passes_every_check(tiny_round):
    w, exp, rec, outdir, prep, _ = tiny_round
    assert run.check_round(w, exp, rec, outdir, prep) == {
        op: [] for op in run.OPERATIONS["run"]
    }


def test_reference_auc_off_by_1e9_is_rejected(tiny_round):
    w, exp, *_, doc = tiny_round
    assert expected.check_evaluate(exp, doc, w.auc_floor) == []
    bad = dict(doc, reference_auc=doc["reference_auc"] + 1e-9)
    assert any("reference_auc" in m for m in expected.check_evaluate(exp, bad, w.auc_floor))


def test_n_pos_off_by_one_is_rejected(tiny_round):
    w, exp, *_, doc = tiny_round
    bad = dict(doc, n_pos=doc["n_pos"] + 1, n_neg=doc["n_neg"] + 1)
    assert any("n_pos" in m for m in expected.check_evaluate(exp, bad, w.auc_floor))
    assert expected.check_split(exp, exp.t_split, exp.train_events, exp.n_pos - 1)


def test_alpha_off_by_1e6_is_rejected(tiny_round):
    _, exp, *_, doc = tiny_round
    assert expected.check_fit(exp, doc["fit"], WINDOW_P) == []
    bad = dict(doc["fit"], alpha=doc["fit"]["alpha"] + 1e-6)
    assert any("alpha" in m for m in expected.check_fit(exp, bad, WINDOW_P))


def test_best_auc_must_be_the_largest_and_clear_the_floor(tiny_round):
    w, exp, *_, doc = tiny_round
    low = min(s["auc"] for s in doc["similarity"].values())
    assert expected.check_evaluate(exp, dict(doc, best_auc=low), w.auc_floor)
    assert expected.check_evaluate(exp, doc, doc["best_auc"] + 1e-6)
    # eval-wide's rule: the learned model must beat the reference
    tie = dataclasses.replace(exp, reference_auc=doc["best_auc"])
    assert any(
        "does not beat" in m
        for m in expected.check_evaluate(tie, dict(doc, reference_auc=doc["best_auc"]), None)
    )


def test_checkpoint_mismatch_is_rejected(tiny_round):
    w, exp, rec, outdir, prep, _ = tiny_round
    bad = dict(rec, loaded_digest="0" * 64)
    assert run.check_round(w, exp, bad, outdir, prep)["checkpoint"]
