"""Every workload runs to its end at a tiny scale, traced and untraced."""

import dataclasses
import json
from pathlib import Path

import pytest

import layers
import run
from workloads import WORKLOADS, tiny

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_untraced(name, tmp_path):
    w = tiny(WORKLOADS[name])
    result = run.run_benchmark(w, 5, 0.0, False, ROOT / "src", tmp_path)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == len(run.OPERATIONS[w.verb])
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_traced(name, tmp_path):
    w = tiny(WORKLOADS[name])
    result = run.run_benchmark(w, 5, 0.0, True, ROOT / "src", tmp_path)
    assert result["correct"]
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(layers.units())
    if name == "run-stgnn":
        assert metrics["significance.top_m_calls"]["value"] > 0
        assert metrics["significance.random_m_calls"]["value"] == 0
    if name == "run-bgnn":
        assert metrics["significance.random_m_calls"]["value"] > 0
        assert metrics["significance.top_m_calls"]["value"] == 0
    if name == "eval-wide":
        assert metrics["training.batches"]["value"] == 0
        assert metrics["model.forward_node_calls"]["value"] > 0


def test_silent_must_fire_span_fails_loudly(tmp_path):
    w = tiny(WORKLOADS["run-stgnn"])
    w = dataclasses.replace(w, must_fire=w.must_fire + ("SignificanceIndex.random_m",))
    with pytest.raises(run.BenchmarkError, match="random_m"):
        run.run_benchmark(w, 5, 0.0, True, ROOT / "src", tmp_path)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.units()


def test_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "run-stgnn", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
