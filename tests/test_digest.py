"""tools/digest.py on the benchmark's tiny stream, one seed."""

import importlib.util
import json
from pathlib import Path

import pytest

from stgnn import model, training

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_digest(digest, tmp_path_factory):
    """The digest the tool writes for seed 1 on the tiny stream."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("digest"))
        assert digest.main(["--label", "a", "--seeds", "1", "--tiny"]) == 0
        return json.loads(Path("DIGEST_a.json").read_text())


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_equal_digests_compare_equal(digest, tiny_digest, tmp_path, capsys):
    again = digest.make_digest("b", [1], small=True)
    assert set(again["digests"]) == {"run-stgnn", "run-bgnn", "eval-wide"}
    for name, seeds in again["digests"].items():
        # every stage ran: a training table, two epochs of negatives for run-stgnn, a report
        assert all(stage["calls"] > 0 for stage in seeds["1"].values()), name
    assert again["digests"]["run-stgnn"]["1"]["negatives"]["calls"] == 2
    # one top_m_neighbors pass per evaluation: eval-wide evaluates after training its checkpoint, and again
    assert {name: seeds["1"]["neighbors"]["calls"] for name, seeds in again["digests"].items()} == {
        "run-stgnn": 1, "run-bgnn": 1, "eval-wide": 2
    }
    a, b = write(tmp_path / "a.json", tiny_digest), write(tmp_path / "b.json", again)
    assert digest.main(["--compare", a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{name} seed 1: equal" for name in ("eval-wide", "run-bgnn", "run-stgnn")]


def test_compare_names_every_changed_stage(digest, tiny_digest, tmp_path, capsys, monkeypatch):
    # a changed negative column changes every later stage but the candidate lists of the
    # evaluation, which read the training graph only, and no earlier stage
    negative_column = training._negative_column
    monkeypatch.setattr(training, "_negative_column", lambda *args: negative_column(*args)[::-1].copy())
    changed = digest.make_digest("b", [1], small=True)
    monkeypatch.undo()
    # an edited report digest on one workload only
    edited = json.loads(json.dumps(tiny_digest))
    edited["digests"]["run-bgnn"]["1"]["report"]["sha256"] = "0" * 64
    a = write(tmp_path / "a.json", tiny_digest)
    assert digest.main(["--compare", a, write(tmp_path / "changed.json", changed)]) == 1
    assert digest.main(["--compare", a, write(tmp_path / "edited.json", edited)]) == 1
    out = capsys.readouterr().out.splitlines()
    later = [s for s in digest.STAGES[digest.STAGES.index("negatives"):] if s != "neighbors"]
    assert out == [
        f"{name} seed 1: differs at stages {', '.join(later)}" for name in ("eval-wide", "run-bgnn", "run-stgnn")
    ] + ["eval-wide seed 1: equal", "run-bgnn seed 1: differs at stages report", "run-stgnn seed 1: equal"]


def test_changed_candidate_lists_are_named_at_neighbors(digest, tiny_digest, tmp_path, capsys, monkeypatch):
    # the evaluation's lists with their ranks reversed: training is as it was
    top_m_neighbors = model.top_m_neighbors
    monkeypatch.setattr(model, "top_m_neighbors", lambda *args: tuple(a[:, ::-1].copy() for a in top_m_neighbors(*args)))
    changed = digest.make_digest("b", [1], small=True)
    monkeypatch.undo()
    assert digest.main(["--compare", write(tmp_path / "a.json", tiny_digest), write(tmp_path / "b.json", changed)]) == 1
    out = capsys.readouterr().out.splitlines()
    # the report reads the embeddings of the reversed lists
    assert out == [f"{name} seed 1: differs at stages neighbors, report" for name in ("eval-wide", "run-bgnn", "run-stgnn")]


def test_seed_ranges(digest):
    assert digest.parse_seeds("1-3") == [1, 2, 3]
    assert digest.parse_seeds("1,4") == [1, 4]
    assert digest.parse_seeds("2") == [2]
