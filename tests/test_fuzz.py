"""The run boundary under fuzzed input: a run either ends with finite
metrics or raises a ValueError before training starts."""

import math
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stgnn import training
from stgnn.cli import ExperimentConfig, run_single_rep


@st.composite
def edge_lists(draw):
    """Edge-list rows "u v t": few nodes or many, dense or sparse, repeat
    contacts from a pool of pairs, now and then a self-loop, and times
    from a coarse grid (so they tie) or continuous, offset by 0 or by
    about 1e9."""
    n_nodes = draw(st.sampled_from([3, 8, 20, 60, 300]))
    n_rows = draw(st.sampled_from([2, 8, 40, 160]))
    # v = u + k mod n_nodes with 0 < k < n_nodes is never u
    pair = st.tuples(st.integers(0, n_nodes - 1), st.integers(1, n_nodes - 1))
    pool = draw(st.lists(pair, min_size=1, max_size=draw(st.sampled_from([1, 4, 30]))))
    if draw(st.booleans()):
        gap = st.sampled_from([0.0, 0.0, 1.0, 2.5, 40.0])
    else:
        gap = st.floats(1e-3, 50.0)
    t = draw(st.sampled_from([0.0, 1e9, 1e9 + 0.5]))
    rows = []
    for _ in range(n_rows):
        t += draw(gap)
        u, k = draw(st.one_of(st.sampled_from(pool), pair))
        v = u if draw(st.sampled_from([False] * 19 + [True])) else (u + k) % n_nodes
        rows.append(f"{u} {v} {t!r}\n")
    return "".join(rows)


@st.composite
def flags(draw):
    return dict(
        time_unit=draw(st.sampled_from([1.0, 0.01, 3600.0])),
        m=draw(st.integers(1, 4)),
        split_ratio=draw(st.sampled_from([0.05, 0.5, 0.75, 0.95])),
        window_size=draw(st.sampled_from([None, None, 0.5, 30.0])),
        ablation=draw(st.sampled_from(list(training.ABLATION_FLAGS))),
    )


@settings(derandomize=True, max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=edge_lists(), given_flags=flags())
def test_run_ends_finite_or_fails_before_training(rows, given_flags):
    entered = []
    train = training.train

    def sentinel(*args, **kwargs):
        entered.append(True)
        return train(*args, **kwargs)

    with tempfile.TemporaryDirectory() as work, mock.patch.object(training, "train", sentinel):
        dataset = Path(work) / "edges.txt"
        dataset.write_text(rows)
        config = ExperimentConfig(
            dataset=str(dataset), outdir=str(Path(work) / "out"), repetitions=1, seed=0,
            epochs=2, batch_size=16, d0=4, d1=3, d2=3, **given_flags,
        )
        try:
            doc = run_single_rep(config, 0)
        except ValueError:
            assert not entered, "a ValueError was raised after training started"
            return
    assert entered
    for key in ("best_auc", "best_map", "reference_auc", "final_loss"):
        assert math.isfinite(doc[key]), (key, doc[key])
