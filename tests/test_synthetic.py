import numpy as np
import pytest

from stgnn.synthetic import generate_synthetic
from stgnn.temporal_graph import load_edge_list
from reference_model import pair_index


def planted_pairs(path, g):
    """Planted pairs in ``g``'s dense ids (the CSV holds raw generator labels)."""
    dense = {label: i for i, label in enumerate(g.raw_ids)}
    rows = path.read_text().strip().splitlines()[1:]
    return {tuple(dense[x] for x in r.split(",")) for r in rows}


class TestGenerator:
    def test_regeneration_is_byte_identical(self, tmp_path):
        a, ap = generate_synthetic(tmp_path / "a.txt", seed=3)
        b, bp = generate_synthetic(tmp_path / "b.txt", seed=3)
        assert a.read_bytes() == b.read_bytes()
        assert ap.read_bytes() == bp.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, _ = generate_synthetic(tmp_path / "a.txt", seed=3)
        b, _ = generate_synthetic(tmp_path / "b.txt", seed=4)
        assert a.read_bytes() != b.read_bytes()

    def test_planted_pairs_denser_than_background(self, tmp_path):
        path, pairs_path = generate_synthetic(
            tmp_path / "s.txt", n_nodes=60, n_significant_pairs=10,
            n_background_events=400, seed=1,
        )
        g = load_edge_list(path)
        planted = planted_pairs(pairs_path, g)
        assert len(planted) == 10
        counts = {k: len(v) for k, v in pair_index(g).items()}
        planted_counts = [counts[p] for p in planted]
        background_counts = [c for k, c in counts.items() if k not in planted]
        assert min(planted_counts) > np.mean(background_counts)
        assert np.mean(planted_counts) > 10 * np.mean(background_counts)

    def test_no_planted_pairs_keeps_contacts_small(self, tmp_path):
        path, pairs_path = generate_synthetic(
            tmp_path / "s.txt", n_nodes=50, n_significant_pairs=0,
            n_background_events=300, seed=2,
        )
        g = load_edge_list(path)
        assert planted_pairs(pairs_path, g) == set()
        max_count = max(len(v) for v in pair_index(g).values())
        assert max_count <= 12  # sparse uniform background only

    def test_event_budget(self, tmp_path):
        path, _ = generate_synthetic(
            tmp_path / "s.txt", n_nodes=100, n_significant_pairs=20,
            n_background_events=600, events_per_significant_pair=70, seed=0,
        )
        g = load_edge_list(path)
        assert g.num_events == 20 * 70 + 600
        assert g.num_nodes <= 100

    def test_horizon_respected(self, tmp_path):
        path, _ = generate_synthetic(tmp_path / "s.txt", horizon=50.0, seed=5)
        g = load_edge_list(path)
        assert g.t_max <= 50.0

    def test_planted_pairs_active_late(self, tmp_path):
        # planted ties must remain active in the final quarter (the test window)
        path, pairs_path = generate_synthetic(tmp_path / "s.txt", horizon=100.0, seed=6)
        g = load_edge_list(path)
        for pair in planted_pairs(pairs_path, g):
            assert pair_index(g)[pair].max() > 75.0

    def test_planted_pairs_found_when_nodes_never_appear(self, tmp_path):
        # 25 pairs touch at most 50 of the 100 nodes, so raw labels and
        # dense ids differ
        path, pairs_path = generate_synthetic(
            tmp_path / "s.txt", n_significant_pairs=5, n_background_events=20,
            events_per_significant_pair=30, seed=0,
        )
        g = load_edge_list(path)
        assert g.num_nodes <= 50
        planted = planted_pairs(pairs_path, g)
        assert len(planted) == 5
        assert all(len(pair_index(g)[p]) >= 30 for p in planted)

    def test_without_recurrence_every_background_pair_occurs_once(self, tmp_path):
        # 5 communities of 12 nodes hold 330 within-community pairs, 5 planted
        path, pairs_path = generate_synthetic(
            tmp_path / "s.txt", n_nodes=60, n_significant_pairs=5,
            n_background_events=200, n_communities=5, within_community_prob=1.0,
            background_recurrence=0.0, seed=7,
        )
        g = load_edge_list(path)
        planted = planted_pairs(pairs_path, g)
        background = {k: len(v) for k, v in pair_index(g).items() if k not in planted}
        assert len(background) == 200
        assert set(background.values()) == {1}

    def test_full_recurrence_keeps_one_background_pair(self, tmp_path):
        path, pairs_path = generate_synthetic(
            tmp_path / "s.txt", n_nodes=30, n_significant_pairs=3,
            n_background_events=50, n_communities=3, within_community_prob=1.0,
            background_recurrence=1.0, seed=8,
        )
        g = load_edge_list(path)
        planted = planted_pairs(pairs_path, g)
        background = [len(v) for k, v in pair_index(g).items() if k not in planted]
        assert background == [50]

    def test_full_pool_recurs_on_every_admissible_pair(self, tmp_path):
        # two communities of two nodes: only (0, 1) and (2, 3) are admissible
        path, _ = generate_synthetic(
            tmp_path / "s.txt", n_nodes=4, n_significant_pairs=0,
            n_background_events=10, n_communities=2, within_community_prob=1.0,
            background_recurrence=0.0, seed=9,
        )
        g = load_edge_list(path)
        assert set(pair_index(g)) == {(0, 1), (2, 3)}
        assert g.pair_ends().tolist() == [[0, 1], [2, 3]]
        assert g.num_events == 10

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            generate_synthetic(tmp_path / "s.txt", n_nodes=3)
        with pytest.raises(ValueError):
            generate_synthetic(tmp_path / "s.txt", n_nodes=10, n_communities=9)
        with pytest.raises(ValueError, match="background_recurrence"):
            generate_synthetic(tmp_path / "s.txt", background_recurrence=1.5)
        # both within-community pairs are planted: no background pair is admissible
        with pytest.raises(ValueError, match="within-community"):
            generate_synthetic(
                tmp_path / "s.txt", n_nodes=4, n_communities=2,
                n_significant_pairs=2, within_community_prob=1.0,
            )
