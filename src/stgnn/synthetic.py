"""Desk-scale synthetic interaction streams with planted significant ties.

Planted pairs fire repeatedly across the whole horizon with heavy-tailed
(power-law) gaps, so they form the bursty, persistent relationships the
model is supposed to pick out.  Background contacts are sparse and
uniform in time, drawn mostly inside small node communities; the
community mixing gives held-out pairs some learnable structure (fresh
test pairs share neighbors, never-linked pairs are mostly
cross-community).  A within-community contact recurs, with a fixed
probability, on one of the distinct casual pairs that are already
active, chosen uniformly, and otherwise opens a pair that is not yet
active; once every admissible pair is active, it recurs.  So casual
ties repeat a little without any one of them snowballing, and
cross-community contacts are one-off fresh draws.

Generation is fully deterministic per seed, byte-identical on rewrite.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from stgnn.powerlaw import sample_power_law
from stgnn.training import named_rng


def _community(node: int, n_nodes: int, n_communities: int) -> int:
    return node * n_communities // n_nodes


def _community_members(c: int, n_nodes: int, n_communities: int) -> range:
    lo = -(-c * n_nodes // n_communities)  # ceil division
    hi = -(-(c + 1) * n_nodes // n_communities)
    return range(lo, min(hi, n_nodes))


def generate_synthetic(
    path,
    n_nodes: int = 100,
    n_significant_pairs: int = 20,
    n_background_events: int = 600,
    horizon: float = 100.0,
    seed: int = 0,
    events_per_significant_pair: int = 70,
    n_communities: int = 10,
    within_community_prob: float = 0.9,
    gap_alpha: float = 2.2,
    background_recurrence: float = 0.5,
) -> tuple[Path, Path]:
    """Write an edge-list file plus the ground-truth planted-pair CSV,
    next to it; the file's directory is made if it does not exist.

    Each background contact is first made within-community with
    probability ``within_community_prob`` (always, with one community),
    and cross-community otherwise.  ``background_recurrence`` is the
    probability that a within-community background contact lands on an
    already-active casual pair instead of a new one:

    - a recurring contact picks uniformly among the distinct active
      casual pairs (the within-community, non-planted pairs that already
      had a background contact);
    - a new contact draws a community uniformly, then a pair uniformly
      inside it, rejecting planted and already-active pairs;
    - once every admissible within-community pair is active, a "new"
      contact is a uniform draw over all of them, i.e. it recurs;
    - cross-community contacts are always fresh uniform draws and never
      join the active pool, so they stay one-off flukes.

    Raises ``ValueError`` when a within-community background contact
    could be needed but planted pairs fill every within-community pair.

    Returns (edge_list_path, planted_pairs_path).
    """
    if n_nodes < 4:
        raise ValueError("need at least 4 nodes")
    if not 1 <= n_communities <= n_nodes // 2:
        raise ValueError("communities must each hold at least 2 nodes")
    for name, prob in (
        ("within_community_prob", within_community_prob),
        ("background_recurrence", background_recurrence),
    ):
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {prob}")
    rng = named_rng(seed, "synthetic")
    path = Path(path)

    planted = _draw_planted_pairs(rng, n_nodes, n_significant_pairs, n_communities)
    events: list[tuple[int, int, float]] = []

    for u, v in planted:
        start = float(rng.uniform(0.0, 0.05 * horizon))
        end = float(rng.uniform(0.9, 1.0)) * horizon
        gaps = sample_power_law(events_per_significant_pair, gap_alpha, 1.0, rng)
        times = start + (end - start) * np.cumsum(gaps) / gaps.sum()
        events.extend((u, v, float(t)) for t in times)

    sizes = [len(_community_members(c, n_nodes, n_communities)) for c in range(n_communities)]
    n_admissible = sum(s * (s - 1) // 2 for s in sizes) - len(planted)
    within_possible = n_communities == 1 or within_community_prob > 0.0
    if n_background_events > 0 and within_possible and n_admissible == 0:
        raise ValueError(
            "planted pairs fill every within-community pair; "
            "no within-community background contact is possible"
        )

    casual_pool: list[tuple[int, int]] = []  # distinct active casual pairs
    taken = set(planted)  # planted pairs plus the casual pool
    for _ in range(n_background_events):
        if n_communities == 1 or rng.random() < within_community_prob:
            recur = bool(casual_pool) and rng.random() < background_recurrence
            if recur or len(casual_pool) == n_admissible:
                pair = casual_pool[int(rng.integers(len(casual_pool)))]
            else:
                pair = _draw_new_within_pair(rng, n_nodes, n_communities, taken)
                casual_pool.append(pair)
                taken.add(pair)
        else:
            pair = _draw_cross_pair(rng, n_nodes, n_communities)
        events.append((*pair, float(rng.uniform(0.0, horizon))))

    events.sort(key=lambda e: e[2])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic planted-ties stream\n")
        for u, v, t in events:
            fh.write(f"{u} {v} {t!r}\n")

    pairs_path = path.with_name(path.stem + "_planted.csv")
    with open(pairs_path, "w", encoding="utf-8") as fh:
        fh.write("u,v\n")
        for u, v in sorted(planted):
            fh.write(f"{u},{v}\n")
    return path, pairs_path


def _draw_planted_pairs(
    rng: np.random.Generator, n_nodes: int, n_pairs: int, n_communities: int
) -> list[tuple[int, int]]:
    """Distinct within-community pairs, spread round-robin over communities."""
    chosen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    c = 0
    guard = 0
    while len(out) < n_pairs:
        members = _community_members(c % n_communities, n_nodes, n_communities)
        c += 1
        guard += 1
        if guard > 100 * (n_pairs + 1):
            raise ValueError("cannot place that many distinct planted pairs")
        u, v = rng.choice(len(members), size=2, replace=False)
        pair = tuple(sorted((members[int(u)], members[int(v)])))
        if pair in chosen:
            continue
        chosen.add(pair)
        out.append(pair)
    return out


def _draw_new_within_pair(
    rng: np.random.Generator,
    n_nodes: int,
    n_communities: int,
    excluded: set[tuple[int, int]],
) -> tuple[int, int]:
    """Uniform community, then a uniform pair in it, rejecting ``excluded``.

    The caller guarantees some within-community pair is not excluded.
    """
    while True:
        members = _community_members(int(rng.integers(n_communities)), n_nodes, n_communities)
        i, j = rng.choice(len(members), size=2, replace=False)
        u, v = members[int(i)], members[int(j)]
        pair = (u, v) if u < v else (v, u)
        if pair not in excluded:
            return pair


def _draw_cross_pair(
    rng: np.random.Generator, n_nodes: int, n_communities: int
) -> tuple[int, int]:
    """Uniform pair of nodes from two different communities."""
    while True:
        u = int(rng.integers(n_nodes))
        v = int(rng.integers(n_nodes))
        if _community(u, n_nodes, n_communities) != _community(v, n_nodes, n_communities):
            return (u, v) if u < v else (v, u)
