import numpy as np
import pytest

from stgnn.significance import TopMTable
from stgnn.temporal_graph import Event, from_events


def random_stream(rng, n_nodes=20, n_events=300, mean_gap=0.1):
    """Random undirected contact stream with exponential inter-arrival."""
    events = []
    t = 0.0
    for _ in range(n_events):
        t += float(rng.exponential(mean_gap))
        u, v = rng.choice(n_nodes, size=2, replace=False)
        events.append(Event(int(u), int(v), t))
    return from_events(events, num_nodes=n_nodes)


def tied_stream(batch_size: int):
    """A random stream whose events batch_size - 2 .. batch_size + 1 share
    one timestamp, so a tie straddles the first chunk boundary."""
    g = random_stream(np.random.default_rng(8), n_nodes=15, n_events=4 * batch_size)
    events = list(g.events)
    t_tie = events[batch_size - 2].t
    for k in range(batch_size - 2, batch_size + 2):
        events[k] = Event(events[k].u, events[k].v, t_tie)
    return from_events(events, num_nodes=15)


def table_list(table: TopMTable, u: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """One table lookup cut to its valid slots."""
    ids, scores, mask = table.lookup([u], [t])
    return ids[0][mask[0]], scores[0][mask[0]]


def index_pair_score(index, u: int, v: int, t: float) -> float:
    """The (u, v) score a SignificanceIndex gives at t, 0 for a pair it
    has not seen; strictly before t while no contact at t is added."""
    ids, scores = index.neighbor_scores(u, t)
    return float(scores[ids == v].sum())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_graph(rng):
    return random_stream(rng, n_nodes=12, n_events=120)
