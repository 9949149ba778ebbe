"""Significant-ties temporal graph neural network (STGNN).

Continuous-time temporal link prediction built around three ideas, over
a columnar contact stream (``TemporalGraph``: time-sorted ``src``, ``dst``
and ``t`` columns plus a CSR pair index, built by ``from_columns``):

* exponentially decayed interaction significance ranks each node's
  neighbors, and only the top-m most significant ones are aggregated
  (candidate lists are zero-padded rows of neighbor ids, scores and a
  validity mask, score-descending; ``top_m_neighbors`` gives every
  node's row at one time);
* a forward-looking "intimate window", sized from a power-law fit of
  inter-event times, turns each event into a graded significance label;
* a cosine embedding loss weighted by those labels trains a small
  two-layer aggregation network from scratch (plain numpy, exact
  hand-derived gradients).
"""

from stgnn.temporal_graph import (
    TemporalGraph,
    DataSplit,
    from_columns,
    load_edge_list,
    write_edge_list,
    split_train_test,
)
from stgnn.powerlaw import (
    PowerLawFit,
    collect_inter_event_times,
    fit_power_law,
    intimate_window_size,
    sample_power_law,
)
from stgnn.significance import (
    SignificanceIndex,
    top_m_neighbors,
)
from stgnn.model import (
    ModelParams,
    init_params,
    random_features,
    forward_node,
    save_checkpoint,
    load_checkpoint,
)
from stgnn.training import (
    TrainConfig,
    AdamState,
    TrainResult,
    TrainingDiverged,
    build_positive_samples,
    adam_step,
    train,
)
from stgnn.evaluation import (
    MetricsReport,
    score_pair,
    auc,
    mean_average_precision,
    evaluate,
    heuristic_reference,
)
from stgnn.synthetic import generate_synthetic

__version__ = "0.1.0"
