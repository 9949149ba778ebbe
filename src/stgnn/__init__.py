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
