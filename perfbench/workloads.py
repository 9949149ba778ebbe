"""The benchmark's workloads: which stream is generated and which pipeline runs on it.

Every stream comes from ``stgnn.synthetic.generate_synthetic`` with the
workload seed; the program under test only ever sees the written edge file
(and, for ``eval-wide``, a checkpoint trained on it before timing starts).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# About 200 nodes, 20k events and mean degree 30: close to the Radoslaw
# e-mail network in degree, dense enough that candidate gathering dominates.
RUN_STREAM = dict(
    n_nodes=200,
    n_significant_pairs=200,
    events_per_significant_pair=50,
    n_background_events=10_000,
    n_communities=10,
    within_community_prob=0.9,
    background_recurrence=0.7,
    gap_alpha=2.0,
)

# About 2,000 nodes, 80k events and 12k held-out pairs: evaluation embeds
# every node and ranks about 24k pairs, so it outweighs set-up.
WIDE_STREAM = dict(
    n_nodes=2000,
    n_significant_pairs=1000,
    events_per_significant_pair=30,
    n_background_events=50_000,
    n_communities=100,
    within_community_prob=0.8,
    background_recurrence=0.3,
    gap_alpha=2.0,
)

# A few hundred events: each workload runs to its end in seconds (tests).
TINY_STREAM = dict(
    n_nodes=40,
    n_significant_pairs=20,
    events_per_significant_pair=20,
    n_background_events=400,
    n_communities=4,
    within_community_prob=0.9,
    background_recurrence=0.5,
    gap_alpha=2.0,
)

SPLIT_RATIO = 0.75
WINDOW_P = 0.5
# Set-up is repeated this many times in one extra process per run, so that
# its median is steady even when only one pipeline round fits in a run.
SETUP_REPEATS = 5

# Spans that must see calls in a traced run: the training layers on both
# ``run-*`` workloads (each adds its own selection route), the evaluation
# layers on every workload.
_TRAINING_SPANS = (
    "SignificanceIndex.add_event",
    "training.build_positive_samples",
    "training._draw_negative",
    "training._capture_chunk",
    "training._forward_backward",
    "training.adam_step",
    "powerlaw.fit_power_law",
)
_EVAL_SPANS = (
    "temporal_graph.load_edge_list",
    "evaluation.forward_node",
    "model.top_m_neighbors",
    "evaluation.score_pair",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``verb`` is "run" (``cli.run_single_rep``: load, split, fit, train,
    evaluate, write outputs) or "eval" (``cli.eval_checkpoint`` on a
    checkpoint trained before timing with ``epochs`` epochs).
    """

    name: str
    verb: str
    stream: dict
    ablation: str
    epochs: int
    per_node_map: bool
    must_fire: tuple[str, ...]
    # run: best AUC must reach this; eval: it must beat the reference AUC
    auc_floor: float | None

    def config(self, dataset: str, outdir: str, seed: int, *, for_training: bool = False) -> dict:
        """``cli.ExperimentConfig`` fields for one process of this workload."""
        return dict(
            dataset=dataset,
            time_unit=1.0,
            outdir=outdir,
            split_ratio=SPLIT_RATIO,
            repetitions=1,
            seed=seed,
            ablation=self.ablation,
            epochs=self.epochs,
            p=WINDOW_P,
            per_node_map=self.per_node_map and not for_training,
            jobs=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run-stgnn",
            verb="run",
            stream=RUN_STREAM,
            ablation="STGNN",
            epochs=2,
            per_node_map=False,
            must_fire=_TRAINING_SPANS + _EVAL_SPANS + ("SignificanceIndex.top_m",),
            auc_floor=0.8,
        ),
        Workload(
            name="run-bgnn",
            verb="run",
            stream=RUN_STREAM,
            ablation="BGNN",
            epochs=1,
            per_node_map=False,
            must_fire=_TRAINING_SPANS + _EVAL_SPANS + ("SignificanceIndex.random_m",),
            auc_floor=0.8,
        ),
        Workload(
            name="eval-wide",
            verb="eval",
            stream=WIDE_STREAM,
            ablation="STGNN",
            epochs=1,
            per_node_map=True,
            must_fire=_EVAL_SPANS + ("model.load_checkpoint", "evaluation.node_embeddings"),
            auc_floor=None,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload on a stream of a few hundred events.

    A model trained on so few events need not beat the reference, so the
    learning check only asks for better than chance.
    """
    return replace(w, stream=TINY_STREAM, auc_floor=0.5)
