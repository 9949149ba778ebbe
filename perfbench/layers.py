"""Where the benchmark's spans go in the program, and the per-layer metrics.

The layers are the modules of ``stgnn``: temporal_graph, powerlaw,
significance, training, model, evaluation and cli.  Stage probes (the
pipeline stages the end-to-end metrics and output checks need) are
installed in every run; layer spans only in a traced run.
"""

from __future__ import annotations

from tracing import Tracer


def _fill(tr: Tracer, args, kwargs, result) -> None:
    # top_m(self, u, t, m) / random_m(self, u, t, m, rng)
    m = args[3] if len(args) > 3 else kwargs["m"]
    tr.counters["fill_len"] += len(result[0])
    tr.counters["fill_cap"] += m


def _tree_shape(tr: Tracer, args, kwargs, result) -> None:
    fb = args[0] if args else kwargs["fb"]
    tr.counters["tree_entries"] += fb.owner.shape[0]
    tr.counters["tree_samples"] += fb.su.shape[0]


def _gaps(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["gaps"] += len(result)


def install(tracer: Tracer, mods: dict, captured: dict, trace: bool) -> None:
    """Install the stage probes, and with ``trace`` every layer span.

    ``mods`` maps module names ("cli", "training", ...) to the imported
    ``stgnn`` modules; ``captured`` receives the stage results the output
    checks read.
    """

    def keep(key):
        def hook(tr, args, kwargs, result):
            captured[key] = result

        return hook

    def keep_args(key):
        def hook(tr, args, kwargs, result):
            captured[key] = args

        return hook

    def keep_graph(tr, args, kwargs, result):
        captured["graph"] = result
        tr.counters["events"] += result.num_events

    def keep_train(tr, args, kwargs, result):
        captured["train"] = result
        tr.counters["skipped_negatives"] += result.skipped_negatives

    tg, tr_mod, ev, md = mods["temporal_graph"], mods["training"], mods["evaluation"], mods["model"]
    tracer.install(tg, "load_edge_list", "temporal_graph.load_edge_list", keep_graph)
    tracer.install(tg, "split_train_test", "temporal_graph.split_train_test", keep("split"))
    tracer.install(tr_mod, "train", "training.train", keep_train, record=True)
    tracer.install(ev, "evaluate", "evaluation.evaluate", keep("report"), record=True)
    tracer.install(md, "save_checkpoint", "model.save_checkpoint", keep_args("saved"))
    tracer.install(md, "load_checkpoint", "model.load_checkpoint", keep("loaded"))
    if not trace:
        return

    pl = mods["powerlaw"]
    tracer.install(pl, "collect_inter_event_times", "powerlaw.collect_inter_event_times", _gaps)
    tracer.install(pl, "fit_power_law", "powerlaw.fit_power_law")

    index_cls = getattr(mods["significance"], "SignificanceIndex", None)
    for attr, hook in (("top_m", _fill), ("random_m", _fill), ("neighbor_scores", None), ("add_event", None)):
        name = f"SignificanceIndex.{attr}"
        if index_cls is None:
            tracer.absent.append(name)
        else:
            tracer.install(index_cls, attr, name, hook)
    tracer.install(md, "top_m_neighbors", "model.top_m_neighbors")

    for attr, hook in (
        ("build_positive_samples", None),
        ("_draw_negative", None),
        ("_valid_negative", None),
        ("_capture_chunk", None),
        ("_forward_backward", _tree_shape),
        ("adam_step", None),
    ):
        tracer.install(tr_mod, attr, f"training.{attr}", hook)

    for attr in (
        "forward_node",
        "node_embeddings",
        "sample_test_negatives",
        "score_pair",
        "auc",
        "mean_average_precision",
        "heuristic_reference",
    ):
        tracer.install(ev, attr, f"evaluation.{attr}")


def _ratio(num: float, den: float) -> float:
    # A layer that did not run on a workload reads 0; its *_calls say so.
    return num / den if den else 0.0


def _top_m_hits(t: Tracer) -> float:
    calls = t.calls("SignificanceIndex.top_m")
    misses = t.edges[("SignificanceIndex.top_m", "SignificanceIndex.neighbor_scores")]
    return 1.0 - misses / calls if calls else 0.0


def _scoring(t: Tracer) -> float:
    return sum(t.total(f"evaluation.{n}") for n in ("score_pair", "auc", "mean_average_precision"))


# (metric, unit, better, spans it needs, value).  A metric whose span is
# absent from the program is left out of the output rather than failing.
PER_LAYER = [
    ("temporal_graph.load_s", "s", "lower", ("temporal_graph.load_edge_list",),
     lambda t: t.total("temporal_graph.load_edge_list")),
    ("temporal_graph.split_s", "s", "lower", ("temporal_graph.split_train_test",),
     lambda t: t.total("temporal_graph.split_train_test")),
    ("temporal_graph.events", "count", "higher", ("temporal_graph.load_edge_list",),
     lambda t: t.counters["events"]),
    ("powerlaw.collect_s", "s", "lower", ("powerlaw.collect_inter_event_times",),
     lambda t: t.total("powerlaw.collect_inter_event_times")),
    ("powerlaw.fit_s", "s", "lower", ("powerlaw.fit_power_law",),
     lambda t: t.total("powerlaw.fit_power_law")),
    ("powerlaw.gaps", "count", "higher", ("powerlaw.collect_inter_event_times",),
     lambda t: t.counters["gaps"]),
    ("significance.top_m_calls", "count", "lower", ("SignificanceIndex.top_m",),
     lambda t: t.calls("SignificanceIndex.top_m")),
    ("significance.top_m_s", "s", "lower", ("SignificanceIndex.top_m",),
     lambda t: t.total("SignificanceIndex.top_m")),
    ("significance.top_m_cache_hit_ratio", "ratio", "higher",
     ("SignificanceIndex.top_m", "SignificanceIndex.neighbor_scores"), _top_m_hits),
    ("significance.candidate_fill_ratio", "ratio", "higher",
     ("SignificanceIndex.top_m", "SignificanceIndex.random_m"),
     lambda t: _ratio(t.counters["fill_len"], t.counters["fill_cap"])),
    ("significance.random_m_calls", "count", "lower", ("SignificanceIndex.random_m",),
     lambda t: t.calls("SignificanceIndex.random_m")),
    ("significance.random_m_s", "s", "lower", ("SignificanceIndex.random_m",),
     lambda t: t.total("SignificanceIndex.random_m")),
    ("significance.add_event_s", "s", "lower", ("SignificanceIndex.add_event",),
     lambda t: t.total("SignificanceIndex.add_event")),
    ("significance.top_m_neighbors_calls", "count", "lower", ("model.top_m_neighbors",),
     lambda t: t.calls("model.top_m_neighbors")),
    ("significance.top_m_neighbors_s", "s", "lower", ("model.top_m_neighbors",),
     lambda t: t.total("model.top_m_neighbors")),
    ("training.positives_s", "s", "lower", ("training.build_positive_samples",),
     lambda t: t.total("training.build_positive_samples")),
    ("training.negatives_s", "s", "lower", ("training._draw_negative",),
     lambda t: t.total("training._draw_negative")),
    ("training.negative_tries_per_sample", "ratio", "lower",
     ("training._draw_negative", "training._valid_negative"),
     lambda t: _ratio(t.calls("training._valid_negative"), t.calls("training._draw_negative"))),
    ("training.capture_s", "s", "lower", ("training._capture_chunk",),
     lambda t: t.self_time("training._capture_chunk")),
    ("training.forward_backward_s", "s", "lower", ("training._forward_backward",),
     lambda t: t.total("training._forward_backward")),
    ("training.adam_s", "s", "lower", ("training.adam_step",),
     lambda t: t.total("training.adam_step")),
    ("training.batches", "count", "lower", ("training.adam_step",),
     lambda t: t.calls("training.adam_step")),
    ("training.tree_entries_per_sample", "ratio", "lower", ("training._forward_backward",),
     lambda t: _ratio(t.counters["tree_entries"], t.counters["tree_samples"])),
    ("training.skipped_negatives", "count", "lower", ("training.train",),
     lambda t: t.counters["skipped_negatives"]),
    ("training.self_s", "s", "lower", ("training.train",),
     lambda t: t.self_time("training.train")),
    ("model.forward_node_calls", "count", "lower", ("evaluation.forward_node",),
     lambda t: t.calls("evaluation.forward_node")),
    ("model.forward_node_s", "s", "lower", ("evaluation.forward_node",),
     lambda t: t.total("evaluation.forward_node")),
    ("model.checkpoint_s", "s", "lower", ("model.save_checkpoint", "model.load_checkpoint"),
     lambda t: t.total("model.save_checkpoint") + t.total("model.load_checkpoint")),
    ("evaluation.embeddings_s", "s", "lower", ("evaluation.node_embeddings",),
     lambda t: t.self_time("evaluation.node_embeddings")),
    ("evaluation.test_negatives_s", "s", "lower", ("evaluation.sample_test_negatives",),
     lambda t: t.total("evaluation.sample_test_negatives")),
    ("evaluation.scoring_s", "s", "lower",
     ("evaluation.score_pair", "evaluation.auc", "evaluation.mean_average_precision"), _scoring),
    ("evaluation.reference_s", "s", "lower", ("evaluation.heuristic_reference",),
     lambda t: t.total("evaluation.heuristic_reference")),
    ("evaluation.pairs_scored", "count", "higher", ("evaluation.score_pair",),
     lambda t: t.calls("evaluation.score_pair")),
    ("evaluation.self_s", "s", "lower", ("evaluation.evaluate",),
     lambda t: t.self_time("evaluation.evaluate")),
]

# Reported by run.py from the traced and untraced rounds of one run.
TRACE_METRICS = [
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values of one traced round, absent spans left out."""
    absent = set(tracer.absent)
    return {
        name: value(tracer)
        for name, _unit, _better, needs, value in PER_LAYER
        if not absent.intersection(needs)
    }


def units() -> dict[str, str]:
    return {name: unit for name, unit, *_ in PER_LAYER} | {n: u for n, u, _ in TRACE_METRICS}
