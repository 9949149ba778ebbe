"""Output checks, with expected values computed from the edge file alone.

Nothing here imports ``stgnn`` or compares against a stored copy of an
earlier output: the edge file is parsed by this module's own reader and
every expected value follows from its definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Tolerances sit far below the perturbations the benchmark's tests apply
# (1e-9 on the reference AUC, 1e-6 on alpha) and far above the rounding
# that a different summation order leaves.
AUC_TOL = 1e-12
REL_TOL = 1e-10


@dataclass(frozen=True)
class Expected:
    """What the pipeline must report for one edge file and split ratio."""

    num_nodes: int
    num_events: int
    t_split: float
    train_events: int
    n_pos: int
    reference_auc: float
    train_gaps: tuple[float, ...]  # positive consecutive gaps per pair, t <= t_split


def read_edge_file(path) -> list[tuple[str, str, float]]:
    """Rows of "u v t" (whitespace or comma separated; '#'/'%' comments)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            fields = line.strip().replace(",", " ").split()
            if not fields or fields[0][0] in "#%":
                continue
            rows.append((fields[0], fields[1], float(fields[2])))
    return rows


def expected_from_file(path, ratio: float) -> Expected:
    """Expected load, split and reference values, by definition.

    Times are shifted so the first contact is at 0; self-loops are not
    events.  Training keeps t <= t_split = ratio * t_max; the held-out
    positives are the distinct pairs with a contact after t_split.  Test
    negatives are never-linked pairs, so each scores exactly 0 under the
    decayed-count reference, while a held-out pair with a contact strictly
    before t_split scores above 0: the reference AUC is therefore
    1 - (share of held-out pairs with no such contact) / 2.
    """
    rows = read_edge_file(path)
    t_min = min(t for _, _, t in rows)
    labels = {x for u, v, _ in rows for x in (u, v)}
    events = [((u, v) if u < v else (v, u), t - t_min) for u, v, t in rows if u != v]
    t_split = ratio * max(t for _, t in events)

    heldout = {pair for pair, t in events if t > t_split}
    seen_before = {pair for pair, t in events if t < t_split}
    share_unseen = len(heldout - seen_before) / len(heldout)

    times: dict[tuple[str, str], list[float]] = {}
    for pair, t in events:
        if t <= t_split:
            times.setdefault(pair, []).append(t)
    gaps = []
    for ts in times.values():
        ts.sort()
        gaps.extend(b - a for a, b in zip(ts, ts[1:]) if b > a)

    return Expected(
        num_nodes=len(labels),
        num_events=len(events),
        t_split=t_split,
        train_events=sum(len(ts) for ts in times.values()),
        n_pos=len(heldout),
        reference_auc=1.0 - 0.5 * share_unseen,
        train_gaps=tuple(gaps),
    )


def mle_alpha(gaps, xmin: float) -> float:
    """Continuous power-law MLE 1 + n / sum(ln(x / xmin)) over gaps >= xmin."""
    tail = [x for x in gaps if x >= xmin]
    return 1.0 + len(tail) / math.fsum(math.log(x / xmin) for x in tail)


def window(alpha: float, xmin: float, p: float) -> float:
    """Gap length the fitted tail exceeds with probability 1 - p."""
    return xmin * (1.0 - p) ** (-1.0 / (alpha - 1.0))


def _rel_close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def check_load(exp: Expected, num_events: int, num_nodes: int) -> list[str]:
    bad = []
    if num_events != exp.num_events:
        bad.append(f"load: {num_events} events, file has {exp.num_events}")
    if num_nodes != exp.num_nodes:
        bad.append(f"load: {num_nodes} nodes, file has {exp.num_nodes}")
    return bad


def check_split(exp: Expected, t_split: float, train_events: int, test_pairs: int) -> list[str]:
    bad = []
    if not _rel_close(t_split, exp.t_split):
        bad.append(f"split: t_split {t_split!r}, expected {exp.t_split!r}")
    if train_events != exp.train_events:
        bad.append(f"split: {train_events} training events, expected {exp.train_events}")
    if test_pairs != exp.n_pos:
        bad.append(f"split: {test_pairs} held-out pairs, expected {exp.n_pos}")
    return bad


def check_fit(exp: Expected, fit: dict, p: float) -> list[str]:
    """The reported alpha is the MLE at the reported xmin; the window follows."""
    alpha, xmin, delta = fit["alpha"], fit["xmin"], fit["delta"]
    want_alpha = mle_alpha(exp.train_gaps, xmin)
    bad = []
    if not _rel_close(alpha, want_alpha):
        bad.append(f"fit: alpha {alpha!r}, MLE at xmin={xmin!r} is {want_alpha!r}")
    if not _rel_close(delta, window(want_alpha, xmin, p)):
        bad.append(f"fit: window {delta!r}, expected {window(want_alpha, xmin, p)!r}")
    return bad


def check_train(losses: list[float], epochs: int) -> list[str]:
    bad = []
    if len(losses) != epochs:
        bad.append(f"train: {len(losses)} epochs of loss, configured {epochs}")
    if not all(math.isfinite(x) for x in losses):
        bad.append(f"train: non-finite loss in {losses}")
    elif len(losses) > 1 and not losses[-1] < losses[0]:
        bad.append(f"train: last loss {losses[-1]!r} not below first {losses[0]!r}")
    return bad


def check_evaluate(exp: Expected, report: dict, auc_floor: float | None) -> list[str]:
    """Counts, closed-form reference, best-of-three, and the learning signal.

    With ``auc_floor`` None the best AUC must beat the reference AUC.
    """
    bad = []
    if report["n_pos"] != exp.n_pos:
        bad.append(f"evaluate: n_pos {report['n_pos']}, expected {exp.n_pos}")
    if report["n_neg"] != report["n_pos"]:
        bad.append(f"evaluate: n_neg {report['n_neg']} differs from n_pos {report['n_pos']}")
    if abs(report["reference_auc"] - exp.reference_auc) > AUC_TOL:
        bad.append(
            f"evaluate: reference_auc {report['reference_auc']!r}, closed form {exp.reference_auc!r}"
        )
    aucs = [s["auc"] for s in report["similarity"].values()]
    if not all(0.0 <= a <= 1.0 for a in aucs):
        bad.append(f"evaluate: AUC outside [0, 1] in {aucs}")
    if report["best_auc"] != max(aucs):
        bad.append(f"evaluate: best_auc {report['best_auc']!r} is not the largest of {aucs}")
    if auc_floor is None:
        if not report["best_auc"] > report["reference_auc"]:
            bad.append(
                f"evaluate: best_auc {report['best_auc']!r} does not beat "
                f"reference {report['reference_auc']!r}"
            )
    elif not report["best_auc"] >= auc_floor:
        bad.append(f"evaluate: best_auc {report['best_auc']!r} below floor {auc_floor}")
    return bad
