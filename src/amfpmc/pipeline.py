"""Dataset assembly, training loop, and the two evaluation harnesses.

Propagation targets and class weights are always recomputed from training
edges only, so no fold or snapshot ever sees a test edge. Every source of
randomness is a numpy Generator seeded from explicit integers, which makes
whole evaluation runs byte-reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import metrics as metrics_mod
from .errors import (
    EmptyDatasetError,
    EmptyGridError,
    EmptyIntersectionError,
    EmptySubsetError,
    InvalidConfigError,
    NonFiniteError,
    TooFewPairsError,
)
from .graph import HOLDOUT, RETROSPECTIVE, Roster, TypedInteractionGraph, build_graph
from .metrics import MultiClassReport, PerClassMetrics, multiclass_report
from .model import (
    Hyperparameters,
    ModelParameters,
    OptimizerState,
    adam_step,
    backward,
    init_model,
    predict_batch,
)
from .propagation import neighborhood_distributions, one_hot, propagate_targets

#: Full enumeration of the retrospective test universe is the default; only
#: beyond this many pairs is a seeded subsample taken.
DEFAULT_TEST_PAIR_CAP = 5_000_000


@dataclass
class LabeledPair:
    """A canonical (i < j) drug pair with its hard label and soft target."""

    i: int
    j: int
    label: int
    target: np.ndarray

    def __post_init__(self):
        if self.i > self.j:
            self.i, self.j = self.j, self.i


def attach_targets(
    items: Sequence[tuple[int, int, int]],
    graph: TypedInteractionGraph,
    alpha: float,
) -> list[LabeledPair]:
    """Turn (i, j, label) triples into LabeledPairs with propagated targets.

    The graph passed here decides what the propagation can see; hand it the
    training-fold graph, never the full one. The targets are rows of one
    (len(items), K) matrix.
    """
    triples = np.array(items, dtype=np.int64).reshape(-1, 3)
    targets = propagate_targets(graph, triples[:, 0], triples[:, 1], triples[:, 2], alpha)
    return [LabeledPair(i, j, label, t) for (i, j, label), t in zip(items, targets)]


def one_hot_pairs(items: Sequence[tuple[int, int, int]], n_classes: int) -> list[LabeledPair]:
    """LabeledPairs with plain one-hot targets (propagation bypassed)."""
    return [LabeledPair(i, j, label, one_hot(label, n_classes)) for i, j, label in items]


def train(
    pairs: Sequence[LabeledPair],
    hp: Hyperparameters,
    n_drugs: int,
    n_classes: int,
) -> ModelParameters:
    """Mini-batch Adam training, deterministic given hp.seed.

    Class weights come from the hard labels of the given pairs; targets are
    taken as-is (compute them with attach_targets on the training graph).
    """
    hp.validate()
    if len(pairs) == 0:
        raise EmptyDatasetError("no training pairs")
    I = np.array([p.i for p in pairs], dtype=np.int64)
    J = np.array([p.j for p in pairs], dtype=np.int64)
    labels = np.array([p.label for p in pairs], dtype=np.int64)
    T = np.stack([p.target for p in pairs], dtype=np.float64)

    if hp.balance_classes:
        weights = metrics_mod.class_weights(np.bincount(labels, minlength=n_classes))
    else:
        weights = np.ones(n_classes, dtype=np.float64)

    rng = np.random.default_rng(hp.seed)
    params = init_model(n_drugs, n_classes, hp, rng=rng)
    state = OptimizerState.for_params(params)
    n_pairs = len(pairs)
    for _ in range(hp.epochs):
        order = rng.permutation(n_pairs)
        for start in range(0, n_pairs, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            _, grads = backward(
                params, I[idx], J[idx], T[idx], weights, dropout=hp.dropout, rng=rng
            )
            adam_step(params, grads, state, hp.learning_rate)
    return params


def score_pairs(params: ModelParameters, items: Sequence[tuple[int, int]]) -> np.ndarray:
    """Prediction distributions for (i, j) pairs, shape (len(items), K)."""
    I = np.array([p[0] for p in items], dtype=np.int64)
    J = np.array([p[1] for p in items], dtype=np.int64)
    return predict_batch(params, I, J)


# -- fold assembly ---------------------------------------------------------


def stratified_kfold(labels, k: int, seed: int) -> np.ndarray:
    """Fold index per item: seeded shuffle within class, round-robin to folds."""
    y = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise InvalidConfigError("k must be >= 2")
    if y.size < k:
        raise TooFewPairsError(f"{y.size} pairs cannot fill {k} folds")
    rng = np.random.default_rng(seed)
    folds = np.empty(y.size, dtype=np.int64)
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        rng.shuffle(members)
        folds[members] = np.arange(members.size) % k
    return folds


def _mean_optional(values: list[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))


def mean_report(reports: Sequence[MultiClassReport],
                per_class: Optional[list[PerClassMetrics]] = None) -> MultiClassReport:
    """Field-wise mean of scalar metrics; per-class rows are passed through."""
    if not reports:
        raise EmptyDatasetError("no reports to average")
    names = [name for name, _ in reports[0].scalar_items()]
    means = {
        name: _mean_optional([dict(r.scalar_items())[name] for r in reports])
        for name in names
    }
    return MultiClassReport(per_class=list(per_class or []), **means)


@dataclass
class HoldoutResult:
    """Cross-validation outcome: fold-mean scalars plus pooled per-class table."""

    mean: MultiClassReport
    folds: list[MultiClassReport]

    @property
    def per_class_table(self) -> list[PerClassMetrics]:
        return self.mean.per_class


def holdout_evaluate(
    graph: TypedInteractionGraph,
    hp: Hyperparameters,
    k: int = 5,
    seed: int = 0,
) -> HoldoutResult:
    """Stratified k-fold over the graph's edges.

    Each fold trains on the remaining folds' edges only (the propagation
    graph is rebuilt per fold and checked to contain zero test edges), scores
    the held-out edges, and reports. The returned mean report averages the
    scalar metrics over folds; its per-class table is computed from pooled
    out-of-fold predictions (each edge scored exactly once) and sorted by
    support, descending.
    """
    if graph.mode != HOLDOUT:
        raise InvalidConfigError("holdout evaluation needs a holdout-mode graph")
    items = graph.edge_list()
    if not items:
        raise EmptyDatasetError("graph has no edges")
    labels = np.array([c for _, _, c in items], dtype=np.int64)
    folds = stratified_kfold(labels, k, seed)

    n, K = graph.n_drugs, graph.n_classes
    pooled = np.zeros((len(items), K), dtype=np.float64)
    fold_reports: list[MultiClassReport] = []
    for f in range(k):
        test_idx = np.flatnonzero(folds == f)
        train_items = [items[t] for t in np.flatnonzero(folds != f)]
        train_graph = build_graph(n, K, graph.mode, train_items, roster=graph.roster)
        for t in test_idx:
            i, j, _ = items[t]
            if train_graph.has_edge(i, j):
                raise RuntimeError(f"test edge ({i}, {j}) leaked into fold {f} training graph")
        labeled = attach_targets(train_items, train_graph, hp.alpha)
        params = train(labeled, hp.with_(seed=hp.seed + f), n, K)
        probs = score_pairs(params, [(items[t][0], items[t][1]) for t in test_idx])
        fold_reports.append(multiclass_report(probs, labels[test_idx]))
        pooled[test_idx] = probs

    pooled_per_class = multiclass_report(pooled, labels).per_class
    pooled_per_class.sort(key=lambda r: (-r.support, r.class_id))
    return HoldoutResult(mean=mean_report(fold_reports, pooled_per_class), folds=fold_reports)


# -- retrospective harness ---------------------------------------------------


def reconcile_rosters(
    g0: TypedInteractionGraph, g1: TypedInteractionGraph
) -> tuple[TypedInteractionGraph, TypedInteractionGraph]:
    """Rebuild two snapshots on their common drug set (sorted external ids)."""
    if g0.roster is None or g1.roster is None:
        raise InvalidConfigError("reconciling snapshots requires rosters")
    common = sorted(set(g0.roster.external_ids) & set(g1.roster.external_ids))
    if not common:
        raise EmptyIntersectionError("snapshots share no drugs")
    roster = Roster(common)

    def restrict(g: TypedInteractionGraph) -> TypedInteractionGraph:
        out = TypedInteractionGraph(len(common), g.n_classes, g.mode, roster=roster)
        keep = {ext: idx for idx, ext in enumerate(common)}
        for i, j, c in g.edge_list():
            a = keep.get(g.roster.external_id(i))
            b = keep.get(g.roster.external_id(j))
            if a is not None and b is not None:
                out.add_interaction(a, b, c)
        return out

    return restrict(g0), restrict(g1)


@dataclass
class RetrospectiveSplit:
    """Train on one snapshot's edges plus sampled negatives; test elsewhere."""

    n_drugs: int
    n_classes: int
    roster: Optional[Roster]
    train_items: list[tuple[int, int, int]]
    test_items: list[tuple[int, int, int]]


def retrospective_split(
    graph_t0: TypedInteractionGraph,
    graph_t1: TypedInteractionGraph,
    negative_ratio: float = 1.0,
    seed: int = 0,
    test_pair_cap: int = DEFAULT_TEST_PAIR_CAP,
) -> RetrospectiveSplit:
    """Train set = T0 edges plus sampled class-0 pairs; test = the rest.

    Test pairs are exactly the pairs unlabeled in T0 (minus the sampled
    training negatives); their truth is the T1 class, or 0 if still
    unlabeled there. Beyond test_pair_cap the test universe is subsampled
    with the same seed.
    """
    if graph_t0.mode != RETROSPECTIVE or graph_t1.mode != RETROSPECTIVE:
        raise InvalidConfigError("retrospective split needs retrospective-mode graphs")
    if graph_t0.n_drugs != graph_t1.n_drugs or graph_t0.n_classes != graph_t1.n_classes:
        raise InvalidConfigError("snapshots must be reconciled to a common roster first")
    if graph_t0.roster is not None and graph_t1.roster is not None:
        if graph_t0.roster.external_ids != graph_t1.roster.external_ids:
            raise EmptyIntersectionError("snapshot rosters disagree; reconcile first")
    if negative_ratio < 0:
        raise InvalidConfigError("negative_ratio must be >= 0")

    n = graph_t0.n_drugs
    edges0 = graph_t0.edge_list()
    rng = np.random.default_rng(seed)

    iu, ju = np.triu_indices(n, k=1)
    keys = iu * n + ju
    edge_keys = np.array(sorted(i * n + j for i, j, _ in edges0), dtype=np.int64)
    unlabeled = ~np.isin(keys, edge_keys)
    iu, ju = iu[unlabeled], ju[unlabeled]
    universe = iu.size

    n_neg = min(universe, int(round(negative_ratio * len(edges0))))
    neg_mask = np.zeros(universe, dtype=bool)
    if n_neg > 0:
        neg_mask[rng.choice(universe, size=n_neg, replace=False)] = True

    train_items = list(edges0) + [
        (int(a), int(b), 0) for a, b in zip(iu[neg_mask], ju[neg_mask])
    ]

    ti, tj = iu[~neg_mask], ju[~neg_mask]
    if ti.size > test_pair_cap:
        sel = np.sort(rng.choice(ti.size, size=test_pair_cap, replace=False))
        ti, tj = ti[sel], tj[sel]
    test_items = []
    for a, b in zip(ti, tj):
        truth = graph_t1.lookup(int(a), int(b))
        test_items.append((int(a), int(b), 0 if truth is None else truth))

    train_keys = {i * n + j for i, j, _ in train_items}
    test_keys = {i * n + j for i, j, _ in test_items}
    if train_keys & test_keys:
        raise RuntimeError("retrospective split produced overlapping train/test pairs")

    return RetrospectiveSplit(
        n_drugs=n,
        n_classes=graph_t0.n_classes,
        roster=graph_t0.roster,
        train_items=train_items,
        test_items=test_items,
    )


def retrospective_evaluate(
    split: RetrospectiveSplit,
    hp: Hyperparameters,
    subset: Optional[set[int]] = None,
) -> MultiClassReport:
    """Train on the split's training items, score its test pairs.

    subset, when given, restricts scoring to pairs with both endpoints in
    the set (drug indices); class 0 acts as the no-interaction class.
    """
    train_graph = build_graph(
        split.n_drugs,
        split.n_classes,
        RETROSPECTIVE,
        [item for item in split.train_items if item[2] != 0],
        roster=split.roster,
    )
    labeled = attach_targets(split.train_items, train_graph, hp.alpha)
    params = train(labeled, hp, split.n_drugs, split.n_classes)

    test_items = split.test_items
    if subset is not None:
        test_items = [(i, j, c) for i, j, c in test_items if i in subset and j in subset]
        if not test_items:
            raise EmptySubsetError("drug subset leaves no test pairs")
    probs = score_pairs(params, [(i, j) for i, j, _ in test_items])
    truths = np.array([c for _, _, c in test_items], dtype=np.int64)
    return multiclass_report(probs, truths)


# -- grid search -------------------------------------------------------------

GRID_FIELDS = ("embedding_dim", "dropout", "epochs", "batch_size", "learning_rate", "alpha")


@dataclass
class GridSpec:
    """Candidate value lists per hyperparameter; missing fields stay at base."""

    values: dict[str, list] = field(default_factory=dict)

    def __post_init__(self):
        for name, vals in self.values.items():
            if name not in GRID_FIELDS:
                raise InvalidConfigError(f"unknown grid dimension {name!r}")
            if not vals:
                raise EmptyGridError(f"grid dimension {name!r} is empty")

    def candidates(self, base: Hyperparameters) -> list[Hyperparameters]:
        dims = [name for name in GRID_FIELDS if name in self.values]
        if not dims:
            raise EmptyGridError("grid has no dimensions")
        out = []
        for combo in itertools.product(*(self.values[name] for name in dims)):
            out.append(base.with_(**dict(zip(dims, combo))))
        return out


def stratified_validation_split(
    items: Sequence[tuple[int, int, int]], fraction: float, seed: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Per-class seeded split keeping at least one training item per class."""
    if not 0.0 < fraction < 1.0:
        raise InvalidConfigError("validation fraction must be in (0, 1)")
    labels = np.array([c for _, _, c in items], dtype=np.int64)
    rng = np.random.default_rng(seed)
    val_idx: list[int] = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        n_val = min(int(round(fraction * members.size)), members.size - 1)
        val_idx.extend(members[:n_val].tolist())
    val_set = set(val_idx)
    train_items = [item for t, item in enumerate(items) if t not in val_set]
    val_items = [item for t, item in enumerate(items) if t in val_set]
    if not val_items:
        raise InvalidConfigError("validation fraction too small for this dataset")
    return train_items, val_items


def grid_search(
    items: Sequence[tuple[int, int, int]],
    n_drugs: int,
    n_classes: int,
    mode: str,
    base_hp: Hyperparameters,
    grid: GridSpec,
    validation_fraction: float = 0.2,
    seed: int = 0,
    objective: str = "accuracy",
    max_candidates: int = 1000,
    allow_large: bool = False,
) -> tuple[Hyperparameters, list[tuple[Hyperparameters, float]]]:
    """Exhaustive grid search scored on a stratified validation split.

    The objective is validation accuracy by default; 'auroc' switches to
    macro AUROC. Ties keep the first candidate in enumeration order. Grids
    beyond max_candidates are refused unless allow_large is set.
    """
    if objective not in ("accuracy", "auroc"):
        raise InvalidConfigError("objective must be 'accuracy' or 'auroc'")
    candidates = grid.candidates(base_hp)
    if len(candidates) > max_candidates and not allow_large:
        raise InvalidConfigError(
            f"grid enumerates {len(candidates)} candidates (> {max_candidates}); "
            "pass allow_large to proceed"
        )
    train_items, val_items = stratified_validation_split(items, validation_fraction, seed)
    train_graph = build_graph(
        n_drugs,
        n_classes,
        mode,
        [item for item in train_items if not (mode == RETROSPECTIVE and item[2] == 0)],
    )
    val_pairs = [(i, j) for i, j, _ in val_items]
    val_truths = np.array([c for _, _, c in val_items], dtype=np.int64)

    results: list[tuple[Hyperparameters, float]] = []
    best: Optional[tuple[Hyperparameters, float]] = None
    for hp_c in candidates:
        labeled = attach_targets(train_items, train_graph, hp_c.alpha)
        params = train(labeled, hp_c, n_drugs, n_classes)
        probs = score_pairs(params, val_pairs)
        if not np.all(np.isfinite(probs)):
            raise NonFiniteError(
                f"candidate {hp_c} gives non-finite validation probabilities (did training diverge?)"
            )
        if objective == "accuracy":
            score = float(np.mean(np.argmax(probs, axis=1) == val_truths))
        else:
            score = multiclass_report(probs, val_truths, mode="macro").macro_auroc or 0.0
        results.append((hp_c, score))
        if best is None or score > best[1]:
            best = (hp_c, score)
    return best[0], results


# -- baselines ---------------------------------------------------------------


def baseline_neighborhood(
    graph: TypedInteractionGraph, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Non-learned floor: each pair scored by its neighborhood distribution."""
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return neighborhood_distributions(graph, ends[:, 0], ends[:, 1])


def baseline_majority(
    train_labels, n_test: int, n_classes: int
) -> np.ndarray:
    """Every test pair gets the empirical training class frequencies."""
    y = np.asarray(train_labels, dtype=np.int64)
    if y.size == 0:
        raise EmptyDatasetError("majority baseline needs training labels")
    freq = np.bincount(y, minlength=n_classes).astype(np.float64)
    freq /= freq.sum()
    return np.tile(freq, (n_test, 1))
