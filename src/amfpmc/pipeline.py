"""Dataset assembly, training loop, and the two evaluation harnesses.

Propagation targets and class weights are always recomputed from training
edges only, so no fold or snapshot ever sees a test edge. Every source of
randomness is a numpy Generator seeded from explicit integers, which makes
whole evaluation runs byte-reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import cores
from . import metrics as metrics_mod
from .errors import (
    DegenerateLabelsError,
    EmptyDatasetError,
    EmptyGridError,
    EmptyIntersectionError,
    EmptySubsetError,
    InvalidConfigError,
    NonFiniteError,
    TooFewPairsError,
)
from .graph import (
    HOLDOUT,
    NO_INTERACTION,
    RETROSPECTIVE,
    Roster,
    TypedInteractionGraph,
    build_graph,
    pair_rows,
    row_chunks,
)
from .metrics import MultiClassReport, _by_support, mean_report, multiclass_report
from .model import (
    HELPER_MIN_PARAMETERS,
    Hyperparameters,
    ModelParameters,
    OptimizerState,
    _scatter_plan,
    adam_step,
    backward,
    init_model,
    predict_batch,
)
from .propagation import LabeledPairs, attach_targets, neighborhood_distributions

#: Full enumeration of the retrospective test universe is the default; only
#: beyond this many pairs is a seeded subsample taken.
DEFAULT_TEST_PAIR_CAP = 5_000_000
#: Uniform draws per piece of a dropout mask draw; any value gives the same masks.
MASK_BLOCK = 1 << 14


def one_hot_pairs(items, n_classes: int) -> LabeledPairs:
    """LabeledPairs with plain one-hot targets: alpha 0 over a graph with no edge."""
    rows = pair_rows(items)
    n_drugs = int(rows[:, :2].max(initial=0)) + 1
    return attach_targets(rows, build_graph(n_drugs, n_classes, HOLDOUT, []), 0.0)


def _training_steps(pairs: LabeledPairs, rng: np.random.Generator, hp: Hyperparameters):
    """(I, J, targets, masks, plan) for each training step, in the order train runs them.

    Each epoch draws one rng.permutation(len(pairs)), cut into batches of
    hp.batch_size rows; each batch then draws its i and then its j slot's
    (B, d) boolean keep mask, the draws of rng.random((B, d)) >= hp.dropout
    twice, through a block of at most MASK_BLOCK floats (masks is None
    without dropout). I, J and targets are pairs.batch's of the rows, and
    plan is backward's scatter plan, _scatter_plan(np.concatenate([I, J])).
    Masks and targets take turns between two buffers each, so step s + 1
    may be made while step s is in use.
    """
    n, d, most = len(pairs), hp.embedding_dim, min(hp.batch_size, len(pairs))
    targets = np.empty((3, most, pairs.graph.n_classes), dtype=np.float64)
    keep = np.empty((2, 2 * most, d), dtype=bool)
    block = np.empty((min(2 * most, max(1, MASK_BLOCK // d)), d), dtype=np.float64)
    k = 0
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            masks = None
            if hp.dropout > 0.0:
                both = keep[k, : 2 * idx.size]
                for lo in range(0, len(both), len(block)):
                    piece = both[lo : lo + len(block)]
                    np.greater_equal(rng.random(out=block[: len(piece)]), hp.dropout, out=piece)
                masks = both[: idx.size], both[idx.size :]
            I, J, T = pairs.batch(idx, targets[k, : idx.size], targets[2, : idx.size])
            k ^= 1
            yield I, J, T, masks, _scatter_plan(np.concatenate([I, J]))


def train(
    pairs: LabeledPairs,
    hp: Hyperparameters,
    n_drugs: int,
    n_classes: int,
) -> ModelParameters:
    """Mini-batch Adam training, deterministic given hp.seed.

    Class weights come from the hard labels of the given pairs; each batch's
    targets are pairs.batch's of its rows (build the pairs with
    attach_targets on the training graph). Every step, and all of it that
    reads its rows alone, comes from _training_steps, one step ahead
    (cores.ahead). A model of at least HELPER_MIN_PARAMETERS parameters
    opens a helper thread (cores.helper), which makes each next step while
    this thread runs the current one, in the same order, computes
    backward's head gradients beside its embedding gradients and runs half
    of each Adam update; a smaller model, or a process on one CPU, runs all
    of it in line. The parameters have the same bits either way. One
    gradient holder serves every step: backward fills it and adam_step
    reads what backward returned. A run whose parameters or Adam moments
    are not finite at the end is refused with NonFiniteError.
    """
    if len(pairs) == 0:
        raise EmptyDatasetError("no training pairs")
    if hp.balance_classes:
        weights = metrics_mod.class_weights(np.bincount(pairs.items[:, 2], minlength=n_classes))
    else:
        weights = np.ones(n_classes, dtype=np.float64)

    rng = np.random.default_rng(hp.seed)
    params = init_model(n_drugs, n_classes, hp, rng=rng)
    state = OptimizerState.for_params(params)
    grads = ModelParameters(n_drugs, n_classes, hp.embedding_dim)
    with cores.helper(params.flat.size >= HELPER_MIN_PARAMETERS):
        for I, J, T, masks, plan in cores.ahead(_training_steps(pairs, rng, hp)):
            _, grads = backward(params, I, J, T, weights, hp.dropout, masks, plan, grads)
            adam_step(params, grads, state, hp.learning_rate)
    # an overflowed second moment stays infinite, so this finds every diverged run
    if not (np.isfinite(params.flat).all() and np.isfinite(state.v).all()):
        raise NonFiniteError("training diverged: parameters or Adam moments are not finite "
                             "(is the learning rate too high?)")
    return params


def scored_chunks(params: ModelParameters, pairs):
    """(start, probs) for each graph.row_chunks slice of the (m, 2) pairs (i, j), in order.

    probs is the slice's (rows, K) distributions. Every scored pair set is
    chunked here, so scoring holds one chunk's (rows, d) and (rows, K)
    arrays however many pairs there are.
    """
    ends = pair_rows(pairs, width=2)
    for rows in row_chunks(len(ends)):
        yield rows.start, predict_batch(params, ends[rows, 0], ends[rows, 1])


def score_pairs(params: ModelParameters, pairs) -> np.ndarray:
    """Prediction distributions for (B, 2) pairs (i, j), shape (B, K): each scored_chunks chunk copied in."""
    ends = pair_rows(pairs, width=2)
    probs = np.empty((len(ends), params.n_classes), dtype=np.float64)
    for start, chunk in scored_chunks(params, ends):
        probs[start:start + len(chunk)] = chunk
    return probs


def training_graph(n_drugs: int, n_classes: int, mode: str, items) -> TypedInteractionGraph:
    """The propagation graph of (i, j, label) training rows.

    In retrospective mode the class-0 rows (sampled negatives) are trained
    on but not stored.
    """
    if mode == RETROSPECTIVE:
        items = items[items[:, 2] != NO_INTERACTION]
    return build_graph(n_drugs, n_classes, mode, items)


def fit_and_score(train_items: np.ndarray, train_graph: TypedInteractionGraph,
                  test_pairs: np.ndarray, hp: Hyperparameters) -> np.ndarray:
    """(m, K) distributions of the (m, 2) test pairs from a model trained on train_items.

    The one train-and-score task of every harness. Targets are propagated
    over train_graph; a test pair stored there is refused before training.
    It reads no module state beyond the functions it calls, so it and its
    arguments pickle.
    """
    leaked = np.flatnonzero(train_graph.edge_classes(test_pairs[:, 0], test_pairs[:, 1]) >= 0)
    if leaked.size:
        i, j = test_pairs[leaked[0]]
        raise RuntimeError(f"test pair ({i}, {j}) is an edge of the training graph")
    n, K = train_graph.n_drugs, train_graph.n_classes
    params = train(attach_targets(train_items, train_graph, hp.alpha), hp, n, K)
    return score_pairs(params, test_pairs)


# -- fold assembly ---------------------------------------------------------


def _shuffled_classes(labels: np.ndarray, seed: int):
    """Each class's positions in labels, classes ascending, shuffled by one seeded generator."""
    rng = np.random.default_rng(seed)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        yield members


def stratified_kfold(labels, k: int, seed: int) -> np.ndarray:
    """Fold index per item: seeded shuffle within class, round-robin to folds.

    Every class is dealt from fold 0, so fold f gets a pair only from a
    class of more than f pairs: a largest class smaller than k is refused.
    """
    y = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise InvalidConfigError("k must be >= 2")
    largest = int(np.unique(y, return_counts=True)[1].max(initial=0))
    if largest < k:
        raise TooFewPairsError(f"the largest class has {largest} pairs, fewer than k = {k}: "
                               f"fold {largest} would be empty")
    folds = np.empty(y.size, dtype=np.int64)
    for members in _shuffled_classes(y, seed):
        folds[members] = np.arange(members.size) % k
    return folds


@dataclass
class HoldoutResult:
    """Cross-validation outcome: fold-mean scalars plus pooled per-class table."""

    mean: MultiClassReport
    folds: list[MultiClassReport]


def holdout_evaluate(
    graph: TypedInteractionGraph,
    hp: Hyperparameters,
    k: int = 5,
    seed: int = 0,
) -> HoldoutResult:
    """Stratified k-fold over the graph's edges.

    Each fold trains on the remaining folds' edges only (fit_and_score on a
    per-fold training graph, which it checks holds zero test edges), scores
    the held-out edges, and reports. The returned mean report averages the
    scalar metrics over folds; its per-class table is computed from pooled
    out-of-fold predictions (each edge scored exactly once) and sorted by
    support, descending. A fold's probabilities are dropped once reported
    and pooled, so the next fold trains without them. Folds the reports would
    refuse are refused before any fold trains: an empty fold
    (stratified_kfold), and a fold of one class, which a second-largest
    class of fewer than k pairs leaves.
    """
    if graph.mode != HOLDOUT:
        raise InvalidConfigError("holdout evaluation needs a holdout-mode graph")
    items = graph.edge_list()
    if not len(items):
        raise EmptyDatasetError("graph has no edges")
    labels = items[:, 2]
    folds = stratified_kfold(labels, k, seed)
    # fold f holds each class of more than f pairs
    second = int(np.sort(np.bincount(labels, minlength=2))[-2])
    if second < k:
        raise DegenerateLabelsError(f"the second-largest class has {second} pairs, fewer than "
                                    f"k = {k}: fold {second} would hold one class only")

    n, K = graph.n_drugs, graph.n_classes
    pooled = np.zeros((len(items), K), dtype=np.float64)
    fold_reports: list[MultiClassReport] = []
    for f in range(k):
        in_test = folds == f
        train_items = items[~in_test]
        probs = fit_and_score(train_items, training_graph(n, K, HOLDOUT, train_items),
                              items[in_test, :2], replace(hp, seed=hp.seed + f))
        fold_reports.append(multiclass_report(probs, labels[in_test]))
        pooled[in_test] = probs
        del probs

    pooled_per_class = sorted(multiclass_report(pooled, labels).per_class, key=_by_support)
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
    new_index = {ext: idx for idx, ext in enumerate(common)}

    def restrict(g: TypedInteractionGraph) -> TypedInteractionGraph:
        index_map = np.array([new_index.get(ext, -1) for ext in g.roster], dtype=np.int64)
        i, j, c = g.edge_list().T
        a, b = index_map[i], index_map[j]
        kept = (a >= 0) & (b >= 0)
        edges = np.column_stack([a[kept], b[kept], c[kept]])
        return TypedInteractionGraph(len(common), g.n_classes, g.mode, edges, roster=roster)

    return restrict(g0), restrict(g1)


@dataclass
class RetrospectiveSplit:
    """Train on one snapshot's edges plus sampled negatives; test elsewhere.

    Both pair sets are (m, 3) int64 rows (i, j, label) with i < j.
    """

    n_drugs: int
    n_classes: int
    train_items: np.ndarray
    test_items: np.ndarray


def _skip_taken(k: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """The k-th (0-based) non-negative integer missing from the ascending array taken, for each k.

    taken[t] - t integers below taken[t] are free, so the k-th free one lies
    past every taken[t] with taken[t] - t <= k.
    """
    return k + np.searchsorted(taken - np.arange(taken.size), k, "right")


def _triangle_pairs(t: np.ndarray, row_starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i < j, with row-by-row upper-triangle numbers t."""
    i = np.searchsorted(row_starts, t, "right") - 1
    return i, t - row_starts[i] + i + 1


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
    with the same seed. Sampled positions index the unlabeled pairs in
    row-by-row order and are mapped to pairs by counting the labeled ones
    below them, so the triangle itself is never enumerated. When the
    negatives take every unlabeled pair the test set is empty, which the
    CLI's train and gridsearch accept, as they fit the training rows alone,
    and retrospective_evaluate refuses.
    """
    if graph_t0.mode != RETROSPECTIVE or graph_t1.mode != RETROSPECTIVE:
        raise InvalidConfigError("retrospective split needs retrospective-mode graphs")
    if (graph_t0.n_drugs != graph_t1.n_drugs or graph_t0.n_classes != graph_t1.n_classes
            or graph_t0.roster is not None and graph_t1.roster is not None
            and graph_t0.roster.external_ids != graph_t1.roster.external_ids):
        raise InvalidConfigError("snapshots must be reconciled to a common roster first")
    if not (math.isfinite(negative_ratio) and negative_ratio >= 0):
        raise InvalidConfigError(f"negative_ratio must be finite and >= 0, got {negative_ratio}")
    if test_pair_cap < 1:
        raise InvalidConfigError(f"test_pair_cap must be >= 1, got {test_pair_cap}")

    n = graph_t0.n_drugs
    edges0 = graph_t0.edge_list()
    rng = np.random.default_rng(seed)

    # pairs i < j are numbered row by row, in np.triu_indices order
    rows = np.arange(n, dtype=np.int64)
    row_starts = rows * n - rows * (rows + 1) // 2
    labeled = row_starts[edges0[:, 0]] + edges0[:, 1] - edges0[:, 0] - 1
    universe = n * (n - 1) // 2 - len(labeled)

    n_neg = int(round(min(negative_ratio * len(edges0), universe)))
    neg_at = np.empty(0, dtype=np.int64)
    if n_neg > 0:
        neg_at = np.sort(rng.choice(universe, size=n_neg, replace=False))
    ni, nj = _triangle_pairs(_skip_taken(neg_at, labeled), row_starts)
    negatives = np.column_stack([ni, nj, np.zeros(n_neg, dtype=np.int64)])
    train_items = np.concatenate([edges0, negatives])

    n_rest = universe - n_neg
    if n_rest > test_pair_cap:
        test_at = np.sort(rng.choice(n_rest, size=test_pair_cap, replace=False))
    else:
        test_at = np.arange(n_rest, dtype=np.int64)
    ti, tj = _triangle_pairs(_skip_taken(_skip_taken(test_at, neg_at), labeled), row_starts)
    truth = np.maximum(graph_t1.edge_classes(ti, tj), NO_INTERACTION)
    test_items = np.column_stack([ti, tj, truth])

    train_keys = train_items[:, 0] * n + train_items[:, 1]
    # keys are unique within each set by construction; a repeated test key would be flagged too
    if np.isin(ti * n + tj, train_keys, assume_unique=True).any():
        raise RuntimeError("retrospective split produced overlapping train/test pairs")

    return RetrospectiveSplit(
        n_drugs=n,
        n_classes=graph_t0.n_classes,
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
    the set (drug indices), and is applied before training; class 0 acts as
    the no-interaction class. No test pair, or test pairs whose truths are
    all one class, which the report would refuse, are refused before training.
    """
    test_items = split.test_items
    if not len(test_items):
        raise EmptyDatasetError("the split leaves no test pair")
    if subset is not None:
        members = np.fromiter(subset, dtype=np.int64, count=len(subset))
        test_items = test_items[np.isin(test_items[:, :2], members).all(axis=1)]
        if not len(test_items):
            raise EmptySubsetError("drug subset leaves no test pairs")
    truths = test_items[:, 2]
    if not (truths != truths[0]).any():
        raise DegenerateLabelsError(f"all {len(truths)} test pairs are class {truths[0]}: "
                                    "the report needs two classes")
    train_graph = training_graph(split.n_drugs, split.n_classes, RETROSPECTIVE, split.train_items)
    probs = fit_and_score(split.train_items, train_graph, test_items[:, :2], hp)
    return multiclass_report(probs, test_items[:, 2])


# -- grid search -------------------------------------------------------------

GRID_FIELDS = ("embedding_dim", "dropout", "epochs", "batch_size", "learning_rate", "alpha")
#: Larger grids are refused unless grid_search is called with allow_large.
MAX_GRID_CANDIDATES = 1000
OBJECTIVES = ("accuracy", "auroc")


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
        """Every combination in enumeration order, each built, so checked, before any is trained."""
        dims = [name for name in GRID_FIELDS if name in self.values]
        if not dims:
            raise EmptyGridError("grid has no dimensions")
        return [
            replace(base, **dict(zip(dims, combo)))
            for combo in itertools.product(*(self.values[name] for name in dims))
        ]


def stratified_validation_split(items, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class seeded split of (i, j, label) rows keeping at least one training row per class.

    Returns the (train, validation) rows, each in input order.
    """
    if not 0.0 < fraction < 1.0:
        raise InvalidConfigError("validation fraction must be in (0, 1)")
    rows = pair_rows(items)
    in_val = np.zeros(len(rows), dtype=bool)
    for members in _shuffled_classes(rows[:, 2], seed):
        n_val = min(int(round(fraction * members.size)), members.size - 1)
        in_val[members[:n_val]] = True
    if not in_val.any():
        raise InvalidConfigError("validation fraction too small for this dataset")
    return rows[~in_val], rows[in_val]


def grid_search(
    items,
    n_drugs: int,
    n_classes: int,
    mode: str,
    base_hp: Hyperparameters,
    grid: GridSpec,
    validation_fraction: float = 0.2,
    seed: int = 0,
    objective: str = OBJECTIVES[0],
    allow_large: bool = False,
) -> tuple[Hyperparameters, list[tuple[Hyperparameters, float]]]:
    """Exhaustive grid search over (i, j, label) rows, scored on a stratified validation split.

    The objective is validation accuracy by default; 'auroc' switches to
    macro AUROC, and refuses validation rows of one class before training.
    Ties keep the first candidate in enumeration order. Grids beyond
    MAX_GRID_CANDIDATES are refused unless allow_large is set.
    """
    if objective not in OBJECTIVES:
        raise InvalidConfigError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    candidates = grid.candidates(base_hp)
    if len(candidates) > MAX_GRID_CANDIDATES and not allow_large:
        raise InvalidConfigError(
            f"grid enumerates {len(candidates)} candidates (> {MAX_GRID_CANDIDATES}); "
            "pass allow_large to proceed"
        )
    train_items, val_items = stratified_validation_split(items, validation_fraction, seed)
    val_pairs, val_truths = val_items[:, :2], val_items[:, 2]
    if objective == "auroc" and not (val_truths != val_truths[0]).any():
        raise DegenerateLabelsError(f"all {len(val_truths)} validation pairs are class "
                                    f"{val_truths[0]}: macro AUROC needs two classes")
    train_graph = training_graph(n_drugs, n_classes, mode, train_items)

    results: list[tuple[Hyperparameters, float]] = []
    for hp_c in candidates:
        try:
            probs = fit_and_score(train_items, train_graph, val_pairs, hp_c)
        except NonFiniteError as exc:
            raise NonFiniteError(f"candidate {hp_c}: {exc}") from None
        if not np.all(np.isfinite(probs)):
            raise NonFiniteError(
                f"candidate {hp_c} gives non-finite validation probabilities (did training diverge?)"
            )
        if objective == "accuracy":
            score = float(np.mean(np.argmax(probs, axis=1) == val_truths))
        else:
            score = multiclass_report(probs, val_truths).macro_auroc
        del probs  # before the next candidate's fit
        results.append((hp_c, score))
    # max keeps the first of equal scores
    return max(results, key=lambda result: result[1])[0], results


# -- baselines ---------------------------------------------------------------


def baseline_neighborhood(graph: TypedInteractionGraph, pairs) -> np.ndarray:
    """Non-learned floor: each of the (B, 2) pairs scored by its neighborhood distribution."""
    ends = pair_rows(pairs, width=2)
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
