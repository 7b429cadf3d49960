"""Soft training targets blended from hard labels and neighborhood structure.

The propagation factor alpha in [0, 1] controls how much of the target mass
moves from the labeled class onto the normalized class histogram of the two
endpoints' incident edges. alpha = 0 reproduces plain one-hot supervision
bitwise, alpha = 1 is the pure neighborhood distribution.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidClassError, InvalidConfigError, ShapeMismatchError
from .graph import NO_INTERACTION, RETROSPECTIVE, TypedInteractionGraph, check_pairs, row_chunks


def check_labels(labels, n_classes: int) -> np.ndarray:
    """labels as an int64 array, each in 0..n_classes-1."""
    y = np.asarray(labels, dtype=np.int64)
    bad = np.flatnonzero((y < 0) | (y >= n_classes))
    if bad.size:
        raise InvalidClassError(f"label {y.flat[bad[0]]} outside 0..{n_classes - 1}")
    return y


def one_hot(label: int, n_classes: int) -> np.ndarray:
    return np.eye(n_classes)[check_labels(label, n_classes)]


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise InvalidConfigError(f"propagation factor must be in [0, 1], got {alpha}")
    return alpha


def _distribution_rows(graph: TypedInteractionGraph, I, J, own) -> np.ndarray:
    """neighborhood_distributions of checked pairs, own being their edge_classes.

    Row r is the class counts of the edges incident to a or b, less the
    (a, b) edge itself, over their sum: the a rows of the graph's float64
    counts are gathered, the b rows added and the own edge taken off. The
    counts are whole numbers below 2**53, so each row sum is exact in any
    order.
    """
    counts = graph.node_class_counts()
    dist = counts.take(I, axis=0)
    dist += counts.take(J, axis=0)
    at = np.flatnonzero(own >= 0)
    dist[at, own[at]] -= 2.0
    total = dist.sum(axis=1)
    # an isolated row stays all zero, then takes its fallback
    isolated = total == 0.0
    dist /= np.where(isolated, 1.0, total)[:, None]
    if graph.mode == RETROSPECTIVE:
        dist[isolated, NO_INTERACTION] = 1.0
    else:
        dist[isolated] = 1.0 / graph.n_classes
    return dist


def _blend_labels(dist: np.ndarray, labels: np.ndarray, alpha: float) -> np.ndarray:
    """dist becomes alpha * dist plus (1 - alpha) at each row's label, in place."""
    dist *= alpha
    dist[np.arange(labels.size), labels] += 1.0 - alpha
    return dist


def neighborhood_distributions(graph: TypedInteractionGraph, I, J) -> np.ndarray:
    """(B, n_classes) normalized pair class histograms of (I[r], J[r]).

    When both endpoints of a pair are isolated its histogram is all-zero and
    the row falls back to the one-hot on the no-interaction class in
    retrospective mode, the uniform distribution in holdout mode. Built one
    row_chunks chunk at a time, so no temporary grows beyond one chunk.
    """
    I, J = check_pairs(I, J, graph.n_drugs)
    dist = np.empty((I.size, graph.n_classes), dtype=np.float64)
    for rows in row_chunks(I.size):
        i, j = I[rows], J[rows]
        dist[rows] = _distribution_rows(graph, i, j, graph.edge_classes(i, j))
    return dist


def propagate_targets(graph: TypedInteractionGraph, I, J, labels, alpha: float) -> np.ndarray:
    """(B, n_classes) targets (1 - alpha) * onehot(labels[r]) + alpha * dist(I[r], J[r]).

    Built in place on the distributions as alpha * dist plus (1 - alpha) at
    each row's label; every entry is the same float the formula gives.
    label 0 is a legal training label in retrospective mode (sampled
    no-interaction pairs) even though it never appears as a stored edge.
    """
    alpha = check_alpha(alpha)
    y = check_labels(labels, graph.n_classes)
    if y.shape != np.shape(I):
        raise ShapeMismatchError("labels must align with the pairs")
    return _blend_labels(neighborhood_distributions(graph, I, J), y, alpha)


def propagate_target(
    graph: TypedInteractionGraph, a: int, b: int, label: int, alpha: float
) -> np.ndarray:
    """propagate_targets for the single pair (a, b)."""
    return propagate_targets(graph, [a], [b], [label], alpha)[0]
