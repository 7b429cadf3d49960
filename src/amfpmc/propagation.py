"""Soft training targets blended from hard labels and neighborhood structure.

The propagation factor alpha in [0, 1] controls how much of the target mass
moves from the labeled class onto the normalized class histogram of the two
endpoints' incident edges. alpha = 0 reproduces plain one-hot supervision
bitwise, alpha = 1 is the pure neighborhood distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidClassError, InvalidConfigError
from .graph import NO_INTERACTION, RETROSPECTIVE, TypedInteractionGraph, check_pairs, pair_rows, row_chunks


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


def _distribution_rows(graph: TypedInteractionGraph, I, J, own, out=None, scratch=None) -> np.ndarray:
    """neighborhood_distributions of checked pairs, own being their edge_classes.

    Row r is the class counts of the edges incident to a or b, less the
    (a, b) edge itself, over their sum: the a rows of the graph's float64
    counts are gathered, the b rows added and the own edge taken off. The
    counts are whole numbers below 2**53, so each row sum is exact in any
    order. The rows are built in out and the b rows gathered into scratch,
    two (len(I), n_classes) float64 arrays, or new arrays when None.
    """
    counts = graph.node_class_counts()
    # the indices are checked, so take need not buffer out to check them
    dist = counts.take(I, axis=0, out=out, mode="clip")
    dist += counts.take(J, axis=0, out=scratch, mode="clip")
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


@dataclass(frozen=True)
class LabeledPairs:
    """A training set: (m, 3) rows (i, j, label) with i < j, and what their soft targets are propagated from.

    own[r] is the class the graph stores for row r's pair (-1 if none);
    batch(idx) builds the rows idx asks for, so no (m, n_classes) matrix is
    held. Build it with attach_targets, which checks the rows once.
    """

    items: np.ndarray
    graph: TypedInteractionGraph
    alpha: float
    own: np.ndarray

    def __len__(self) -> int:
        return len(self.items)

    def batch(self, idx, out=None, scratch=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I, J, targets) of the rows idx, in that order, with no check.

        targets[r] is (1 - alpha) * onehot(label) + alpha * dist(I[r], J[r]),
        built in place on the distributions as alpha * dist plus (1 - alpha)
        at the row's label; label 0 is a legal training label in
        retrospective mode (sampled no-interaction pairs) even though it never
        appears as a stored edge. The rows are gathered once, and targets is
        built in out, with scratch for the distributions' second gather, as
        _distribution_rows takes them. Row r depends on row r alone, so any
        subset of rows, in any order, gets the bits of the same rows of the
        whole set.
        """
        I, J, labels = self.items[idx].T
        dist = _distribution_rows(self.graph, I, J, self.own[idx], out, scratch)
        return I, J, _blend_labels(dist, labels, self.alpha)


def attach_targets(items, graph: TypedInteractionGraph, alpha: float) -> LabeledPairs:
    """Pair the (i, j, label) rows with the graph their targets are propagated over.

    The rows are copied, each pair's ends sorted so i < j. The graph passed
    here decides what the propagation can see; hand it the training-fold
    graph, never the full one. alpha, the labels and the drug indices are
    checked and each row's own edge is found here, once, so train builds
    each batch's targets with no check or lookup.
    """
    rows = pair_rows(items).copy()
    rows[:, :2].sort(axis=1)
    alpha = check_alpha(alpha)
    check_labels(rows[:, 2], graph.n_classes)
    I, J = check_pairs(rows[:, 0], rows[:, 1], graph.n_drugs)
    return LabeledPairs(rows, graph, alpha, graph.edge_classes(I, J))


def propagate_target(
    graph: TypedInteractionGraph, a: int, b: int, label: int, alpha: float
) -> np.ndarray:
    """The soft target of the single pair (a, b), as LabeledPairs.batch builds it."""
    alpha = check_alpha(alpha)
    y = check_labels([label], graph.n_classes)
    return _blend_labels(neighborhood_distributions(graph, [a], [b]), y, alpha)[0]
