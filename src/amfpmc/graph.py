"""Typed, symmetric interaction graph over densely indexed drugs.

Drugs are dense 0-based integers internally; a :class:`Roster` translates to
and from external identifiers. Each unordered pair stores at most one
interaction class, kept under canonical ordering i < j so a lookup is
order-insensitive by construction. In retrospective mode class 0 means
"no interaction" and never appears as a stored edge; in holdout mode every
index 0..K-1 is a real interaction class.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ConflictingLabelError,
    DuplicateIdError,
    InvalidClassError,
    InvalidConfigError,
    InvalidDimensionsError,
    SelfLoopError,
    ShapeMismatchError,
    UnknownDrugError,
)

RETROSPECTIVE = "retrospective"
HOLDOUT = "holdout"
MODES = (RETROSPECTIVE, HOLDOUT)

#: Reserved class index for "no interaction" in retrospective mode.
NO_INTERACTION = 0


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InvalidConfigError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


class Roster:
    """Bidirectional map between external drug ids and dense indices 0..n-1."""

    def __init__(self, external_ids: Sequence[str], names: Optional[Sequence[Optional[str]]] = None):
        self._ids = list(external_ids)
        if len(set(self._ids)) != len(self._ids):
            raise DuplicateIdError("external ids must be unique")
        if names is not None and len(names) != len(self._ids):
            raise ShapeMismatchError("names must align with external ids")
        self._names = list(names) if names is not None else [None] * len(self._ids)
        self._index = {ext: i for i, ext in enumerate(self._ids)}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, external_id: str) -> bool:
        return external_id in self._index

    def __iter__(self):
        return iter(self._ids)

    def index_of(self, external_id: str) -> int:
        try:
            return self._index[external_id]
        except KeyError:
            raise UnknownDrugError(f"unknown drug id {external_id!r}") from None

    def external_id(self, index: int) -> str:
        return self._ids[index]

    def name(self, index: int) -> Optional[str]:
        return self._names[index]

    @property
    def external_ids(self) -> list[str]:
        return list(self._ids)


class TypedInteractionGraph:
    """Symmetric sparse map from unordered drug pairs to interaction classes.

    The graph is meant to be built once and then treated as read-only;
    concurrent readers are safe after construction.
    """

    def __init__(self, n_drugs: int, n_classes: int, mode: str, roster: Optional[Roster] = None):
        if n_drugs < 1:
            raise InvalidDimensionsError("n_drugs must be >= 1")
        if n_classes < 1:
            raise InvalidDimensionsError("n_classes must be >= 1")
        if roster is not None and len(roster) != n_drugs:
            raise ShapeMismatchError("roster size must equal n_drugs")
        self.n_drugs = n_drugs
        self.n_classes = n_classes
        self.mode = check_mode(mode)
        self.roster = roster
        self._edges: dict[tuple[int, int], int] = {}
        self._adj: list[dict[int, int]] = [dict() for _ in range(n_drugs)]
        self._sorted_edges: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._node_counts: Optional[np.ndarray] = None

    # -- validation ------------------------------------------------------

    def _check_drug(self, a: int) -> int:
        a = int(a)
        if not 0 <= a < self.n_drugs:
            raise UnknownDrugError(f"drug index {a} outside 0..{self.n_drugs - 1}")
        return a

    def _check_pairs(self, I, J) -> tuple[np.ndarray, np.ndarray]:
        I = np.asarray(I, dtype=np.int64)
        J = np.asarray(J, dtype=np.int64)
        if I.ndim != 1 or I.shape != J.shape:
            raise ShapeMismatchError("pair endpoints must be equal-length 1-d arrays")
        for ends in (I, J):
            bad = np.flatnonzero((ends < 0) | (ends >= self.n_drugs))
            if bad.size:
                raise UnknownDrugError(
                    f"drug index {ends[bad[0]]} outside 0..{self.n_drugs - 1}"
                )
        loops = np.flatnonzero(I == J)
        if loops.size:
            raise SelfLoopError(f"self loop on drug {I[loops[0]]}")
        return I, J

    def _check_edge_class(self, c: int) -> int:
        c = int(c)
        if not 0 <= c < self.n_classes:
            raise InvalidClassError(f"class {c} outside 0..{self.n_classes - 1}")
        if self.mode == RETROSPECTIVE and c == NO_INTERACTION:
            raise InvalidClassError("class 0 is reserved for 'no interaction' in retrospective mode")
        return c

    # -- construction ----------------------------------------------------

    def add_interaction(self, a: int, b: int, c: int) -> "TypedInteractionGraph":
        """Store lookup(a, b) = lookup(b, a) = c.

        Re-adding an identical edge is a no-op; a different class for an
        existing pair raises ConflictingLabelError so corpus diffs between
        database versions stay explicit.
        """
        a, b = self._check_drug(a), self._check_drug(b)
        if a == b:
            raise SelfLoopError(f"self loop on drug {a}")
        c = self._check_edge_class(c)
        key = (a, b) if a < b else (b, a)
        existing = self._edges.get(key)
        if existing is not None:
            if existing != c:
                raise ConflictingLabelError(
                    f"pair {key} already stored with class {existing}, refusing {c}"
                )
            return self
        self._edges[key] = c
        self._adj[a][b] = c
        self._adj[b][a] = c
        self._sorted_edges = None
        self._node_counts = None
        return self

    # -- queries ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def lookup(self, a: int, b: int) -> Optional[int]:
        a, b = self._check_drug(a), self._check_drug(b)
        key = (a, b) if a < b else (b, a)
        return self._edges.get(key)

    def neighbors(self, a: int) -> list[tuple[int, int]]:
        """All (partner, class) pairs of drug a, ascending partner index."""
        a = self._check_drug(a)
        return sorted(self._adj[a].items())

    def degree(self, a: int) -> int:
        return len(self._adj[self._check_drug(a)])

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending keys i * n_drugs + j (i < j) of all edges and their classes, cached."""
        if self._sorted_edges is None:
            m = len(self._edges)
            ends = np.array(list(self._edges), dtype=np.int64).reshape(m, 2)
            classes = np.fromiter(self._edges.values(), dtype=np.int64, count=m)
            keys = ends[:, 0] * self.n_drugs + ends[:, 1]
            order = np.argsort(keys)
            self._sorted_edges = (keys[order], classes[order])
        return self._sorted_edges

    def node_class_counts(self) -> np.ndarray:
        """(n_drugs, n_classes) count of incident edges per class, cached."""
        if self._node_counts is None:
            keys, classes = self._edge_arrays()
            n, K = self.n_drugs, self.n_classes
            cells = np.concatenate([keys // n, keys % n]) * K + np.tile(classes, 2)
            self._node_counts = np.bincount(cells, minlength=n * K).reshape(n, K)
        return self._node_counts

    def pair_class_histograms(self, I, J) -> np.ndarray:
        """Row r: class counts of all edges incident to a or b, minus the (a, b) edge.

        count[c] = |{k : lookup(a,k)=c}| + |{k : lookup(b,k)=c}| with k != b
        and k != a respectively, for (a, b) = (I[r], J[r]); symmetric in the
        pair. Returns a (len(I), n_classes) int64 matrix.
        """
        I, J = self._check_pairs(I, J)
        counts = self.node_class_counts()
        hist = counts[I]
        hist += counts[J]
        keys, classes = self._edge_arrays()
        if keys.size:
            query = np.minimum(I, J) * self.n_drugs + np.maximum(I, J)
            pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
            rows = np.flatnonzero(keys[pos] == query)
            hist[rows, classes[pos[rows]]] -= 2
        return hist

    def pair_class_histogram(self, a: int, b: int) -> np.ndarray:
        """pair_class_histograms for the single pair (a, b)."""
        return self.pair_class_histograms([a], [b])[0]

    def edge_list(self) -> list[tuple[int, int, int]]:
        """All (i, j, class) with i < j, sorted for deterministic iteration."""
        return sorted((i, j, c) for (i, j), c in self._edges.items())

    def has_edge(self, a: int, b: int) -> bool:
        return self.lookup(a, b) is not None


def build_graph(
    n_drugs: int,
    n_classes: int,
    mode: str,
    edges: Iterable[tuple[int, int, int]],
    roster: Optional[Roster] = None,
) -> TypedInteractionGraph:
    """Construct a graph from (i, j, class) triples in one pass."""
    g = TypedInteractionGraph(n_drugs, n_classes, mode, roster=roster)
    for i, j, c in edges:
        g.add_interaction(i, j, c)
    return g
