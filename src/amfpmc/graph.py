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

#: Largest accepted n_drugs * n_classes: the (n_drugs, n_classes) node-class
#: counts and every (pairs, n_classes) matrix are sized by it, so one huge
#: class index must not size them (2**26 float64 cells are 512 MiB).
MAX_NODE_CLASS_CELLS = 2**26

#: Most rows per row_chunks slice, so a chunk of a pair array holds
#: (rows, d) and (rows, n_classes) temporaries of at most this many rows.
PAIR_CHUNK_ROWS = 1024


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InvalidConfigError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


class Roster:
    """Bidirectional map between external drug ids and dense indices 0..n-1."""

    def __init__(self, external_ids: Sequence[str]):
        self._ids = list(external_ids)
        if len(set(self._ids)) != len(self._ids):
            raise DuplicateIdError("external ids must be unique")
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

    @property
    def external_ids(self) -> list[str]:
        return list(self._ids)


def check_dimensions(n_drugs: int, n_classes: int) -> None:
    """Refuse a drug or class count below 1, or a node-class table above MAX_NODE_CLASS_CELLS."""
    if n_drugs < 1:
        raise InvalidDimensionsError("n_drugs must be >= 1")
    if n_classes < 1:
        raise InvalidDimensionsError("n_classes must be >= 1")
    if n_drugs * n_classes > MAX_NODE_CLASS_CELLS:
        raise InvalidDimensionsError(
            f"{n_drugs} drugs x {n_classes} classes exceed the limit of "
            f"{MAX_NODE_CLASS_CELLS} drug-class cells"
        )


def row_chunks(m: int):
    """The fewest near-equal slices of at most PAIR_CHUNK_ROWS rows that cover rows 0..m-1 in order.

    The one chunk rule for pair arrays. Beyond one slice each has at least
    PAIR_CHUNK_ROWS // 2 rows: BLAS may take another kernel path, with other
    rounding, for a handful of rows.
    """
    n = -(-m // PAIR_CHUNK_ROWS)
    return (slice(m * c // n, m * (c + 1) // n) for c in range(n))


def _integers(values) -> np.ndarray:
    """values as an int64 array; refused unless they are integers or empty, never truncated."""
    out = np.asarray(values)
    if out.size and out.dtype.kind not in "iu":
        raise ShapeMismatchError(f"expected integers, got {out.dtype} values")
    return out.astype(np.int64, copy=False)


def pair_rows(rows, width: int = 3) -> np.ndarray:
    """rows as an (m, width) int64 array; an empty input gives shape (0, width)."""
    out = _integers(rows)
    if out.size == 0:
        return out.reshape(0, width)
    if out.ndim != 2 or out.shape[1] != width:
        raise ShapeMismatchError(f"expected rows of {width} integers, got shape {out.shape}")
    return out


def check_ends(I, J, n_drugs: int) -> tuple[np.ndarray, np.ndarray]:
    """I and J as equal-length 1-d int64 arrays (a scalar is one index) of drugs 0..n_drugs-1.

    The one drug-index rule of the graph and the model: a value that is not
    an integer is refused with ShapeMismatchError, one outside the roster
    with UnknownDrugError.
    """
    I = np.atleast_1d(_integers(I))
    J = np.atleast_1d(_integers(J))
    if I.ndim != 1 or I.shape != J.shape:
        raise ShapeMismatchError("pair endpoints must be equal-length 1-d arrays")
    for ends in (I, J):
        bad = np.flatnonzero((ends < 0) | (ends >= n_drugs))
        if bad.size:
            raise UnknownDrugError(f"drug index {ends[bad[0]]} outside 0..{n_drugs - 1}")
    return I, J


def check_pairs(I, J, n_drugs: int) -> tuple[np.ndarray, np.ndarray]:
    """check_ends, and a pair (k, k) refused with SelfLoopError."""
    I, J = check_ends(I, J, n_drugs)
    loops = np.flatnonzero(I == J)
    if loops.size:
        raise SelfLoopError(f"self loop on drug {I[loops[0]]}")
    return I, J


class TypedInteractionGraph:
    """Symmetric sparse map from unordered drug pairs to interaction classes.

    The edges are given once, as (i, j, class) rows in either order, and
    stored as the ascending canonical keys i * n_drugs + j (i < j) with their
    classes. A repeated identical row is one edge; a second class for a pair
    raises ConflictingLabelError so corpus diffs between database versions
    stay explicit. The graph is read-only, so concurrent readers are safe.
    """

    def __init__(
        self,
        n_drugs: int,
        n_classes: int,
        mode: str,
        edges: Iterable[tuple[int, int, int]] = (),
        roster: Optional[Roster] = None,
    ):
        check_dimensions(n_drugs, n_classes)
        if roster is not None and len(roster) != n_drugs:
            raise ShapeMismatchError("roster size must equal n_drugs")
        self.n_drugs = n_drugs
        self.n_classes = n_classes
        self.mode = check_mode(mode)
        self.roster = roster
        self._keys, self._classes = self._stored_edges(pair_rows(edges))
        self._node_counts: Optional[np.ndarray] = None

    def _stored_edges(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ascending unique keys of rows and their classes.

        A bad row raises as if the rows were added one at a time: the first
        offending row in input order decides, and within a row the checks run
        drug a, drug b, self loop, class, then conflict with an earlier row.
        """
        a, b, c = rows.T
        n = self.n_drugs
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        unique_keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        stored = c[first][inverse]
        bad = (
            (a < 0) | (a >= n) | (b < 0) | (b >= n) | (a == b)
            | (c < 0) | (c >= self.n_classes) | (c != stored)
        )
        if self.mode == RETROSPECTIVE:
            bad |= c == NO_INTERACTION
        hits = np.flatnonzero(bad)
        if hits.size:
            r = hits[0]
            check_pairs(a[r : r + 1], b[r : r + 1], n)
            if not 0 <= c[r] < self.n_classes:
                raise InvalidClassError(f"class {c[r]} outside 0..{self.n_classes - 1}")
            if self.mode == RETROSPECTIVE and c[r] == NO_INTERACTION:
                raise InvalidClassError(
                    "class 0 is reserved for 'no interaction' in retrospective mode"
                )
            pair = (int(min(a[r], b[r])), int(max(a[r], b[r])))
            raise ConflictingLabelError(
                f"pair {pair} already stored with class {stored[r]}, refusing {c[r]}"
            )
        return unique_keys, c[first]

    # -- queries ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self._keys.size)

    def edge_classes(self, I, J) -> np.ndarray:
        """Stored class of each pair (I[r], J[r]), in either order; -1 where there is none."""
        I, J = check_ends(I, J, self.n_drugs)
        query = np.minimum(I, J) * self.n_drugs + np.maximum(I, J)
        keys = self._keys
        if not keys.size:
            return np.full(query.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        return np.where(keys[pos] == query, self._classes[pos], -1)

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.edge_classes([a], [b])[0] >= 0)

    def edge_list(self) -> np.ndarray:
        """(num_edges, 3) int64 rows (i, j, class), i < j, in ascending (i, j) order."""
        n = self.n_drugs
        return np.column_stack([self._keys // n, self._keys % n, self._classes])

    def node_class_counts(self) -> np.ndarray:
        """(n_drugs, n_classes) float64 count of incident edges per class, cached.

        Every count is an integer below 2**53, so it is exact as a float, and
        the propagation adds and subtracts its rows as they are.
        """
        if self._node_counts is None:
            n, K = self.n_drugs, self.n_classes
            cells = np.concatenate([self._keys // n, self._keys % n]) * K + np.tile(self._classes, 2)
            self._node_counts = np.bincount(cells, minlength=n * K).reshape(n, K).astype(np.float64)
        return self._node_counts


def build_graph(
    n_drugs: int,
    n_classes: int,
    mode: str,
    edges: Iterable[tuple[int, int, int]],
    roster: Optional[Roster] = None,
) -> TypedInteractionGraph:
    """Construct a graph from (i, j, class) rows."""
    return TypedInteractionGraph(n_drugs, n_classes, mode, edges, roster=roster)
