import numpy as np
import pytest

from amfpmc.errors import (
    ConflictingLabelError,
    DuplicateIdError,
    InvalidClassError,
    InvalidDimensionsError,
    SelfLoopError,
    ShapeMismatchError,
    UnknownDrugError,
)
from amfpmc.graph import (
    MAX_NODE_CLASS_CELLS,
    PAIR_CHUNK_ROWS,
    Roster,
    TypedInteractionGraph,
    build_graph,
    pair_rows,
    row_chunks,
)
from amfpmc.propagation import neighborhood_distributions


def test_add_and_symmetric_lookup():
    g = TypedInteractionGraph(6, 8, "holdout", [(1, 5, 4)])
    assert g.edge_classes([5, 1], [1, 5]).tolist() == [4, 4]
    assert g.num_edges == 1


def test_duplicate_identical_is_idempotent():
    g = TypedInteractionGraph(6, 8, "holdout", [(1, 5, 4), (5, 1, 4), (1, 5, 4)])
    assert g.num_edges == 1
    assert g.edge_list().tolist() == [[1, 5, 4]]


def test_conflicting_label_raises():
    with pytest.raises(ConflictingLabelError, match=r"pair \(1, 5\) already stored with class 4, refusing 2"):
        TypedInteractionGraph(6, 8, "holdout", [(1, 5, 4), (5, 1, 2)])


def test_self_loop_and_unknown_drug():
    with pytest.raises(SelfLoopError):
        TypedInteractionGraph(3, 4, "holdout", [(1, 1, 2)])
    with pytest.raises(UnknownDrugError):
        TypedInteractionGraph(3, 4, "holdout", [(0, 7, 2)])
    with pytest.raises(ShapeMismatchError):
        TypedInteractionGraph(3, 4, "holdout", [(0.5, 1, 2)])
    g = TypedInteractionGraph(3, 4, "holdout")
    with pytest.raises(UnknownDrugError):
        g.has_edge(0, -1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: TypedInteractionGraph(0, 3, "holdout"), InvalidDimensionsError, "n_drugs must be >= 1"),
    (lambda: TypedInteractionGraph(3, 0, "holdout"), InvalidDimensionsError, "n_classes must be >= 1"),
    (lambda: TypedInteractionGraph(3, 2, "holdout", roster=Roster(["A", "B"])), ShapeMismatchError,
     "roster size must equal n_drugs"),
    (lambda: pair_rows([(0, 1), (1, 2)]), ShapeMismatchError,
     r"expected rows of 3 integers, got shape \(2, 2\)"),
], ids=["no-drug", "no-class", "roster-length", "row-width"])
def test_shapes_the_graph_cannot_hold_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("m", [0, 1, 511, 1_023, 1_024, 1_025, 1_536, 2_048, 2_049, 2_559, 40_000])
def test_row_chunks_are_the_fewest_near_equal_slices(m):
    chunks = list(row_chunks(m))
    sizes = [c.stop - c.start for c in chunks]
    assert len(chunks) == -(-m // PAIR_CHUNK_ROWS)
    assert all(size <= PAIR_CHUNK_ROWS for size in sizes)
    if len(chunks) > 1:
        assert min(sizes) >= PAIR_CHUNK_ROWS // 2 and max(sizes) - min(sizes) <= 1
    # rows 0..m-1, in order, each once
    stops = [0] + [c.stop for c in chunks]
    assert [c.start for c in chunks] == stops[:-1] and stops[-1] == m


def test_node_class_cells_are_bounded():
    side = 2**13
    assert side * side == MAX_NODE_CLASS_CELLS
    assert build_graph(side, side, "holdout", [(0, 1, side - 1)]).num_edges == 1
    with pytest.raises(InvalidDimensionsError):
        build_graph(side, side + 1, "holdout", [(0, 1, side)])
    with pytest.raises(InvalidDimensionsError):
        build_graph(3, 4_000_000_000, "holdout", [(0, 1, 0)])


def test_class_validation_per_mode():
    g = TypedInteractionGraph(3, 4, "holdout", [(0, 1, 0)])  # class 0 is a real interaction in holdout mode
    assert g.edge_classes([0], [1]).tolist() == [0]
    with pytest.raises(InvalidClassError):
        TypedInteractionGraph(3, 4, "holdout", [(0, 2, 4)])
    with pytest.raises(InvalidClassError):
        TypedInteractionGraph(3, 4, "retrospective", [(0, 1, 0)])  # reserved


def test_missing_pair_lookup_is_none():
    g = build_graph(6, 8, "holdout", [(1, 5, 4)])
    assert g.edge_classes([2], [3]).tolist() == [-1]
    assert not g.has_edge(2, 3) and g.has_edge(5, 1)


def test_edge_list_sorted_rows():
    g = build_graph(4, 4, "holdout", [(2, 0, 2), (0, 1, 1), (3, 1, 3)])
    edges = g.edge_list()
    assert edges.dtype == np.int64 and edges.shape == (3, 3)
    assert edges.tolist() == [[0, 1, 1], [0, 2, 2], [1, 3, 3]]
    assert TypedInteractionGraph(4, 4, "holdout").edge_list().shape == (0, 3)


def test_neighbors_order_and_isolated():
    g = build_graph(4, 4, "holdout", [(0, 2, 2), (0, 1, 1)])
    counts = g.node_class_counts()
    assert counts[0].tolist() == [0, 1, 1, 0]
    assert counts[3].tolist() == [0, 0, 0, 0]


def test_clique_neighbors():
    # 4-clique, every edge class 7: each node sees 3 class-7 partners
    nodes = range(4)
    edges = [(i, j, 7) for i in nodes for j in nodes if i < j]
    g = build_graph(4, 8, "holdout", edges)
    counts = g.node_class_counts()
    assert counts.sum(axis=1).tolist() == [3, 3, 3, 3]
    assert counts[:, 7].tolist() == [3, 3, 3, 3]


def _distribution(g, a, b):
    return neighborhood_distributions(g, [a], [b])[0]


def test_histogram_counts_by_hand():
    # drug 0 touches two class-1 edges, drug 1 touches one class-2 edge,
    # (0, 1) itself is absent: the histogram is [0, 2, 1, 0]
    g = build_graph(6, 4, "holdout", [(0, 2, 1), (0, 3, 1), (1, 4, 2)])
    assert _distribution(g, 0, 1).tolist() == [0, 2 / 3, 1 / 3, 0]


def test_histogram_isolated_pair_falls_back():
    # an all-zero histogram takes the holdout fallback, the uniform distribution
    g = build_graph(4, 4, "holdout", [(2, 3, 1)])
    assert _distribution(g, 0, 1).tolist() == [0.25] * 4


def test_histogram_excludes_own_edge():
    # the (0, 1) edge alone leaves an all-zero histogram
    g = build_graph(3, 4, "holdout", [(0, 1, 2)])
    assert _distribution(g, 0, 1).tolist() == [0.25] * 4
    g = build_graph(3, 4, "holdout", [(0, 1, 2), (0, 2, 2)])
    assert _distribution(g, 0, 1).tolist() == [0, 0, 1, 0]


def test_histogram_self_loop_rejected():
    g = build_graph(3, 4, "holdout", [(0, 1, 2)])
    with pytest.raises(SelfLoopError):
        _distribution(g, 1, 1)
    for a, b in ((0, 3), (-1, 0)):
        with pytest.raises(UnknownDrugError):
            _distribution(g, a, b)


def _random_graph(rng, n=12, n_classes=5, n_edges=25, mode="holdout"):
    lo = 1 if mode == "retrospective" else 0
    edges = {}
    while len(edges) < n_edges:
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j and (j, i) not in edges:
            edges.setdefault((i, j), int(rng.integers(lo, n_classes)))
    return TypedInteractionGraph(n, n_classes, mode, [(i, j, c) for (i, j), c in edges.items()])


def test_property_reversed_requery_matches():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = _random_graph(rng)
        i, j, c = g.edge_list().T
        assert g.edge_classes(j, i).tolist() == c.tolist()


def test_property_degree_sum_is_twice_edges():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = _random_graph(rng)
        degrees = g.node_class_counts().sum(axis=1)
        assert degrees.sum() == 2 * g.num_edges
        ends = g.edge_list()[:, :2]
        assert degrees.tolist() == [int((ends == v).sum()) for v in range(g.n_drugs)]


def test_property_histogram_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = _random_graph(rng)
        for _ in range(20):
            a, b = rng.integers(0, g.n_drugs, 2)
            if a == b:
                continue
            assert _distribution(g, int(a), int(b)).tobytes() == _distribution(g, int(b), int(a)).tobytes()


def test_property_histogram_never_counts_own_edge():
    rng = np.random.default_rng(3)
    for t in range(6):
        g = _random_graph(rng, mode="retrospective" if t % 2 else "holdout")
        counts = g.node_class_counts()
        brute = np.zeros((g.n_drugs, g.n_classes), dtype=np.int64)
        for i, j, c in g.edge_list():
            brute[i, c] += 1
            brute[j, c] += 1
        assert counts.dtype == np.float64 and np.array_equal(counts, brute)
        for i, j, c in g.edge_list():
            hist = brute[i] + brute[j]
            hist[c] -= 2
            if hist.any():
                assert _distribution(g, i, j).tobytes() == (hist / hist.sum()).tobytes()


def test_roster_translation():
    roster = Roster(["DB01", "DB02", "DB03"])
    assert roster.index_of("DB03") == 2
    assert roster.external_id(0) == "DB01"
    assert list(roster) == roster.external_ids == ["DB01", "DB02", "DB03"]
    assert "DB02" in roster and "DB09" not in roster
    with pytest.raises(UnknownDrugError):
        roster.index_of("DB09")
    with pytest.raises(DuplicateIdError):
        Roster(["X", "X"])


def _reference_edges(n, n_classes, mode, rows):
    """Row-at-a-time construction: each row is checked, then stored, in input order."""
    edges = {}
    for a, b, c in rows:
        for end in (a, b):
            if not 0 <= end < n:
                raise UnknownDrugError(f"drug index {end} outside 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"self loop on drug {a}")
        if not 0 <= c < n_classes:
            raise InvalidClassError(f"class {c} outside 0..{n_classes - 1}")
        if mode == "retrospective" and c == 0:
            raise InvalidClassError("class 0 is reserved for 'no interaction' in retrospective mode")
        key = (min(a, b), max(a, b))
        if edges.setdefault(key, c) != c:
            raise ConflictingLabelError(f"pair {key} already stored with class {edges[key]}, refusing {c}")
    return sorted([i, j, c] for (i, j), c in edges.items())


def _outcome(build):
    try:
        return build()
    except (UnknownDrugError, SelfLoopError, InvalidClassError, ConflictingLabelError) as exc:
        return type(exc).__name__, str(exc)


def test_batched_validation_matches_row_loop_reference():
    rng = np.random.default_rng(20)
    n, K = 6, 4
    seen = set()
    for trial in range(600):
        mode = "retrospective" if trial % 2 else "holdout"
        rows = []
        for _ in range(int(rng.integers(1, 12))):
            roll = rng.random()
            if rows and roll < 0.3:
                a, b, c = rows[int(rng.integers(0, len(rows)))]
                # an identical repeat, the reversed pair, or the pair with a new class
                rows.append([[a, b, c], [b, a, c], [a, b, int(rng.integers(0, K))]][int(rng.integers(0, 3))])
                continue
            a, b = (int(v) for v in rng.integers(0, n, 2))
            c = int(rng.integers(0, K))
            if roll > 0.97:
                a = int(rng.choice([-1, n, n + 5]))
            elif roll > 0.94:
                b = int(rng.choice([-2, n]))
            elif roll > 0.91:
                c = int(rng.choice([-1, K, K + 3]))
            rows.append([a, b, c])
        expected = _outcome(lambda: _reference_edges(n, K, mode, rows))
        got = _outcome(lambda: TypedInteractionGraph(n, K, mode, rows).edge_list().tolist())
        assert got == expected, rows
        seen.add(expected[0] if isinstance(expected, tuple) else "ok")
    assert seen == {"ok", "UnknownDrugError", "SelfLoopError", "InvalidClassError",
                    "ConflictingLabelError"}


def test_conflict_names_first_offending_row():
    # TSV rows A B 1 / C D 2 / B A 3 with A, B, C, D = 0, 1, 2, 3
    with pytest.raises(ConflictingLabelError, match=r"^pair \(0, 1\) already stored with class 1, refusing 3$"):
        TypedInteractionGraph(4, 4, "holdout", [(0, 1, 1), (2, 3, 2), (1, 0, 3)])
    # an earlier self loop wins over a later unknown drug, and vice versa
    with pytest.raises(SelfLoopError):
        TypedInteractionGraph(4, 4, "holdout", [(0, 1, 1), (2, 2, 1), (0, 9, 1)])
    with pytest.raises(UnknownDrugError):
        TypedInteractionGraph(4, 4, "holdout", [(0, 9, 1), (2, 2, 1)])


def test_edge_classes_and_lookup_match_brute_force():
    rng = np.random.default_rng(21)
    for t in range(8):
        g = _random_graph(rng, mode="retrospective" if t % 2 else "holdout")
        stored = {(i, j): c for i, j, c in g.edge_list().tolist()}
        I, J = np.meshgrid(np.arange(g.n_drugs), np.arange(g.n_drugs), indexing="ij")
        I, J = I.ravel(), J.ravel()
        brute = [stored.get((min(a, b), max(a, b)), -1) for a, b in zip(I.tolist(), J.tolist())]
        assert g.edge_classes(I, J).tolist() == brute
        for a, b, c in zip(I.tolist(), J.tolist(), brute):
            assert g.has_edge(a, b) == (c >= 0)
    empty = TypedInteractionGraph(3, 2, "holdout")
    assert empty.edge_classes([0, 1], [1, 2]).tolist() == [-1, -1]


@pytest.mark.parametrize("I, J, error", [
    ([0], [4], UnknownDrugError),
    ([-1], [0], UnknownDrugError),
    ([0.5], [3.9], ShapeMismatchError),
    ([0, 1], [3], ShapeMismatchError),
])
def test_edge_classes_refuses_bad_ends(I, J, error):
    # truncating (0.5, 3.9) would look up the stored pair (0, 3)
    g = TypedInteractionGraph(4, 2, "holdout", [(0, 3, 1)])
    with pytest.raises(error):
        g.edge_classes(I, J)
