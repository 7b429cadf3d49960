import numpy as np
import pytest

from amfpmc.errors import (
    ConflictingLabelError,
    DuplicateIdError,
    InvalidClassError,
    SelfLoopError,
    UnknownDrugError,
)
from amfpmc.graph import Roster, TypedInteractionGraph, build_graph


def test_add_and_symmetric_lookup():
    g = TypedInteractionGraph(6, 8, "holdout")
    g.add_interaction(1, 5, 4)
    assert g.lookup(5, 1) == 4
    assert g.lookup(1, 5) == 4
    assert g.num_edges == 1


def test_duplicate_identical_is_idempotent():
    g = TypedInteractionGraph(6, 8, "holdout")
    g.add_interaction(1, 5, 4)
    g.add_interaction(1, 5, 4)
    assert g.num_edges == 1


def test_conflicting_label_raises():
    g = TypedInteractionGraph(6, 8, "holdout")
    g.add_interaction(1, 5, 4)
    with pytest.raises(ConflictingLabelError):
        g.add_interaction(5, 1, 2)


def test_self_loop_and_unknown_drug():
    g = TypedInteractionGraph(3, 4, "holdout")
    with pytest.raises(SelfLoopError):
        g.add_interaction(1, 1, 2)
    with pytest.raises(UnknownDrugError):
        g.add_interaction(0, 7, 2)
    with pytest.raises(UnknownDrugError):
        g.lookup(0, -1)


def test_class_validation_per_mode():
    g = TypedInteractionGraph(3, 4, "holdout")
    g.add_interaction(0, 1, 0)  # class 0 is a real interaction in holdout mode
    with pytest.raises(InvalidClassError):
        g.add_interaction(0, 2, 4)
    r = TypedInteractionGraph(3, 4, "retrospective")
    with pytest.raises(InvalidClassError):
        r.add_interaction(0, 1, 0)  # reserved


def test_missing_pair_lookup_is_none():
    g = build_graph(6, 8, "holdout", [(1, 5, 4)])
    assert g.lookup(2, 3) is None


def test_neighbors_order_and_isolated():
    g = build_graph(4, 4, "holdout", [(0, 2, 2), (0, 1, 1)])
    assert g.neighbors(0) == [(1, 1), (2, 2)]
    assert g.neighbors(3) == []


def test_clique_neighbors():
    # 4-clique, every edge class 7: each node sees 3 class-7 partners
    nodes = range(4)
    edges = [(i, j, 7) for i in nodes for j in nodes if i < j]
    g = build_graph(4, 8, "holdout", edges)
    for v in nodes:
        nbrs = g.neighbors(v)
        assert len(nbrs) == 3
        assert all(c == 7 for _, c in nbrs)


def test_histogram_counts_by_hand():
    # drug 0 touches two class-1 edges, drug 1 touches one class-2 edge,
    # (0, 1) itself is absent
    g = build_graph(6, 4, "holdout", [(0, 2, 1), (0, 3, 1), (1, 4, 2)])
    hist = g.pair_class_histogram(0, 1)
    assert hist.tolist() == [0, 2, 1, 0]


def test_histogram_isolated_pair_is_zero():
    g = build_graph(4, 4, "holdout", [(2, 3, 1)])
    assert g.pair_class_histogram(0, 1).tolist() == [0, 0, 0, 0]


def test_histogram_excludes_own_edge():
    g = build_graph(3, 4, "holdout", [(0, 1, 2)])
    assert g.pair_class_histogram(0, 1).tolist() == [0, 0, 0, 0]
    g.add_interaction(0, 2, 2)
    assert g.pair_class_histogram(0, 1).tolist() == [0, 0, 1, 0]


def test_histogram_self_loop_rejected():
    g = build_graph(3, 4, "holdout", [(0, 1, 2)])
    with pytest.raises(SelfLoopError):
        g.pair_class_histogram(1, 1)


def _random_graph(rng, n=12, n_classes=5, n_edges=25, mode="holdout"):
    g = TypedInteractionGraph(n, n_classes, mode)
    lo = 1 if mode == "retrospective" else 0
    while g.num_edges < n_edges:
        i, j = rng.integers(0, n, 2)
        if i == j or g.lookup(int(i), int(j)) is not None:
            continue
        g.add_interaction(int(i), int(j), int(rng.integers(lo, n_classes)))
    return g


def test_property_reversed_requery_matches():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = _random_graph(rng)
        for i, j, c in g.edge_list():
            assert g.lookup(j, i) == c


def test_property_degree_sum_is_twice_edges():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = _random_graph(rng)
        assert sum(g.degree(v) for v in range(g.n_drugs)) == 2 * g.num_edges


def test_property_histogram_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = _random_graph(rng)
        for _ in range(20):
            a, b = rng.integers(0, g.n_drugs, 2)
            if a == b:
                continue
            assert np.array_equal(
                g.pair_class_histogram(int(a), int(b)),
                g.pair_class_histogram(int(b), int(a)),
            )


def test_property_histogram_never_counts_own_edge():
    rng = np.random.default_rng(3)
    for t in range(6):
        g = _random_graph(rng, mode="retrospective" if t % 2 else "holdout")
        counts = g.node_class_counts()
        brute = np.zeros((g.n_drugs, g.n_classes), dtype=np.int64)
        for i, j, c in g.edge_list():
            brute[i, c] += 1
            brute[j, c] += 1
        assert counts.dtype == np.int64 and np.array_equal(counts, brute)
        for i, j, c in g.edge_list():
            hist = g.pair_class_histogram(i, j)
            assert hist[c] == counts[i, c] + counts[j, c] - 2


def test_roster_translation():
    roster = Roster(["DB01", "DB02", "DB03"], names=["aspirin", None, "heparin"])
    assert roster.index_of("DB03") == 2
    assert roster.external_id(0) == "DB01"
    assert roster.name(2) == "heparin"
    assert "DB02" in roster and "DB09" not in roster
    with pytest.raises(UnknownDrugError):
        roster.index_of("DB09")
    with pytest.raises(DuplicateIdError):
        Roster(["X", "X"])
