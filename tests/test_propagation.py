import numpy as np
import pytest

from amfpmc.errors import InvalidClassError, InvalidConfigError, SelfLoopError, UnknownDrugError
from amfpmc import graph as graph_mod
from amfpmc.graph import TypedInteractionGraph, build_graph
from amfpmc.propagation import (
    neighborhood_distributions,
    propagate_target,
    propagate_targets,
)


def neighborhood_distribution(g, a, b):
    return neighborhood_distributions(g, [a], [b])[0]


def test_distribution_normalizes_histogram():
    # endpoints jointly touch two class-1 edges and one class-2 edge
    g = build_graph(6, 4, "holdout", [(0, 2, 1), (0, 3, 1), (1, 4, 2)])
    dist = neighborhood_distribution(g, 0, 1)
    assert np.allclose(dist, [0.0, 2 / 3, 1 / 3, 0.0])


def test_isolated_fallback_retrospective():
    g = TypedInteractionGraph(4, 5, "retrospective")
    dist = neighborhood_distribution(g, 0, 1)
    assert dist.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_isolated_fallback_holdout_uniform():
    g = TypedInteractionGraph(4, 4, "holdout")
    assert neighborhood_distribution(g, 0, 1).tolist() == [0.25] * 4


def test_self_loop_rejected():
    g = TypedInteractionGraph(4, 4, "holdout")
    with pytest.raises(SelfLoopError):
        neighborhood_distribution(g, 2, 2)


@pytest.mark.parametrize("a, b, error", [(2, 2, SelfLoopError), (0, 4, UnknownDrugError),
                                         (-1, 0, UnknownDrugError)])
def test_every_route_checks_the_drug_indices(a, b, error):
    g = build_graph(4, 4, "holdout", [(0, 1, 2), (1, 2, 3)])
    for route in (lambda: neighborhood_distributions(g, [a], [b]),
                  lambda: propagate_targets(g, [a], [b], [1], 0.5),
                  lambda: propagate_target(g, a, b, 1, 0.5)):
        with pytest.raises(error):
            route()


def test_alpha_zero_is_exact_one_hot():
    g = build_graph(6, 4, "holdout", [(0, 2, 1), (1, 3, 2)])
    t = propagate_target(g, 0, 1, 2, alpha=0.0)
    assert np.array_equal(t, np.eye(4)[2])


def test_alpha_one_is_pure_neighborhood():
    g = build_graph(6, 4, "holdout", [(0, 2, 1), (0, 3, 1), (1, 4, 2)])
    t = propagate_target(g, 0, 1, 3, alpha=1.0)
    assert np.allclose(t, neighborhood_distribution(g, 0, 1))


def test_half_alpha_worked_example():
    # neighborhood is one-hot on class 2, label is 1, alpha 0.5
    g = build_graph(4, 4, "holdout", [(0, 2, 2)])
    t = propagate_target(g, 0, 1, 1, alpha=0.5)
    assert np.allclose(t, [0.0, 0.5, 0.5, 0.0])


def test_invalid_label_and_alpha():
    g = TypedInteractionGraph(4, 4, "holdout")
    with pytest.raises(InvalidClassError):
        propagate_target(g, 0, 1, 4, alpha=0.5)
    with pytest.raises(InvalidConfigError):
        propagate_target(g, 0, 1, 1, alpha=1.5)
    # the batched form: one bad row fails the whole batch with the same type
    for labels in ([1, 4], [-1, 2]):
        with pytest.raises(InvalidClassError):
            propagate_targets(g, [0, 1], [1, 2], labels, alpha=0.5)
    with pytest.raises(InvalidConfigError):
        propagate_targets(g, [0], [1], [1], alpha=-0.1)
    for I, J in (([0, 4], [1, 2]), ([0, 1], [1, -1])):
        with pytest.raises(UnknownDrugError):
            propagate_targets(g, I, J, [1, 1], alpha=0.5)
    with pytest.raises(SelfLoopError):
        propagate_targets(g, [0, 2], [1, 2], [1, 1], alpha=0.5)


def test_label_zero_is_legal_retrospective_target():
    g = build_graph(4, 5, "retrospective", [(0, 2, 1)])
    t = propagate_target(g, 0, 1, 0, alpha=0.5)
    assert t[0] == pytest.approx(0.5)


def _random_graph(rng, n=10, n_classes=5):
    edges = []
    seen = set()
    for _ in range(20):
        i, j = sorted(rng.integers(0, n, 2).tolist())
        if i == j or (i, j) in seen:
            continue
        seen.add((i, j))
        edges.append((i, j, int(rng.integers(0, n_classes))))
    return build_graph(n, n_classes, "holdout", edges)


def test_property_targets_are_distributions():
    rng = np.random.default_rng(10)
    for _ in range(50):
        g = _random_graph(rng)
        a, b = rng.integers(0, g.n_drugs, 2)
        if a == b:
            continue
        label = int(rng.integers(0, g.n_classes))
        alpha = float(rng.uniform(0, 1))
        t = propagate_target(g, int(a), int(b), label, alpha)
        assert abs(t.sum() - 1.0) < 1e-9
        assert np.all(t >= 0.0) and np.all(t <= 1.0)


def test_property_pair_order_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = _random_graph(rng)
        a, b = rng.integers(0, g.n_drugs, 2)
        if a == b:
            continue
        label = int(rng.integers(0, g.n_classes))
        alpha = float(rng.uniform(0, 1))
        t_ab = propagate_target(g, int(a), int(b), label, alpha)
        t_ba = propagate_target(g, int(b), int(a), label, alpha)
        assert np.array_equal(t_ab, t_ba)


def test_property_label_mass_monotone_in_alpha():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 30:
        g = _random_graph(rng)
        a, b = rng.integers(0, g.n_drugs, 2)
        if a == b:
            continue
        label = int(rng.integers(0, g.n_classes))
        if neighborhood_distribution(g, int(a), int(b))[label] >= 1.0:
            continue
        alphas = np.linspace(0, 1, 6)
        masses = [propagate_target(g, int(a), int(b), label, al)[label] for al in alphas]
        assert all(m1 >= m2 - 1e-12 for m1, m2 in zip(masses, masses[1:]))
        checked += 1


def _reference_target(g, a, b, label, alpha):
    """The per-pair formula, with the histogram counted edge by edge."""
    hist = np.zeros(g.n_classes, dtype=np.int64)
    for i, j, c in g.edge_list():
        if {i, j} != {a, b}:
            hist[c] += (i in (a, b)) + (j in (a, b))
    hist = hist.astype(np.float64)
    total = hist.sum()
    if total == 0.0 and g.mode == "retrospective":
        dist = np.eye(g.n_classes)[0]
    elif total == 0.0:
        dist = np.full(g.n_classes, 1.0 / g.n_classes)
    else:
        dist = hist / total
    hard = np.eye(g.n_classes)[label]
    if alpha == 0.0:
        return hard
    return (1.0 - alpha) * hard + alpha * dist


@pytest.mark.parametrize("mode", ["holdout", "retrospective"])
def test_batched_targets_bitwise_equal_per_pair_formula(mode):
    rng = np.random.default_rng(13)
    lo = 1 if mode == "retrospective" else 0
    for _ in range(10):
        # drugs 12..15 stay isolated, so pairs among them take the fallback
        edges = {}
        while len(edges) < 25:
            i, j = (int(v) for v in rng.integers(0, 12, 2))
            if i != j and (j, i) not in edges:
                edges.setdefault((i, j), int(rng.integers(lo, 6)))
        g = TypedInteractionGraph(16, 6, mode, [(i, j, c) for (i, j), c in edges.items()])
        pairs = [tuple(row) for row in g.edge_list().tolist()]  # stored edges
        pairs += [(12, 13, 0), (14, 15, 1), (15, 0, 2)]   # isolated endpoints
        while len(pairs) < 60:
            a, b = (int(v) for v in rng.integers(0, 16, 2))
            if a != b:
                pairs.append((a, b, int(rng.integers(0, 6))))  # includes label 0
        I, J, y = (np.array(col) for col in zip(*pairs))
        for alpha in (0.0, 0.3, 1.0):
            batched = propagate_targets(g, I, J, y, alpha)
            reference = np.stack([_reference_target(g, *p, alpha) for p in pairs])
            assert batched.tobytes() == reference.tobytes()


# -- bitwise references: the int64 histograms, converted to float afterwards --


def int64_distributions(g, I, J):
    """The int64 histogram, copied to float64 and then normalized."""
    I = np.asarray(I, dtype=np.int64)
    J = np.asarray(J, dtype=np.int64)
    counts = g.node_class_counts().astype(np.int64)
    hist = counts[I]
    hist += counts[J]
    own = g.edge_classes(I, J)
    rows = np.flatnonzero(own >= 0)
    hist[rows, own[rows]] -= 2
    dist = hist.astype(np.float64)
    total = dist.sum(axis=1, keepdims=True)
    isolated = total[:, 0] == 0.0
    np.divide(dist, total, out=dist, where=~isolated[:, None])
    if g.mode == "retrospective":
        dist[isolated, 0] = 1.0
    else:
        dist[isolated] = 1.0 / g.n_classes
    return hist, dist


def int64_targets(g, I, J, labels, alpha):
    targets = int64_distributions(g, I, J)[1]
    targets *= alpha
    y = np.asarray(labels, dtype=np.int64)
    targets[np.arange(y.size), y] += 1.0 - alpha
    return targets


@pytest.mark.parametrize("chunk", [1, 7, 1_000_000])
@pytest.mark.parametrize("mode", ["holdout", "retrospective"])
def test_in_place_targets_bitwise_equal_int64_formula(monkeypatch, mode, chunk):
    # every stored edge (ends swapped, so its own edge is found either way
    # round), pairs of the isolated drugs 30..34, then random pairs
    rng = np.random.default_rng(41)
    lo = 1 if mode == "retrospective" else 0
    n, K = 35, 7
    iu, ju = np.triu_indices(30, k=1)
    keep = rng.choice(iu.size, 120, replace=False)
    g = TypedInteractionGraph(n, K, mode, np.column_stack([iu[keep], ju[keep], rng.integers(lo, K, 120)]))
    pairs = [tuple(row) for row in g.edge_list()[:, [1, 0, 2]].tolist()]  # own edges, reversed
    pairs += [(30, 31, 0), (34, 32, 1), (33, 0, 2)]  # isolated endpoints
    while len(pairs) < 400:
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b:
            pairs.append((a, b, int(rng.integers(0, K))))
    I, J, y = (np.array(col) for col in zip(*pairs))
    dist = int64_distributions(g, I, J)[1]
    monkeypatch.setattr(graph_mod, "PAIR_CHUNK_ROWS", chunk)
    assert neighborhood_distributions(g, I, J).tobytes() == dist.tobytes()
    for alpha in (0.0, 0.3, 0.6, 1.0):
        want = int64_targets(g, I, J, y, alpha)
        assert propagate_targets(g, I, J, y, alpha).tobytes() == want.tobytes()
