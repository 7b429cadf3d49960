import itertools
import json
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from amfpmc.errors import (
    EmptyDatasetError,
    EmptyGridError,
    EmptyIntersectionError,
    EmptySubsetError,
    DegenerateLabelsError,
    InvalidClassError,
    InvalidConfigError,
    InvalidDimensionsError,
    SelfLoopError,
    TooFewPairsError,
    UnknownDrugError,
)
from amfpmc import pipeline
from amfpmc.formats import report_to_dict
from amfpmc.graph import PAIR_CHUNK_ROWS, Roster, TypedInteractionGraph, build_graph
from amfpmc.metrics import multiclass_report
from amfpmc.model import Hyperparameters, ModelParameters, init_model, predict_batch, softmax
from amfpmc.pipeline import (
    GridSpec,
    attach_targets,
    baseline_majority,
    baseline_neighborhood,
    fit_and_score,
    grid_search,
    holdout_evaluate,
    one_hot_pairs,
    reconcile_rosters,
    retrospective_evaluate,
    retrospective_split,
    score_pairs,
    stratified_kfold,
    stratified_validation_split,
    train,
    training_graph,
)
from amfpmc.synth import SyntheticConfig, generate_synthetic


def quick_hp(**kw):
    base = dict(embedding_dim=8, dropout=0.0, epochs=10, batch_size=64,
                learning_rate=0.01, alpha=0.5, seed=0)
    base.update(kw)
    return Hyperparameters(**base)


class TestStratifiedKfold:
    def test_even_split_single_class(self):
        folds = stratified_kfold([3] * 10, k=5, seed=0)
        assert np.bincount(folds, minlength=5).tolist() == [2] * 5

    def test_small_class_lands_in_distinct_folds(self):
        labels = [0] * 10 + [1] * 3
        folds = stratified_kfold(labels, k=5, seed=1)
        small = folds[10:]
        assert len(set(small.tolist())) == 3

    def test_same_seed_identical(self):
        labels = np.random.default_rng(2).integers(0, 4, 60)
        a = stratified_kfold(labels, 5, seed=7)
        b = stratified_kfold(labels, 5, seed=7)
        assert np.array_equal(a, b)

    def test_per_class_balance(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 5, 123)
        k = 5
        folds = stratified_kfold(labels, k, seed=0)
        for cls in range(5):
            per_fold = np.bincount(folds[labels == cls], minlength=k)
            if (labels == cls).sum() >= k:
                assert per_fold.max() - per_fold.min() <= 1

    @pytest.mark.parametrize("seed", [0, 11])
    def test_folds_and_validation_split_keep_their_draws(self, seed):
        # reference: a seeded shuffle of each class's positions, classes ascending
        labels = np.random.default_rng(seed).integers(0, 6, 97)
        rows = np.column_stack([np.arange(97), np.arange(97) + 100, labels])
        rng = np.random.default_rng(seed)
        folds = np.empty(97, dtype=np.int64)
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            rng.shuffle(members)
            folds[members] = np.arange(members.size) % 4
        assert stratified_kfold(labels, 4, seed).tobytes() == folds.tobytes()

        rng = np.random.default_rng(seed)
        in_val = np.zeros(97, dtype=bool)
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            rng.shuffle(members)
            in_val[members[: min(int(round(0.3 * members.size)), members.size - 1)]] = True
        train_rows, val_rows = stratified_validation_split(rows, 0.3, seed)
        assert train_rows.tobytes() == rows[~in_val].tobytes()
        assert val_rows.tobytes() == rows[in_val].tobytes()

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairsError):
            stratified_kfold([0, 1], k=5, seed=0)
        with pytest.raises(InvalidConfigError):
            stratified_kfold([0, 1, 2], k=1, seed=0)

    @pytest.mark.parametrize("labels", [[1, 1, 2, 2, 3, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6], []])
    def test_fold_left_empty_is_refused(self, labels):
        # each class is dealt from fold 0, so no class of 5 pairs leaves fold 4 empty
        largest = max(np.bincount(labels), default=0)
        with pytest.raises(TooFewPairsError, match=f"the largest class has {largest} pairs, "
                                                   f"fewer than k = 5: fold {largest} would be empty"):
            stratified_kfold(labels, k=5, seed=0)
        if largest >= 2:
            folds = stratified_kfold(labels, k=largest, seed=0)
            assert np.bincount(folds, minlength=largest).min() >= 1

    def test_holdout_with_an_empty_fold_trains_nothing(self, monkeypatch):
        g = build_graph(6, 7, "holdout", [(0, 1, 1), (0, 2, 1), (1, 2, 2), (1, 3, 2), (2, 3, 3),
                                          (2, 4, 3), (3, 4, 4), (3, 5, 5), (4, 5, 6)])
        calls = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(a))
        with pytest.raises(TooFewPairsError, match="fewer than k = 5"):
            holdout_evaluate(g, quick_hp(), k=5, seed=0)
        assert calls == []

    @pytest.mark.parametrize("edges, second", [
        ([(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1), (1, 2, 2), (1, 3, 3)], 1),
        ([(0, t, 2) for t in range(1, 6)], 0),
        ([(0, t, 1) for t in range(1, 6)] + [(1, t, 2) for t in range(2, 6)], 4),
    ])
    def test_holdout_with_a_fold_of_one_class_trains_nothing(self, monkeypatch, edges, second):
        # fold f holds each class of more than f pairs: from fold `second` on, one
        g = build_graph(6, 4, "holdout", edges)
        calls = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(a))
        with pytest.raises(DegenerateLabelsError, match=f"the second-largest class has {second} "
                           f"pairs, fewer than k = 5: fold {second} would hold one class only"):
            holdout_evaluate(g, quick_hp(), k=5, seed=0)
        assert calls == []


class TestTrain:
    def test_two_drug_instance_converges(self):
        g = build_graph(2, 2, "holdout", [(0, 1, 1)])
        pairs = attach_targets(g.edge_list(), g, alpha=0.0)
        hp = quick_hp(embedding_dim=4, epochs=200, batch_size=1, alpha=0.0)
        params = train(pairs, hp, 2, 2)
        probs = score_pairs(params, [(0, 1)])
        assert int(np.argmax(probs[0])) == 1

    def test_alpha_zero_equals_bypass_bitwise(self):
        data = generate_synthetic(SyntheticConfig(n_drugs=30, n_blocks=2, n_classes=4,
                                                  edge_probability=0.4, seed=3))
        items = data.graph_t0.edge_list()
        hp = quick_hp(alpha=0.0, epochs=5)
        via_propagation = attach_targets(items, data.graph_t0, alpha=0.0)
        bypassed = one_hot_pairs(items, 4)
        p1 = train(via_propagation, hp, 30, 4)
        p2 = train(bypassed, hp, 30, 4)
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_labeled_pairs_hold_canonical_rows(self):
        g = build_graph(5, 3, "holdout", [(0, 2, 1), (1, 3, 2), (2, 4, 0)])
        reversed_rows = [(2, 0, 1), (4, 1, 2), (3, 0, 0)]
        expected = [[0, 2, 1], [1, 4, 2], [0, 3, 0]]
        every = np.arange(3)
        for pairs in (attach_targets(reversed_rows, g, alpha=0.4), one_hot_pairs(reversed_rows, 3)):
            assert pairs.items.dtype == np.int64 and pairs.items.tolist() == expected
            assert pairs.batch(every)[2].shape == (3, 3) and len(pairs) == 3
        canonical = attach_targets(expected, g, alpha=0.4).batch(every)[2]
        assert canonical.tobytes() == attach_targets(reversed_rows, g, alpha=0.4).batch(every)[2].tobytes()
        assert one_hot_pairs(expected, 3).batch(every)[2].tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        with pytest.raises(InvalidClassError):
            one_hot_pairs([(0, 1, 3)], 3)
        # the rows are checked once, here; train's batches are not checked again
        for rows, error in (([(1, 1, 0)], SelfLoopError), ([(0, 5, 0)], UnknownDrugError),
                            ([(-1, 2, 0)], UnknownDrugError), ([(0, 1, 3)], InvalidClassError)):
            with pytest.raises(error):
                attach_targets(rows, g, alpha=0.4)
            if rows != [(0, 5, 0)]:  # one_hot_pairs sizes its graph by the largest index
                with pytest.raises(error):
                    one_hot_pairs(rows, 3)
        with pytest.raises(InvalidConfigError):
            attach_targets(expected, g, alpha=1.5)

    @pytest.mark.parametrize("alpha", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("mode", ["holdout", "retrospective"])
    def test_batch_targets_are_the_rows_of_the_whole_matrix(self, mode, alpha):
        # stored edges (ends swapped), pairs of the isolated drugs 30..34,
        # random pairs mostly not stored with every label (0 included), and
        # repeated rows; batches are index arrays in any order, repeats allowed
        rng = np.random.default_rng(43)
        lo = 1 if mode == "retrospective" else 0
        n, K = 35, 7
        iu, ju = np.triu_indices(30, k=1)
        keep = rng.choice(iu.size, 120, replace=False)
        g = TypedInteractionGraph(n, K, mode, np.column_stack([iu[keep], ju[keep], rng.integers(lo, K, 120)]))
        stored = g.edge_list()[:, [1, 0, 2]]
        isolated = np.array([(30, 31, 0), (34, 32, 1), (33, 31, 2)])
        a = rng.integers(0, n, 300)
        b = (a + 1 + rng.integers(0, n - 1, a.size)) % n
        others = np.column_stack([a, b, rng.integers(0, K, a.size)])
        items = np.concatenate([stored, isolated, others, stored[:10], isolated[:1]])
        labeled = attach_targets(items, g, alpha)
        assert (labeled.own >= 0).any() and (labeled.own < 0).any()
        m = len(items)
        whole = attach_targets(labeled.items, g, alpha).batch(np.arange(m))[2]
        # the isolated pairs take their mode's fallback distribution
        dist = np.eye(K)[0] if mode == "retrospective" else np.full(K, 1.0 / K)
        want = alpha * dist + (1.0 - alpha) * np.eye(K)[isolated[:, 2]]
        assert np.array_equal(whole[len(stored):len(stored) + 3], want)
        batches = [np.arange(m), rng.permutation(m), np.arange(m)[::-1], rng.integers(0, m, 500),
                   rng.permutation(m)[:1], np.array([m - 1, 0, m - 1])]
        for idx in batches:
            assert labeled.batch(idx)[2].tobytes() == whole[idx].tobytes()

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            train([], quick_hp(), 4, 3)

    def test_training_memory_grows_by_a_few_numbers_per_row(self):
        # attach_targets + train, with the graph's (n, K) count table built
        # beforehand: four times the rows add a few 8-byte numbers per row
        # (rows, their own-edge classes and histogram sums, the epoch's
        # order), never a (rows, K) matrix of 37 floats per row
        data = generate_synthetic(SyntheticConfig(n_drugs=400, n_blocks=6, n_classes=37,
                                                  edge_probability=0.3, holdout_fraction=0.0,
                                                  seed=0, mode="retrospective"))
        g = data.graph_t1
        items = g.edge_list()
        assert len(items) > 20_000
        g.node_class_counts()
        hp = quick_hp(embedding_dim=4, epochs=1)
        peaks = {}
        for m in (len(items) // 4, len(items)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train(attach_targets(items[:m], g, alpha=0.5), hp, g.n_drugs, g.n_classes)
                peaks[m] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        (m1, p1), (m2, p2) = peaks.items()
        # measured 50 B/row; a (rows, K) target matrix alone is 296
        assert p2 - p1 <= 10 * 8 * (m2 - m1), peaks

    @pytest.mark.parametrize("epochs", [1, 6])
    def test_one_gradient_holder_serves_every_step(self, monkeypatch, epochs):
        # the parameters and one gradient holder, however many steps run
        g = build_graph(12, 3, "holdout", [(0, 1, 1), (2, 3, 2), (4, 5, 0), (6, 7, 1), (8, 9, 2)])
        pairs = attach_targets(g.edge_list(), g, alpha=0.5)
        made = []
        real = ModelParameters.__init__

        def counted(self, *args, **kwargs):
            made.append(args)
            real(self, *args, **kwargs)

        holders = []
        real_backward = pipeline.backward

        def recorded(*args):
            holders.append(args[-1])
            return real_backward(*args)

        monkeypatch.setattr(pipeline, "backward", recorded)
        monkeypatch.setattr(ModelParameters, "__init__", counted)
        train(pairs, quick_hp(epochs=epochs, batch_size=2), 12, 3)
        assert len(holders) == 3 * epochs and all(holder is holders[0] for holder in holders)
        assert made == [(12, 3, quick_hp().embedding_dim)] * 2

    def test_retrospective_targets_released_before_scoring(self, monkeypatch):
        data = generate_synthetic(SyntheticConfig(n_drugs=300, n_blocks=6, n_classes=37,
                                                  edge_probability=0.3, holdout_fraction=0.2,
                                                  seed=2, mode="retrospective"))
        split = retrospective_split(data.graph_t0, data.graph_t1, seed=0, test_pair_cap=2000)
        targets_bytes = len(split.train_items) * split.n_classes * 8
        held = []
        real = pipeline.score_pairs

        def probe(params, pairs):
            held.append(tracemalloc.get_traced_memory()[0] - base)
            return real(params, pairs)

        monkeypatch.setattr(pipeline, "score_pairs", probe)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            retrospective_evaluate(split, quick_hp(embedding_dim=4, epochs=1, batch_size=512))
        finally:
            tracemalloc.stop()
        # the training graph and the model are left, not the (B, K) targets
        assert len(held) == 1 and held[0] < 0.25 * targets_bytes

    def test_loss_decreases_on_planted_data(self):
        data = generate_synthetic(SyntheticConfig(n_drugs=10, n_blocks=2, n_classes=4,
                                                  edge_probability=0.8, seed=4))
        g = data.graph_t0
        items = g.edge_list()
        pairs = attach_targets(items, g, alpha=0.0)
        hp = quick_hp(alpha=0.0, epochs=50, batch_size=8)
        params0 = train(pairs, replace(hp, epochs=0), g.n_drugs, 4)
        params = train(pairs, hp, g.n_drugs, 4)
        from amfpmc.metrics import class_weights
        from amfpmc.model import loss as model_loss

        T = pairs.batch(np.arange(len(pairs)))[2]
        w = class_weights(np.bincount(pairs.items[:, 2], minlength=4))
        ij = pairs.items[:, :2]
        assert model_loss(score_pairs(params, ij), T, w) < model_loss(score_pairs(params0, ij), T, w)


@pytest.fixture(scope="module")
def planted():
    cfg = SyntheticConfig(n_drugs=60, n_blocks=2, n_classes=4,
                          edge_probability=0.4, label_noise=0.0,
                          holdout_fraction=0.0, seed=5)
    return generate_synthetic(cfg).graph_t1


class TestHoldoutEvaluate:
    def test_train_accuracy_bounds_heldout(self, planted):
        hp = quick_hp(epochs=30)
        result = holdout_evaluate(planted, hp, k=3, seed=0)
        items = planted.edge_list()
        pairs = attach_targets(items, planted, hp.alpha)
        params = train(pairs, hp, planted.n_drugs, planted.n_classes)
        probs = score_pairs(params, [(i, j) for i, j, _ in items])
        self_report = multiclass_report(probs, [c for _, _, c in items])
        assert self_report.accuracy >= result.mean.accuracy - 1e-12

    def test_shuffled_labels_give_chance_auroc(self, planted):
        # permutation oracle: break the structure, expect macro AUROC ~ 0.5
        rng = np.random.default_rng(6)
        items = planted.edge_list()
        labels = np.array([c for _, _, c in items])
        rng.shuffle(labels)
        shuffled = build_graph(planted.n_drugs, planted.n_classes, "holdout",
                               [(i, j, int(c)) for (i, j, _), c in zip(items, labels)])
        result = holdout_evaluate(shuffled, quick_hp(epochs=15), k=3, seed=0)
        assert abs(result.mean.macro_auroc - 0.5) <= 0.05

    def test_pooled_per_class_rows_and_order(self, planted):
        result = holdout_evaluate(planted, quick_hp(epochs=5), k=3, seed=0)
        table = result.mean.per_class
        supports = [r.support for r in table]
        assert supports == sorted(supports, reverse=True)
        with_support = [r for r in table if r.support > 0]
        observed = len(set(c for _, _, c in planted.edge_list()))
        assert len(with_support) == observed

    def test_two_runs_byte_identical(self, planted):
        hp = quick_hp(epochs=5)
        a = holdout_evaluate(planted, hp, k=3, seed=0)
        b = holdout_evaluate(planted, hp, k=3, seed=0)
        payload_a = json.dumps([report_to_dict(r) for r in a.folds + [a.mean]])
        payload_b = json.dumps([report_to_dict(r) for r in b.folds + [b.mean]])
        assert payload_a.encode() == payload_b.encode()

    def test_rejects_retrospective_graph(self):
        g = build_graph(4, 3, "retrospective", [(0, 1, 1)])
        with pytest.raises(InvalidConfigError):
            holdout_evaluate(g, quick_hp(), k=2, seed=0)


class TestFitAndScore:
    def test_pickled_task_gives_the_probabilities_of_train_then_score(self, planted):
        items = planted.edge_list()
        train_items, test_pairs = items[::2], items[1::2, :2]
        n, K = planted.n_drugs, planted.n_classes
        graph = training_graph(n, K, "holdout", train_items)
        hp = quick_hp(epochs=3, dropout=0.2, alpha=0.7)
        params = train(attach_targets(train_items, graph, hp.alpha), hp, n, K)
        want = score_pairs(params, test_pairs)

        payload = pickle.dumps((fit_and_score, train_items, graph, test_pairs, hp))
        task, *args = pickle.loads(payload)
        assert task is fit_and_score
        assert task(*args).tobytes() == want.tobytes()

    def test_test_pair_on_a_training_edge_is_refused_before_training(self, planted, monkeypatch):
        items = planted.edge_list()
        graph = training_graph(planted.n_drugs, planted.n_classes, "holdout", items)
        iu, ju = np.triu_indices(planted.n_drugs, k=1)
        free = np.flatnonzero(planted.edge_classes(iu, ju) < 0)[0]
        # after a pair that is no edge, a class-0 edge asked for with its ends swapped
        i, j, _ = items[items[:, 2] == 0][0]
        test_pairs = np.array([[iu[free], ju[free]], [j, i]])
        calls = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(a))
        with pytest.raises(RuntimeError, match=rf"test pair \({j}, {i}\)"):
            fit_and_score(items, graph, test_pairs, quick_hp())
        assert calls == []


def two_snapshots():
    roster = Roster([f"D{i}" for i in range(8)])
    t0 = build_graph(8, 4, "retrospective", [(0, 1, 1), (2, 3, 2), (4, 5, 3)], roster=roster)
    t1 = build_graph(
        8, 4, "retrospective",
        np.concatenate([t0.edge_list(), [(0, 2, 1), (1, 3, 2)]]),
        roster=roster,
    )
    return t0, t1


def enumerating_split(t0, t1, negative_ratio, seed, test_pair_cap):
    """(train_items, test_items) drawn from the enumerated list of every unlabeled pair."""
    n = t0.n_drugs
    edges0 = t0.edge_list()
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    unlabeled = t0.edge_classes(iu, ju) < 0
    iu, ju = iu[unlabeled], ju[unlabeled]
    n_neg = int(round(min(negative_ratio * len(edges0), iu.size)))
    neg_mask = np.zeros(iu.size, dtype=bool)
    if n_neg > 0:
        neg_mask[rng.choice(iu.size, size=n_neg, replace=False)] = True
    negatives = np.column_stack([iu[neg_mask], ju[neg_mask], np.zeros(n_neg, dtype=np.int64)])
    ti, tj = iu[~neg_mask], ju[~neg_mask]
    if ti.size > test_pair_cap:
        sel = np.sort(rng.choice(ti.size, size=test_pair_cap, replace=False))
        ti, tj = ti[sel], tj[sel]
    test_items = np.column_stack([ti, tj, np.maximum(t1.edge_classes(ti, tj), 0)])
    return np.concatenate([edges0, negatives]), test_items


class TestRetrospectiveSplit:
    @pytest.mark.parametrize("n_drugs", [8, 40, 160])
    def test_equal_to_enumerating_split(self, n_drugs):
        data = generate_synthetic(SyntheticConfig(
            n_drugs=n_drugs, n_blocks=2, n_classes=6, edge_probability=0.3,
            holdout_fraction=0.3, seed=n_drugs, mode="retrospective"))
        t0, t1 = data.graph_t0, data.graph_t1
        universe = n_drugs * (n_drugs - 1) // 2 - t0.num_edges
        # the last ratio leaves one unlabeled pair to test
        for ratio in (0.0, 0.5, 1.0, (universe - 1) / t0.num_edges):
            for cap in (1, 10, universe - 1, universe, universe + 1):
                for seed in (0, 1):
                    split = retrospective_split(t0, t1, negative_ratio=ratio, seed=seed,
                                                test_pair_cap=cap)
                    train_items, test_items = enumerating_split(t0, t1, ratio, seed, cap)
                    assert np.array_equal(split.train_items, train_items)
                    assert np.array_equal(split.test_items, test_items)

    def test_split_leaving_no_test_pair_trains_on_every_unlabeled_pair(self):
        # 18 drugs, T1 holds 120 pairs and T0 90 of them: the 90 negatives of
        # ratio 1.0 take all 63 pairs unlabeled in T0, and evaluation refuses
        # the empty test set before training
        iu, ju = np.triu_indices(18, k=1)
        rows = np.column_stack([iu, ju, 1 + np.arange(iu.size) % 3])[:120]
        t0, t1 = (build_graph(18, 4, "retrospective", rows[:size]) for size in (90, 120))
        unlabeled = np.column_stack([iu, ju, np.zeros(iu.size, dtype=np.int64)])[90:]
        for ratio in (1.0, 63 / 90):
            split = retrospective_split(t0, t1, negative_ratio=ratio, seed=0)
            assert np.array_equal(split.train_items, np.concatenate([rows[:90], unlabeled]))
            assert split.test_items.shape == (0, 3)
            with pytest.raises(EmptyDatasetError, match="the split leaves no test pair"):
                retrospective_evaluate(split, Hyperparameters(embedding_dim=4, epochs=1))
        split = retrospective_split(t0, t1, negative_ratio=62 / 90, seed=0)
        assert (len(split.train_items), len(split.test_items)) == (152, 1)
        # a T0 that labels every pair leaves nothing to test at any ratio
        complete = build_graph(4, 2, "retrospective", [(a, b, 1) for a, b in itertools.combinations(range(4), 2)])
        split = retrospective_split(complete, complete, negative_ratio=0.0, seed=0)
        assert np.array_equal(split.train_items, complete.edge_list()) and len(split.test_items) == 0

    def test_t0_edges_all_in_train(self):
        t0, t1 = two_snapshots()
        split = retrospective_split(t0, t1, negative_ratio=1.0, seed=0)
        train_set = {tuple(row) for row in split.train_items.tolist()}
        for edge in t0.edge_list().tolist():
            assert tuple(edge) in train_set

    def test_no_test_pair_has_t0_label(self):
        t0, t1 = two_snapshots()
        split = retrospective_split(t0, t1, negative_ratio=1.0, seed=0)
        for i, j, _ in split.test_items:
            assert not t0.has_edge(i, j)

    def test_identical_snapshots_give_zero_truths(self):
        t0, _ = two_snapshots()
        split = retrospective_split(t0, t0, negative_ratio=0.5, seed=1)
        assert all(c == 0 for _, _, c in split.test_items)

    def test_train_test_disjoint_and_deterministic(self):
        t0, t1 = two_snapshots()
        a = retrospective_split(t0, t1, negative_ratio=1.0, seed=2)
        b = retrospective_split(t0, t1, negative_ratio=1.0, seed=2)
        assert np.array_equal(a.train_items, b.train_items)
        assert np.array_equal(a.test_items, b.test_items)
        train_pairs = {(i, j) for i, j, _ in a.train_items}
        test_pairs = {(i, j) for i, j, _ in a.test_items}
        assert not train_pairs & test_pairs

    def test_negative_ratio_counts(self):
        t0, t1 = two_snapshots()
        split = retrospective_split(t0, t1, negative_ratio=2.0, seed=3)
        negatives = [item for item in split.train_items if item[2] == 0]
        assert len(negatives) == 2 * t0.num_edges

    def test_test_cap_subsamples(self):
        t0, t1 = two_snapshots()
        split = retrospective_split(t0, t1, negative_ratio=0.0, seed=4, test_pair_cap=5)
        assert len(split.test_items) == 5

    def test_snapshots_on_different_rosters_are_refused(self):
        g0 = build_graph(3, 3, "retrospective", [(0, 1, 1), (1, 2, 2)], roster=Roster(["A", "B", "C"]))
        g1 = build_graph(3, 3, "retrospective", [(0, 1, 1)], roster=Roster(["A", "B", "D"]))
        with pytest.raises(InvalidConfigError, match="snapshots must be reconciled to a common roster first"):
            retrospective_split(g0, g1)

    def test_reconcile_rosters(self):
        r0 = Roster(["A", "B", "C"])
        r1 = Roster(["B", "C", "D"])
        g0 = build_graph(3, 3, "retrospective", [(0, 1, 1), (1, 2, 2)], roster=r0)
        g1 = build_graph(3, 3, "retrospective", [(0, 1, 1)], roster=r1)
        c0, c1 = reconcile_rosters(g0, g1)
        assert c0.roster.external_ids == ["B", "C"]
        assert c0.num_edges == 1  # only (B, C) survives
        assert c1.num_edges == 1
        with pytest.raises(EmptyIntersectionError):
            reconcile_rosters(
                build_graph(2, 3, "retrospective", [(0, 1, 1)], roster=Roster(["X", "Y"])),
                build_graph(2, 3, "retrospective", [(0, 1, 1)], roster=Roster(["P", "Q"])),
            )


@pytest.mark.parametrize("call, error, message", [
    (lambda: holdout_evaluate(TypedInteractionGraph(4, 3, "holdout"), quick_hp()),
     EmptyDatasetError, "graph has no edges"),
    (lambda: reconcile_rosters(*[build_graph(3, 3, "retrospective", [(0, 1, 1)])] * 2),
     InvalidConfigError, "reconciling snapshots requires rosters"),
    (lambda: retrospective_split(*[build_graph(3, 3, "holdout", [(0, 1, 1)])] * 2),
     InvalidConfigError, "retrospective split needs retrospective-mode graphs"),
], ids=["edgeless-holdout", "no-rosters", "holdout-snapshots"])
def test_graphs_a_harness_cannot_use_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("m", [1_023, 1_024, 1_025, 2_559, 40_000])
def test_chunked_scoring_equals_one_batch(m):
    # holds on a BLAS build whose row results do not depend on the row count
    rng = np.random.default_rng(m)
    params = init_model(300, 5, quick_hp(), rng=rng)
    i = rng.integers(0, 300, m)
    j = (i + rng.integers(1, 300, m)) % 300
    got = score_pairs(params, np.column_stack([i, j]))
    assert got.tobytes() == predict_batch(params, i, j).tobytes()


def test_scoring_chunk_holds_one_embedding_array():
    # at d = 512 and the paper's 65 classes, scoring holds the (m, K) result
    # and one row_chunks chunk's arrays, not one (m, d) array, and gives the
    # bytes of scoring the pairs in one piece
    rng = np.random.default_rng(44)
    n, K, d, m = 200, 65, 512, 16_384
    params = init_model(n, K, quick_hp(embedding_dim=d), rng=rng)
    i = rng.integers(0, n, m)
    j = (i + rng.integers(1, n, m)) % n
    pairs = np.column_stack([i, j])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = score_pairs(params, pairs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the result; a chunk's i rows, the j rows multiplied into them, its
    # logits and one (rows, K) temporary; and a few (rows,) vectors
    assert peak <= m * K * 8 + PAIR_CHUNK_ROWS * (2 * d + 2 * K + 8) * 8, peak
    h = params.embeddings[i]
    h *= params.embeddings[j]
    logits = h @ params.class_proj.T
    logits += params.class_bias
    logits += params.bias_coupling * (params.drug_bias[i] + params.drug_bias[j])[:, None]
    assert got.tobytes() == softmax(logits).tobytes()


class TestRetrospectiveEvaluate:
    def test_full_roster_subset_matches_no_subset(self):
        t0, t1 = two_snapshots()
        split = retrospective_split(t0, t1, negative_ratio=1.0, seed=0)
        hp = quick_hp(epochs=5)
        full = retrospective_evaluate(split, hp)
        subset = retrospective_evaluate(split, hp, subset=set(range(8)))
        assert report_to_dict(full) == report_to_dict(subset)

    def test_isolated_subset_degenerates(self, monkeypatch):
        t0, t1 = two_snapshots()
        # drugs 6 and 7 are isolated in both snapshots; with no sampled
        # negatives their only test truth is class 0 everywhere, which is
        # refused before training
        split = retrospective_split(t0, t1, negative_ratio=0.0, seed=0)
        calls = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(a))
        with pytest.raises(DegenerateLabelsError, match="all 1 test pairs are class 0"):
            retrospective_evaluate(split, quick_hp(epochs=2), subset={6, 7})
        assert calls == []

    def test_empty_subset(self):
        t0, t1 = two_snapshots()
        split = retrospective_split(t0, t1, negative_ratio=0.0, seed=0)
        with pytest.raises(EmptySubsetError):
            retrospective_evaluate(split, quick_hp(epochs=2), subset={6})

    def test_new_edges_in_one_block_are_recovered(self):
        cfg = SyntheticConfig(n_drugs=100, n_blocks=3, n_classes=10, edge_probability=0.25,
                              label_noise=0.0, holdout_fraction=0.3, seed=5, mode="retrospective")
        data = generate_synthetic(cfg)
        t0 = data.graph_t0
        target_class = data.config.planted_class(0, 0)
        t1 = build_graph(cfg.n_drugs, cfg.n_classes, "retrospective",
                         np.concatenate([t0.edge_list(),
                                         data.held_out[data.held_out[:, 2] == target_class]]),
                         roster=t0.roster)
        split = retrospective_split(t0, t1, negative_ratio=1.0, seed=3)
        hp = quick_hp(embedding_dim=16, epochs=40, batch_size=128, alpha=0.6)
        report = retrospective_evaluate(split, hp)
        row = {r.class_id: r for r in report.per_class}[target_class]
        assert row.support > 0
        assert row.auroc >= 0.9


class TestGridSearch:
    def test_single_point_returned_unchanged(self):
        data = generate_synthetic(SyntheticConfig(n_drugs=30, n_blocks=2, n_classes=4,
                                                  edge_probability=0.5, seed=6))
        items = data.graph_t1.edge_list()
        base = quick_hp(epochs=3)
        grid = GridSpec({"alpha": [0.3]})
        best, results = grid_search(items, 30, 4, "holdout", base, grid, seed=0)
        assert best.alpha == 0.3 and len(results) == 1
        assert best.epochs == base.epochs

    def test_alpha_grid_prefers_propagation_on_noisy_planted_graph(self):
        cfg = SyntheticConfig(n_drugs=100, n_blocks=3, n_classes=9, edge_probability=0.3,
                              label_noise=0.15, holdout_fraction=0.0, seed=7)
        items = generate_synthetic(cfg).graph_t1.edge_list()
        base = quick_hp(embedding_dim=16, epochs=25, batch_size=128)
        best, results = grid_search(items, 100, 9, "holdout", base,
                                    GridSpec({"alpha": [0.0, 0.8]}), seed=0)
        scores = {hp.alpha: s for hp, s in results}
        assert best.alpha == 0.8
        assert scores[0.8] > scores[0.0]

    def test_large_grid_is_gated(self):
        items = generate_synthetic(SyntheticConfig(n_drugs=30, n_blocks=2, n_classes=4,
                                                   edge_probability=0.5, seed=8)).graph_t1.edge_list()
        grid = GridSpec({
            "batch_size": [128, 256, 512, 1024],
            "learning_rate": [0.1, 0.01, 0.001, 0.0001],
            "dropout": [v / 10 for v in range(10)],
            "epochs": list(range(1, 51)),
            "alpha": [v / 10 for v in range(11)],
        })
        assert len(grid.candidates(quick_hp())) == 4 * 4 * 10 * 50 * 11
        with pytest.raises(InvalidConfigError):
            grid_search(items, 30, 4, "holdout", quick_hp(), grid, seed=0)

    def test_bad_late_candidate_refused_before_any_training(self, monkeypatch):
        items = generate_synthetic(SyntheticConfig(n_drugs=30, n_blocks=2, n_classes=4,
                                                   edge_probability=0.5, seed=8)).graph_t1.edge_list()
        calls = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **k: calls.append(a))
        for values, error in (({"alpha": [0.5, 1.5]}, InvalidConfigError),
                              ({"dropout": [0.0, 1.0]}, InvalidDimensionsError)):
            with pytest.raises(error):
                GridSpec(values).candidates(quick_hp())
            with pytest.raises(error):
                grid_search(items, 30, 4, "holdout", quick_hp(), GridSpec(values), seed=0)
        with pytest.raises(InvalidConfigError, match="objective must be one of"):
            grid_search(items, 30, 4, "holdout", quick_hp(), GridSpec({"alpha": [0.5]}), seed=0,
                        objective="f1")
        assert calls == []

    @pytest.mark.parametrize("objective", ["accuracy", "auroc"])
    def test_retrospective_graph_stores_no_class_0_row_training_sees_them(self, objective,
                                                                         monkeypatch):
        data = generate_synthetic(SyntheticConfig(n_drugs=60, n_blocks=2, n_classes=5,
                                                  edge_probability=0.4, seed=9,
                                                  mode="retrospective"))
        split = retrospective_split(data.graph_t0, data.graph_t1, seed=1)
        items = split.train_items
        assert (items[:, 2] == 0).sum() > 0
        base = quick_hp(epochs=3)
        graphs, trained = [], []
        real_build, real_train = pipeline.build_graph, pipeline.train
        monkeypatch.setattr(pipeline, "build_graph",
                            lambda *a, **k: graphs.append(real_build(*a, **k)) or graphs[-1])
        monkeypatch.setattr(pipeline, "train",
                            lambda pairs, *a: trained.append(pairs.items) or real_train(pairs, *a))
        _, results = grid_search(items, 60, 5, "retrospective", base,
                                    GridSpec({"alpha": [0.2, 0.8]}), seed=2, objective=objective)

        train_rows, val_rows = stratified_validation_split(items, 0.2, seed=2)
        stored = train_rows[train_rows[:, 2] != 0]
        assert len(graphs) == 1 and graphs[0].mode == "retrospective"
        assert graphs[0].edge_list().tobytes() == stored[np.lexsort(stored[:, 1::-1].T)].tobytes()
        assert len(trained) == 2
        for rows in trained:
            assert rows.tobytes() == train_rows.tobytes()
        for hp_c, score in results:
            params = real_train(attach_targets(train_rows, graphs[0], hp_c.alpha), hp_c, 60, 5)
            probs = score_pairs(params, val_rows[:, :2])
            if objective == "accuracy":
                want = float(np.mean(np.argmax(probs, axis=1) == val_rows[:, 2]))
            else:
                want = multiclass_report(probs, val_rows[:, 2]).macro_auroc
            assert score == want

    @pytest.mark.parametrize("values, error, message", [
        ({"alpha": [0.5], "momentum": [0.9]}, InvalidConfigError, "unknown grid dimension 'momentum'"),
        ({"alpha": []}, EmptyGridError, "grid dimension 'alpha' is empty"),
    ], ids=["unknown", "empty"])
    def test_grid_of_an_unknown_or_empty_dimension_is_refused(self, values, error, message):
        with pytest.raises(error, match=message):
            GridSpec(values)

    def test_validation_split_stratified(self):
        items = [(i, i + 10, i % 3) for i in range(9)] * 5
        train_items, val_items = stratified_validation_split(items, 0.2, seed=0)
        assert len(train_items) + len(val_items) == len(items)
        val_labels = np.bincount([c for _, _, c in val_items], minlength=3)
        assert val_labels.tolist() == [3, 3, 3]


class TestBaselines:
    def test_neighborhood_argmax_follows_edges(self):
        g = build_graph(5, 5, "holdout", [(0, 2, 3), (1, 3, 3)])
        probs = baseline_neighborhood(g, [(0, 1)])
        assert int(np.argmax(probs[0])) == 3

    def test_neighborhood_isolated_uniform(self):
        g = TypedInteractionGraph(4, 4, "holdout")
        probs = baseline_neighborhood(g, [(0, 1)])
        assert np.allclose(probs[0], 0.25)
        assert int(np.argmax(probs[0])) == 0  # tie resolves to the lowest index

    def test_majority_prediction(self):
        probs = baseline_majority([0] * 5 + [1], 4, 2)
        assert probs.shape == (4, 2)
        assert np.all(np.argmax(probs, axis=1) == 0)
        assert np.allclose(probs[0], [5 / 6, 1 / 6])

    def test_majority_accuracy_is_test_frequency(self):
        train_labels = [0] * 5 + [1]
        truths = np.array([0, 1, 1, 0, 0])
        probs = baseline_majority(train_labels, len(truths), 2)
        rep = multiclass_report(probs, truths)
        assert rep.accuracy == (truths == 0).mean()
        for row in rep.per_class:
            if row.support > 0 and row.auroc is not None:
                assert row.auroc == 0.5

    def test_majority_empty_train(self):
        with pytest.raises(EmptyDatasetError):
            baseline_majority([], 3, 2)
