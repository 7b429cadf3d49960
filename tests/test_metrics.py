import numpy as np
import pytest

from amfpmc.errors import (
    AllEmptyError,
    DegenerateLabelsError,
    EmptyInputError,
    InvalidConfigError,
    NonFiniteError,
    NoPositivesError,
    ShapeMismatchError,
)
from amfpmc import metrics as metrics_mod
from amfpmc.metrics import (
    average_precision,
    class_weights,
    midranks,
    multiclass_report,
    roc_auc,
)


def brute_force_auc(scores, labels):
    """O(m^2) oracle: count concordant positive-negative pairs, ties half."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def whole_list_average_precision(scores, labels):
    """Average precision read off the whole ranked list, ties in input order.

    An unstable argsort of -s, then the keys run * m + position sorted, which
    restores input order within each run of equal scores.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    order = np.argsort(-s)
    ranked = s[order]
    ties = ranked[1:] == ranked[:-1]
    if ties.any():
        order = order[np.argsort(np.r_[0, np.cumsum(~ties)] * s.size + order)]
    hits = y[order]
    precision_at = (np.cumsum(hits) / np.arange(1, s.size + 1))[hits]
    return float(precision_at.sum() / y.sum())


def random_scored(rng, m=None, tie_prone=True):
    m = m or int(rng.integers(5, 201))
    if tie_prone:
        scores = rng.integers(0, 12, m).astype(float) / 4.0
    else:
        scores = rng.uniform(0, 1, m)
    labels = rng.random(m) < 0.4
    if not labels.any():
        labels[0] = True
    if labels.all():
        labels[-1] = False
    return scores, labels


def loop_midranks(scores):
    """Midranks with one Python step per tie group of the stably sorted scores."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    boundaries = np.flatnonzero(np.r_[True, s[1:] != s[:-1], True])
    ranks_sorted = np.empty(s.size, dtype=np.float64)
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        ranks_sorted[start:stop] = 0.5 * (start + 1 + stop)
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = ranks_sorted
    return ranks


def bitwise_draws(rng):
    """(scores, labels) inputs for the bitwise ranking tests, each with a positive.

    Only the all-positive draw lacks a negative.
    """
    draws = [random_scored(rng, tie_prone=t % 2 == 0) for t in range(100)]
    big = 200_000
    one = np.zeros(300, dtype=bool)
    one[int(rng.integers(0, 300))] = True
    grid = rng.integers(0, 20, 5000)
    grid_labels = rng.random(5000) < 0.3
    draws += [
        # large and tie-heavy: the tie order decides where each positive ranks
        (rng.integers(0, 40, big) / 8.0, rng.random(big) < 0.1),
        (np.round(rng.random(big), 3), rng.random(big) < 0.02),
        (rng.choice([0.0, -0.0, 0.5, -0.5], 5000), rng.random(5000) < 0.3),
        (rng.permutation(big) / big, rng.random(big) < 0.05),  # all distinct
        (np.full(1000, -0.0), rng.random(1000) < 0.5),
        (np.full(50, 0.5), rng.random(50) < 0.5),
        (rng.random(300), one),
        (rng.random(300), ~one),
        (rng.random(300), np.ones(300, dtype=bool)),
        # positives tie each other, never a negative
        (np.where(grid_labels, grid / 4.0, grid / 4.0 + 0.125), grid_labels),
        # a positive ties a negative
        (np.array([0.5, 0.5, 0.2, 0.7]), np.array([True, False, True, False])),
    ]
    return draws


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0

    def test_all_ties_is_half(self):
        assert roc_auc([0.5] * 6, [True, False, True, False, False, True]) == 0.5

    def test_worked_example(self):
        # pairs: 3 concordant of 4
        assert roc_auc([0.9, 0.8, 0.7, 0.6], [True, False, True, False]) == 0.75

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [True, True])
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [False, False])

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            scores, labels = random_scored(rng)
            assert roc_auc(scores, labels) == brute_force_auc(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            scores, labels = random_scored(rng)
            base = roc_auc(scores, labels)
            assert roc_auc(np.exp(scores), labels) == base
            assert roc_auc(3.0 * scores + 1.0, labels) == base

    def test_label_reversal(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            scores, labels = random_scored(rng)
            assert roc_auc(scores, ~labels) == pytest.approx(1.0 - roc_auc(scores, labels), abs=1e-12)

    def test_midranks_tie_groups(self):
        assert midranks(np.array([0.1, 0.3, 0.3, 0.7])).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_midranks_bitwise_equal_to_tie_group_loop(self):
        rng = np.random.default_rng(23)
        draws = [random_scored(rng, tie_prone=t % 2 == 0)[0] for t in range(100)]
        draws += [
            np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0]),
            np.array([0.25]),
            np.full(50, 0.5),
            # large and tie-heavy, where an unstable sort leaves ties out of input order
            rng.integers(0, 50, 100_000) / 4.0,
        ]
        for scores in draws:
            assert midranks(scores).tobytes() == loop_midranks(scores).tobytes()

    def test_bitwise_equal_to_midrank_formula(self):
        def reference(scores, labels):
            n_pos = int(labels.sum())
            n_neg = labels.size - n_pos
            rank_sum = loop_midranks(scores)[labels].sum()
            return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))

        for scores, labels in bitwise_draws(np.random.default_rng(31)):
            if labels.all():
                continue
            got = np.float64(roc_auc(scores, labels))
            assert got.tobytes() == np.float64(reference(scores, labels)).tobytes()


class TestAveragePrecision:
    def test_all_positives_first(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0

    def test_single_positive_last(self):
        n = 8
        scores = np.linspace(1.0, 0.1, n)
        labels = np.zeros(n, dtype=bool)
        labels[-1] = True
        assert average_precision(scores, labels) == pytest.approx(1 / n, abs=1e-12)

    def test_worked_example(self):
        # precision 1 at rank 1 plus 2/3 at rank 3, over two positives
        assert average_precision([0.9, 0.8, 0.7], [True, False, True]) == pytest.approx(5 / 6, abs=1e-12)

    def test_no_positives(self):
        with pytest.raises(NoPositivesError):
            average_precision([0.4, 0.2], [False, False])

    def test_bitwise_equal_to_stable_sort(self):
        def reference(scores, labels):
            order = np.argsort(-scores, kind="mergesort")
            hits = labels[order]
            precision_at = np.cumsum(hits) / np.arange(1, scores.size + 1)
            return float(precision_at[hits].sum() / labels.sum())

        for scores, labels in bitwise_draws(np.random.default_rng(29)):
            got = np.float64(average_precision(scores, labels))
            assert got.tobytes() == np.float64(reference(scores, labels)).tobytes()
            whole_list = whole_list_average_precision(scores, labels)
            assert got.tobytes() == np.float64(whole_list).tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_tie_counts_do_not_depend_on_the_chunk(self, monkeypatch, chunk):
        rng = np.random.default_rng(chunk)
        draws = [
            (rng.integers(0, 30, 20_000) / 8.0, rng.random(20_000) < 0.1),
            (rng.choice([0.0, -0.0, 0.25, -0.25], 3000), rng.random(3000) < 0.4),
            (np.round(rng.random(20_000), 2), rng.random(20_000) < 0.03),
        ]
        expected = [np.float64(whole_list_average_precision(s, y)).tobytes() for s, y in draws]
        monkeypatch.setattr(metrics_mod, "TIE_CHUNK", chunk)
        for (scores, labels), want in zip(draws, expected):
            assert np.float64(average_precision(scores, labels)).tobytes() == want

    def test_floor_when_top_is_positive(self):
        # a positive in first place contributes precision 1, so AP >= 1/n_pos
        rng = np.random.default_rng(23)
        for _ in range(100):
            scores, labels = random_scored(rng, tie_prone=False)
            top = int(np.argmax(scores))
            labels = labels.copy()
            labels[top] = True
            ap = average_precision(scores, labels)
            assert ap >= 1.0 / labels.sum() - 1e-12

    def test_random_scores_converge_to_positive_rate(self):
        rng = np.random.default_rng(24)
        m = 100_000
        scores = rng.uniform(0, 1, m)
        labels = rng.random(m) < 0.3
        assert average_precision(scores, labels) == pytest.approx(labels.mean(), abs=1e-2)

    def test_stable_tie_order(self):
        # equal scores keep input order: the earlier positive sees precision 1
        assert average_precision([0.5, 0.5], [True, False]) == 1.0
        assert average_precision([0.5, 0.5], [False, True]) == 0.5


class TestClassWeights:
    def test_balanced_counts_give_unit_weights(self):
        assert class_weights([7, 7, 7]).tolist() == [1.0, 1.0, 1.0]

    def test_worked_example(self):
        w = class_weights([30, 10])
        assert w == pytest.approx([2 / 3, 2.0], abs=1e-12)

    def test_empty_class_excluded(self):
        w = class_weights([10, 0, 30])
        assert w[1] == 0.0
        assert w == pytest.approx([40 / 20, 0.0, 40 / 60], abs=1e-12)

    def test_all_empty(self):
        with pytest.raises(AllEmptyError):
            class_weights([0, 0])


class TestMulticlassReport:
    def test_identity_predictions(self):
        truths = np.array([0, 1, 2, 1, 0])
        probs = np.eye(3)[truths]
        rep = multiclass_report(probs, truths)
        assert rep.accuracy == 1.0
        for _, value in rep.scalar_items():
            assert value == 1.0

    def test_worked_argmax_example(self):
        probs = np.array([[0.6, 0.4], [0.6, 0.4]])
        rep = multiclass_report(probs, [0, 1])
        assert rep.accuracy == 0.5

    def test_micro_identity_against_pooled_confusion(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            m, k = int(rng.integers(5, 40)), int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k), size=m)
            truths = rng.integers(0, k, m)
            rep = multiclass_report(probs, truths)
            preds = np.argmax(probs, axis=1)
            tp = sum(int(((preds == c) & (truths == c)).sum()) for c in range(k))
            fp = sum(int(((preds == c) & (truths != c)).sum()) for c in range(k))
            fn = sum(int(((preds != c) & (truths == c)).sum()) for c in range(k))
            micro_p = tp / (tp + fp)
            micro_r = tp / (tp + fn)
            micro_f1 = 2 * micro_p * micro_r / (micro_p + micro_r)
            assert rep.micro_precision == micro_p == rep.accuracy
            assert rep.micro_recall == micro_r
            assert rep.micro_f1 == pytest.approx(micro_f1, abs=1e-12)

    def test_zero_support_classes_reported_null_and_skipped(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.2, 0.7, 0.1]])
        rep = multiclass_report(probs, [0, 1])
        row = {r.class_id: r for r in rep.per_class}
        assert row[2].support == 0 and row[2].auroc is None and row[2].aupr is None
        assert rep.macro_auroc == 1.0  # only the two supported classes count

    def test_macro_matches_manual_average(self):
        rng = np.random.default_rng(26)
        probs = rng.dirichlet(np.ones(3), size=30)
        truths = rng.integers(0, 3, 30)
        rep = multiclass_report(probs, truths)
        manual = np.mean([roc_auc(probs[:, c], truths == c) for c in range(3)])
        assert rep.macro_auroc == pytest.approx(manual, abs=1e-12)

    def test_micro_pooling_matches_flat_auc(self):
        rng = np.random.default_rng(27)
        probs = rng.dirichlet(np.ones(4), size=25)
        truths = rng.integers(0, 4, 25)
        rep = multiclass_report(probs, truths)
        onehot = np.zeros_like(probs, dtype=bool)
        onehot[np.arange(25), truths] = True
        assert rep.micro_auroc == roc_auc(probs.ravel(), onehot.ravel())
        assert rep.micro_aupr == average_precision(probs.ravel(), onehot.ravel())

    def test_single_class_support_raises_degenerate(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2]])
        with pytest.raises(DegenerateLabelsError):
            multiclass_report(probs, [0, 0])

    def test_empty_and_shape_errors(self):
        with pytest.raises(EmptyInputError):
            multiclass_report(np.zeros((0, 3)), [])
        with pytest.raises(ShapeMismatchError):
            multiclass_report(np.ones((2, 3)) / 3, [0])
        with pytest.raises(ShapeMismatchError):
            multiclass_report(np.ones((2, 3)) / 3, [0, 5])

    def test_non_finite_scores_raise(self):
        with pytest.raises(NonFiniteError):
            roc_auc([0.1, np.nan], [True, False])
        with pytest.raises(NonFiniteError):
            average_precision([np.inf, 0.2], [True, False])
        with pytest.raises(NonFiniteError):
            multiclass_report(np.array([[np.nan, 0.5], [0.3, 0.7]]), [0, 1])

    def test_mode_argument(self):
        probs = np.array([[0.7, 0.3], [0.3, 0.7], [0.6, 0.4]])
        truths = [0, 1, 1]
        micro_only = multiclass_report(probs, truths, mode="micro")
        assert micro_only.macro_auroc is None and micro_only.per_class == []
        macro_only = multiclass_report(probs, truths, mode="macro")
        assert macro_only.micro_auroc is None and macro_only.macro_auroc is not None
        with pytest.raises(InvalidConfigError):
            multiclass_report(probs, truths, mode="weighted")
