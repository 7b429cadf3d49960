import numpy as np
import pytest

from amfpmc.errors import (
    AllEmptyError,
    DegenerateLabelsError,
    EmptyDatasetError,
    EmptyInputError,
    NonFiniteError,
    NoPositivesError,
    ShapeMismatchError,
)
from amfpmc import metrics as metrics_mod
from amfpmc.metrics import (
    MultiClassReport,
    PerClassMetrics,
    average_precision,
    class_weights,
    mean_report,
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
    """Average precision read off the whole ranked list, each score a threshold.

    Ranked by descending score, each positive takes the precision at the end
    of its run of equal scores: the hits over the rows up to that run's last.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    order = np.argsort(-s)
    ranked, hits = s[order], y[order]
    starts_run = np.r_[True, ranked[1:] != ranked[:-1]]
    run_end = np.flatnonzero(np.r_[starts_run[1:], True])[np.cumsum(starts_run) - 1]
    precision_at = (np.cumsum(hits) / np.arange(1, s.size + 1))[run_end][hits]
    return float(precision_at.sum() / y.sum())


def brute_force_average_precision(scores, labels):
    """O(m^2) oracle: each positive's share of positives among the scores at or above its own."""
    precisions = []
    for p, y in zip(scores, labels):
        if y:
            at_or_above = [y_q for q, y_q in zip(scores, labels) if q >= p]
            precisions.append(sum(at_or_above) / len(at_or_above))
    return sum(precisions) / len(precisions)


def stable_sort_average_precision(scores, labels):
    """Average precision with ties broken by input order, as a stable sort ranks them."""
    order = np.argsort(-scores, kind="mergesort")
    hits = labels[order]
    precision_at = np.cumsum(hits) / np.arange(1, scores.size + 1)
    return float(precision_at[hits].sum() / labels.sum())


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
        # large and tie-heavy: many positives share a threshold with negatives
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

    def test_bitwise_equal_to_threshold_oracle(self):
        untied = 0
        for scores, labels in bitwise_draws(np.random.default_rng(29)):
            got = np.float64(average_precision(scores, labels))
            whole_list = whole_list_average_precision(scores, labels)
            assert got.tobytes() == np.float64(whole_list).tobytes()
            if np.unique(scores).size == scores.size:
                # no score ties another: the bits a stable sort's ranking gives
                untied += 1
                stable = stable_sort_average_precision(scores, labels)
                assert got.tobytes() == np.float64(stable).tobytes()
        assert untied > 50

    def test_matches_brute_force(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            scores, labels = random_scored(rng, m=int(rng.integers(2, 60)))
            assert average_precision(scores, labels) == pytest.approx(
                brute_force_average_precision(scores, labels), abs=1e-12)

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

    def test_tied_scores_share_one_threshold(self):
        # a tied positive and negative read the same in either row order
        assert average_precision([0.5, 0.5], [True, False]) == 0.5
        assert average_precision([0.5, 0.5], [False, True]) == 0.5
        # thresholds 0.7, 0.5 and 0.2: precision 1/3 at recall 1/2, then 2/4 at recall 1
        assert average_precision([0.5, 0.5, 0.2, 0.7], [True, False, True, False]) == \
            pytest.approx(5 / 12, abs=1e-12)


def test_sorted_negatives_keyword_gives_the_same_bits():
    for scores, labels in bitwise_draws(np.random.default_rng(37)):
        neg = np.sort(scores[~labels])
        want = np.float64(average_precision(scores, labels)).tobytes()
        assert np.float64(average_precision(scores, labels, sorted_negatives=neg)).tobytes() == want
        if labels.all():
            continue
        want = np.float64(roc_auc(scores, labels)).tobytes()
        assert np.float64(roc_auc(scores, labels, sorted_negatives=neg)).tobytes() == want


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

    def test_micro_negatives_sorted_once(self, monkeypatch):
        rng = np.random.default_rng(28)
        probs = np.round(rng.dirichlet(np.ones(5), size=400), 2)  # ties across rows
        truths = rng.integers(0, 5, 400)
        sorts = []
        real = metrics_mod._sorted_negatives
        monkeypatch.setattr(metrics_mod, "_sorted_negatives", lambda s, y: sorts.append(s.size) or real(s, y))
        got = multiclass_report(probs, truths)
        # the pooled column is sorted once, ahead of one sort per class column
        assert sorts == [probs.size] + [400] * 5
        onehot = np.zeros_like(probs, dtype=bool)
        onehot[np.arange(400), truths] = True
        assert got.micro_auroc == roc_auc(probs.ravel(), onehot.ravel())
        assert got.micro_aupr == average_precision(probs.ravel(), onehot.ravel())

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
        with pytest.raises(ShapeMismatchError, match="prob_matrix must be 2-d"):
            multiclass_report(np.ones(3) / 3, [0, 1, 2])
        for ranking in (roc_auc, average_precision):
            with pytest.raises(ShapeMismatchError, match="equal-length 1-d arrays"):
                ranking([0.1, 0.2, 0.3], [True, False])

    def test_non_finite_scores_raise(self):
        with pytest.raises(NonFiniteError):
            roc_auc([0.1, np.nan], [True, False])
        with pytest.raises(NonFiniteError):
            average_precision([np.inf, 0.2], [True, False])
        with pytest.raises(NonFiniteError):
            multiclass_report(np.array([[np.nan, 0.5], [0.3, 0.7]]), [0, 1])


# -- the report against the formulas it replaced, bit for bit ---------------

REPORT_SCALARS = (
    "accuracy", "micro_precision", "micro_recall", "micro_f1", "micro_auroc", "micro_aupr",
    "macro_precision", "macro_recall", "macro_f1", "macro_auroc", "macro_aupr",
)


def reference_multiclass_report(prob_matrix, truths):
    """Three masks per class, each metric ranking its own strided column; inputs taken as valid."""
    P = np.asarray(prob_matrix, dtype=np.float64)
    t = np.asarray(truths, dtype=np.int64)
    n_rows, n_classes = P.shape
    preds = np.argmax(P, axis=1)
    accuracy = float(np.mean(preds == t))
    support = np.bincount(t, minlength=n_classes)
    scalars = dict.fromkeys(REPORT_SCALARS)
    scalars.update(accuracy=accuracy, micro_precision=accuracy, micro_recall=accuracy,
                   micro_f1=accuracy)
    onehot = np.zeros((n_rows, n_classes), dtype=bool)
    onehot[np.arange(n_rows), t] = True
    flat_scores, flat_labels = P.reshape(-1), onehot.reshape(-1)
    if flat_labels.any() and not flat_labels.all():
        scalars["micro_auroc"] = roc_auc(flat_scores, flat_labels)
        scalars["micro_aupr"] = average_precision(flat_scores, flat_labels)
    per_class = []
    precisions, recalls, f1s, aurocs, auprs = [], [], [], [], []
    for k in range(n_classes):
        sup = int(support[k])
        if sup == 0:
            per_class.append(PerClassMetrics(k, 0, None, None))
            continue
        pos = t == k
        pred_k = preds == k
        tp = int((pos & pred_k).sum())
        fp = int((~pos & pred_k).sum())
        fn = int((pos & ~pred_k).sum())
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn)
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        auroc_k = roc_auc(P[:, k], pos) if sup < n_rows else None
        aupr_k = average_precision(P[:, k], pos)
        per_class.append(PerClassMetrics(k, sup, auroc_k, aupr_k))
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
        if auroc_k is not None:
            aurocs.append(auroc_k)
        auprs.append(aupr_k)
    scalars.update(macro_precision=float(np.mean(precisions)),
                   macro_recall=float(np.mean(recalls)), macro_f1=float(np.mean(f1s)),
                   macro_auroc=float(np.mean(aurocs)), macro_aupr=float(np.mean(auprs)))
    return MultiClassReport(per_class=per_class, **scalars)


def reference_mean_report(reports, per_class):
    """Each scalar's mean over the reports, looked up by name."""
    means = {name: float(np.mean([dict(r.scalar_items())[name] for r in reports]))
             for name in REPORT_SCALARS}
    return MultiClassReport(per_class=list(per_class), **means)


def report_bits(report):
    """Every value of a report with its type, floats as their bytes."""
    def bits(v):
        return (type(v).__name__, np.float64(v).tobytes() if isinstance(v, float) else v)

    scalars = [(name, bits(v)) for name, v in report.scalar_items()]
    rows = [tuple(bits(getattr(r, f)) for f in ("class_id", "support", "auroc", "aupr"))
            for r in report.per_class]
    return scalars, rows


def report_inputs(rng):
    """(probs, truths) with ties, zero-support classes, K=2 and many rows."""
    draws = []
    for _ in range(30):
        m, k = int(rng.integers(2, 60)), int(rng.integers(2, 8))
        probs = rng.dirichlet(np.ones(k), size=m)
        truths = rng.integers(0, k, m)
        draws += [(probs, truths), (np.round(probs, 1), truths)]
    k_used = rng.integers(0, 4, 300)
    draws += [
        (rng.dirichlet(np.ones(9), size=300), k_used * 2),  # odd classes have no support
        (np.round(rng.dirichlet(np.ones(9), size=300), 2), k_used * 2 + 1),
        (rng.dirichlet(np.ones(2), size=500), rng.integers(0, 2, 500)),
        (np.round(rng.dirichlet(np.ones(2), size=500), 1), rng.integers(0, 2, 500)),
        (np.asfortranarray(rng.dirichlet(np.ones(5), size=2000)), rng.integers(0, 5, 2000)),
        (np.full((40, 3), 1 / 3), rng.integers(0, 3, 40)),  # every score tied
        (np.round(rng.dirichlet(np.ones(65), size=3000), 3), rng.integers(0, 65, 3000)),
    ]
    return draws


def test_scalar_fields_are_the_report_order():
    rep = multiclass_report(np.eye(3), [0, 1, 2])
    assert tuple(name for name, _ in rep.scalar_items()) == REPORT_SCALARS


def test_report_matches_reference_bitwise():
    for probs, truths in report_inputs(np.random.default_rng(41)):
        got = multiclass_report(probs, truths)
        want = reference_multiclass_report(probs, truths)
        assert report_bits(got) == report_bits(want)


def test_report_does_not_depend_on_row_order():
    rng = np.random.default_rng(46)
    for probs, truths in report_inputs(np.random.default_rng(41)):
        perm = rng.permutation(len(truths))
        want = report_bits(multiclass_report(probs, truths))
        assert report_bits(multiclass_report(probs[perm], truths[perm])) == want


def test_report_of_one_class_or_one_present_class_is_degenerate():
    rng = np.random.default_rng(42)
    one_present = (rng.dirichlet(np.ones(3), size=20), np.zeros(20, dtype=np.int64))
    one_class = (np.ones((20, 1)), np.zeros(20, dtype=np.int64))
    for probs, truths in (one_present, one_class):
        with pytest.raises(DegenerateLabelsError, match="no class has both"):
            multiclass_report(probs, truths)


def test_mean_report_matches_reference_bitwise():
    rng = np.random.default_rng(43)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        reports = [
            multiclass_report(np.round(rng.dirichlet(np.ones(k), size=50), 2), rng.integers(0, k, 50))
            for _ in range(int(rng.integers(1, 6)))
        ]
        rows = [PerClassMetrics(c, int(rng.integers(0, 9)), float(rng.random()), None)
                for c in range(k)]
        got = mean_report(reports, rows)
        assert report_bits(got) == report_bits(reference_mean_report(reports, rows))
        assert got.per_class == rows and got.per_class is not rows
    assert mean_report(reports).per_class == []
    with pytest.raises(EmptyDatasetError):
        mean_report([])


def test_each_column_ranked_once_with_the_lengths_it_had(monkeypatch):
    rng = np.random.default_rng(44)
    n, k = 200, 6
    probs = np.round(rng.dirichlet(np.ones(k), size=n), 2)
    truths = rng.choice([0, 1, 3, 5], n)  # classes 2 and 4 have no support
    calls = {"roc_auc": [], "average_precision": [], "_sorted_negatives": []}
    for name, lengths in calls.items():
        real = getattr(metrics_mod, name)

        def recorded(s, *args, real=real, lengths=lengths, **kwargs):
            lengths.append(len(s))
            return real(s, *args, **kwargs)

        monkeypatch.setattr(metrics_mod, name, recorded)
    got = multiclass_report(probs, truths)
    columns = [n * k] + [n] * 4
    # every class with support has negatives too, so each column gets both rankings
    assert calls == {"roc_auc": columns, "average_precision": columns,
                     "_sorted_negatives": columns}
    assert report_bits(got) == report_bits(reference_multiclass_report(probs, truths))


def test_one_class_truths_refused_before_any_ranking(monkeypatch):
    probs = np.random.default_rng(45).dirichlet(np.ones(2), size=30)
    truths = np.zeros(30, dtype=np.int64)
    calls = []
    for name in ("roc_auc", "average_precision"):
        real = getattr(metrics_mod, name)

        def recorded(s, *args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(s, *args, **kwargs)

        monkeypatch.setattr(metrics_mod, name, recorded)
    with pytest.raises(DegenerateLabelsError, match="no class has both"):
        multiclass_report(probs, truths)
    # truths of one class are refused before the pooled column or any class is ranked
    assert calls == []
