import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskforest import (
    ConfusionMatrix,
    agreement_table,
    auc,
    confusion_from_predictions,
    derive_metrics,
    fixture_path,
    random_baseline,
    roc_points,
)
from riskforest.errors import DataError
from riskforest.fairness import _threshold_stats, default_threshold_grid
from riskforest.reference import PUBLISHED, TABLE_TOLERANCE

from oracles import (auc_pair_oracle, confusion_oracle, roc_sweep_oracle,
                     threshold_stats_oracle)

LABELS = ("High", "Moderate", "Low")


# -- confusion matrices ------------------------------------------------------


def test_diagonal_matrix_from_identical_lists():
    pred = ["High"] * 4 + ["Moderate"] * 3 + ["Low"] * 3
    cm = confusion_from_predictions(pred, pred, LABELS)
    assert cm.total == 10
    assert np.trace(cm.cells) == 10


def test_single_off_diagonal_cell():
    cm = confusion_from_predictions(["High"] * 5, ["Low"] * 5, LABELS)
    assert cm.cells[0, 2] == 5
    assert cm.cells.sum() == 5


def test_matches_counting_oracle():
    rng = np.random.default_rng(8)
    pred = [LABELS[i] for i in rng.integers(0, 3, size=100)]
    actual = [LABELS[i] for i in rng.integers(0, 3, size=100)]
    cm = confusion_from_predictions(pred, actual, LABELS)
    assert np.array_equal(cm.cells, confusion_oracle(pred, actual, LABELS))


def test_length_mismatch_and_unknown_label_rejected():
    with pytest.raises(DataError):
        confusion_from_predictions(["High"], ["High", "Low"], LABELS)
    with pytest.raises(DataError):
        confusion_from_predictions(["High"], ["Extreme"], LABELS)


def test_matrix_csv_round_trip(tmp_path):
    cm = ConfusionMatrix(LABELS, np.array([[4, 1, 0], [2, 9, 3], [0, 2, 7.5]]))
    path = tmp_path / "cm.csv"
    cm.to_csv(path)
    again = ConfusionMatrix.from_csv(path)
    assert again.labels == cm.labels
    assert np.array_equal(again.cells, cm.cells)


# -- fixture reproduction ----------------------------------------------------


@pytest.mark.parametrize("key", sorted(PUBLISHED))
def test_published_figures_reproduce(key):
    published = PUBLISHED[key]
    cm = ConfusionMatrix.from_csv(fixture_path(published["fixture"]))
    report = derive_metrics(cm, "High", "Low")
    assert report.overall_accuracy == pytest.approx(
        published["overall_accuracy"], abs=TABLE_TOLERANCE)
    for label, target in published["sensitivity"].items():
        assert report.per_label[label].sensitivity == pytest.approx(
            target, abs=TABLE_TOLERANCE)
    for label, target in published["precision"].items():
        assert report.per_label[label].precision == pytest.approx(
            target, abs=TABLE_TOLERANCE)
    assert report.very_dangerous == pytest.approx(
        published["very_dangerous"], abs=TABLE_TOLERANCE)
    assert report.very_cautious == pytest.approx(
        published["very_cautious"], abs=TABLE_TOLERANCE)


def test_perfect_diagonal_metrics():
    cm = ConfusionMatrix(LABELS, np.diag([5.0, 7.0, 9.0]))
    report = derive_metrics(cm, "High", "Low")
    assert report.overall_accuracy == 1.0
    for label in LABELS:
        assert report.per_label[label].sensitivity == 1.0
        assert report.per_label[label].precision == 1.0
    assert report.very_dangerous == 0.0
    assert report.very_cautious == 0.0


def test_undefined_ratios_are_none_not_zero():
    cells = np.array([[0, 0, 0], [3, 4, 5], [1, 1, 1]], dtype=float)
    report = derive_metrics(ConfusionMatrix(LABELS, cells), "High", "Low")
    assert report.per_label["High"].precision is None
    assert report.very_cautious is None
    assert any("very_cautious" in n for n in report.notes)


def test_scale_invariance():
    rng = np.random.default_rng(3)
    cells = rng.integers(0, 30, size=(3, 3)).astype(float) + 1
    a = derive_metrics(ConfusionMatrix(LABELS, cells), "High", "Low")
    b = derive_metrics(ConfusionMatrix(LABELS, cells * 0.0137), "High", "Low")
    assert a.overall_accuracy == pytest.approx(b.overall_accuracy, abs=1e-12)
    for label in LABELS:
        for f in ("sensitivity", "specificity", "precision",
                  "false_discovery_rate", "false_omission_rate"):
            assert getattr(a.per_label[label], f) == pytest.approx(
                getattr(b.per_label[label], f), abs=1e-12)
    assert a.very_dangerous == pytest.approx(b.very_dangerous, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=9, max_size=9))
def test_per_label_identities_on_integer_matrices(flat):
    cells = np.asarray(flat, dtype=float).reshape(3, 3)
    if cells.sum() == 0:
        cells[0, 0] = 1
    cm = ConfusionMatrix(LABELS, cells)
    report = derive_metrics(cm)
    total = cm.total
    for i, label in enumerate(LABELS):
        tp = cells[i, i]
        fp = cells[i].sum() - tp
        fn = cells[:, i].sum() - tp
        tn = total - tp - fp - fn
        lm = report.per_label[label]
        if lm.precision is not None:
            assert lm.precision + lm.false_discovery_rate == pytest.approx(1.0)
        if lm.false_omission_rate is not None:
            assert lm.false_omission_rate == pytest.approx(fn / (fn + tn))
        if lm.sensitivity is not None:
            assert lm.sensitivity * (tp + fn) == pytest.approx(tp)
    # accuracy is the actual-marginal-weighted mean of per-label recall
    recalls = [report.per_label[l].sensitivity for l in LABELS]
    weights = cells.sum(axis=0) / total
    if all(r is not None for r in recalls):
        assert report.overall_accuracy == pytest.approx(
            float(np.dot(recalls, weights)))


# -- random baseline ---------------------------------------------------------


def test_baseline_published_value():
    assert random_baseline((0.1186, 0.4835, 0.3979)) == pytest.approx(
        0.406, abs=0.0005)


def test_baseline_uniform_and_degenerate():
    assert random_baseline((0.25, 0.25, 0.25, 0.25)) == pytest.approx(0.25)
    assert random_baseline((1.0, 0.0, 0.0)) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_baseline_never_beats_majority_class(raw):
    m = np.asarray(raw) / np.sum(raw)
    assert random_baseline(m) <= max(m) + 1e-12


def test_baseline_validates_marginals():
    with pytest.raises(DataError, match=r"sum to 1\.1, not 1"):
        random_baseline((0.5, 0.6))
    with pytest.raises(DataError, match="nonnegative"):
        random_baseline((-0.1, 1.1))
    for bad in ((0.5, np.nan), (np.nan, np.nan), (np.inf, 0.0)):
        with pytest.raises(DataError):
            random_baseline(bad)


# -- ROC / AUC ----------------------------------------------------------------


def test_perfectly_separated_curve_and_auc():
    scores = [0.9, 0.8, 0.7, 0.2, 0.1]
    actual = [1, 1, 1, 0, 0]
    pts = roc_points(scores, actual)
    assert (0.0, 1.0) in pts
    assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)
    assert auc(scores, actual) == 1.0


def test_constant_scores_collapse_to_two_points():
    assert roc_points([0.5] * 6, [1, 0, 1, 0, 1, 0]) == [(0.0, 0.0), (1.0, 1.0)]
    assert auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == pytest.approx(0.5)


def test_single_class_rejected():
    with pytest.raises(DataError):
        roc_points([0.1, 0.2], [1, 1])
    with pytest.raises(DataError):
        auc([0.1, 0.2], [0, 0])


def test_roc_matches_threshold_sweep_oracle():
    rng = np.random.default_rng(12)
    for trial in range(10):
        scores = np.round(rng.random(50), 2)
        actual = rng.integers(0, 2, size=50)
        if actual.sum() in (0, 50):
            actual[0] = 1 - actual[0]
        assert roc_points(scores, actual) == pytest.approx(
            roc_sweep_oracle(scores, actual))


def test_auc_equals_pair_counting_oracle_exactly():
    rng = np.random.default_rng(31)
    for trial in range(30):
        scores = np.round(rng.random(200), 2)  # duplicates force tie handling
        actual = rng.integers(0, 2, size=200)
        if actual.sum() in (0, 200):
            actual[0] = 1 - actual[0]
        assert abs(auc(scores, actual)
                   - auc_pair_oracle(scores, actual)) <= 1e-12


def test_auc_of_independent_labels_near_half():
    rng = np.random.default_rng(100)
    scores = rng.random(2000)
    actual = rng.integers(0, 2, size=2000)
    assert auc(scores, actual) == pytest.approx(0.5, abs=0.03)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_score_is_refused_with_its_index(bad):
    for measure in (roc_points, auc):
        with pytest.raises(DataError,
                           match=f"score 1 is {float(bad)}, not a finite number"):
            measure([0.2, bad, 0.5], [1, 0, 0])


# Scores from a small alphabet (many ties) or any finite float (few).
_SCORE = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(
    -1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_SCORE, st.booleans()), min_size=2, max_size=40))
def test_at_or_above_counts_equal_their_oracles(rows):
    scores = np.array([s for s, _ in rows])
    positive = np.array([p for _, p in rows])
    if positive.all() or not positive.any():
        positive[0] = not positive[0]
    grid = default_threshold_grid(scores)
    # Ascending distinct scores, then a sentinel above them all.
    assert np.array_equal(grid[:-1], np.unique(scores))
    assert grid[-1] == scores.max() + 1.0
    got = _threshold_stats(scores, positive, grid)
    for a, b in zip(got, threshold_stats_oracle(scores, positive, grid)):
        assert np.array_equal(a, b, equal_nan=True)
    assert roc_points(scores, positive) == roc_sweep_oracle(scores, positive)


# -- agreement -----------------------------------------------------------------


def test_agreement_identical_lists():
    values = ["High", "Low", "Moderate"] * 4
    report = agreement_table(values, list(values), LABELS)
    assert report.overall == 1.0


def test_agreement_disjoint_lists():
    report = agreement_table(["High"] * 5, ["Low"] * 5, LABELS)
    assert report.overall == 0.0


def test_agreement_per_label_sums_to_overall():
    rng = np.random.default_rng(888)
    a = [LABELS[i] for i in rng.integers(0, 3, size=888)]
    b = [LABELS[i] for i in rng.integers(0, 3, size=888)]
    report = agreement_table(a, b, LABELS)
    assert sum(report.per_label.values()) == pytest.approx(report.overall)
    assert report.overall == pytest.approx(1 / 3, abs=0.05)


def test_agreement_length_mismatch():
    with pytest.raises(DataError):
        agreement_table(["High"], ["High", "Low"], LABELS)
