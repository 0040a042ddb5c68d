import numpy as np
import pytest

from riskforest import (
    GroupedOutcomes,
    check_calibration,
    check_equalized_odds,
    check_error_rate_balance,
    check_statistical_parity,
    impossibility_recipe,
    impossibility_search,
)
from riskforest.errors import DataError
from riskforest.fairness import default_threshold_grid


def _grouped(per_group, positive=1):
    return GroupedOutcomes.from_predictions(per_group, positive)


def _random_instance(rng, n_a=50, n_b=50):
    return _grouped({
        "A": (rng.integers(0, 2, n_a), rng.integers(0, 2, n_a)),
        "B": (rng.integers(0, 2, n_b), rng.integers(0, 2, n_b)),
    })


# -- statistical parity -------------------------------------------------------


def test_parity_identical_groups_gap_zero():
    pred = np.array([1, 0, 1, 1, 0])
    act = np.array([1, 1, 0, 1, 0])
    v = check_statistical_parity(_grouped({"A": (pred, act), "B": (pred, act)}), 0.0)
    assert v.gap == 0.0 and v.passed


def test_parity_opposite_groups_fail():
    v = check_statistical_parity(_grouped({
        "A": (np.ones(10, int), np.ones(10, int)),
        "B": (np.zeros(10, int), np.ones(10, int)),
    }), 0.99)
    assert v.gap == 1.0 and not v.passed


def test_parity_gap_matches_hand_tally():
    rng = np.random.default_rng(4)
    g = _random_instance(rng)
    v = check_statistical_parity(g, 0.05)
    rates = [float(np.mean(g.groups[k].predictions == 1)) for k in ("A", "B")]
    assert v.gap == pytest.approx(abs(rates[0] - rates[1]))


# -- calibration ---------------------------------------------------------------


def test_calibration_identical_groups():
    pred = np.array([1, 1, 0, 0])
    act = np.array([1, 0, 0, 1])
    v = check_calibration(_grouped({"A": (pred, act), "B": (pred, act)}), 0.0)
    assert v.gap == 0.0 and v.passed


def test_calibration_extreme_gap():
    v = check_calibration(_grouped({
        "A": (np.array([1, 1, 0]), np.array([1, 1, 0])),  # precision 1
        "B": (np.array([1, 1, 0]), np.array([0, 0, 1])),  # precision 0
    }), 0.5)
    assert v.gap == 1.0 and not v.passed


def test_calibration_matches_per_group_precision():
    from riskforest import confusion_from_predictions, derive_metrics
    rng = np.random.default_rng(9)
    g = _random_instance(rng)
    v = check_calibration(g, 0.05)
    for name in ("A", "B"):
        pred = ["pos" if p == 1 else "neg" for p in g.groups[name].predictions]
        act = ["pos" if a == 1 else "neg" for a in g.groups[name].actuals]
        cm = confusion_from_predictions(pred, act, ("pos", "neg"))
        report = derive_metrics(cm)
        assert v.per_group[name]["precision"] == pytest.approx(
            report.per_label["pos"].precision)


def test_calibration_undefined_fails_with_note():
    v = check_calibration(_grouped({
        "A": (np.zeros(5, int), np.array([1, 0, 1, 0, 1])),  # no positive preds
        "B": (np.ones(5, int), np.array([1, 0, 1, 0, 1])),
    }), 1.0)
    assert not v.passed
    assert any("undefined" in n for n in v.notes)


# -- equalized odds / error-rate balance ----------------------------------------


def test_odds_identical_groups_pass_at_zero():
    pred = np.array([1, 0, 1, 0, 1, 1])
    act = np.array([1, 0, 0, 0, 1, 0])
    v = check_equalized_odds(_grouped({"A": (pred, act), "B": (pred, act)}), 0.0)
    assert v.passed


def test_odds_requires_both_statistics_within_eps():
    # sensitivities equal (1.0); specificities 0.9 vs 0.5
    a_pred = np.r_[np.ones(2, int), np.ones(1, int), np.zeros(9, int)]
    a_act = np.r_[np.ones(2, int), np.zeros(10, int)]
    b_pred = np.r_[np.ones(2, int), np.ones(5, int), np.zeros(5, int)]
    b_act = np.r_[np.ones(2, int), np.zeros(10, int)]
    g = _grouped({"A": (a_pred, a_act), "B": (b_pred, b_act)})
    v = check_equalized_odds(g, 0.2)
    assert v.per_group["A"]["sensitivity"] == v.per_group["B"]["sensitivity"]
    assert not v.passed


def test_missing_actual_class_fails_with_note():
    g = _grouped({
        "A": (np.array([1, 0]), np.array([1, 1])),  # no negatives
        "B": (np.array([1, 0]), np.array([1, 0])),
    })
    v = check_equalized_odds(g, 1.0)
    assert not v.passed
    assert any("specificity" in n for n in v.notes)


def test_balance_gaps_are_complements_of_odds_gaps():
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = _random_instance(rng, 40, 30)
        odds = check_equalized_odds(g, 0.1)
        balance = check_error_rate_balance(g, 0.1)
        for name in ("A", "B"):
            sens = odds.per_group[name]["sensitivity"]
            spec = odds.per_group[name]["specificity"]
            if sens is not None:
                assert balance.per_group[name]["false_negative_rate"] == \
                    pytest.approx(1.0 - sens)
            if spec is not None:
                assert balance.per_group[name]["false_positive_rate"] == \
                    pytest.approx(1.0 - spec)
        if odds.gap is not None and balance.gap is not None:
            assert balance.gap == pytest.approx(odds.gap)


def test_balance_and_odds_verdicts_agree():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        g = _random_instance(rng, int(rng.integers(5, 40)),
                             int(rng.integers(5, 40)))
        eps = float(rng.random() * 0.5)
        assert (check_error_rate_balance(g, eps).passed
                == check_equalized_odds(g, eps).passed)


# -- structural properties -------------------------------------------------------


def test_verdicts_symmetric_under_group_relabeling():
    rng = np.random.default_rng(77)
    pa, aa = rng.integers(0, 2, 30), rng.integers(0, 2, 30)
    pb, ab = rng.integers(0, 2, 25), rng.integers(0, 2, 25)
    g1 = _grouped({"A": (pa, aa), "B": (pb, ab)})
    g2 = _grouped({"B": (pb, ab), "A": (pa, aa)})
    for check in (check_statistical_parity, check_calibration,
                  check_equalized_odds, check_error_rate_balance):
        v1, v2 = check(g1, 0.07), check(g2, 0.07)
        assert v1.gap == v2.gap and v1.passed == v2.passed


def test_merging_identical_statistic_groups_keeps_gaps():
    pred = np.array([1, 1, 0, 0])
    act = np.array([1, 0, 0, 1])
    other = np.array([1, 0, 0, 0])
    g3 = _grouped({"A": (pred, act), "B": (pred, act), "C": (other, act)})
    merged = _grouped({"AB": (np.r_[pred, pred], np.r_[act, act]),
                       "C": (other, act)})
    for check in (check_statistical_parity, check_calibration,
                  check_equalized_odds, check_error_rate_balance):
        assert check(g3, 0.05).gap == pytest.approx(check(merged, 0.05).gap)


# -- impossibility search ---------------------------------------------------------


def test_recipe_joint_infeasible_but_singles_reachable():
    report = impossibility_search(impossibility_recipe(), epsilon=0.01)
    assert not report.jointly_feasible
    for criterion, gap in report.best_gaps.items():
        assert gap is not None and gap <= 0.01, criterion
    assert report.pairs_scanned >= 100


def test_identical_groups_jointly_feasible_at_zero():
    rng = np.random.default_rng(50)
    scores = np.round(rng.random(80), 2)
    actual = rng.integers(0, 2, 80)
    g = GroupedOutcomes.from_scores(
        {"A": (scores, actual), "B": (scores.copy(), actual.copy())}, 1)
    report = impossibility_search(g, epsilon=0.0)
    assert report.jointly_feasible
    assert report.witness["A"] == report.witness["B"]
    assert any("equal base rates" in w for w in report.warnings)


def test_all_negative_thresholds_do_not_count_as_feasible():
    # Calibration is undefined when nobody is predicted positive. Within
    # epsilon on both error rates are only the all-negative pair (the
    # sentinels) and the all-positive pair, whose calibration gap is the
    # base-rate gap, 0.25.
    g = GroupedOutcomes.from_scores({
        "A": (np.array([0.1, 0.2, 0.3, 0.4]), np.array([1, 0, 1, 0])),
        "B": (np.array([0.1, 0.2, 0.3, 0.4]), np.array([1, 1, 1, 0])),
    }, 1)
    report = impossibility_search(g, epsilon=0.1)
    assert not report.jointly_feasible
    assert report.best_gaps["false_positive_rate"] == 0.0
    assert report.best_gaps["false_negative_rate"] == 0.0


def test_feasibility_monotone_in_epsilon():
    g = impossibility_recipe(3)
    feasible = [impossibility_search(g, eps).jointly_feasible
                for eps in (0.005, 0.02, 0.08, 0.3)]
    for lo, hi in zip(feasible, feasible[1:]):
        assert hi or not lo  # once feasible, stays feasible as eps grows


def test_equal_base_rate_warning():
    g = GroupedOutcomes.from_scores({
        "A": (np.array([0.2, 0.8, 0.5, 0.6]), np.array([0, 1, 0, 1])),
        "B": (np.array([0.3, 0.7, 0.4, 0.9]), np.array([0, 1, 0, 1])),
    }, 1)
    report = impossibility_search(g, 0.05)
    assert any("equal base rates" in w for w in report.warnings)


def test_default_grid_covers_scores_plus_sentinel():
    grid = default_threshold_grid([0.3, 0.1, 0.3, 0.9])
    assert list(grid) == [0.1, 0.3, 0.9, 1.9]


def test_group_needs_both_actual_classes():
    g = GroupedOutcomes.from_scores({
        "A": (np.array([0.2, 0.8]), np.array([1, 1])),
        "B": (np.array([0.3, 0.7]), np.array([0, 1])),
    }, 1)
    with pytest.raises(DataError):
        impossibility_search(g, 0.05)


def test_grouped_outcomes_validation():
    with pytest.raises(DataError):
        GroupedOutcomes.from_predictions({"A": ([1], [1])}, 1)
    with pytest.raises(DataError):
        GroupedOutcomes.from_predictions({"A": ([1], [1]), "B": ([], [])}, 1)
