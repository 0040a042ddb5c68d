"""Acceptance gate: every release-blocking check, one per test, each
printing its own PASS/FAIL line (run with -s to watch them stream).

Quantitative checks pin the published-figure tolerances; behavioral
checks pin seeds so reruns are bit-stable. Budgeted runtimes are
asserted too.
"""

import time

import numpy as np

from riskforest import (
    ConfusionMatrix,
    ForestConfig,
    GroupedOutcomes,
    VALIDATION_MARGINALS,
    auc,
    calibrate_cost_ratio,
    check_equalized_odds,
    check_error_rate_balance,
    derive_metrics,
    fixture_path,
    hart_synthetic,
    impossibility_recipe,
    impossibility_search,
    k_anonymity,
    oob_predict,
    predict_dataset,
    random_baseline,
    split_holdout,
    train_forest,
    train_tree,
)
from riskforest.cli import main as cli_main
from riskforest.reference import PUBLISHED, TABLE_TOLERANCE
from riskforest.tree import predict_tree

from oracles import (
    auc_pair_oracle,
    greedy_tree_oracle,
    kanon_oracle,
    oracle_tree_predict,
)


def _verdict(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{number}: {detail}")
    assert ok, f"criterion-{number}: {detail}"


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for key, published in PUBLISHED.items():
        cm = ConfusionMatrix.from_csv(fixture_path(published["fixture"]))
        report = derive_metrics(cm, "High", "Low")
        checks = [(report.overall_accuracy, published["overall_accuracy"]),
                  (report.very_dangerous, published["very_dangerous"]),
                  (report.very_cautious, published["very_cautious"])]
        for label in report.labels:
            checks.append((report.per_label[label].sensitivity,
                           published["sensitivity"][label]))
            checks.append((report.per_label[label].precision,
                           published["precision"][label]))
        worst = max(worst, max(abs(a - b) for a, b in checks))
    elapsed = time.perf_counter() - t0
    _verdict(1, worst <= TABLE_TOLERANCE and elapsed < 1.0,
             f"18 published figures reproduced, worst delta {worst:.5f}"
             f" (tolerance {TABLE_TOLERANCE}), {elapsed:.2f}s")


def test_criterion_02_random_baseline():
    value = random_baseline((0.1186, 0.4835, 0.3979))
    _verdict(2, abs(value - 0.406) <= 0.0005,
             f"baseline over validation marginals = {value:.4f} (target 0.406)")


def test_criterion_03_auc_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        scores = np.round(rng.random(200), 2)
        actual = rng.integers(0, 2, size=200)
        if actual.sum() in (0, 200):
            actual[0] = 1 - actual[0]
        worst = max(worst, abs(auc(scores, actual)
                               - auc_pair_oracle(scores, actual)))
    separated = auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    shuffled = auc(rng.random(2000), rng.integers(0, 2, size=2000))
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-12 and separated == 1.0
          and abs(shuffled - 0.5) <= 0.03 and elapsed < 10.0)
    _verdict(3, ok, f"100 instances, worst oracle delta {worst:.2e};"
                    f" separated={separated}; shuffled={shuffled:.3f};"
                    f" {elapsed:.1f}s")


def test_criterion_04_forest_sanity():
    t0 = time.perf_counter()
    data = hart_synthetic(10_000, 0.8, 7)
    train, hold = split_holdout(data, 0.5, 11)
    forest = train_forest(train, ForestConfig(n_trees=101, master_seed=5))
    pred, _ = predict_dataset(forest, hold)
    holdout_acc = float(np.mean(pred == hold.y))
    labels, _ = oob_predict(forest, train)
    have = labels >= 0
    oob_acc = float(np.mean(labels[have] == train.y[have]))
    baseline = random_baseline(VALIDATION_MARGINALS)
    elapsed = time.perf_counter() - t0
    ok = (holdout_acc >= baseline + 0.10
          and abs(oob_acc - holdout_acc) <= 0.03
          and elapsed < 60.0)
    _verdict(4, ok, f"holdout {holdout_acc:.4f} vs baseline {baseline:.4f}"
                    f" (+{holdout_acc - baseline:.3f});"
                    f" OOB {oob_acc:.4f} (gap {abs(oob_acc - holdout_acc):.4f});"
                    f" {elapsed:.1f}s at 101 trees")


def test_criterion_05_cost_ratio_behavior():
    t0 = time.perf_counter()
    data = hart_synthetic(10_000, 0.8, 7)
    config = ForestConfig(n_trees=51, min_leaf=50, max_depth=8, master_seed=5)
    result = calibrate_cost_ratio(data, config, target_ratio=2.0)
    monotone = all(b.dangerous <= a.dangerous + 2
                   for a, b in zip(result.sweep, result.sweep[1:]))
    elapsed = time.perf_counter() - t0
    ok = (1.5 <= result.realized_ratio <= 3.0 and monotone and elapsed < 300.0)
    dangerous = [p.dangerous for p in result.sweep]
    _verdict(5, ok, f"realized cautious:dangerous = {result.realized_ratio:.2f}"
                    f" (target 2.0); dangerous across grid {dangerous};"
                    f" {elapsed:.0f}s")


def test_criterion_06_repeated_run_determinism(tmp_path):
    gen = tmp_path / "gen"
    assert cli_main(["generate", "--n", "800", "--seed", "7",
                     "--out", str(gen)]) == 0
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["train", "--data", str(gen / "synthetic.csv"),
                         "--trees", "15", "--seed", "5",
                         "--out", str(out)]) == 0
        digests.append(tuple((out / f).read_bytes()
                             for f in ("model.forest", "oob_report.json",
                                       "oob_report.md")))
    ok = digests[0] == digests[1]
    _verdict(6, ok, "train run twice with one seed: byte-identical model and"
                    " reports" if ok else "outputs differ between the two runs")


def test_criterion_07_fairness_impossibility():
    t0 = time.perf_counter()
    report = impossibility_search(impossibility_recipe(), epsilon=0.01)
    singles_ok = all(gap is not None and gap <= 0.01
                     for gap in report.best_gaps.values())
    rng = np.random.default_rng(50)
    scores = np.round(rng.random(80), 2)
    actual = rng.integers(0, 2, 80)
    same = GroupedOutcomes.from_scores(
        {"A": (scores, actual), "B": (scores.copy(), actual.copy())}, 1)
    identical_ok = impossibility_search(same, epsilon=0.0).jointly_feasible
    elapsed = time.perf_counter() - t0
    ok = ((not report.jointly_feasible) and singles_ok and identical_ok
          and elapsed < 30.0)
    _verdict(7, ok, f"recipe at eps=0.01: jointly feasible ="
                    f" {report.jointly_feasible}, single-criterion minima"
                    f" {dict((k, round(v, 4)) for k, v in report.best_gaps.items())};"
                    f" identical groups feasible at eps=0: {identical_ok};"
                    f" {elapsed:.1f}s")


def test_criterion_08_balance_equals_odds():
    rng = np.random.default_rng(808)
    agreements = 0
    for _ in range(200):
        n_a, n_b = rng.integers(5, 40, size=2)
        g = GroupedOutcomes.from_predictions(
            {"A": (rng.integers(0, 2, n_a), rng.integers(0, 2, n_a)),
             "B": (rng.integers(0, 2, n_b), rng.integers(0, 2, n_b))}, 1)
        eps = float(rng.random() * 0.5)
        if (check_error_rate_balance(g, eps).passed
                == check_equalized_odds(g, eps).passed):
            agreements += 1
    _verdict(8, agreements == 200,
             f"error-rate balance and equalized odds agree on"
             f" {agreements}/200 random instances")


def test_criterion_09_k_anonymity_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    matches = monotone = 0
    for _ in range(50):
        rows = [tuple(rng.integers(0, 3, size=5)) for _ in range(100)]
        q_small = sorted(rng.choice(5, size=2, replace=False).tolist())
        q_big = sorted(set(q_small) | {int(rng.integers(0, 5))})
        if k_anonymity(rows, q_small) == kanon_oracle(rows, q_small):
            matches += 1
        if k_anonymity(rows, q_small) >= k_anonymity(rows, q_big):
            monotone += 1
    elapsed = time.perf_counter() - t0
    ok = matches == 50 and monotone == 50 and elapsed < 5.0
    _verdict(9, ok, f"oracle matches {matches}/50 tables; monotone under"
                    f" quasi-identifier growth {monotone}/50; {elapsed:.1f}s")


def test_criterion_10_tree_oracle(tri_schema):
    from riskforest import Dataset

    rng = np.random.default_rng(1010)
    kinds = [s.kind for s in tri_schema.specs]
    mismatches = 0
    for trial in range(50):
        n = 20
        X = np.column_stack([
            rng.integers(18, 40, size=n).astype(float),
            rng.integers(0, 4, size=n).astype(float),
            np.where(rng.random(n) < 0.3, 100.0,
                     rng.integers(0, 15, size=n)).astype(float),
            rng.integers(0, 2, size=n).astype(float),
            rng.integers(0, 5, size=n).astype(float),
        ])
        y = rng.integers(0, 3, size=n)
        ds = Dataset(tri_schema, X, y)
        tree = train_tree(ds, (1.0, 1.0, 1.0), feature_subset_size=5,
                          min_leaf=2, max_depth=4, seed=trial)
        oracle = greedy_tree_oracle(X, y, kinds, 3, (1.0, 1.0, 1.0),
                                    min_leaf=2, max_depth=4)
        for row in X:
            got = predict_tree(tree, row)
            want = oracle_tree_predict(oracle, row)
            if not np.allclose(got, want, atol=1e-12):
                mismatches += 1
                break
    _verdict(10, mismatches == 0,
             f"train_tree matches the exhaustive greedy oracle on"
             f" {50 - mismatches}/50 random 20-row datasets (m = full)")
