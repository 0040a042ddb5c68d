import numpy as np
import pytest

from riskforest import (
    Dataset,
    ForestConfig,
    VALIDATION_MARGINALS,
    calibrate_cost_ratio,
    generate_synthetic,
    hart_schema,
    load_forest,
    oob_predict,
    predict_dataset,
    predict_forest,
    save_forest,
    split_holdout,
    train_forest,
    train_tree,
)
from riskforest.errors import CalibrationError, DataError, FingerprintMismatchError
from riskforest.forest import (
    Forest,
    bootstrap_rows,
    count_policy_errors,
    derive_tree_seed,
)
from riskforest.tree import read_trees

from oracles import forest_trees, tree_lines


@pytest.fixture(scope="module")
def small_data():
    return generate_synthetic(hart_schema(), 400, VALIDATION_MARGINALS, 0.8, 77)


def test_ensemble_of_one_identity_bootstrap_acts_like_single_tree(small_data):
    cfg = ForestConfig(n_trees=1, master_seed=123, identity_bootstrap=True,
                       min_leaf=2, max_depth=6)
    forest = train_forest(small_data, cfg)
    lone = train_tree(small_data, (1.0, 1.0, 1.0),
                      feature_subset_size=forest.config.feature_subset_size,
                      min_leaf=2, max_depth=6,
                      seed=derive_tree_seed(123, 0))
    assert tree_lines(forest_trees(forest)[0]) == tree_lines(lone)
    assert np.array_equal(bootstrap_rows(forest.config, 0, forest.n_train),
                          np.arange(len(small_data)))


def test_training_is_repeatable(small_data, tmp_path):
    cfg = ForestConfig(n_trees=12, master_seed=5, min_leaf=5, max_depth=8)
    a = train_forest(small_data, cfg)
    b = train_forest(small_data, cfg)
    pa, pb = tmp_path / "a.forest", tmp_path / "b.forest"
    save_forest(a, pa)
    save_forest(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_bootstrap_absent_fraction_near_inverse_e():
    data = generate_synthetic(hart_schema(), 1000, VALIDATION_MARGINALS, 0.3, 3)
    cfg = ForestConfig(n_trees=30, master_seed=9, max_depth=2)
    forest = train_forest(data, cfg)
    absent = [1.0 - len(set(bootstrap_rows(forest.config, t, 1000).tolist())) / 1000
              for t in range(cfg.n_trees)]
    assert np.mean(absent) == pytest.approx(np.exp(-1), abs=0.03)


def test_train_forest_calls_train_tree_once_per_tree(small_data, monkeypatch):
    # perfbench's tracer wraps riskforest.forest.train_tree and walks each
    # root it returns through .left/.right to count the tree's nodes
    import riskforest.forest as forest_module

    roots = []

    def counted(*args, **kwargs):
        roots.append(train_tree(*args, **kwargs))
        return roots[-1]

    monkeypatch.setattr(forest_module, "train_tree", counted)
    forest = train_forest(small_data, ForestConfig(n_trees=6, master_seed=8,
                                                   max_depth=7))
    assert len(roots) == 6
    for t, root in enumerate(roots):
        nodes, stack = 0, [root]
        while stack:
            node = stack.pop()
            nodes += 1
            stack += [c for c in (node.left, node.right) if c is not None]
        table = forest.table
        end = table.roots[t + 1] if t + 1 < table.n_trees else len(table.left)
        assert nodes == end - table.roots[t]
        assert tree_lines(root) == tree_lines(forest_trees(forest)[t])


def _hand_forest(vote_labels, schema):
    """One single-leaf tree per label index, voting for that label."""
    lines = []
    for t, k in enumerate(vote_labels):
        lines += [f"tree {t}", "leaf " + ",".join("1.0" if j == k else "0.0"
                                                  for j in range(3))]
    cfg = ForestConfig(n_trees=len(vote_labels), class_weights=(1.0, 1.0, 1.0),
                       feature_subset_size=1, bootstrap_size=1)
    return Forest(config=cfg,
                  table=read_trees(lines + ["end"], 0, 3, schema.n_features),
                  fingerprint=schema.fingerprint(), labels=schema.label_set,
                  n_features=schema.n_features, n_train=1,
                  data_digest="0" * 16)


def test_identical_trees_vote_unanimously(schema):
    forest = _hand_forest([1, 1, 1, 1, 1], schema)
    label, tally = predict_forest(forest, np.zeros(schema.n_features))
    assert label == "Moderate"
    assert tally == {"High": 0, "Moderate": 5, "Low": 0}


def test_plurality_vote(schema):
    forest = _hand_forest([0, 2, 2], schema)  # High, Low, Low
    label, tally = predict_forest(forest, np.zeros(schema.n_features))
    assert label == "Low"
    assert tally == {"High": 1, "Moderate": 0, "Low": 2}
    assert sum(tally.values()) == 3


def test_forest_tie_breaks_toward_higher_risk(schema):
    forest = _hand_forest([0, 0, 2, 2], schema)  # High, High, Low, Low
    label, _ = predict_forest(forest, np.zeros(schema.n_features))
    assert label == "High"


def test_vote_tallies_sum_to_tree_count(small_data):
    cfg = ForestConfig(n_trees=15, master_seed=2, max_depth=6)
    forest = train_forest(small_data, cfg)
    pred, tally = predict_dataset(forest, small_data)
    assert (tally.sum(axis=1) == 15).all()
    assert (tally[np.arange(len(pred)), pred] == tally.max(axis=1)).all()


def test_fingerprint_mismatch_rejected(small_data):
    cfg = ForestConfig(n_trees=3, master_seed=2, max_depth=4)
    forest = train_forest(small_data, cfg)
    tampered = Forest(config=forest.config, table=forest.table,
                      fingerprint="0" * 16, labels=forest.labels,
                      n_features=forest.n_features, n_train=forest.n_train,
                      data_digest=forest.data_digest)
    with pytest.raises(FingerprintMismatchError):
        predict_dataset(tampered, small_data)
    with pytest.raises(FingerprintMismatchError):
        oob_predict(tampered, small_data)


def test_oob_single_tree_semantics(small_data):
    cfg = ForestConfig(n_trees=1, master_seed=31, max_depth=6)
    forest = train_forest(small_data, cfg)
    labels, counts = oob_predict(forest, small_data)
    inbag = set(bootstrap_rows(forest.config, 0, forest.n_train).tolist())
    for i in range(len(small_data)):
        if i in inbag:
            assert labels[i] == -1 and counts[i] == 0
        else:
            assert labels[i] >= 0 and counts[i] == 1


def test_row_outside_every_bootstrap_matches_full_forest_vote(small_data):
    cfg = ForestConfig(n_trees=7, master_seed=13, max_depth=6)
    forest = train_forest(small_data, cfg)
    labels, counts = oob_predict(forest, small_data)
    full_pred, _ = predict_dataset(forest, small_data)
    outside = np.flatnonzero(counts == cfg.n_trees)
    if outside.size:  # rows every bootstrap missed
        assert (labels[outside] == full_pred[outside]).all()


def test_oob_tracks_holdout_accuracy():
    data = generate_synthetic(hart_schema(), 500, VALIDATION_MARGINALS, 0.8, 25)
    train, hold = split_holdout(data, 0.5, 25)
    cfg = ForestConfig(n_trees=101, master_seed=25)
    forest = train_forest(train, cfg)
    pred, _ = predict_dataset(forest, hold)
    holdout_acc = float(np.mean(pred == hold.y))
    labels, counts = oob_predict(forest, train)
    have = labels >= 0
    oob_acc = float(np.mean(labels[have] == train.y[have]))
    assert abs(oob_acc - holdout_acc) <= 0.03


def test_no_signal_uniform_marginals_accuracy_matches_baseline():
    uniform = (1 / 3, 1 / 3, 1 / 3)
    data = generate_synthetic(hart_schema(), 3000, uniform, 0.0, 23)
    train, hold = split_holdout(data, 0.5, 8)
    forest = train_forest(train, ForestConfig(n_trees=31, master_seed=3,
                                              max_depth=8))
    pred, _ = predict_dataset(forest, hold)
    acc = float(np.mean(pred == hold.y))
    assert abs(acc - 1 / 3) <= 0.03


def test_save_load_round_trip(small_data, tmp_path):
    cfg = ForestConfig(n_trees=9, master_seed=4, max_depth=6,
                       class_weights=(2.0, 1.0, 1.0))
    forest = train_forest(small_data, cfg)
    path = tmp_path / "model.forest"
    save_forest(forest, path)
    again = load_forest(path)
    assert again.fingerprint == forest.fingerprint
    assert again.labels == forest.labels
    assert again.config == forest.config
    pred_a, tally_a = predict_dataset(forest, small_data)
    pred_b, tally_b = predict_dataset(again, small_data)
    assert (pred_a == pred_b).all() and (tally_a == tally_b).all()
    path2 = tmp_path / "model2.forest"
    save_forest(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_policy_error_counts():
    actual = np.array([0, 0, 1, 2, 2, 2])
    pred = np.array([1, 0, 2, 0, 1, 2])
    dangerous, cautious = count_policy_errors(pred, actual, 3)
    assert dangerous == 1  # one actual-High row forecast lower
    assert cautious == 2  # two actual-Low rows forecast higher


def test_calibration_symmetric_two_class_ratio_near_one():
    from riskforest import FeatureSchema, FeatureSpec
    schema = FeatureSchema(
        specs=tuple(FeatureSpec(f"x{i}", "numeric") for i in range(6)),
        label_set=("High", "Low"),
    )
    data = generate_synthetic(schema, 3000, (0.5, 0.5), 0.7, 29)
    cfg = ForestConfig(n_trees=31, min_leaf=30, max_depth=6, master_seed=15)
    result = calibrate_cost_ratio(data, cfg, target_ratio=1.0)
    uniform = [p for p in result.sweep if p.multiplier == 1.0][0]
    assert uniform.ratio == pytest.approx(1.0, abs=0.45)
    assert result.realized_ratio == pytest.approx(1.0, abs=0.45)


def test_calibration_error_when_no_usable_grid_point():
    # perfectly separable two-class data: no errors of either kind
    from riskforest import FeatureSchema, FeatureSpec
    schema = FeatureSchema(
        specs=(FeatureSpec("x0", "numeric"), FeatureSpec("x1", "numeric")),
        label_set=("High", "Low"),
    )
    X = np.column_stack([np.r_[np.zeros(50), np.ones(50) * 9], np.zeros(100)])
    y = np.r_[np.zeros(50, dtype=int), np.ones(50, dtype=int)]
    data = Dataset(schema, X, y)
    cfg = ForestConfig(n_trees=5, min_leaf=1, max_depth=4, master_seed=1)
    with pytest.raises(CalibrationError) as err:
        calibrate_cost_ratio(data, cfg, target_ratio=2.0)
    assert len(err.value.sweep) == 8


def test_invalid_config_rejected():
    with pytest.raises(DataError):
        ForestConfig(n_trees=0)
    for weights in ((1.0, 0.0, 1.0), (np.inf, 1.0, 1.0), (np.nan, 1.0, 1.0)):
        with pytest.raises(DataError):
            ForestConfig(class_weights=weights)
    with pytest.raises(DataError):
        ForestConfig(bootstrap_size=0)
