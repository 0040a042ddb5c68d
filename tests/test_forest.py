import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
import riskforest.forest as forest_module
from riskforest.cli import main as cli_main
from riskforest.errors import CalibrationError, DataError, FingerprintMismatchError
from riskforest.forest import (
    WORKER_MIN_DRAWS,
    Forest,
    bootstrap_rows,
    count_policy_errors,
    derive_tree_seed,
    tally_votes,
    tree_workers,
)
from riskforest.tree import read_trees

from oracles import forest_trees, tree_lines


@pytest.fixture(scope="module")
def small_data():
    return generate_synthetic(hart_schema(), 400, VALIDATION_MARGINALS, 0.8, 77)


def test_ensemble_of_one_acts_like_single_tree_on_its_bootstrap(small_data):
    # A one-tree forest is the tree its seed and drawn bootstrap grow.
    cfg = ForestConfig(n_trees=1, master_seed=123, min_leaf=2, max_depth=6)
    forest = train_forest(small_data, cfg)
    rows = bootstrap_rows(forest.config, 0, len(small_data))
    lone = train_tree(small_data, (1.0, 1.0, 1.0),
                      feature_subset_size=forest.config.feature_subset_size,
                      min_leaf=2, max_depth=6,
                      seed=derive_tree_seed(123, 0), row_indices=rows)
    assert tree_lines(forest_trees(forest)[0]) == tree_lines(lone)
    assert len(np.unique(rows)) < len(small_data)  # a real with-replacement draw


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


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


# 7 trees of 4,096 draws: up to three tree workers.
BIG = ForestConfig(n_trees=7, master_seed=8, max_depth=6, bootstrap_size=4096)
# 6 trees of the 400 training rows: one process.
SMALL = ForestConfig(n_trees=6, master_seed=8, max_depth=6)


def test_tree_workers_follow_cpus_trees_and_draws(monkeypatch):
    _cpus(monkeypatch, 2)
    assert tree_workers(10, 3000) == 2  # the benchmark's train verb
    assert tree_workers(5, 3000) == 1  # 15,000 draws
    assert tree_workers(3, 1500) == 1
    assert tree_workers(1, 10 * WORKER_MIN_DRAWS) == 1  # one tree
    _cpus(monkeypatch, 8)
    assert tree_workers(100, 3000) == 8
    assert tree_workers(3, 10 * WORKER_MIN_DRAWS) == 3
    assert tree_workers(100, 3 * WORKER_MIN_DRAWS // 100) == 2
    monkeypatch.delattr(os, "fork")
    assert tree_workers(100, 3000) == 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_any_worker_count_gives_the_same_forest(small_data, tmp_path,
                                                monkeypatch, cpus):
    _cpus(monkeypatch, 1)
    alone = train_forest(small_data, BIG)
    _cpus(monkeypatch, cpus)
    assert tree_workers(BIG.n_trees, BIG.bootstrap_size) == cpus
    forked = train_forest(small_data, BIG)
    save_forest(alone, tmp_path / "alone.forest")
    save_forest(forked, tmp_path / "forked.forest")
    assert (tmp_path / "alone.forest").read_bytes() == \
        (tmp_path / "forked.forest").read_bytes()
    for a, b in zip(oob_predict(alone, small_data), oob_predict(forked, small_data)):
        assert np.array_equal(a, b)


def test_forest_below_the_threshold_never_forks(small_data, monkeypatch):
    def no_fork():
        pytest.fail("forked below WORKER_MIN_DRAWS")

    _cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    assert train_forest(small_data, SMALL).table.n_trees == SMALL.n_trees


def test_with_two_workers_this_process_grows_the_even_trees(small_data,
                                                            monkeypatch):

    seeds, roots = [], []

    def recorded(*args, **kwargs):
        seeds.append(kwargs["seed"])
        roots.append(train_tree(*args, **kwargs))
        return roots[-1]

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(forest_module, "train_tree", recorded)
    forest = train_forest(small_data, BIG)
    share = range(0, BIG.n_trees, 2)
    assert seeds == [derive_tree_seed(BIG.master_seed, t) for t in share]
    table = forest.table
    ends = np.append(table.roots[1:], len(table.right))
    for t, root in zip(share, roots):
        nodes, stack = 0, [root]
        while stack:
            node = stack.pop()
            nodes += 1
            stack += [c for c in (node.left, node.right) if c is not None]
        assert nodes == ends[t] - table.roots[t]
        assert tree_lines(root) == tree_lines(forest_trees(forest)[t])


def _in_children(monkeypatch, act):
    """Patch train_tree to run ``act`` in forked workers only."""

    parent = os.getpid()

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            act()
        return train_tree(*args, **kwargs)

    monkeypatch.setattr(forest_module, "train_tree", patched)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_that_exits_without_a_result_raises_oserror(small_data, tmp_path,
                                                           monkeypatch, capsys):
    _cpus(monkeypatch, 2)
    _in_children(monkeypatch, lambda: os._exit(3))
    with pytest.raises(OSError, match=r"tree worker 1 .*exit status 3"):
        train_forest(small_data, BIG)
    _no_child_left()

    gen = tmp_path / "gen"
    assert cli_main(["generate", "--n", "300", "--seed", "3",
                     "--out", str(gen)]) == 0
    capsys.readouterr()
    assert cli_main(["train", "--data", str(gen / "synthetic.csv"),
                     "--trees", "6", "--bootstrap-size", "4096",
                     "--max-depth", "4", "--seed", "3",
                     "--out", str(tmp_path / "tr")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tree worker 1 ") and "exit status 3" in err
    assert "Traceback" not in err
    _no_child_left()


def test_worker_exception_is_raised_again_here(small_data, monkeypatch):
    def fail():
        raise DataError("bad row in a worker", row=4)

    _cpus(monkeypatch, 3)
    _in_children(monkeypatch, fail)
    with pytest.raises(DataError, match="bad row in a worker") as err:
        train_forest(small_data, BIG)
    assert err.value.row == 4
    _no_child_left()


def test_failure_in_this_process_share_reaps_every_worker(small_data,
                                                          monkeypatch):

    parent = os.getpid()

    def failing(*args, **kwargs):
        if os.getpid() == parent:
            raise DataError("the parent's share fails")
        return train_tree(*args, **kwargs)

    _cpus(monkeypatch, 3)
    monkeypatch.setattr(forest_module, "train_tree", failing)
    with pytest.raises(DataError, match="the parent's share fails"):
        train_forest(small_data, BIG)
    _no_child_left()


@settings(max_examples=60, deadline=None)
@given(n_trees=st.integers(1, 40), n_rows=st.integers(1, 300),
       n_labels=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
@example(n_trees=9, n_rows=1, n_labels=3, seed=0)
def test_tally_votes_equals_a_bincount_per_row(n_trees, n_rows, n_labels, seed):
    votes = np.random.default_rng(seed).integers(0, n_labels,
                                                 size=(n_trees, n_rows))
    want = np.array([np.bincount(row_votes, minlength=n_labels)
                     for row_votes in votes.copy().T])
    assert np.array_equal(tally_votes(votes, n_labels), want)


@pytest.fixture(scope="module")
def shallow_forest():
    # Many shallow trees, few enough nodes for one run of RUN_NODES: one
    # intp (trees x rows) vote matrix dwarfs what a run-by-run tally needs.
    data = generate_synthetic(hart_schema(), 2000, VALIDATION_MARGINALS, 0.8, 9)
    return data, train_forest(data, ForestConfig(n_trees=200, max_depth=2,
                                                 master_seed=4))


def _traced_peak(score, forest, data) -> int:
    score(forest, data)  # first-call allocations are not the property
    tracemalloc.start()
    try:
        score(forest, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_oob_predict_holds_no_trees_by_rows_matrix(shallow_forest):
    data, forest = shallow_forest
    matrix_bytes = forest.config.n_trees * len(data) * np.dtype(np.intp).itemsize
    assert _traced_peak(oob_predict, forest, data) < matrix_bytes


def test_predict_dataset_holds_no_trees_by_rows_matrix(shallow_forest):
    data, forest = shallow_forest
    assert len(forest.table.right) < forest_module.RUN_NODES
    matrix_bytes = forest.config.n_trees * len(data) * np.dtype(np.intp).itemsize
    assert _traced_peak(predict_dataset, forest, data) < matrix_bytes


def test_one_row_is_one_gather_on_a_forest_of_many_runs(small_data,
                                                        monkeypatch):
    # With a run per tree, a batch gathers tree by tree, but a row's
    # (tree, row) pairs fit one gather block: one run, as the tracer sees.
    forest = train_forest(small_data, ForestConfig(n_trees=11, max_depth=4,
                                                   master_seed=8))
    real, calls = forest_module.forest_votes, []

    def counted(forest, X, roots=None):
        calls.append(len(X))
        return real(forest, X, roots)

    monkeypatch.setattr(forest_module, "RUN_NODES", 1)
    monkeypatch.setattr(forest_module, "forest_votes", counted)
    _, tally = predict_dataset(forest, small_data)
    assert calls == [len(small_data)] * 11
    calls.clear()
    label, votes = predict_forest(forest, small_data.X[0])
    assert calls == [1]
    assert list(votes.values()) == tally[0].tolist()


def _hand_forest(vote_labels, schema):
    """One single-leaf tree per label index, voting for that label."""
    lines = []
    for t, k in enumerate(vote_labels):
        lines += [f"tree {t}", ",".join("1" if j == k else "0" for j in range(3))]
    cfg = ForestConfig(n_trees=len(vote_labels), class_weights=(1.0, 1.0, 1.0),
                       feature_subset_size=1, bootstrap_size=1)
    return Forest(config=cfg, schema=schema,
                  table=read_trees(lines + ["end"], 0, cfg.class_weights,
                                   [len(s.categories) for s in schema.specs]),
                  n_train=1, data_digest="0" * 16)


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


@pytest.mark.parametrize("n_trees", [1, 5, 31])
def test_single_row_predictions_equal_the_batch_ones(small_data, n_trees):
    # The benchmark's single-row check: each row scored alone gets the
    # label and tally that predict_dataset gives it, training rows and
    # unseen ones alike.
    forest = train_forest(small_data, ForestConfig(n_trees=n_trees,
                                                   master_seed=n_trees))
    unseen = generate_synthetic(hart_schema(), 200, VALIDATION_MARGINALS, 0.8, 78)
    for data in (small_data, unseen):
        pred, tally = predict_dataset(forest, data)
        for row, k, counts in zip(data.X, pred.tolist(), tally.tolist()):
            label, votes = predict_forest(forest, row)
            assert label == forest.labels[k]
            assert list(votes.values()) == counts


def test_fingerprint_mismatch_rejected(small_data):
    cfg = ForestConfig(n_trees=3, master_seed=2, max_depth=4)
    forest = train_forest(small_data, cfg)
    other = replace(forest.schema, label_set=("A", "B", "C"))
    assert other.fingerprint() != forest.fingerprint
    tampered = Forest(config=forest.config, schema=other, table=forest.table,
                      n_train=forest.n_train, data_digest=forest.data_digest)
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
    again = load_forest(path, small_data.schema)
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


@pytest.mark.parametrize("key, value", [
    ("master_seed", -1), ("master_seed", 1.0), ("master_seed", True),
    ("n_trees", 2.5), ("max_depth", 0), ("bootstrap_size", 1 << 63)])
def test_config_refuses_a_setting_that_is_not_an_integer_in_range(key, value):
    with pytest.raises(DataError) as err:
        ForestConfig(**{key: value})
    assert str(err.value) == (f"{key} {value!r} is not an integer from"
                              f" {0 if key == 'master_seed' else 1}"
                              f" to {(1 << 63) - 1}")


@pytest.mark.parametrize("target", [0.0, -1.0, float("nan"), float("inf")])
def test_calibration_refuses_a_target_that_is_not_a_finite_positive_number(
        target):
    data = generate_synthetic(hart_schema(), 40, VALIDATION_MARGINALS, 0.8, 1)
    with pytest.raises(DataError) as err:
        calibrate_cost_ratio(data, ForestConfig(n_trees=1), target)
    assert str(err.value) == (f"target_ratio must be a finite number > 0,"
                              f" got {target!r}")
