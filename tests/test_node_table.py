"""The flat node table, model format v2 and the checks that ride on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskforest import (
    Dataset,
    FeatureSchema,
    FeatureSpec,
    ForestConfig,
    VALIDATION_MARGINALS,
    generate_synthetic,
    hart_schema,
    load_forest,
    oob_predict,
    predict_dataset,
    predict_forest,
    save_forest,
    split_holdout,
    train_forest,
)
from riskforest.errors import DataError, FingerprintMismatchError
from riskforest.forest import forest_votes
from oracles import (forest_trees, replay_tree_predict, tree_apply, tree_depth,
                     tree_from_lines)


def _replay_votes(tree, X):
    """Per-row tree votes from the oracle: normalise, argmax over the
    reversed labels (ties go to lower risk)."""
    out = []
    for row in X:
        dist = replay_tree_predict(tree, row)
        out.append(len(dist) - 1 - int(np.argmax(dist[::-1])))
    return np.array(out)


def _subset_splits(forest):
    table = forest.table
    return [line for root in table.roots.tolist()
            for line in table.subtree_lines(root) if " in " in line]


@pytest.fixture(scope="module")
def hart_data():
    return generate_synthetic(hart_schema(), 400, VALIDATION_MARGINALS, 0.8, 61)


@pytest.fixture(scope="module")
def hart_forest(hart_data):
    return train_forest(hart_data, ForestConfig(n_trees=5, master_seed=3,
                                                max_depth=6))


@pytest.fixture(scope="module")
def model_lines(hart_forest, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.forest"
    save_forest(hart_forest, path)
    return path.read_text(encoding="utf-8").splitlines()


# -- equivalence ---------------------------------------------------------


def test_table_votes_equal_replay_oracle_tree_by_tree(hart_data, hart_forest,
                                                      tmp_path):
    assert _subset_splits(hart_forest), "want categorical splits to check"
    path = tmp_path / "model.forest"
    save_forest(hart_forest, path)
    loaded = load_forest(path, hart_data.schema)
    for forest in (hart_forest, loaded):
        votes = forest_votes(forest, hart_data.X)
        for t, tree in enumerate(forest_trees(hart_forest)):
            assert (votes[t] == _replay_votes(tree, hart_data.X)).all()


def test_trained_forest_table_equals_the_table_loaded_from_its_file(
        hart_forest, tmp_path):
    # the trees' one-tree tables are joined as TableBuilder lays them out
    assert _subset_splits(hart_forest), "want category flags to check"
    path = tmp_path / "model.forest"
    save_forest(hart_forest, path)
    loaded = load_forest(path).table
    for name in ("feature", "start", "width", "left", "right", "threshold",
                 "members", "member_node", "member_code", "weights", "roots",
                 "vote"):
        assert np.array_equal(getattr(hart_forest.table, name),
                              getattr(loaded, name), equal_nan=True), name
    assert (hart_forest.table.depth == loaded.depth
            == max(map(tree_depth, forest_trees(hart_forest))))


def test_more_than_64_categories_train_and_predict():
    n_cats = 100
    schema = FeatureSchema(
        specs=(FeatureSpec("code", "categorical",
                           categories=tuple(f"c{i}" for i in range(n_cats - 1))
                           + ("OTHER",)),
               FeatureSpec("noise", "numeric")),
        label_set=("High", "Low"),
    )
    rng = np.random.default_rng(64)
    high = rng.permutation(n_cats)[:n_cats // 2]
    codes = rng.integers(0, n_cats, size=3000)
    X = np.column_stack([codes, rng.random(codes.size)]).astype(float)
    y = np.where(np.isin(codes, high), 0, 1)
    data = Dataset(schema, X, y)
    forest = train_forest(data, ForestConfig(n_trees=5, master_seed=1,
                                             feature_subset_size=2))
    members = [int(c) for line in _subset_splits(forest)
               for c in line.split(" in ")[1].split(",")]
    assert max(members) >= 64
    votes = forest_votes(forest, X)
    for t, tree in enumerate(forest_trees(forest)):
        assert (votes[t] == _replay_votes(tree, X)).all()
    pred, _ = predict_dataset(forest, data)
    assert float(np.mean(pred == y)) >= 0.99


def test_codes_outside_a_subset_go_right_like_int_membership():
    # Three subset nodes, so their category flags sit side by side.
    tree = tree_from_lines([
        "split 0 in 1,3",
        "split 1 in 0,2", "leaf 1.0,0.0,0.0", "leaf 0.0,1.0,0.0",
        "split 1 in 4", "leaf 0.0,0.0,1.0", "leaf 0.0,1.0,0.0"], 3, 2)
    values = np.r_[np.arange(-6.0, 8.0, 0.5), -1e30, 1e30]
    X = np.array([(a, b) for a in values for b in values])
    got = tree_apply(tree, X)
    want = np.array([replay_tree_predict(tree, row) for row in X])
    assert (got == want).all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 4),
       max_depth=st.integers(1, 6), high_weight=st.sampled_from([1.0, 2.5]))
def test_save_load_save_is_byte_identical(tri_schema, tmp_path_factory, seed,
                                          n_trees, max_depth, high_weight):
    rng = np.random.default_rng(seed)
    n = 60
    X = np.column_stack([
        rng.integers(18, 40, size=n) + rng.integers(0, 2, size=n) * 0.5,
        rng.integers(0, 4, size=n),
        np.where(rng.random(n) < 0.3, 100.0, rng.integers(0, 15, size=n)),
        rng.integers(0, 2, size=n),
        rng.integers(0, 5, size=n),
    ]).astype(float)
    data = Dataset(tri_schema, X, rng.integers(0, 3, size=n))
    forest = train_forest(data, ForestConfig(
        n_trees=n_trees, max_depth=max_depth, min_leaf=2, master_seed=seed,
        class_weights=(high_weight, 1.0, 1.0)))
    tmp = tmp_path_factory.mktemp("rt")
    first, second = tmp / "a.forest", tmp / "b.forest"
    save_forest(forest, first)
    loaded = load_forest(first, tri_schema)
    save_forest(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert (predict_dataset(forest, data)[1]
            == predict_dataset(loaded, data)[1]).all()
    for a, b in zip(oob_predict(forest, data), oob_predict(loaded, data)):
        assert (a == b).all()


# -- refusing data the model was not made for -----------------------------


def test_oob_refuses_a_same_size_holdout(tmp_path):
    data = generate_synthetic(hart_schema(), 400, VALIDATION_MARGINALS, 0.8, 5)
    train, hold = split_holdout(data, 0.5, 5)
    assert len(train) == len(hold)
    forest = train_forest(train, ForestConfig(n_trees=3, master_seed=2,
                                              max_depth=4))
    path = tmp_path / "model.forest"
    save_forest(forest, path)
    for model in (forest, load_forest(path)):
        oob_predict(model, train)
        with pytest.raises(FingerprintMismatchError):
            oob_predict(model, hold)


def test_predict_forest_rejects_a_longer_row(hart_forest):
    with pytest.raises(DataError):
        predict_forest(hart_forest, np.zeros(37))


def test_predict_forest_rejects_a_shorter_row(hart_forest):
    with pytest.raises(DataError):
        predict_forest(hart_forest, np.zeros(10))


# -- malformed model files -------------------------------------------------


def _load_lines(tmp_path, lines, schema=None):
    path = tmp_path / "bad.forest"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_forest(path, schema)


def _first(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def test_bad_header_number_is_located(tmp_path, model_lines):
    lines = list(model_lines)
    i = _first(lines, "n_trees ")
    lines[i] = "n_trees x"
    with pytest.raises(DataError, match=f"line {i + 1}: bad n_trees"):
        _load_lines(tmp_path, lines)


def test_file_ending_after_tree_line_is_located(tmp_path, model_lines):
    lines = model_lines[:_first(model_lines, "tree 0") + 1]
    with pytest.raises(DataError, match=f"line {len(lines)}:"):
        _load_lines(tmp_path, lines)


def test_leaf_arity_must_match_labels(tmp_path, model_lines):
    lines = list(model_lines)
    i = _first(lines, "leaf ")
    lines[i] = "leaf " + ",".join(lines[i][5:].split(",")[:2])
    with pytest.raises(DataError, match=f"line {i + 1}: leaf has 2 class"):
        _load_lines(tmp_path, lines)


def test_split_feature_beyond_schema_is_rejected(tmp_path, model_lines):
    i = _first(model_lines, "split ")
    _, _, op, arg = model_lines[i].split(" ")
    for feature in (hart_schema().n_features, -1):
        lines = list(model_lines)
        lines[i] = f"split {feature} {op} {arg}"
        with pytest.raises(DataError,
                           match=f"line {i + 1}: split feature {feature} outside"):
            _load_lines(tmp_path, lines, hart_schema())


def test_subset_member_beyond_category_count_is_rejected(tmp_path, model_lines):
    schema = hart_schema()
    lines = list(model_lines)
    i = next(k for k, line in enumerate(lines) if " in " in line)
    feature = int(lines[i].split(" ")[1])
    n_cats = len(schema.specs[feature].categories)
    lines[i] = f"split {feature} in 0,{n_cats}"
    with pytest.raises(DataError, match=f"line {i + 1}: category {n_cats}"):
        _load_lines(tmp_path, lines, schema)


def test_v1_model_file_is_rejected_naming_both_formats(tmp_path, model_lines):
    lines = ["riskforest-forest v1"] + list(model_lines[1:])
    with pytest.raises(DataError) as err:
        _load_lines(tmp_path, lines)
    assert "riskforest-forest v1" in str(err.value)
    assert "riskforest-forest v2" in str(err.value)
