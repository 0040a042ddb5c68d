"""The flat node table, model format v4 and the checks that ride on them."""

from dataclasses import replace

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
import riskforest.forest as forest_module
import riskforest.tree as tree_module
from riskforest.errors import DataError, FingerprintMismatchError
from riskforest.forest import forest_tally, forest_votes
from riskforest.tree import BLOCK_PAIRS, TreeNode, predict_tree, read_trees
from oracles import (forest_trees, leaves_oracle, oob_oracle, oracle_tree_predict,
                     replay_tree_predict, tree_apply, tree_depth, tree_from_lines,
                     tree_from_lines_oracle)


def _replay_votes(tree, X):
    """Per-row tree votes from the oracle: normalise, argmax over the
    reversed labels (ties go to lower risk)."""
    out = []
    for row in X:
        dist = replay_tree_predict(tree, row)
        out.append(len(dist) - 1 - int(np.argmax(dist[::-1])))
    return np.array(out)


def _assert_same_table(a, b):
    for name in ("feature", "start", "width", "left", "right", "threshold",
                 "members", "member_node", "member_code", "weights", "roots",
                 "vote"):
        assert np.array_equal(getattr(a, name), getattr(b, name),
                              equal_nan=True), name


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
    # the trees' one-tree tables are joined as read_trees lays them out
    assert _subset_splits(hart_forest), "want category flags to check"
    path = tmp_path / "model.forest"
    save_forest(hart_forest, path)
    loaded = load_forest(path, hart_schema()).table
    _assert_same_table(hart_forest.table, loaded)
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
        "split 1 in 4", "leaf 0.0,0.0,1.0", "leaf 0.0,1.0,0.0"], 3, [4, 5])
    values = np.r_[np.arange(-6.0, 8.0, 0.5), -1e30, 1e30]
    X = np.array([(a, b) for a in values for b in values])
    got = tree_apply(tree, X)
    want = np.array([replay_tree_predict(tree, row) for row in X])
    assert (got == want).all()


def _tri_data(tri_schema, seed, n=60):
    """``n`` random rows of every kind in ``tri_schema``: numeric, count,
    years-since (30% at its sentinel), binary and categorical."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(18, 40, size=n) + rng.integers(0, 2, size=n) * 0.5,
        rng.integers(0, 4, size=n),
        np.where(rng.random(n) < 0.3, 100.0, rng.integers(0, 15, size=n)),
        rng.integers(0, 2, size=n),
        rng.integers(0, 5, size=n),
    ]).astype(float)
    return Dataset(tri_schema, X, rng.integers(0, 3, size=n))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 3),
       min_leaf=st.integers(1, 6), max_depth=st.integers(1, 8))
def test_loaded_trees_predict_like_their_lines_read_by_recursive_descent(
        tri_schema, tmp_path_factory, seed, n_trees, min_leaf, max_depth):
    # The table derives each split's left child (the next node) itself;
    # the oracle reads the pre-order rule from the model file on its own.
    data = _tri_data(tri_schema, seed)
    forest = train_forest(data, ForestConfig(
        n_trees=n_trees, min_leaf=min_leaf, max_depth=max_depth,
        feature_subset_size=3, master_seed=seed))
    path = tmp_path_factory.mktemp("oracle") / "model.forest"
    save_forest(forest, path)
    loaded = load_forest(path, tri_schema)
    lines = path.read_text(encoding="utf-8").splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("tree ")]
    probes = np.vstack([data.X, _tri_data(tri_schema, seed + 1, n=20).X,
                        [[-1e30, -1, -5, -1, -1], [1e30, 9, 1e30, 7, 9]]])
    for tree, start, stop in zip(forest_trees(loaded), heads,
                                 heads[1:] + [len(lines) - 1]):
        oracle = tree_from_lines_oracle(lines[start + 1:stop])
        got = tree_apply(tree, probes)
        for row, dist in zip(probes, got):
            assert (dist == oracle_tree_predict(oracle, row)).all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 4),
       max_depth=st.integers(1, 6), high_weight=st.sampled_from([1.0, 2.5]))
def test_save_load_save_is_byte_identical(tri_schema, tmp_path_factory, seed,
                                          n_trees, max_depth, high_weight):
    data = _tri_data(tri_schema, seed)
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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 15),
       bootstrap=st.sampled_from([20, 45, 60, 120, 240]),
       max_depth=st.integers(1, 6))
def test_oob_predict_equals_the_plain_loop_oracle(tri_schema, seed, n_trees,
                                                  bootstrap, max_depth):
    # 60 rows: bootstraps below and above n, so some rows may have no
    # out-of-bag tree
    data = _tri_data(tri_schema, seed)
    forest = train_forest(data, ForestConfig(
        n_trees=n_trees, max_depth=max_depth, min_leaf=2, master_seed=seed,
        bootstrap_size=bootstrap))
    labels, counts = oob_predict(forest, data)
    want_labels, want_counts = oob_oracle(forest, data)
    assert (counts == want_counts).all()
    assert (labels == want_labels).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 12),
       max_depth=st.integers(1, 6), bootstrap=st.sampled_from([20, 60, 240]),
       run_nodes=st.sampled_from([1, 2, 5, 17, 64, 10**9]),
       run_pairs=st.sampled_from([1, 100, forest_module.RUN_PAIRS]),
       block=st.sampled_from([1, 5, 64, BLOCK_PAIRS]))
def test_scoring_kernel_equals_per_tree_oracle_votes_for_any_run_size(
        tri_schema, seed, n_trees, max_depth, bootstrap, run_nodes, run_pairs,
        block):
    # Runs from one node to the whole forest (10**9 nodes), and gather
    # blocks from one pair up: every verb's tally is the sum of each tree's
    # votes, and out-of-bag votes are the plain loop's.
    data = _tri_data(tri_schema, seed)
    forest = train_forest(data, ForestConfig(
        n_trees=n_trees, max_depth=max_depth, min_leaf=2, master_seed=seed,
        bootstrap_size=bootstrap))
    table = forest.table
    votes = table.vote[leaves_oracle(table, data.X)]
    want = np.stack([(votes == k).sum(axis=0) for k in range(3)], axis=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest_module, "RUN_NODES", run_nodes)
        patch.setattr(forest_module, "RUN_PAIRS", run_pairs)
        for module in (forest_module, tree_module):
            patch.setattr(module, "BLOCK_PAIRS", block)
        assert (forest_tally(forest, data.X) == want).all()
        pred, tally = predict_dataset(forest, data)
        assert (tally == want).all() and (pred == np.argmax(want, axis=1)).all()
        for i in range(0, len(data), 17):
            _, row_tally = predict_forest(forest, data.X[i])
            assert list(row_tally.values()) == want[i].tolist()
        labels, counts = oob_predict(forest, data)
    want_labels, want_counts = oob_oracle(forest, data)
    assert (counts == want_counts).all()
    assert (labels == want_labels).all()


# -- the gather against its full-depth oracle ------------------------------

# NaN, values beyond the integer range, negative and non-integral values,
# and codes beyond every subset's width.
_ODD_VALUES = [-1e30, 1e30, float("nan"), -7.0, -1.0, -0.5, 0.0, 0.5, 2.5,
               4.0, 5.0, 9.0, 100.0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 9),
       min_leaf=st.integers(1, 4), max_depth=st.integers(1, 10),
       block=st.sampled_from([1, 5, 64, BLOCK_PAIRS]),
       odd=st.lists(st.lists(st.sampled_from(_ODD_VALUES), min_size=5,
                             max_size=5), max_size=12),
       picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
def test_leaves_equal_the_full_depth_oracle(tri_schema, seed, n_trees, min_leaf,
                                            max_depth, block, odd, picks):
    data = _tri_data(tri_schema, seed, n=120)
    table = train_forest(data, ForestConfig(
        n_trees=n_trees, min_leaf=min_leaf, max_depth=max_depth,
        feature_subset_size=3, master_seed=seed)).table
    X = np.vstack([data.X, np.reshape(odd, (-1, 5))])
    # Any nodes may start a descent: predict_tree starts at a view's node.
    starts = np.array([p % len(table.right) for p in picks])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "BLOCK_PAIRS", block)
        assert (table.leaves(X) == leaves_oracle(table, X)).all()
        assert (table.leaves(X, starts) == leaves_oracle(table, X, starts)).all()
    view = TreeNode(table, int(starts[0]))
    for row in X:
        one = row.reshape(1, -1)
        assert (table.leaves(one) == leaves_oracle(table, one)).all()
        leaf = leaves_oracle(table, one, starts[:1]).item()
        w = table.weights[leaf]
        assert (predict_tree(view, row) == w / w.sum()).all()


def test_a_stump_beside_a_deep_tree_keeps_each_row_at_its_leaves():
    # Tree 0 is a stump. Tree 1 is a depth-8 chain: the split at level k
    # (numeric on feature 0 at even k, a subset of feature 1 at odd k) sends
    # a row left to a leaf, so single rows reach their last leaf at any
    # level from 1 to 8, and the stump's pair waits at its leaf meanwhile.
    chain = []
    for k, subset in zip(range(8), ["0.5", "1,3", "2.5", "0", "4.5", "2,6",
                                    "6.5", "4"]):
        chain += [f"split 0 <= {subset}" if k % 2 == 0 else f"split 1 in {subset}",
                  f"leaf {k + 1}.0,1.0,0.0"]
    chain.append("leaf 0.0,0.0,1.0")
    table = read_trees(["tree 0", "split 0 <= 3.5", "leaf 1.0,0.0,0.0",
                        "leaf 0.0,1.0,0.0", "tree 1", *chain, "end"], 0, 3,
                       [0, 7])
    assert table.depth == 8
    values = [-1e30, -2.0, -1.0, -0.5, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0,
              7.0, 9.0, 1e30, float("nan")]
    X = np.array([(a, b) for a in values for b in values])
    for roots in (None, table.roots[:1], table.roots[1:], table.roots[::-1]):
        assert (table.leaves(X, roots) == leaves_oracle(table, X, roots)).all()
        for row in X:
            one = row.reshape(1, -1)
            assert (table.leaves(one, roots)
                    == leaves_oracle(table, one, roots)).all()
    chain_leaves = np.flatnonzero(table.is_leaf[table.roots[1]:])
    assert (np.unique(table.leaves(X)[1]) == table.roots[1] + chain_leaves).all()


# -- refusing data the model was not made for -----------------------------


def test_oob_refuses_a_same_size_holdout(tmp_path):
    data = generate_synthetic(hart_schema(), 400, VALIDATION_MARGINALS, 0.8, 5)
    train, hold = split_holdout(data, 0.5, 5)
    assert len(train) == len(hold)
    forest = train_forest(train, ForestConfig(n_trees=3, master_seed=2,
                                              max_depth=4))
    path = tmp_path / "model.forest"
    save_forest(forest, path)
    for model in (forest, load_forest(path, hart_schema())):
        oob_predict(model, train)
        with pytest.raises(FingerprintMismatchError):
            oob_predict(model, hold)


@pytest.mark.parametrize("n_train", [100, 1000])
def test_oob_refuses_a_model_whose_n_train_was_edited(hart_data, model_lines,
                                                      tmp_path, n_train):
    lines = list(model_lines)
    lines[_first(lines, "n_train ")] = f"n_train {n_train}"
    with pytest.raises(FingerprintMismatchError, match="dataset has 400 rows"):
        oob_predict(_load_lines(tmp_path, lines), hart_data)


def test_predict_forest_rejects_a_longer_row(hart_forest):
    with pytest.raises(DataError):
        predict_forest(hart_forest, np.zeros(37))


def test_predict_forest_rejects_a_shorter_row(hart_forest):
    with pytest.raises(DataError):
        predict_forest(hart_forest, np.zeros(10))


@pytest.mark.parametrize("width", [10, 37])
def test_predict_forest_names_the_width_of_a_wrong_length_row(hart_forest,
                                                              width):
    with pytest.raises(DataError) as caught:
        predict_forest(hart_forest, np.zeros(width))
    assert str(caught.value) == (f"feature matrix is (1, {width}),"
                                 f" schema has 34 features")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_forest_refuses_a_non_finite_value(hart_forest, hart_data,
                                                   bad):
    row = hart_data.X[0].copy()
    row[7] = bad
    name = hart_schema().feature_names[7]
    message = f"non-finite feature value {float(bad)!r} at row 0, column {name}"
    with pytest.raises(DataError, match=message) as caught:
        predict_forest(hart_forest, row)
    assert (caught.value.row, caught.value.column) == (0, name)


@pytest.mark.parametrize("value", [-5.0, 1e300, 0.5])
def test_predict_forest_refuses_a_value_its_feature_kind_forbids(hart_forest,
                                                                 value):
    # Column 0 is numeric and takes any finite value; Gender, a binary
    # feature, is the first column to refuse each of these.
    with pytest.raises(DataError) as caught:
        predict_forest(hart_forest, np.full(hart_forest.n_features, value))
    assert str(caught.value) == f"value {value!r} invalid for binary feature Gender"
    assert (caught.value.row, caught.value.column) == (0, "Gender")


_CELL_VALUES = st.one_of(
    st.floats(max_value=-1e-300, allow_infinity=False),  # negative
    st.floats(0, 50).filter(lambda v: not v.is_integer()),  # fractional
    st.integers(0, 40).map(float),  # a code in or beyond range
    st.sampled_from([np.inf, -np.inf, np.nan, 1e300]))


@settings(max_examples=200, deadline=None)
@given(i=st.integers(0, 399), j=st.integers(0, 33), value=_CELL_VALUES)
def test_predict_forest_refuses_a_row_exactly_when_a_dataset_does(
        hart_forest, hart_data, i, j, value):
    row = hart_data.X[i].copy()
    row[j] = value

    def outcome(call):
        try:
            call()
        except DataError as exc:
            return str(exc), exc.row, exc.column
        return None

    refused = outcome(lambda: Dataset(hart_data.schema, row[None], [0]))
    assert outcome(lambda: predict_forest(hart_forest, row)) == refused


# -- malformed model files -------------------------------------------------


def _load_lines(tmp_path, lines):
    path = tmp_path / "bad.forest"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_forest(path, hart_schema())


def _first(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def test_bad_header_number_is_located(tmp_path, model_lines):
    lines = list(model_lines)
    i = _first(lines, "n_trees ")
    lines[i] = "n_trees x"
    with pytest.raises(DataError) as err:
        _load_lines(tmp_path, lines)
    assert str(err.value) == f"{tmp_path / 'bad.forest'}, line {i + 1}: bad n_trees 'x'"


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
            _load_lines(tmp_path, lines)


def test_subset_member_beyond_category_count_is_rejected(tmp_path, model_lines):
    schema = hart_schema()
    lines = list(model_lines)
    i = next(k for k, line in enumerate(lines) if " in " in line)
    feature = int(lines[i].split(" ")[1])
    n_cats = len(schema.specs[feature].categories)
    lines[i] = f"split {feature} in 0,{n_cats}"
    with pytest.raises(DataError, match=f"line {i + 1}: category {n_cats}"):
        _load_lines(tmp_path, lines)


def test_v1_model_file_is_rejected_naming_both_formats(tmp_path, model_lines):
    for old in ("riskforest-forest v1", "riskforest-forest v2",
                "riskforest-forest v3"):
        lines = [old] + list(model_lines[1:])
        with pytest.raises(DataError, match="line 1: ") as err:
            _load_lines(tmp_path, lines)
        assert old in str(err.value)
        assert "reads 'riskforest-forest v4' only; retrain" in str(err.value)


def test_a_saved_model_holds_no_header_line_its_schema_fixes(model_lines):
    # The labels and the feature count are the schema's, which the
    # fingerprint names.
    header = model_lines[1:_first(model_lines, "tree 0")]
    assert [line.split(" ")[0] for line in header] == [
        "fingerprint", "n_trees", "class_weights", "feature_subset_size",
        "min_leaf", "max_depth", "master_seed", "bootstrap_size", "n_train",
        "data_digest"]


def test_another_schema_is_refused_before_any_tree_is_read(
        tmp_path, model_lines, monkeypatch):
    import riskforest.forest as forest_module

    def no_trees(*args):
        raise AssertionError("read_trees was called")

    monkeypatch.setattr(forest_module, "read_trees", no_trees)
    path = tmp_path / "model.forest"
    path.write_text("\n".join(model_lines) + "\n", encoding="utf-8")
    other = replace(hart_schema(), label_set=("Red", "Amber", "Green"))
    with pytest.raises(FingerprintMismatchError,
                       match=f"schema {other.fingerprint()} does not match"):
        load_forest(path, other)


def _splice(lines, at, stop, new=()):
    """Replace lines[at:stop] with ``new``; return ``at``."""
    lines[at:stop] = new
    return at


def _replace(lines, prefix, *new):
    """Replace the first line starting with ``prefix`` with ``new``; return
    its index."""
    i = _first(lines, prefix)
    return _splice(lines, i, i + 1, new)


# Each edit changes a copy of the model's lines in place and returns the
# index of the line the fault is reported at.
_LOAD_FAULTS = {
    "not a forest document": (
        lambda m: _replace(m, "riskforest-forest", "riskforest model"),
        "not a forest document (expected 'riskforest-forest v4')"),
    "unknown header key": (
        lambda m: _replace(m, "min_leaf ", "colour blue"),
        "unexpected header line 'colour blue'"),
    "repeated header key": (
        lambda m: _replace(m, "tree 0", "min_leaf 7", "tree 0"),
        "unexpected header line 'min_leaf 7'"),
    "format v2's identity_bootstrap line": (
        lambda m: _replace(m, "n_train ", "identity_bootstrap 0",
                           m[_first(m, "n_train ")]),
        "unexpected header line 'identity_bootstrap 0'"),
    "missing header key": (
        lambda m: _replace(m, "data_digest "),
        "forest header missing data_digest"),
    "bad header value": (
        lambda m: _replace(m, "n_train ", "n_train 0"),
        "bad n_train '0'"),
    "negative class weight": (
        lambda m: _replace(m, "class_weights ", "class_weights 1.0,-1.0,1.0"),
        "class weights must be finite and positive"),
    "class weight count": (
        lambda m: _replace(m, "class_weights ", "class_weights 1.0,1.0"),
        "2 class weights for 3 labels"),
    "format v3's labels line": (
        lambda m: _replace(m, "n_trees ", "labels High,Moderate,Low",
                           m[_first(m, "n_trees ")]),
        "unexpected header line 'labels High,Moderate,Low'"),
    "format v3's n_features line": (
        lambda m: _replace(m, "n_trees ", "n_features 34",
                           m[_first(m, "n_trees ")]),
        "unexpected header line 'n_features 34'"),
    "node after the end of its tree": (
        lambda m: _replace(m, "tree 1", "leaf 1.0,0.0,0.0", "tree 1"),
        "node after the end of its tree"),
    "tree open at the next tree": (
        lambda m: _splice(m, m.index("tree 1") - 1, m.index("tree 1")),
        "tree 0 ends before its last leaf"),
    "tree open at end": (
        lambda m: _splice(m, len(m) - 2, len(m) - 1),
        "tree 4 ends before its last leaf"),
    "malformed leaf": (
        lambda m: _replace(m, "leaf ", "leaf 1.0,zero,0.0"),
        "malformed node line 'leaf 1.0,zero,0.0'"),
    "malformed split operator": (
        lambda m: _replace(m, "split ", "split 0 < 1.5"),
        "malformed node line 'split 0 < 1.5'"),
    "empty category subset": (
        lambda m: _replace(m, "split ", "split 0 in "),
        "malformed node line 'split 0 in '"),
    "unknown node kind": (
        lambda m: _replace(m, "leaf ", "node 1.0"),
        "malformed node line 'node 1.0'"),
    "NaN leaf weight": (
        lambda m: _replace(m, "leaf ", "leaf nan,1.0,1.0"),
        "leaf class weights must be finite and sum to > 0"),
    "infinite leaf weight": (
        lambda m: _replace(m, "leaf ", "leaf inf,0.0,0.0"),
        "leaf class weights must be finite and sum to > 0"),
    "zero-sum leaf weights": (
        lambda m: _replace(m, "leaf ", "leaf 0.0,0.0,0.0"),
        "leaf class weights must be finite and sum to > 0"),
    "negative leaf weight": (
        lambda m: _replace(m, "leaf ", "leaf -5.0,10.0,0.0"),
        "leaf class weights must not be negative"),
    "NaN threshold": (
        lambda m: _replace(m, "split ", "split 10 <= nan"),
        "split threshold must be finite"),
    "infinite threshold": (
        lambda m: _replace(m, "split ", "split 10 <= inf"),
        "split threshold must be finite"),
    "bad configuration value": (
        lambda m: _replace(m, "n_trees ", "n_trees x"),
        "bad n_trees 'x'"),
    "configuration value out of range": (
        lambda m: _replace(m, "min_leaf ", "min_leaf 0"),
        "bad min_leaf '0'"),
    "negative master seed": (
        lambda m: _replace(m, "master_seed ", "master_seed -1"),
        "bad master_seed '-1'"),
    "bootstrap beyond any array": (
        lambda m: _replace(m, "bootstrap_size ", "bootstrap_size 1" + "0" * 23),
        "bad bootstrap_size '1" + "0" * 23 + "'"),
    "tree out of order": (
        lambda m: _replace(m, "tree 1", "tree 2"),
        "expected 'tree 1', got 'tree 2'"),
    "tree out of order after an open tree": (
        lambda m: _splice(m, m.index("tree 1") - 1, m.index("tree 1") + 1,
                          ["tree 2"]),
        "expected 'tree 1', got 'tree 2'"),
    "content after end": (
        lambda m: _splice(m, len(m), len(m), ["leaf 1.0,0.0,0.0"]),
        "content after 'end'"),
    "tree count against the header": (
        lambda m: _splice(m, m.index("tree 4"), len(m) - 1),
        "4 trees, header says 5"),
    "no end": (
        lambda m: _splice(m, len(m) - 1, len(m)) - 1,
        "forest document not terminated with 'end'"),
}


@pytest.mark.parametrize("fault", list(_LOAD_FAULTS))
def test_model_file_fault_is_reported_with_its_line(tmp_path, model_lines,
                                                    fault):
    edit, message = _LOAD_FAULTS[fault]
    lines = list(model_lines)
    lineno = edit(lines) + 1
    with pytest.raises(DataError) as err:
        _load_lines(tmp_path, lines)
    assert str(err.value) == f"{tmp_path / 'bad.forest'}, line {lineno}: {message}"


_NODE_LIKE = st.sampled_from([
    "leaf 1.0,0.0,0.0", "leaf 0.0,2.5,1.0", "leaf 0.0,0.0,0.0",
    "leaf nan,1.0,1.0", "leaf 1.0,1.0", "leaf", "split 0 <= 0.5",
    "split 33 <= nan", "split 34 <= 1.0", "split 6 in 0,2", "split 6 in 2,0,2",
    "split 6 in 99", "split -1 in 0", "split 0 in ", "split 0 < 1.0",
    "tree 0", "tree 1", "tree 5", "end", ""])

_EDIT = st.tuples(
    st.sampled_from(("delete", "duplicate", "swap", "truncate", "replace")),
    st.integers(0, 10**4), st.integers(0, 10**4), _NODE_LIKE)


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_edited_model_file_loads_or_raises_data_error(
        model_lines, schema, tmp_path_factory, edits):
    lines = list(model_lines)
    for op, a, b, token in edits:
        if not lines:
            break
        i, j = a % len(lines), b % len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            del lines[i:]
        else:
            lines[i] = token
    base = tmp_path_factory.getbasetemp()
    path, again = base / "edited.forest", base / "again.forest"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        forest = load_forest(path, schema)
    except DataError:
        return
    save_forest(forest, again)
    _assert_same_table(load_forest(again, schema).table, forest.table)
