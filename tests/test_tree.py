import numpy as np
import pytest

from riskforest import Dataset, SplitRule, train_tree
from riskforest.errors import DataError, SchemaError
from riskforest.tree import predict_tree, read_trees, write_trees

from oracles import (greedy_tree_oracle, oracle_tree_predict,
                     replay_tree_predict, tree_apply, tree_depth,
                     tree_from_lines, tree_lines, tree_votes)


def _category_counts(schema):
    """Each feature's category count, as read_trees takes them."""
    return [len(spec.categories) for spec in schema.specs]


def _random_tri_dataset(tri_schema, rng, n=20):
    X = np.column_stack([
        np.round(rng.integers(18, 40, size=n) + rng.integers(0, 2, size=n) * 0.5, 1),
        rng.integers(0, 4, size=n),
        np.where(rng.random(n) < 0.3, 100.0, rng.integers(0, 15, size=n)),
        rng.integers(0, 2, size=n),
        rng.integers(0, 5, size=n),
    ]).astype(float)
    y = rng.integers(0, 3, size=n)
    return Dataset(tri_schema, X, y)


def test_pure_node_yields_single_leaf(tri_schema):
    ds = _random_tri_dataset(tri_schema, np.random.default_rng(0), n=12)
    ds = Dataset(tri_schema, ds.X, np.ones(12, dtype=np.int64))
    tree = train_tree(ds, (1.0, 1.0, 1.0), feature_subset_size=5, min_leaf=1,
                      max_depth=8, seed=1)
    assert tree.is_leaf
    assert list(tree.class_weights) == [0.0, 12.0, 0.0]


def test_two_separable_rows_make_depth_one_tree(small_schema):
    X = np.array([[1.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    ds = Dataset(small_schema, X, np.array([0, 1]))
    tree = train_tree(ds, (1.0, 1.0), feature_subset_size=3, min_leaf=1,
                      max_depth=4, seed=0)
    assert not tree.is_leaf
    assert tree.rule.feature_index == 0 and tree.rule.threshold == 3.0
    assert tree.left.is_leaf and tree.right.is_leaf
    assert np.argmax(predict_tree(tree, X[0])) == 0
    assert np.argmax(predict_tree(tree, X[1])) == 1


_EPS = np.finfo(float).eps
_MAX = np.finfo(float).max
_TINY = np.finfo(float).smallest_subnormal


@pytest.mark.parametrize("low, high", [
    (1e308, 1.5e308), (-1.5e308, -1e308), (-_MAX, _MAX), (_MAX / 2 * 1.5, _MAX),
    (1 + _EPS, 1 + 2 * _EPS), (1.0, 1 + _EPS), (3 * _TINY, 4 * _TINY),
    (-_TINY, _TINY)])
def test_threshold_lies_between_the_two_values_it_separates(small_schema, low,
                                                            high):
    X = np.array([[low, 0.0, 0.0], [high, 0.0, 0.0]])
    tree = train_tree(Dataset(small_schema, X, np.array([0, 1])), (1.0, 1.0),
                      feature_subset_size=3, min_leaf=1, max_depth=4, seed=0)
    assert low <= tree.rule.threshold < high
    assert np.argmax(predict_tree(tree, X[0])) == 0
    assert np.argmax(predict_tree(tree, X[1])) == 1


def test_sentinel_routes_past_years_since_threshold(tri_schema):
    tree = tree_from_lines(["2 <= 30.0", "1,0,0", "0,0,1"],
                           (1.0, 1.0, 1.0), _category_counts(tri_schema))
    assert tree.rule == SplitRule(feature_index=2, threshold=30.0)
    dist = predict_tree(tree, [0, 0, 100.0, 0, 0])
    assert dist[2] == 1.0  # sentinel 100 > 30: no-history row goes right


def test_matches_exhaustive_oracle_with_full_feature_set(tri_schema):
    rng = np.random.default_rng(99)
    kinds = [s.kind for s in tri_schema.specs]
    for trial in range(20):
        ds = _random_tri_dataset(tri_schema, rng, n=20)
        tree = train_tree(ds, (1.0, 1.0, 1.0), feature_subset_size=5,
                          min_leaf=2, max_depth=4, seed=trial)
        oracle = greedy_tree_oracle(ds.X, ds.y, kinds, 3, (1.0, 1.0, 1.0),
                                    min_leaf=2, max_depth=4)
        probes = np.vstack([ds.X, _random_tri_dataset(tri_schema, rng, n=30).X])
        for row in probes:
            assert predict_tree(tree, row) == pytest.approx(
                oracle_tree_predict(oracle, row), abs=1e-12)


def test_matches_path_replay_oracle_on_random_rows(tri_schema):
    rng = np.random.default_rng(3)
    ds = _random_tri_dataset(tri_schema, rng, n=60)
    tree = train_tree(ds, (2.0, 1.0, 1.0), min_leaf=2, max_depth=6, seed=12)
    probes = _random_tri_dataset(tri_schema, rng, n=50).X
    for row in probes:
        assert predict_tree(tree, row) == pytest.approx(
            replay_tree_predict(tree, row), abs=0)


def test_training_is_deterministic(tri_schema):
    ds = _random_tri_dataset(tri_schema, np.random.default_rng(7), n=40)
    a = train_tree(ds, (1.0, 2.0, 1.0), min_leaf=2, max_depth=6, seed=5)
    b = train_tree(ds, (1.0, 2.0, 1.0), min_leaf=2, max_depth=6, seed=5)
    assert tree_lines(a) == tree_lines(b)
    c = train_tree(ds, (1.0, 2.0, 1.0), min_leaf=2, max_depth=6, seed=6)
    assert tree_lines(c) != tree_lines(a)


def test_weight_scaling_changes_nothing(tri_schema):
    # power-of-two scale keeps float arithmetic exact
    ds = _random_tri_dataset(tri_schema, np.random.default_rng(11), n=50)
    base = train_tree(ds, (1.0, 1.0, 1.0), min_leaf=2, max_depth=6, seed=9)
    scaled = train_tree(ds, (4.0, 4.0, 4.0), min_leaf=2, max_depth=6, seed=9)
    rows = ds.X[:10]
    for row in rows:
        assert predict_tree(base, row) == pytest.approx(
            predict_tree(scaled, row), abs=0)
    # same structure: the node lines differ only in leaf weights
    a = [ln for ln in tree_lines(base) if " " in ln]  # the split lines
    b = [ln for ln in tree_lines(scaled) if " " in ln]
    assert a and a == b


def test_duplicated_rows_equal_row_index_weighting(tri_schema):
    ds = _random_tri_dataset(tri_schema, np.random.default_rng(13), n=15)
    dup_idx = np.array([0, 0, 1, 2, 3, 4, 5, 5, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14])
    via_indices = train_tree(ds, (1.0, 1.0, 1.0), min_leaf=1, max_depth=5,
                             seed=2, row_indices=dup_idx)
    duplicated = ds.take(dup_idx)
    via_rows = train_tree(duplicated, (1.0, 1.0, 1.0), min_leaf=1, max_depth=5,
                          seed=2)
    assert tree_lines(via_indices) == tree_lines(via_rows)


def test_chosen_splits_never_increase_impurity(tri_schema):
    ds = _random_tri_dataset(tri_schema, np.random.default_rng(17), n=80)
    cw = np.array([3.0, 1.0, 1.0])
    tree = train_tree(ds, cw, min_leaf=2, max_depth=8, seed=21)

    def gini(w):
        W = w.sum()
        return 1.0 - float(w @ w) / W**2

    def check(node, idx):
        if node.is_leaf:
            return
        v = ds.X[idx, node.rule.feature_index]
        if node.rule.threshold is not None:
            mask = v <= node.rule.threshold
        else:
            mask = np.isin(v.astype(int), sorted(node.rule.subset))
        for side_idx in (idx[mask], idx[~mask]):
            assert side_idx.size > 0
        wp = np.bincount(ds.y[idx], minlength=3) * cw
        wl = np.bincount(ds.y[idx[mask]], minlength=3) * cw
        wr = np.bincount(ds.y[idx[~mask]], minlength=3) * cw
        child = (wl.sum() * gini(wl) + wr.sum() * gini(wr)) / wp.sum()
        assert child <= gini(wp) + 1e-12
        check(node.left, idx[mask])
        check(node.right, idx[~mask])

    check(tree, np.arange(len(ds)))


def test_max_depth_limits_split_chain(tri_schema):
    ds = _random_tri_dataset(tri_schema, np.random.default_rng(23), n=100)
    tree = train_tree(ds, (1.0, 1.0, 1.0), min_leaf=1, max_depth=2, seed=4)
    assert tree_depth(tree) <= 2


def test_large_categorical_prefix_scan_path(schema):
    # Mosaic column has 29 categories: exercises the ordered-prefix search
    rng = np.random.default_rng(31)
    n = 400
    X = np.zeros((n, schema.n_features))
    j = schema.spec_index("CustodyMosaicCodeTop28")
    X[:, j] = rng.integers(0, 29, size=n)
    y = (X[:, j] < 10).astype(np.int64)  # label depends on category block
    y[y == 0] = 2
    ds = Dataset(schema, X, y)
    tree = train_tree(ds, (1.0, 1.0, 1.0), feature_subset_size=34,
                      min_leaf=5, max_depth=3, seed=0)
    votes = tree_votes(tree, ds.X)
    assert float(np.mean(votes == ds.y)) >= 0.95


def test_node_line_round_trip(tri_schema):
    ds = _random_tri_dataset(tri_schema, np.random.default_rng(41), n=60)
    tree = train_tree(ds, (1.0, 1.0, 2.0), min_leaf=2, max_depth=6, seed=8)
    lines = tree_lines(tree)
    again = tree_from_lines(lines, (1.0, 1.0, 2.0), _category_counts(tri_schema))
    assert tree_lines(again) == lines
    for row in ds.X[:20]:
        assert predict_tree(again, row) == pytest.approx(predict_tree(tree, row))


def test_tree_apply_agrees_with_predict(tri_schema):
    ds = _random_tri_dataset(tri_schema, np.random.default_rng(43), n=80)
    tree = train_tree(ds, (1.0, 1.0, 1.0), min_leaf=3, max_depth=6, seed=14)
    dists = tree_apply(tree, ds.X)
    for i in range(len(ds)):
        assert dists[i] == pytest.approx(predict_tree(tree, ds.X[i]), abs=0)


def test_tree_vote_tie_breaks_toward_lower_risk():
    leaf = tree_from_lines(["1,0,1"], (1.0, 1.0, 1.0), [0])
    assert tree_votes(leaf, np.zeros((1, 3)))[0] == 2  # Low over High


def test_class_weight_count_is_named_as_a_plain_count(tri_schema):
    ds = _random_tri_dataset(tri_schema, np.random.default_rng(1), n=10)
    with pytest.raises(DataError, match=r"need 3 class weights, got 2$"):
        train_tree(ds, (1.0, 1.0))


def test_split_rule_validation():
    with pytest.raises(SchemaError):
        SplitRule(feature_index=0)
    with pytest.raises(SchemaError):
        SplitRule(feature_index=0, threshold=1.0, subset=frozenset({1}))
    with pytest.raises(SchemaError):
        SplitRule(feature_index=0, subset=frozenset())


# -- level-wise induction against the plain-loop oracles -------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from riskforest import (FeatureSchema, FeatureSpec, SentinelRule,
                        VALIDATION_MARGINALS, generate_synthetic)

from oracles import prefix_subset_oracle

_MIXED = FeatureSchema(
    specs=(
        FeatureSpec("age", "numeric"),
        FeatureSpec("priors", "count"),
        FeatureSpec("recent", "years-since", sentinel=SentinelRule(code=100.0)),
        FeatureSpec("flag", "binary"),
        FeatureSpec("area", "categorical",
                    categories=tuple(f"A{i}" for i in range(11)) + ("OTHER",)),
    ),
    label_set=("High", "Moderate", "Low"),
)


@st.composite
def _mixed_rows(draw, n_max=24):
    n = draw(st.integers(2, n_max))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    X = np.column_stack([
        column(st.sampled_from([18.0, 18.5, 21.0, 25.5, 30.0, 44.0])),
        column(st.integers(0, 4)),
        column(st.sampled_from([0.0, 1.5, 3.0, 100.0])),
        column(st.integers(0, 1)),
        column(st.integers(0, 11)),
    ]).astype(float)
    return Dataset(_MIXED, X, np.array(column(st.integers(0, 2))))


@settings(max_examples=60, deadline=None)
@given(ds=_mixed_rows(),
       weights=st.tuples(*[st.sampled_from([0.3, 0.7, 1.0, 1.5, 2.25, 3.1])] * 3),
       min_leaf=st.integers(1, 3), depth=st.integers(1, 5),
       seed=st.integers(0, 2**64 - 1))
def test_full_feature_tree_predicts_like_greedy_oracle(ds, weights, min_leaf,
                                                       depth, seed):
    tree = train_tree(ds, weights, feature_subset_size=5, min_leaf=min_leaf,
                      max_depth=depth, seed=seed)
    oracle = greedy_tree_oracle(ds.X, ds.y, [s.kind for s in _MIXED.specs], 3,
                                weights, min_leaf, depth)
    probes = np.vstack([ds.X, [[19.0, 2, 2.0, 1, 5], [50.0, 0, 100.0, 0, 11]]])
    got = tree_apply(tree, probes)
    for row, dist in zip(probes, got):
        assert dist == pytest.approx(oracle_tree_predict(oracle, row), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(ds=_mixed_rows(n_max=40),
       weights=st.tuples(*[st.sampled_from([0.3, 1.0, 2.25])] * 3),
       subset_size=st.integers(1, 5), min_leaf=st.integers(1, 3),
       depth=st.integers(1, 6), seed=st.integers(0, 2**64 - 1))
def test_trained_table_equals_table_parsed_from_its_node_lines(
        ds, weights, subset_size, min_leaf, depth, seed):
    # train_tree lays the tree out in pre-order, member pairs and category
    # flags included, exactly as read_trees lays out the same tree read
    # from its lines
    root = train_tree(ds, weights, feature_subset_size=subset_size,
                      min_leaf=min_leaf, max_depth=depth, seed=seed)
    table = root.table
    parsed = read_trees(write_trees(table), 0, weights, _category_counts(_MIXED))
    for name in ("feature", "start", "width", "column_width", "left", "right",
                 "threshold", "members", "member_node", "member_code", "counts",
                 "class_weights", "weights", "roots", "vote"):
        got, want = getattr(table, name), getattr(parsed, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want, equal_nan=True), name
    assert table.depth == parsed.depth == tree_depth(root)


def test_prefix_oracle_orders_by_high_risk_fraction():
    # Codes 3 and 5 are all High, 1 half High, 0 never: the prefixes are
    # {3}, {3, 5} and {3, 5, 1}, scoring 1 + 18/6, 3 + 10/4 and 17/5 + 2.
    codes = [0, 0, 1, 1, 3, 5, 5]
    y = [2, 2, 0, 2, 0, 0, 0]
    score, members = prefix_subset_oracle(codes, y, [1.0, 1.0, 1.0], 1, 1e-9)
    assert members == frozenset({3, 5})
    assert score == pytest.approx(5.5, abs=1e-12)


_WIDE = FeatureSchema(
    specs=(
        FeatureSpec("score", "numeric"),
        FeatureSpec("mosaic", "categorical",
                    categories=tuple(f"M{i:02d}" for i in range(29)) + ("OTHER",)),
    ),
    label_set=("High", "Moderate", "Low"),
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       weights=st.tuples(*[st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0])] * 3),
       min_leaf=st.integers(1, 5), depth=st.integers(1, 3))
def test_wide_category_splits_match_prefix_oracle(seed, weights, min_leaf, depth):
    # more than 12 categories present: the ordered-prefix scan, not every subset
    rng = np.random.default_rng(seed)
    n = 160
    codes = rng.integers(0, 30, size=n)
    risk = rng.random(30)[codes]
    y = np.where(rng.random(n) < risk, 0, rng.integers(1, 3, size=n))
    X = np.column_stack([rng.integers(0, 40, size=n) / 2.0, codes]).astype(float)
    ds = Dataset(_WIDE, X, y)
    tree = train_tree(ds, weights, feature_subset_size=2, min_leaf=min_leaf,
                      max_depth=depth, seed=seed)
    oracle = greedy_tree_oracle(X, y, ["numeric", "categorical"], 3, weights,
                                min_leaf, depth)
    for row, dist in zip(X, tree_apply(tree, X)):
        assert dist == pytest.approx(oracle_tree_predict(oracle, row), abs=1e-12)


def _truncate(node, depth, schema):
    """The top ``depth`` levels of a tree; cut subtrees become leaves."""
    def total(n):
        return (n.table.counts[n.index] if n.is_leaf
                else total(n.left) + total(n.right))

    def lines(n, d):
        if n.is_leaf or d == 0:
            return [",".join(map(str, total(n).tolist()))]
        r = n.rule
        test = (f"<= {r.threshold!r}" if r.subset is None
                else "in " + ",".join(map(str, sorted(r.subset))))
        return ([f"{r.feature_index} {test}"]
                + lines(n.left, d - 1) + lines(n.right, d - 1))

    return tree_from_lines(lines(node, depth), node.table.class_weights,
                           _category_counts(schema))


def test_shallow_tree_is_top_of_deeper_tree(schema):
    # each node's feature sample is keyed by its path, not by growth order
    ds = generate_synthetic(schema, 600, VALIDATION_MARGINALS, 0.8, 9)
    for k in range(1, 8):
        shallow = train_tree(ds, (2.0, 1.0, 1.0), min_leaf=2, max_depth=k, seed=11)
        deeper = train_tree(ds, (2.0, 1.0, 1.0), min_leaf=2, max_depth=k + 1,
                            seed=11)
        assert tree_lines(shallow) == tree_lines(_truncate(deeper, k, schema))


def test_level_blocks_do_not_change_the_tree(schema, monkeypatch):
    # a level searched in many small blocks of nodes grows the same tree
    import riskforest.tree as tree_module

    ds = generate_synthetic(schema, 500, VALIDATION_MARGINALS, 0.8, 4)
    rows = np.random.default_rng(2).integers(0, len(ds), size=len(ds))
    whole = train_tree(ds, (1.5, 1.0, 2.0), min_leaf=1, max_depth=12, seed=3,
                       row_indices=rows)
    monkeypatch.setattr(tree_module, "LEVEL_BLOCK_PAIRS", 64)
    monkeypatch.setattr(tree_module, "MASK_BLOCK", 16)
    blocked = train_tree(ds, (1.5, 1.0, 2.0), min_leaf=1, max_depth=12, seed=3,
                         row_indices=rows)
    assert tree_lines(blocked) == tree_lines(whole)


def test_feature_choice_is_a_chain_not_first_near_the_maximum():
    from riskforest.tree import _best_feature

    tol = np.array([1.0, 1.0, 1.0, 1.0])
    score = np.array([[5.0, 5.6, 6.2],   # 6.2 beats 5.0 by more than tol
                      [5.0, 5.5, 5.9],   # nothing beats 5.0 by more than tol
                      [-np.inf, 3.0, 7.0],
                      [-np.inf, -np.inf, -np.inf]])
    best, column = _best_feature(score, tol)
    assert column.tolist()[:3] == [2, 0, 2]
    assert best.tolist() == [6.2, 5.0, 7.0, -np.inf]


def test_split_without_gain_beyond_tolerance_stays_a_leaf(small_schema):
    # Both sides hold High:Low at 1:2, so the split gains nothing; with
    # these weights its rounded score still lands an ulp above the parent's.
    X = np.array([[1.0, 0, 0]] * 3 + [[2.0, 0, 0]] * 6)
    y = np.array([0, 1, 1, 0, 0, 1, 1, 1, 1])
    tree = train_tree(Dataset(small_schema, X, y), (0.1, 0.3),
                      feature_subset_size=3, min_leaf=1, max_depth=3, seed=0)
    assert tree.is_leaf
