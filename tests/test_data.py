import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskforest import (
    Dataset,
    FeatureSchema,
    FeatureSpec,
    SentinelRule,
    VALIDATION_MARGINALS,
    generate_synthetic,
    generate_two_group,
    hart_schema,
    k_anonymity,
    load_csv,
    split_holdout,
    write_csv,
)
from riskforest.data.dataset import load_unlabeled_csv
from riskforest.errors import DataError, SchemaMismatchError

from oracles import decode_cell_oracle, kanon_oracle, write_csv_oracle


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture()
def tri_csv(tmp_path, tri_schema):
    text = (
        "age,priors,recent,flag,area,label\n"
        "25.5,3,1.5,Yes,N,High\n"
        "31,0,100,No,S,Low\n"
        "44,1,12,No,W,Moderate\n"
    )
    return _write(tmp_path, text)


def test_load_csv_round_trips_three_rows(tri_csv, tri_schema):
    ds = load_csv(tri_csv, tri_schema)
    assert len(ds) == 3
    assert list(ds.y) == [0, 2, 1]
    assert ds.X[0, 0] == 25.5
    assert ds.X[1, 2] == 100.0


def test_unknown_label_names_row_and_value(tmp_path, tri_schema):
    path = _write(tmp_path, "age,priors,recent,flag,area,label\n25,1,3,No,N,Extreme\n")
    with pytest.raises(DataError, match="Extreme") as err:
        load_csv(path, tri_schema)
    assert err.value.row == 1


def test_sentinel_code_100_accepted_on_years_since(tmp_path):
    schema = hart_schema()
    header = ",".join(schema.feature_names) + ",label"
    row = []
    for spec in schema.specs:
        if spec.kind == "years-since":
            row.append("100")
        elif spec.kind in ("categorical", "binary"):
            row.append(spec.categories[0])
        else:
            row.append("2")
    path = _write(tmp_path, header + "\n" + ",".join(row) + ",High\n")
    ds = load_csv(path, schema)
    j = schema.spec_index("PriorSeriousOffenceLatestYears")
    assert ds.X[0, j] == 100.0


def test_null_years_since_normalizes_to_sentinel(tmp_path, tri_schema):
    path = _write(tmp_path, "age,priors,recent,flag,area,label\n25,1,,No,N,High\n")
    assert load_csv(path, tri_schema).X[0, 2] == 100.0
    path2 = _write(tmp_path, "age,priors,recent,flag,area,label\n25,1,null,No,N,High\n",
                   name="d2.csv")
    assert load_csv(path2, tri_schema).X[0, 2] == 100.0


def test_missing_and_extra_columns_named(tmp_path, tri_schema):
    path = _write(tmp_path, "age,priors,recent,flag,label,bogus\n25,1,3,No,High,1\n")
    with pytest.raises(SchemaMismatchError) as err:
        load_csv(path, tri_schema)
    assert "area" in err.value.missing
    assert "bogus" in err.value.extra


def test_unparseable_cell_reports_row_and_column(tmp_path, tri_schema):
    path = _write(tmp_path,
                  "age,priors,recent,flag,area,label\n"
                  "25,1,3,No,N,High\n25,june,3,No,N,High\n")
    with pytest.raises(DataError) as err:
        load_csv(path, tri_schema)
    assert err.value.row == 2
    assert err.value.column == "priors"


def test_unknown_category_maps_to_other_bucket(tmp_path, tri_schema):
    path = _write(tmp_path, "age,priors,recent,flag,area,label\n25,1,3,No,ZZ9,High\n")
    ds = load_csv(path, tri_schema)
    area = tri_schema.specs[4]
    assert ds.X[0, 4] == area.categories.index("OTHER")


def test_unknown_binary_value_errors(tmp_path, tri_schema):
    path = _write(tmp_path, "age,priors,recent,flag,area,label\n25,1,3,Maybe,N,High\n")
    with pytest.raises(DataError) as err:
        load_csv(path, tri_schema)
    assert err.value.column == "flag"


def test_negative_count_rejected(tmp_path, tri_schema):
    path = _write(tmp_path, "age,priors,recent,flag,area,label\n25,-1,3,No,N,High\n")
    with pytest.raises(DataError):
        load_csv(path, tri_schema)


def test_column_order_is_free(tmp_path, tri_schema):
    path = _write(tmp_path, "label,area,flag,recent,priors,age\nHigh,N,No,3,1,25\n")
    ds = load_csv(path, tri_schema)
    assert ds.X[0, 0] == 25.0 and ds.y[0] == 0


def test_write_load_round_trip_cell_for_cell(tmp_path, schema):
    ds = generate_synthetic(schema, 60, VALIDATION_MARGINALS, 0.7, 3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(ds, p1)
    again = load_csv(p1, schema)
    assert again.rows_equal(ds)
    write_csv(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


_WRITE_SCHEMA = FeatureSchema(
    specs=(
        FeatureSpec("score", "numeric"),
        FeatureSpec("priors", "count"),
        FeatureSpec("recent", "years-since",
                    sentinel=SentinelRule(code=100.0, null_allowed=True)),
        FeatureSpec("flag", "binary"),
        FeatureSpec("area", "categorical", categories=("N", "S", "OTHER")),
    ),
    label_set=("High", "Moderate", "Low"),
    group_attribute="Group",
)


@st.composite
def _write_datasets(draw):
    n = draw(st.integers(0, 12))
    finite = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
    numeric = st.one_of(finite, finite.map(round).map(float), st.just(-0.0))
    count = st.one_of(st.integers(0, 40), st.integers(0, 10 ** 30)).map(float)
    years = st.one_of(st.just(100.0), st.integers(0, 60).map(float),
                      st.floats(0, 99, allow_nan=False))
    row = st.tuples(numeric, count, years, st.integers(0, 1).map(float),
                    st.integers(0, 2).map(float))
    X = np.array(draw(st.lists(row, min_size=n, max_size=n)),
                 dtype=float).reshape(n, 5)
    y = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    groups = draw(st.one_of(
        st.none(), st.lists(st.text("ab ,\"", max_size=3), min_size=n,
                            max_size=n)))
    return Dataset(_WRITE_SCHEMA, X, y, groups)


@settings(max_examples=60, deadline=None)
@given(ds=_write_datasets(), chunk_rows=st.integers(1, 5))
def test_write_csv_matches_per_cell_oracle(tmp_path_factory, ds, chunk_rows):
    from unittest import mock

    from riskforest.data import dataset as dataset_module
    from riskforest.data.schema import decode_column

    for j, spec in enumerate(ds.schema.specs):
        assert decode_column(spec, ds.X[:, j]) == [
            decode_cell_oracle(spec, v) for v in ds.X[:, j]]
    out = tmp_path_factory.mktemp("write")
    # Small chunks, so that rows cross chunk boundaries.
    with mock.patch.object(dataset_module, "CSV_CHUNK_ROWS", chunk_rows):
        write_csv(ds, out / "fast.csv")
    write_csv_oracle(ds, out / "oracle.csv")
    assert (out / "fast.csv").read_bytes() == (out / "oracle.csv").read_bytes()


def test_non_finite_dataset_value_names_row_and_column(tri_schema):
    X = np.array([[25.0, 1, 3, 0, 0], [30.0, 1, np.inf, 0, 0]])
    with pytest.raises(DataError) as err:
        Dataset(tri_schema, X, [0, 1])
    assert str(err.value) == ("non-finite feature value inf at row 1,"
                              " column recent")
    assert (err.value.row, err.value.column) == (1, "recent")


def test_invalid_dataset_value_is_named_as_a_plain_float(tri_schema):
    X = np.array([[25.0, 1, 3, 0, 0], [30.0, -1, 3, 0, 0]])
    with pytest.raises(DataError) as err:
        Dataset(tri_schema, X, [0, 1])
    assert str(err.value) == "value -1.0 invalid for count feature priors"
    assert (err.value.row, err.value.column) == (1, "priors")


def test_unlabeled_load(tmp_path, tri_schema):
    path = _write(tmp_path, "age,priors,recent,flag,area\n25,1,3,No,N\n")
    X, y, groups = load_unlabeled_csv(path, tri_schema)
    assert X.shape == (1, 5) and y is None and groups is None


def test_datasets_are_read_only(schema):
    ds = generate_synthetic(schema, 10, VALIDATION_MARGINALS, 0.5, 1)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.y[0] = 1


# -- synthetic generator ---------------------------------------------------


def test_generator_is_pure(schema):
    a = generate_synthetic(schema, 200, VALIDATION_MARGINALS, 0.8, 42)
    b = generate_synthetic(schema, 200, VALIDATION_MARGINALS, 0.8, 42)
    assert a.rows_equal(b)
    c = generate_synthetic(schema, 200, VALIDATION_MARGINALS, 0.8, 43)
    assert not c.rows_equal(a)


def test_generator_label_frequencies_near_marginals(schema):
    n = 10_000
    ds = generate_synthetic(schema, n, VALIDATION_MARGINALS, 0.8, 7)
    freq = ds.label_marginals()
    assert np.abs(freq - np.asarray(VALIDATION_MARGINALS)).max() <= 3 / np.sqrt(n)


def test_generator_marginal_count_mismatch(schema):
    with pytest.raises(DataError):
        generate_synthetic(schema, 10, (0.5, 0.5), 0.5, 1)
    with pytest.raises(DataError):
        generate_synthetic(schema, 10, (0.5, 0.4, 0.2), 0.5, 1)


#: Frozen quality bar: what the exhaustive-split reference tree scored on
#: the full-signal generator output when the distributions were tuned.
REFERENCE_TREE_ACCURACY = 0.9388


def test_signal_one_reference_tree_hits_frozen_accuracy(schema):
    from riskforest import split_holdout, train_tree
    from riskforest.tree import tree_votes

    ds = generate_synthetic(schema, 5000, VALIDATION_MARGINALS, 1.0, 7)
    train, hold = split_holdout(ds, 0.5, 11)
    tree = train_tree(train, (1.0, 1.0, 1.0), feature_subset_size=34, seed=3)
    acc = float(np.mean(tree_votes(tree, hold.X) == hold.y))
    assert acc >= 0.85
    assert acc == pytest.approx(REFERENCE_TREE_ACCURACY, abs=1e-9)


def test_no_signal_classifier_indistinguishable_from_baseline():
    # uniform marginals make the statement exact: any predictor's expected
    # accuracy equals the baseline when features carry no label signal
    from riskforest import ForestConfig, predict_dataset, split_holdout, train_forest
    from riskforest.metrics import random_baseline

    uniform = (1 / 3, 1 / 3, 1 / 3)
    ds = generate_synthetic(hart_schema(), 3000, uniform, 0.0, 31)
    train, hold = split_holdout(ds, 0.5, 6)
    forest = train_forest(train, ForestConfig(n_trees=21, master_seed=2,
                                              max_depth=8))
    pred, _ = predict_dataset(forest, hold)
    acc = float(np.mean(pred == hold.y))
    assert abs(acc - random_baseline(uniform)) <= 0.03


def test_two_group_plants_base_rate_gap(schema):
    grouped = hart_schema(group_attribute="Group")
    ds = generate_two_group(grouped, 8000, VALIDATION_MARGINALS, 0.2, 0.8, 11)
    rate = {g: float(np.mean(ds.y[ds.groups == g] == 0)) for g in ("A", "B")}
    assert rate["B"] - rate["A"] == pytest.approx(0.2, abs=0.04)


# -- holdout splitting -------------------------------------------------------


def test_split_sizes_and_disjointness(schema):
    ds = generate_synthetic(schema, 10, VALIDATION_MARGINALS, 0.5, 5)
    rest, hold = split_holdout(ds, 0.3, 9)
    assert len(rest) == 7 and len(hold) == 3
    stacked = np.vstack([rest.X, hold.X])
    assert sorted(map(tuple, stacked)) == sorted(map(tuple, ds.X))


def test_split_is_deterministic(schema):
    ds = generate_synthetic(schema, 50, VALIDATION_MARGINALS, 0.5, 5)
    a = split_holdout(ds, 0.4, 123)
    b = split_holdout(ds, 0.4, 123)
    assert a[0].rows_equal(b[0]) and a[1].rows_equal(b[1])


def test_split_marginals_track_whole_set(schema):
    n = 14_882
    ds = generate_synthetic(schema, n, VALIDATION_MARGINALS, 0.6, 21)
    rest, hold = split_holdout(ds, 0.5, 4)
    whole = ds.label_marginals()
    for part in (rest, hold):
        assert np.abs(part.label_marginals() - whole).max() <= 3 / np.sqrt(n)


def test_split_rejects_empty_part(schema):
    ds = generate_synthetic(schema, 4, VALIDATION_MARGINALS, 0.5, 5)
    with pytest.raises(DataError):
        split_holdout(ds, 0.01, 1)
    with pytest.raises(DataError):
        split_holdout(ds, 0.999, 1)


# -- k-anonymity -------------------------------------------------------------


def test_k_anonymity_identical_rows():
    rows = [("a", "b")] * 8
    assert k_anonymity(rows, [0, 1]) == 8


def test_k_anonymity_singleton_forces_one():
    rows = [("a", "b")] * 5 + [("a", "c")]
    assert k_anonymity(rows, [0, 1]) == 1
    assert k_anonymity(rows, [0]) == 6


def test_k_anonymity_empty_table_errors():
    with pytest.raises(DataError):
        k_anonymity([], [0])


def test_k_anonymity_on_dataset_columns(schema):
    ds = generate_synthetic(schema, 300, VALIDATION_MARGINALS, 0.5, 17)
    k = k_anonymity(ds, ["Gender", "InstantViolenceOffenceBinary"])
    decoded = [
        (ds.schema.specs[1].categories[int(ds.X[i, 1])],
         ds.schema.specs[3].categories[int(ds.X[i, 3])])
        for i in range(len(ds))
    ]
    assert k == kanon_oracle(decoded, [0, 1])


def test_k_anonymity_matches_oracle_on_random_tables():
    rng = np.random.default_rng(5)
    for trial in range(20):
        rows = [tuple(rng.integers(0, 3, size=4)) for _ in range(100)]
        qis = sorted(rng.choice(4, size=rng.integers(1, 4), replace=False))
        assert k_anonymity(rows, qis) == kanon_oracle(rows, qis)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
                  min_size=1, max_size=40),
    q1=st.sets(st.integers(0, 2), min_size=1, max_size=3),
    q2=st.sets(st.integers(0, 2), min_size=1, max_size=3),
)
def test_k_anonymity_monotone_in_quasi_identifiers(rows, q1, q2):
    k_small = k_anonymity(rows, sorted(q1))
    k_big = k_anonymity(rows, sorted(q1 | q2))
    assert k_small >= k_big


_TRI_HEADER = "age,priors,recent,flag,area,label\n"
_TRI_ROW = "25,1,3,No,N,High\n"


@pytest.mark.parametrize("text, message, row, column", [
    (_TRI_HEADER + _TRI_ROW + "abc,1,3,No,N,High\n",
     "row 2, column age: could not convert string to float: 'abc'", 2, "age"),
    (_TRI_HEADER + _TRI_ROW + "inf,1,3,No,N,High\n",
     "row 2, column age: non-finite value 'inf'", 2, "age"),
    (_TRI_HEADER + _TRI_ROW + "25,1.5,3,No,N,High\n",
     "row 2, column priors: invalid literal for int() with base 10: '1.5'",
     2, "priors"),
    (_TRI_HEADER + _TRI_ROW + "25,-1,3,No,N,High\n",
     "row 2, column priors: negative count '-1'", 2, "priors"),
    (_TRI_HEADER + _TRI_ROW + "25," + "1" * 400 + ",3,No,N,High\n",
     "row 2, column priors: count of 400 digits too large", 2, "priors"),
    (_TRI_HEADER + _TRI_ROW + "25,1,-2,No,N,High\n",
     "row 2, column recent: negative years value '-2'", 2, "recent"),
    (_TRI_HEADER + _TRI_ROW + "25,1,nan,No,N,High\n",
     "row 2, column recent: non-finite value 'nan'", 2, "recent"),
    (_TRI_HEADER + _TRI_ROW + "25,1,inf,No,N,High\n",
     "row 2, column recent: non-finite value 'inf'", 2, "recent"),
    (_TRI_HEADER + _TRI_ROW + "25,1,1e400,No,N,High\n",
     "row 2, column recent: non-finite value '1e400'", 2, "recent"),
    (_TRI_HEADER + _TRI_ROW + "25,1, -inf ,No,N,High\n",
     "row 2, column recent: non-finite value '-inf'", 2, "recent"),
    (_TRI_HEADER + _TRI_ROW + "25,1,3,Maybe,N,High\n",
     "row 2, column flag: unknown category 'Maybe'", 2, "flag"),
    (_TRI_HEADER + _TRI_ROW + "25,1,3,No,N,Extreme\n",
     "row 2: label 'Extreme' not in High/Moderate/Low", 2, "label"),
    (_TRI_HEADER + _TRI_ROW + "25,1,3,No,N\n",
     "row 2: expected 6 cells, got 5", 2, None),
    # the first bad input in file order wins: row, then schema order, then label
    ("label,area,flag,recent,priors,age\nHigh,N,No,3,1,25\nHigh,N,Maybe,3,1,x\n",
     "row 2, column age: could not convert string to float: 'x'", 2, "age"),
    (_TRI_HEADER + _TRI_ROW + "25,1,3,No,N,Bad\nx,1,3,No,N,High\n",
     "row 2: label 'Bad' not in High/Moderate/Low", 2, "label"),
    (_TRI_HEADER + "x,1,3,No,N,High\n1,2\n",
     "row 1, column age: could not convert string to float: 'x'", 1, "age"),
    (_TRI_HEADER + "1,2\nx,1,3,No,N,High\n",
     "row 1: expected 6 cells, got 2", 1, None),
    (_TRI_HEADER + _TRI_ROW * 1103 + "25,zz,3,No,N,High\n",
     "row 1104, column priors: invalid literal for int() with base 10: 'zz'",
     1104, "priors"),
    ((_TRI_HEADER + _TRI_ROW + "25,1,3,No,N,High\n").encode() + b"\xe9\n",
     "{path}: not UTF-8 text (invalid continuation byte)", None, None),
])
def test_bad_cell_errors_name_row_column_and_reason(tmp_path, tri_schema, text,
                                                     message, row, column):
    path = _write(tmp_path, text)
    with pytest.raises(DataError) as err:
        load_csv(path, tri_schema)
    assert str(err.value) == message.format(path=path)
    assert (err.value.row, err.value.column) == (row, column)


def test_padded_blank_and_unknown_cells_encode_like_single_cells(tmp_path,
                                                                 tri_schema):
    from riskforest.data.schema import encode_cell

    rows = [[" 25.5", "3 ", " ", " Yes", "ZZ", " High"],
            ["31", " 0", "null", "No ", " S ", "Low "],
            ["44", "1", "N/A", "No", "W", "Moderate"]]
    text = _TRI_HEADER + "".join(",".join(r) + "\n" for r in rows)
    ds = load_csv(_write(tmp_path, text), tri_schema)
    want = [[encode_cell(spec, cell) for spec, cell in zip(tri_schema.specs, r)]
            for r in rows]
    assert ds.X.tolist() == want
    assert ds.y.tolist() == [0, 2, 1]
