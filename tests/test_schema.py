import pytest

from riskforest import FeatureSchema, FeatureSpec, SentinelRule, fixture_path, hart_schema
from riskforest.errors import SchemaError


def test_bundled_schema_shape(schema):
    assert schema.n_features == 34
    assert schema.label_set == ("High", "Moderate", "Low")
    kinds = [s.kind for s in schema.specs]
    assert kinds.count("years-since") == 8
    assert kinds.count("categorical") == 2
    assert kinds.count("binary") == 3


def test_bundled_years_since_sentinels(schema):
    for spec in schema.specs:
        if spec.kind == "years-since":
            assert spec.sentinel.code == 100.0
            assert spec.sentinel.null_allowed


def test_postcode_and_mosaic_buckets(schema):
    postcode = schema.specs[schema.spec_index("CustodyPostcodeOutwardTop24")]
    mosaic = schema.specs[schema.spec_index("CustodyMosaicCodeTop28")]
    assert len(postcode.categories) == 25 and postcode.categories[-1] == "OTHER"
    assert len(mosaic.categories) == 29 and mosaic.categories[-1] == "OTHER"


def test_text_round_trip(schema):
    again = FeatureSchema.from_text(schema.to_text())
    assert again == schema
    assert again.fingerprint() == schema.fingerprint()


def test_fixture_matches_builder(schema):
    assert FeatureSchema.load(fixture_path("hart_schema")) == schema


def test_bundled_schema_fingerprint_is_pinned():
    # Every model's fingerprint rests on the fixture file's contents.
    assert hart_schema().fingerprint() == "5c57a9d269024d7e"
    assert hart_schema().group_attribute is None
    assert hart_schema("Group").group_attribute == "Group"
    assert hart_schema("Group").fingerprint() == "5c57a9d269024d7e"


def test_group_attribute_excluded_from_fingerprint(schema):
    assert schema.with_group("Group").fingerprint() == schema.fingerprint()


def test_categorical_requires_single_other_bucket():
    with pytest.raises(SchemaError):
        FeatureSpec("c", "categorical", categories=("A", "B"))
    with pytest.raises(SchemaError):
        FeatureSpec("c", "categorical", categories=("A", "OTHER", "OTHER"))


def test_years_since_requires_sentinel():
    with pytest.raises(SchemaError):
        FeatureSpec("ys", "years-since")
    FeatureSpec("ys", "years-since", sentinel=SentinelRule())


def test_duplicate_names_rejected():
    spec = FeatureSpec("a", "numeric")
    with pytest.raises(SchemaError):
        FeatureSchema(specs=(spec, spec), label_set=("x", "y"))


def test_group_collision_rejected():
    spec = FeatureSpec("a", "numeric")
    with pytest.raises(SchemaError):
        FeatureSchema(specs=(spec,), label_set=("x", "y"), group_attribute="a")
    with pytest.raises(SchemaError):
        FeatureSchema(specs=(spec,), label_set=("x", "y"), group_attribute="label")


def test_single_label_rejected():
    with pytest.raises(SchemaError):
        FeatureSchema(specs=(FeatureSpec("a", "numeric"),), label_set=("x",))


def test_binary_defaults_to_no_yes():
    assert FeatureSpec("b", "binary").categories == ("No", "Yes")


@pytest.mark.parametrize("code", ["abc", "-5", "inf", "nan", "1e400"])
def test_bad_sentinel_code_is_located(code):
    text = ("labels: High, Low\nfeature: X | numeric\n"
            f"feature: Y | years-since | sentinel={code} null\n")
    with pytest.raises(SchemaError) as err:
        FeatureSchema.from_text(text)
    assert str(err.value).startswith(f"line 3: bad sentinel code '{code}'")


def test_non_utf8_schema_file_is_refused_naming_it(tmp_path):
    path = tmp_path / "schema"
    path.write_bytes(b"labels: High, Low\n# caf\xe9\nfeature: X | numeric\n")
    with pytest.raises(SchemaError) as err:
        FeatureSchema.load(path)
    assert str(err.value) == f"{path}: not UTF-8 text (invalid continuation byte)"


@pytest.mark.parametrize("name", ["", " x", "x ", "a#1", "a,b", "a|b", "a:b",
                                  "a\nb", "a\x0cb", "a\u2028b"])
def test_a_name_the_schema_text_cannot_hold_is_refused(name):
    # A model file holds its schema's text, so every name must read back.
    with pytest.raises(SchemaError, match="bad feature name or category"):
        FeatureSpec(name, "numeric")
    with pytest.raises(SchemaError, match="bad feature name or category"):
        FeatureSpec("area", "categorical", categories=(name, "S", "OTHER"))
    with pytest.raises(SchemaError, match="label_set needs"):
        FeatureSchema(specs=(FeatureSpec("x", "numeric"),),
                      label_set=(name, "Low"))


def test_names_with_inner_spaces_and_marks_read_back():
    schema = FeatureSchema(
        specs=(FeatureSpec("Age (years)", "numeric"),
               FeatureSpec("Area", "categorical",
                           categories=("North East", "S-W", "OTHER"))),
        label_set=("High risk", "Low risk"))
    assert FeatureSchema.from_text(schema.to_text()) == schema
