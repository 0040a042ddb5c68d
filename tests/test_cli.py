import argparse
import json

import pytest

from riskforest.cli import build_parser, main
from riskforest.metrics import ConfusionMatrix
from riskforest import fixture_path


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def pipeline_dirs(tmp_path):
    gen = tmp_path / "gen"
    assert run("generate", "--n", "600", "--seed", "7", "--out", str(gen)) == 0
    tr = tmp_path / "tr"
    assert run("train", "--data", str(gen / "synthetic.csv"), "--trees", "15",
               "--seed", "5", "--out", str(tr)) == 0
    return gen, tr


def test_reproduce_tables_default_run(tmp_path):
    out = tmp_path / "rt"
    assert run("reproduce-tables", "--out", str(out)) == 0
    payload = json.loads((out / "reproduction.json").read_text())
    assert payload["result"]["all_ok"] is True
    rows = payload["result"]["rows"]
    acc = [r for r in rows if r["table"] == "validation_2013"
           and r["metric"] == "overall_accuracy"][0]
    assert acc["computed"] == pytest.approx(0.628, abs=0.0015)
    assert acc["published"] == 0.628
    md = (out / "reproduction.md").read_text()
    assert "0.6280" in md


def test_reproduce_tables_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("reproduce-tables", "--out", str(a)) == 0
    assert run("reproduce-tables", "--out", str(b)) == 0
    assert (a / "reproduction.json").read_bytes() == \
        (b / "reproduction.json").read_bytes()
    assert (a / "reproduction.md").read_bytes() == (b / "reproduction.md").read_bytes()


def test_reproduce_tables_corrupted_fixture_fails(tmp_path):
    fdir = tmp_path / "fixtures"
    fdir.mkdir()
    for name in ("table3_oob.csv", "table4_validation.csv"):
        fdir.joinpath(name).write_text(fixture_path(name).read_text())
    cm = ConfusionMatrix.from_csv(fdir / "table4_validation.csv")
    cells = cm.cells.copy()
    cells[0, 0] += 3.0  # corrupt one cell
    ConfusionMatrix(cm.labels, cells).to_csv(fdir / "table4_validation.csv")
    out = tmp_path / "rt"
    assert run("reproduce-tables", "--fixture-dir", str(fdir),
               "--out", str(out)) == 1
    payload = json.loads((out / "reproduction.json").read_text())
    bad = [r["metric"] for r in payload["result"]["rows"] if not r["ok"]]
    assert "overall_accuracy" in bad


def test_reproduce_tables_missing_fixture(tmp_path):
    assert run("reproduce-tables", "--fixture-dir", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "rt")) == 1


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert run("train", "--bogus-flag", "1") == 2
    assert run("no-such-verb") == 2


def test_seed_required_for_generate(tmp_path):
    assert run("generate", "--n", "10", "--out", str(tmp_path / "g")) == 2


_REQUIRED = {
    "reproduce-tables": ("out",),
    "generate": ("out", "seed"),
    "train": ("out", "seed", "data"),
    "predict": ("out", "model", "data"),
    "evaluate": ("out", "model", "data"),
    "audit": ("out", "model", "data"),
    "baseline": ("out",),
    "k-anon": ("out", "data", "quasi"),
}


@pytest.mark.parametrize("verb, flag", [(verb, flag) for verb, flags in
                                        _REQUIRED.items() for flag in flags])
def test_missing_required_flag_is_usage_error(tmp_path, capsys, monkeypatch,
                                              verb, flag):
    for name in _REQUIRED[verb]:
        monkeypatch.delenv(f"RISKFOREST_{name.upper()}", raising=False)
    values = {"out": str(tmp_path / "o"), "seed": "1"}
    argv = [a for name in _REQUIRED[verb] if name != flag
            for a in (f"--{name}", values.get(name, "x"))]
    assert run(verb, *argv) == 2
    assert capsys.readouterr().err == (f"usage error: --{flag} is required"
                                       f" (or set RISKFOREST_{flag.upper()})\n")
    assert not (tmp_path / "o").exists()


def test_every_option_of_every_verb_reads_its_environment_variable(
        monkeypatch, capsys):
    # --two-group is a switch that cmd_generate reads through _env_flag;
    # test_two_group_env_on covers it.
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    for verb, sub in verbs.items():
        options = [a for a in sub._actions
                   if a.dest != "help" and a.dest != "two_group"]
        assert options
        for action in options:
            flag, = action.option_strings
            variable = "RISKFOREST_" + flag[2:].upper().replace("-", "_")
            monkeypatch.setenv(variable, "7")
            args = build_parser().parse_args([verb])
            convert = action.type or str
            assert getattr(args, action.dest) == convert("7"), (verb, flag)
            if action.type is not None:  # a bad value names its variable
                monkeypatch.setenv(variable, "x")
                with pytest.raises(SystemExit):
                    build_parser().parse_args([verb])
                assert f"got 'x' from {variable}" in capsys.readouterr().err
            monkeypatch.delenv(variable)


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RISKFOREST_SEED", "7")
    out = tmp_path / "g"
    assert run("generate", "--n", "30", "--out", str(out)) == 0
    payload = json.loads((out / "generate.json").read_text())
    assert payload["header"]["config"]["seed"] == 7


def test_generate_has_no_data_flag(tmp_path, capsys):
    assert run("generate", "--n", "10", "--seed", "1", "--data", "x.csv",
               "--out", str(tmp_path / "g")) == 2
    assert "--data" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_generate_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    assert run("generate", "--n", "50", "--seed", "3", "--out", str(a)) == 0
    assert run("generate", "--n", "50", "--seed", "3", "--out", str(b)) == 0
    assert run("generate", "--n", "50", "--seed", "4", "--out", str(c)) == 0
    assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()
    assert (a / "synthetic.csv").read_bytes() != (c / "synthetic.csv").read_bytes()


def test_train_reports_tree_count(pipeline_dirs):
    _, tr = pipeline_dirs
    payload = json.loads((tr / "oob_report.json").read_text())
    assert payload["result"]["n_trees"] == 15
    assert (tr / "model.forest").exists()


def test_train_defaults_to_509_trees(tmp_path):
    gen = tmp_path / "gen"
    assert run("generate", "--n", "60", "--seed", "1", "--out", str(gen)) == 0
    tr = tmp_path / "tr"
    assert run("train", "--data", str(gen / "synthetic.csv"), "--seed", "2",
               "--max-depth", "3", "--out", str(tr)) == 0
    payload = json.loads((tr / "oob_report.json").read_text())
    assert payload["result"]["n_trees"] == 509


def test_train_byte_identical_across_repeated_runs(tmp_path, pipeline_dirs):
    gen, _ = pipeline_dirs
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert run("train", "--data", str(gen / "synthetic.csv"),
                   "--trees", "9", "--seed", "5",
                   "--out", str(out)) == 0
        outs.append(out)
    a, b = outs
    assert (a / "model.forest").read_bytes() == (b / "model.forest").read_bytes()
    assert (a / "oob_report.json").read_bytes() == \
        (b / "oob_report.json").read_bytes()
    assert (a / "oob_report.md").read_bytes() == (b / "oob_report.md").read_bytes()


def test_predict_writes_votes_summing_to_trees(tmp_path, pipeline_dirs):
    gen, tr = pipeline_dirs
    out = tmp_path / "pr"
    assert run("predict", "--model", str(tr / "model.forest"),
               "--data", str(gen / "synthetic.csv"), "--out", str(out)) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "row,predicted,votes_High,votes_Moderate,votes_Low"
    for line in lines[1:6]:
        parts = line.split(",")
        assert sum(int(v) for v in parts[2:]) == 15


def test_evaluate_writes_confusion_and_metrics(tmp_path, pipeline_dirs):
    gen, tr = pipeline_dirs
    out = tmp_path / "ev"
    assert run("evaluate", "--model", str(tr / "model.forest"),
               "--data", str(gen / "synthetic.csv"), "--out", str(out)) == 0
    cm = ConfusionMatrix.from_csv(out / "confusion.csv")
    assert cm.labels == ("High", "Moderate", "Low")
    assert cm.total == 600
    payload = json.loads((out / "metrics.json").read_text())
    assert 0 <= payload["result"]["metrics"]["overall_accuracy"] <= 1


def test_fingerprint_mismatch_fails_with_code_one(tmp_path, pipeline_dirs):
    gen, tr = pipeline_dirs
    schema_file = tmp_path / "tiny_schema"
    schema_file.write_text(
        "labels: High, Low\nfeature: x | numeric\n", encoding="utf-8")
    data_file = tmp_path / "tiny.csv"
    data_file.write_text("x,label\n1.0,High\n2.0,Low\n", encoding="utf-8")
    assert run("evaluate", "--model", str(tr / "model.forest"),
               "--data", str(data_file), "--schema", str(schema_file),
               "--out", str(tmp_path / "ev")) == 1


def test_audit_flags_planted_disparity(tmp_path):
    gen = tmp_path / "gen"
    assert run("generate", "--n", "2500", "--seed", "13", "--two-group",
               "--out", str(gen)) == 0
    tr = tmp_path / "tr"
    assert run("train", "--data", str(gen / "synthetic.csv"), "--group", "Group",
               "--trees", "31", "--seed", "5", "--out", str(tr)) == 0
    au = tmp_path / "au"
    assert run("audit", "--model", str(tr / "model.forest"),
               "--data", str(gen / "synthetic.csv"), "--group", "Group",
               "--epsilon", "0.05", "--out", str(au)) == 0
    payload = json.loads((au / "fairness.json").read_text())
    verdicts = {v["criterion"]: v for v in payload["result"]["verdicts"]}
    assert verdicts["statistical_parity"]["passed"] is False
    assert verdicts["statistical_parity"]["gap"] > 0.05
    assert "impossibility" in payload["result"]


def test_baseline_command(tmp_path):
    out = tmp_path / "ba"
    assert run("baseline", "--marginals", "0.1186,0.4835,0.3979",
               "--out", str(out)) == 0
    payload = json.loads((out / "baseline.json").read_text())
    assert payload["result"]["accuracy"] == pytest.approx(0.406, abs=0.0005)


@pytest.mark.parametrize("argv, env, message", [
    (("--data", "/nonexistent.csv"), None, "give --marginals or --data, not both"),
    ((), "/nonexistent.csv",
     "give --marginals or --data from RISKFOREST_DATA, not both")])
def test_baseline_refuses_marginals_with_data(tmp_path, monkeypatch, capsys,
                                              argv, env, message):
    monkeypatch.delenv("RISKFOREST_MARGINALS", raising=False)
    monkeypatch.delenv("RISKFOREST_DATA", raising=False)
    if env is not None:
        monkeypatch.setenv("RISKFOREST_DATA", env)
    out = tmp_path / "ba"
    assert run("baseline", "--marginals", "0.5,0.5", *argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_k_anon_command(tmp_path, pipeline_dirs):
    gen, _ = pipeline_dirs
    out = tmp_path / "ka"
    assert run("k-anon", "--data", str(gen / "synthetic.csv"),
               "--quasi", "Gender,InstantViolenceOffenceBinary",
               "--out", str(out)) == 0
    payload = json.loads((out / "kanon.json").read_text())
    assert payload["result"]["k"] >= 1
    assert payload["result"]["quasi_identifiers"] == [
        "Gender", "InstantViolenceOffenceBinary"]


@pytest.mark.parametrize("value", ["0", "false", "no"])
def test_two_group_env_off(tmp_path, monkeypatch, value):
    monkeypatch.setenv("RISKFOREST_TWO_GROUP", value)
    out = tmp_path / "g"
    assert run("generate", "--n", "30", "--seed", "1", "--out", str(out)) == 0
    payload = json.loads((out / "generate.json").read_text())
    assert payload["header"]["config"]["two-group"] is False
    assert "Group" not in (out / "synthetic.csv").read_text().splitlines()[0]


@pytest.mark.parametrize("value", ["1", "true", "yes"])
def test_two_group_env_on(tmp_path, monkeypatch, value):
    monkeypatch.setenv("RISKFOREST_TWO_GROUP", value)
    out = tmp_path / "g"
    assert run("generate", "--n", "30", "--seed", "1", "--out", str(out)) == 0
    payload = json.loads((out / "generate.json").read_text())
    assert payload["header"]["config"]["two-group"] is True
    assert "Group" in (out / "synthetic.csv").read_text().splitlines()[0]


def test_two_group_env_garbage_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RISKFOREST_TWO_GROUP", "maybe")
    assert run("generate", "--n", "30", "--seed", "1",
               "--out", str(tmp_path / "g")) == 2
    assert "RISKFOREST_TWO_GROUP" in capsys.readouterr().err


_GAP_NEEDS_TWO_GROUP = ("usage error: --group-gap (or RISKFOREST_GROUP_GAP) needs"
                        " --two-group (or RISKFOREST_TWO_GROUP=1)\n")


@pytest.mark.parametrize("argv, env", [(("--group-gap", "0.3"), None),
                                       (("--group-gap", "0.2"), None),
                                       ((), "0.3")])
def test_group_gap_without_two_group_is_usage_error(tmp_path, monkeypatch, capsys,
                                                    argv, env):
    monkeypatch.delenv("RISKFOREST_TWO_GROUP", raising=False)
    if env is not None:
        monkeypatch.setenv("RISKFOREST_GROUP_GAP", env)
    out = tmp_path / "g"
    assert run("generate", "--n", "30", "--seed", "1", *argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == _GAP_NEEDS_TWO_GROUP
    assert not out.exists()


def test_plain_generate_header_records_no_group_gap(tmp_path, monkeypatch):
    monkeypatch.delenv("RISKFOREST_GROUP_GAP", raising=False)
    out = tmp_path / "g"
    assert run("generate", "--n", "30", "--seed", "1", "--out", str(out)) == 0
    config = json.loads((out / "generate.json").read_text())["header"]["config"]
    assert config["two-group"] is False and config["group-gap"] is None


@pytest.mark.parametrize("argv, env, gap", [
    ((), None, 0.2), (("--group-gap", "0.3"), None, 0.3), ((), "0.25", 0.25),
    (("--group-gap", "0.3"), "0.25", 0.3)])
def test_two_group_records_the_gap_it_planted(tmp_path, monkeypatch, argv, env,
                                              gap):
    monkeypatch.delenv("RISKFOREST_GROUP_GAP", raising=False)
    if env is not None:
        monkeypatch.setenv("RISKFOREST_GROUP_GAP", env)
    out = tmp_path / "g"
    assert run("generate", "--n", "30", "--seed", "1", "--two-group", *argv,
               "--out", str(out)) == 0
    payload = json.loads((out / "generate.json").read_text())
    assert payload["header"]["config"]["group-gap"] == gap
    assert f"gap={gap}," in payload["result"]["provenance"]


def test_group_without_two_group_writes_a_random_group_column(tmp_path, capsys):
    out = tmp_path / "g"
    assert run("generate", "--n", "200", "--seed", "1", "--group", "Zone",
               "--out", str(out)) == 0
    header, *rows = (out / "synthetic.csv").read_text().splitlines()
    assert header.split(",")[-1] == "Zone"
    assert {row.split(",")[-1] for row in rows} == {"A", "B"}
    config = json.loads((out / "generate.json").read_text())["header"]["config"]
    assert config["group"] == "Zone" and config["group-gap"] is None
    collide = tmp_path / "c"
    assert run("generate", "--n", "30", "--seed", "1", "--group", "Gender",
               "--out", str(collide)) == 1
    assert capsys.readouterr().err == (
        "error: group attribute 'Gender' collides with a column\n")
    assert not collide.exists()


def test_malformed_model_exits_one_with_located_message(tmp_path, pipeline_dirs,
                                                         capsys):
    gen, tr = pipeline_dirs
    lines = (tr / "model.forest").read_text().splitlines()
    bad = tmp_path / "bad.forest"
    bad.write_text("\n".join(lines[:lines.index("tree 0") + 1]) + "\n")
    assert run("predict", "--model", str(bad), "--data",
               str(gen / "synthetic.csv"), "--out", str(tmp_path / "pr")) == 1
    err = capsys.readouterr().err
    assert "line" in err and "Traceback" not in err


def test_threads_flag_is_gone(tmp_path, pipeline_dirs, capsys):
    gen, _ = pipeline_dirs
    assert run("train", "--data", str(gen / "synthetic.csv"), "--trees", "2",
               "--seed", "5", "--threads", "2",
               "--out", str(tmp_path / "t")) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_cell_over_csv_field_limit_exits_one_naming_the_line(tmp_path,
                                                             pipeline_dirs,
                                                             capsys):
    gen, _ = pipeline_dirs
    lines = (gen / "synthetic.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[0] = "1" * 200_000
    lines[3] = ",".join(cells)
    data = tmp_path / "long.csv"
    data.write_text("\n".join(lines) + "\n")
    assert run("train", "--data", str(data), "--trees", "2", "--seed", "5",
               "--out", str(tmp_path / "t")) == 1
    err = capsys.readouterr().err
    assert f"{data}, line 4: field larger than field limit" in err
    assert "Traceback" not in err


def test_train_rejects_feature_subset_zero(tmp_path, pipeline_dirs, capsys):
    gen, _ = pipeline_dirs
    assert run("train", "--data", str(gen / "synthetic.csv"), "--trees", "2",
               "--seed", "5", "--feature-subset", "0",
               "--out", str(tmp_path / "t")) == 1
    err = capsys.readouterr().err
    assert "feature_subset_size" in err and "Traceback" not in err
    assert not (tmp_path / "t").exists()


def test_infinite_years_since_cell_exits_one_naming_row_and_column(tmp_path,
                                                                   capsys):
    gen = tmp_path / "gen"
    assert run("generate", "--n", "40", "--seed", "3", "--out", str(gen)) == 0
    lines = (gen / "synthetic.csv").read_text().splitlines()
    column = lines[0].split(",").index("PriorCustodyLatestYears")
    cells = lines[3].split(",")
    cells[column] = "inf"
    lines[3] = ",".join(cells)
    data = tmp_path / "inf.csv"
    data.write_text("\n".join(lines) + "\n")
    assert run("train", "--data", str(data), "--trees", "2", "--seed", "5",
               "--out", str(tmp_path / "t")) == 1
    err = capsys.readouterr().err
    assert "row 3, column PriorCustodyLatestYears: non-finite value 'inf'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", [(), ("--two-group",)])
@pytest.mark.parametrize("flag, value, shown", [
    *[("--n", n, f"error: row count {n} is not an integer from 1 to {2**63 - 1}\n")
      for n in ("-3", "0", "99999999999999999999", "1" + "0" * 23)],
    ("--signal", "5", "signal_strength 5.0"),
    ("--signal", "-1", "signal_strength -1.0")])
def test_generate_rejects_bad_row_count_or_signal(tmp_path, capsys, mode, flag,
                                                  value, shown):
    out = tmp_path / "g"
    assert run("generate", *mode, flag, value, "--seed", "1",
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert shown in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights", ["inf,1,1", "nan,1,1", "1e308,1e308,1e308"])
def test_train_rejects_weights_that_make_an_unloadable_model(tmp_path, capsys,
                                                            weights):
    gen = tmp_path / "gen"
    assert run("generate", "--n", "60", "--seed", "3", "--out", str(gen)) == 0
    out = tmp_path / "t"
    assert run("train", "--data", str(gen / "synthetic.csv"), "--trees", "2",
               "--seed", "5", "--weights", weights, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "class weights" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("schema_text, csv_bytes, shown", [
    ("labels: High, Low\nfeature: Y | years-since | sentinel=abc\n",
     b"Y,label\n1,High\n", "line 2: bad sentinel code 'abc'"),
    ("labels: High, Low\nfeature: Y | years-since | sentinel=-5\n",
     b"Y,label\n1,High\n", "line 2: bad sentinel code '-5'"),
    ("labels: High, Low\n# caf\udce9\nfeature: Y | numeric\n",
     b"Y,label\n1,High\n", "schema: not UTF-8 text"),
    ("labels: High, Low\nfeature: Y | numeric\n",
     b"Y,label\n1,High\n2,caf\xe9\n", "data.csv: not UTF-8 text"),
])
def test_bad_schema_or_csv_encoding_exits_one_without_traceback(
        tmp_path, capsys, schema_text, csv_bytes, shown):
    schema = tmp_path / "schema"
    schema.write_bytes(schema_text.encode("utf-8", "surrogateescape"))
    data = tmp_path / "data.csv"
    data.write_bytes(csv_bytes)
    assert run("k-anon", "--schema", str(schema), "--data", str(data),
               "--quasi", "Y", "--out", str(tmp_path / "k")) == 1
    err = capsys.readouterr().err
    assert shown in err and "Traceback" not in err


@pytest.fixture(scope="module")
def two_group_model(tmp_path_factory):
    """A small two-group CSV and a three-tree model trained on it."""
    base = tmp_path_factory.mktemp("two_group")
    gen, tr = base / "gen", base / "tr"
    assert run("generate", "--n", "300", "--seed", "13", "--two-group",
               "--out", str(gen)) == 0
    assert run("train", "--data", str(gen / "synthetic.csv"), "--group", "Group",
               "--trees", "3", "--seed", "5", "--out", str(tr)) == 0
    return gen / "synthetic.csv", tr / "model.forest"


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


_AUDIT = ("audit", "--model", "{model}", "--data", "{data}", "--group", "Group")


@pytest.mark.parametrize("argv, env, shown", [
    (("generate", "--n", "50", "--seed", "-1"), {}, "argument --seed"),
    (("generate", "--n", "50"), {"RISKFOREST_SEED": "-1"}, "argument --seed"),
    (("train", "--data", "{data}", "--trees", "2", "--seed", "-1"), {},
     "argument --seed"),
    (_AUDIT + ("--epsilon", "nan"), {}, "argument --epsilon"),
    (_AUDIT + ("--epsilon", "-1"), {}, "argument --epsilon"),
    (_AUDIT + ("--epsilon", "inf"), {}, "argument --epsilon"),
    (_AUDIT, {"RISKFOREST_EPSILON": "nan"}, "argument --epsilon"),
    (("generate", "--n", "50", "--seed", "1", "--marginals", "nan,0.5,0.5"), {},
     "[nan, 0.5, 0.5]"),
    (("baseline", "--marginals", "0.5,nan"), {}, "[0.5, nan]"),
    (("baseline", "--marginals", "0.5,0.6"), {}, "marginals sum to 1.1, not 1"),
    (("train", "--data", "{data}", "--seed", "1"), {"RISKFOREST_TREES": "many"},
     "argument --trees"),
    (("generate", "--n", "50", "--seed", "1"), {"RISKFOREST_SIGNAL": "high"},
     "argument --signal"),
    (("train", "--data", "{data}", "--group", "Group", "--trees", "2",
      "--seed", "1"), {"RISKFOREST_WEIGHTS": "1,x,1"}, "comma-separated numbers"),
    (("train", "--data", "{data}", "--group", "Group", "--trees", "2",
      "--seed", "1", "--bootstrap-size", "1" + "0" * 23), {},
     "bootstrap_size 1" + "0" * 23),
])
def test_bad_seed_epsilon_or_marginals_exit_without_traceback_or_nan_report(
        tmp_path, capsys, monkeypatch, two_group_model, argv, env, shown):
    data, model = two_group_model
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    code = run(*(a.format(data=data, model=model) for a in argv),
               "--out", str(out))
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert shown in err
    assert all(f"from {name}" in err for name in env)
    assert "Traceback" not in err and "np.float64" not in err
    for report in out.rglob("*.json"):
        json.loads(report.read_text(), parse_constant=_refuse_constant)


@pytest.mark.parametrize("source", ["flag", "variable"])
@pytest.mark.parametrize("argv", [("generate", "--n", "200"),
                                  ("train", "--data", "{data}", "--trees", "2")],
                         ids=["generate", "train"])
def test_seed_beyond_the_setting_range_is_a_usage_error_in_both_verbs(
        tmp_path, capsys, monkeypatch, two_group_model, argv, source):
    # One range for every seed: the one a forest's master_seed must keep.
    seed = str(2**63)
    flags = ("--seed", seed) if source == "flag" else ()
    if source == "variable":
        monkeypatch.setenv("RISKFOREST_SEED", seed)
    out = tmp_path / "out"
    assert run(*(a.format(data=two_group_model[0]) for a in argv), *flags,
               "--group", "Group", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"argument --seed: seed {seed} is not an integer from 0 to" in err
    assert ("from RISKFOREST_SEED" in err) == (source == "variable")
    assert not out.exists()


def test_predict_verb_checks_each_row_once(tmp_path, monkeypatch, two_group_model):
    from riskforest.data.schema import FeatureSchema

    data, model = two_group_model
    real, checked = FeatureSchema.check_rows, []

    def counted(schema, X):
        checked.append(len(X))
        return real(schema, X)

    monkeypatch.setattr(FeatureSchema, "check_rows", counted)
    assert run("predict", "--model", str(model), "--data", str(data),
               "--group", "Group", "--out", str(tmp_path / "pr")) == 0
    assert sum(checked) == 300  # the rows of the CSV


# -- a grouped CSV read without --group -------------------------------------


@pytest.fixture(scope="module")
def grouped_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("grouped")
    gen, tr = root / "gen", root / "tr"
    assert run("generate", "--n", "120", "--seed", "3", "--two-group",
               "--out", str(gen)) == 0
    assert run("train", "--data", str(gen / "synthetic.csv"), "--group", "Group",
               "--trees", "3", "--seed", "3", "--out", str(tr)) == 0
    return gen / "synthetic.csv", tr / "model.forest"


def _grouped_argv(verb, data, model):
    return {"baseline": ["baseline", "--data", data],
            "predict": ["predict", "--model", model, "--data", data],
            "k-anon": ["k-anon", "--data", data, "--quasi", "Gender"]}[verb]


@pytest.mark.parametrize("verb", ["baseline", "predict", "k-anon"])
def test_grouped_csv_without_group_hints_at_the_flag(tmp_path, capsys,
                                                     monkeypatch, grouped_dirs,
                                                     verb):
    monkeypatch.delenv("RISKFOREST_GROUP", raising=False)
    data, model = map(str, grouped_dirs)
    out = tmp_path / "o"
    assert run(*_grouped_argv(verb, data, model), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: columns do not match schema (missing: none; extra:"
        " Group); if Group is the group column, pass --group Group (or set"
        " RISKFOREST_GROUP)\n")
    assert not out.exists()
    assert run(*_grouped_argv(verb, data, model), "--group", "Group",
               "--out", str(out)) == 0


@pytest.mark.parametrize("verb", ["baseline", "predict", "k-anon"])
def test_no_group_hint_once_a_group_is_given(tmp_path, capsys, monkeypatch,
                                             grouped_dirs, verb):
    # A group column that is not in the file: the hint would not help.
    data, model = map(str, grouped_dirs)
    monkeypatch.setenv("RISKFOREST_GROUP", "Zone")
    assert run(*_grouped_argv(verb, data, model), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: columns do not match schema (missing: none; extra:"
        " Group)\n")


def test_no_group_hint_beside_a_missing_column(tmp_path, capsys, monkeypatch,
                                               grouped_dirs):
    monkeypatch.delenv("RISKFOREST_GROUP", raising=False)
    header, *rows = grouped_dirs[0].read_text().splitlines()
    data = tmp_path / "renamed.csv"
    data.write_text("\n".join([header.replace("Gender", "Sex"), *rows]) + "\n")
    assert run("baseline", "--data", str(data), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: columns do not match schema (missing: Gender; extra:"
        " Sex, Group)\n")


# -- a header with no data rows ---------------------------------------------


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verb", ["reproduce-tables", "train", "predict",
                                  "evaluate", "audit", "baseline", "k-anon"])
def test_a_csv_without_data_rows_is_refused_with_its_path(tmp_path, capsys,
                                                          two_group_model, verb):
    data, model = two_group_model
    empty = tmp_path / "table3_oob.csv"  # a fixture name, for reproduce-tables
    source = fixture_path("table3_oob.csv") if verb == "reproduce-tables" else data
    empty.write_text(source.read_text().splitlines()[0] + "\n")
    argv = {"reproduce-tables": ["--fixture-dir", str(tmp_path)],
            "train": ["--data", str(empty), "--group", "Group", "--seed", "1"],
            "baseline": ["--data", str(empty), "--group", "Group"],
            "k-anon": ["--data", str(empty), "--group", "Group",
                       "--quasi", "Gender"]}.get(
        verb, ["--model", str(model), "--data", str(empty), "--group", "Group"])
    out = tmp_path / "out"
    assert run(verb, *argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {empty}: ") and err.count("\n") == 1
    if verb != "reproduce-tables":
        assert err == f"error: {empty}: no data rows\n"
    assert not out.exists()


# -- the model's own schema ---------------------------------------------------

_CUSTOM_SCHEMA = """labels: High, Moderate, Low
feature: Age | numeric
feature: Priors | count
feature: Recent | years-since | sentinel=100 null
feature: Area | categorical | N, S, E, OTHER
feature: Flag | binary
"""

_SCORING = {"predict": ("predictions.csv", "predict_report.json"),
            "evaluate": ("confusion.csv", "metrics.json"),
            "audit": ("fairness.json",)}


@pytest.fixture(scope="module")
def custom_model(tmp_path_factory):
    """A two-group CSV of a custom schema, and a model trained on both."""
    base = tmp_path_factory.mktemp("custom")
    schema = base / "custom_schema"
    schema.write_text(_CUSTOM_SCHEMA, encoding="utf-8")
    gen, tr = base / "gen", base / "tr"
    assert run("generate", "--schema", str(schema), "--two-group", "--n", "300",
               "--seed", "3", "--out", str(gen)) == 0
    assert run("train", "--schema", str(schema), "--group", "Group",
               "--data", str(gen / "synthetic.csv"), "--trees", "4",
               "--seed", "3", "--out", str(tr)) == 0
    return schema, gen / "synthetic.csv", tr / "model.forest"


@pytest.mark.parametrize("verb", list(_SCORING))
def test_a_custom_schema_model_scores_without_schema(tmp_path, monkeypatch,
                                                     custom_model, verb):
    monkeypatch.delenv("RISKFOREST_SCHEMA", raising=False)
    schema, data, model = map(str, custom_model)
    argv = [verb, "--model", model, "--data", data, "--group", "Group"]
    given, own = tmp_path / "given", tmp_path / "own"
    assert run(*argv, "--schema", schema, "--out", str(given)) == 0
    assert run(*argv, "--out", str(own)) == 0
    for name in _SCORING[verb]:
        if name.endswith(".json"):  # the header records --schema
            a, b = (json.loads((d / name).read_text())["result"]
                    for d in (given, own))
        else:
            a, b = ((d / name).read_bytes() for d in (given, own))
        assert a == b, name


@pytest.mark.parametrize("verb", list(_SCORING))
def test_a_schema_the_model_was_not_trained_on_exits_one(
        tmp_path, capsys, custom_model, verb):
    from riskforest import FeatureSchema, hart_schema

    _, data, model = map(str, custom_model)
    out = tmp_path / "out"
    assert run(verb, "--model", model, "--data", data, "--group", "Group",
               "--schema", str(fixture_path("hart_schema")),
               "--out", str(out)) == 1
    own = FeatureSchema.from_text(_CUSTOM_SCHEMA).fingerprint()
    assert capsys.readouterr().err == (
        f"error: schema {hart_schema().fingerprint()} does not match the"
        f" model's {own}\n")
    assert not out.exists()
