"""Command-line front end for the full pipeline.

Verbs: reproduce-tables, generate, train, predict, evaluate, audit,
baseline, k-anon. Every flag can also be supplied through an
environment variable named RISKFOREST_<FLAG> (dashes become
underscores), e.g. RISKFOREST_SEED=7.

Exit codes are a stable contract: 0 success, 1 validation or tolerance
failure, 2 usage error.

Each command writes fixed file names under --out: a Markdown report for
humans and a JSON report for CI, both opening with a reproducibility
header that records every flag of the verb but --out. Each verb declares
the flags it requires beside its parser; commands that draw randomness
(generate, train) require --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._lazy import load
from .errors import (
    CalibrationError,
    DataError,
    FingerprintMismatchError,
    SchemaError,
    SchemaMismatchError,
    UsageError,
)

# The names this module borrows from each layer. A verb imports only the
# layers its subparser lists (``layers``), and main() binds their names
# here before the verb runs; any other name resolves on first access
# through __getattr__. Either way a name is set only if it is still
# unset, so a wrapper or a test's patch put in place beforehand is the
# one the verb calls.
_BORROWED = {
    "data.schema": ("FeatureSchema", "fixture_path", "hart_schema"),
    "data.dataset": ("load_csv", "load_unlabeled_csv", "write_csv"),
    "data.synth": ("VALIDATION_MARGINALS", "generate_synthetic",
                   "generate_two_group"),
    "data.privacy": ("k_anonymity",),
    "fairness": ("ALL_CHECKS", "GroupOutcome", "GroupedOutcomes",
                 "impossibility_search"),
    "forest": ("ForestConfig", "forest_tally", "load_forest", "oob_predict",
               "predict_dataset", "save_forest", "train_forest"),
    "metrics": ("ConfusionMatrix", "confusion_from_predictions",
                "derive_metrics", "random_baseline"),
    "reference": ("PUBLISHED", "TABLE_TOLERANCE"),
}
_LAYER_OF = {name: layer for layer, names in _BORROWED.items() for name in names}


def _bind(layers) -> None:
    """Import each layer and bind its borrowed names, keeping any name
    that is already set."""
    namespace = globals()
    for layer in layers:
        module = load(f"{__package__}.{layer}")
        for name in _BORROWED[layer]:
            namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((layer,))
    return globals()[name]


ENV_PREFIX = "RISKFOREST_"


class _EnvText(str):
    """A flag's text read from environment variable ``variable``."""

    def __new__(cls, text: str, variable: str):
        value = super().__new__(cls, text)
        value.variable = variable
        return value


def _source(text: str) -> str:
    """`` from VARIABLE`` when the text came from the environment."""
    return f" from {text.variable}" if isinstance(text, _EnvText) else ""


def _env_flag(name: str) -> bool:
    """A boolean environment variable: unset, 0/false/no or 1/true/yes."""
    text = os.environ.get(ENV_PREFIX + name, "0")
    value = {"0": False, "false": False, "no": False,
             "1": True, "true": True, "yes": True}.get(text.strip().lower())
    if value is None:
        raise UsageError(f"{ENV_PREFIX}{name} must be 0/false/no or 1/true/yes,"
                         f" got {text!r}")
    return value


def _typed(convert, expected: str):
    """An argparse type: ``convert`` a flag's text. Its error is the
    DataError ``convert`` raised, or else names what was expected, and for
    a default read from the environment names the variable; argparse names
    the flag."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            shown = exc if isinstance(exc, DataError) else (
                f"expected {expected}, got {text!r}")
            raise argparse.ArgumentTypeError(f"{shown}{_source(text)}") from None
    return parse


def _nonnegative(value):
    if not 0 <= value < math.inf:  # also false for NaN
        raise ValueError(value)
    return value


_integer = _typed(int, "an integer")
_number = _typed(float, "a number")
# A seed is an integer setting from 0, which check_setting judges; the two
# verbs that take one load data.dataset anyway.
_seed = _typed(lambda text: load(f"{__package__}.data.dataset").check_setting(
    "seed", int(text), 0), "an integer")
_epsilon = _typed(lambda text: _nonnegative(float(text)), "a finite number >= 0")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated numbers,"
                         f" got {text!r}{_source(text)}") from None


# -- report plumbing -----------------------------------------------------


# Namespace entries that are not the verb's flags, and --out, which names
# where the reports go rather than what produced them.
_NOT_RECORDED = ("command", "func", "layers", "required", "out")


def _header(args) -> dict:
    config = {key.replace("_", "-"): value for key, value in vars(args).items()
              if key not in _NOT_RECORDED}
    return {"tool": "riskforest", "version": __version__,
            "command": args.command, "config": config}


def _write_reports(out_dir: Path, stem: str, args, result: dict,
                   markdown_body: str) -> None:
    header = _header(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"header": header, "result": result}
    (out_dir / f"{stem}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    md = ["# riskforest " + header["command"], "",
          "```json", json.dumps(header, indent=2, sort_keys=True), "```", "",
          markdown_body.rstrip(), ""]
    (out_dir / f"{stem}.md").write_text("\n".join(md), encoding="utf-8")


def _metric_report(schema, predicted, actual):
    """The confusion matrix and MetricReport of two label-index vectors."""
    names = schema.label_set
    cm = confusion_from_predictions([names[v] for v in predicted],
                                    [names[v] for v in actual], names)
    return cm, derive_metrics(cm, names[0], names[-1])


def _load_schema(args) -> FeatureSchema:
    schema = (FeatureSchema.load(args.schema) if args.schema else hart_schema())
    return schema.with_group(args.group) if args.group else schema


def _load_model(args):
    """The --model forest, checked against --schema when one is given, and
    the schema its --data is read with: the model's own, with --group or
    else the given schema's group."""
    given = FeatureSchema.load(args.schema) if args.schema else None
    forest = load_forest(args.model, given)
    group = args.group or (given.group_attribute if given else None)
    return forest, forest.schema.with_group(group)


# -- commands ------------------------------------------------------------


def cmd_reproduce_tables(args) -> int:
    out = Path(args.out)
    rows = []
    for key, published in PUBLISHED.items():
        name = published["fixture"]
        path = Path(args.fixture_dir) / name if args.fixture_dir else fixture_path(name)
        if not os.path.exists(str(path)):
            raise DataError(f"missing fixture {path}")
        report = derive_metrics(ConfusionMatrix.from_csv(path), "High", "Low")
        figures = []  # (metric, measured, published), in PUBLISHED's order
        for measure, target in published.items():
            if isinstance(target, dict):  # one figure per label
                figures += [(f"{measure}_{label}",
                             getattr(report.per_label[label], measure), v)
                            for label, v in target.items()]
            elif measure != "fixture":
                figures.append((measure, getattr(report, measure), target))
        for metric, value, target in figures:
            delta = abs(value - target)
            rows.append({"table": key, "metric": metric, "computed": round(value, 6),
                         "published": target, "delta": round(delta, 6),
                         "ok": bool(delta <= TABLE_TOLERANCE)})

    lines = ["| Table | Metric | Computed | Published | Delta | OK |",
             "| --- | --- | --- | --- | --- | --- |"]
    for r in rows:
        lines.append(f"| {r['table']} | {r['metric']} | {r['computed']:.4f} |"
                     f" {r['published']:.4f} | {r['delta']:.5f} |"
                     f" {'yes' if r['ok'] else 'NO'} |")
    failing = [r for r in rows if not r["ok"]]
    _write_reports(out, "reproduction", args,
                   {"tolerance": TABLE_TOLERANCE, "all_ok": not failing, "rows": rows},
                   "\n".join(lines))
    for r in failing:
        print(f"FAIL {r['table']}.{r['metric']}: computed {r['computed']:.4f}"
              f" vs published {r['published']:.4f}", file=sys.stderr)
    print(f"reproduce-tables: {len(rows) - len(failing)}/{len(rows)} figures"
          f" within {TABLE_TOLERANCE}")
    return 1 if failing else 0


def cmd_generate(args) -> int:
    out = Path(args.out)
    args.two_group = args.two_group or _env_flag("TWO_GROUP")
    if args.two_group:
        args.group = args.group or "Group"
        args.group_gap = 0.2 if args.group_gap is None else args.group_gap
    elif args.group_gap is not None:
        raise UsageError(f"--group-gap (or {ENV_PREFIX}GROUP_GAP) needs --two-group"
                         f" (or {ENV_PREFIX}TWO_GROUP=1)")
    schema = _load_schema(args)
    marginals = (_parse_floats(args.marginals) if args.marginals
                 else VALIDATION_MARGINALS)
    if args.two_group:
        ds = generate_two_group(schema, args.n, marginals, args.group_gap,
                                args.signal, args.seed)
    else:
        ds = generate_synthetic(schema, args.n, marginals, args.signal, args.seed)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(ds, out / "synthetic.csv")
    freq = {name: round(float(f), 6)
            for name, f in zip(schema.label_set, ds.label_marginals())}
    _write_reports(out, "generate", args,
                   {"rows": len(ds), "label_frequencies": freq,
                    "provenance": ds.provenance, "file": "synthetic.csv"},
                   "Label frequencies: "
                   + ", ".join(f"{k}={v}" for k, v in freq.items()))
    print(f"generate: wrote {len(ds)} rows to {out / 'synthetic.csv'}")
    return 0


def _forest_config(args) -> ForestConfig:
    weights = _parse_floats(args.weights) if args.weights else None
    return ForestConfig(
        n_trees=args.trees,
        class_weights=weights,
        feature_subset_size=args.feature_subset,
        min_leaf=args.min_leaf,
        max_depth=args.max_depth,
        master_seed=args.seed,
        bootstrap_size=args.bootstrap_size,
    )


def cmd_train(args) -> int:
    out = Path(args.out)
    schema = _load_schema(args)
    ds = load_csv(args.data, schema)
    config = _forest_config(args)
    forest = train_forest(ds, config)
    out.mkdir(parents=True, exist_ok=True)
    save_forest(forest, out / "model.forest")

    oob_labels, oob_counts = oob_predict(forest, ds)
    have = oob_labels >= 0
    excluded = int((~have).sum())
    result = {
        "n_trees": forest.config.n_trees,
        "schema_fingerprint": forest.fingerprint,
        "class_weights": list(forest.config.class_weights),
        "feature_subset_size": forest.config.feature_subset_size,
        "min_leaf": forest.config.min_leaf,
        "max_depth": forest.config.max_depth,
        "bootstrap_size": forest.config.bootstrap_size,
        "rows": len(ds),
        "oob_no_estimate_rows": excluded,
    }
    body = [f"Trained {forest.config.n_trees} trees on {len(ds)} rows.",
            f"Rows with no out-of-bag estimate: {excluded}."]
    if have.any():
        _, oob = _metric_report(schema, oob_labels[have], ds.y[have])
        result["oob_overall_accuracy"] = oob.overall_accuracy
        result["oob_report"] = oob.to_dict()
        body.append(f"Out-of-bag overall accuracy: {oob.overall_accuracy:.4f}.")
        body.append("")
        body.append(oob.to_markdown())
    _write_reports(out, "oob_report", args, result, "\n".join(body))
    print(f"train: wrote {out / 'model.forest'}"
          f" ({forest.config.n_trees} trees)")
    return 0


def cmd_predict(args) -> int:
    out = Path(args.out)
    forest, schema = _load_model(args)
    X, _, _ = load_unlabeled_csv(args.data, schema)  # checked as parsed
    tally = forest_tally(forest, X)
    pred = np.argmax(tally, axis=1)
    out.mkdir(parents=True, exist_ok=True)
    columns = [map(str, range(len(pred))),
               map(forest.labels.__getitem__, pred.tolist()),
               *(map(str, votes) for votes in tally.T.tolist())]
    with open(out / "predictions.csv", "w", encoding="utf-8") as fh:
        names = ",".join(f"votes_{name}" for name in forest.labels)
        fh.write(f"row,predicted,{names}\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))
    counts = {name: int((pred == k).sum())
              for k, name in enumerate(forest.labels)}
    _write_reports(out, "predict_report", args,
                   {"rows": len(pred), "predicted_counts": counts,
                    "file": "predictions.csv"},
                   "Predicted counts: "
                   + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"predict: wrote {len(pred)} predictions to {out / 'predictions.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    out = Path(args.out)
    forest, schema = _load_model(args)
    ds = load_csv(args.data, schema)
    pred, _ = predict_dataset(forest, ds)
    cm, report = _metric_report(schema, pred, ds.y)
    out.mkdir(parents=True, exist_ok=True)
    cm.to_csv(out / "confusion.csv")
    _write_reports(out, "metrics", args,
                   {"confusion_file": "confusion.csv", "rows": len(ds),
                    "metrics": report.to_dict()},
                   report.to_markdown())
    print(f"evaluate: overall accuracy {report.overall_accuracy:.4f}"
          f" on {len(ds)} rows")
    return 0


def cmd_audit(args) -> int:
    out = Path(args.out)
    forest, schema = _load_model(args)
    if schema.group_attribute is None:
        raise UsageError("audit needs a group column: pass --group")
    ds = load_csv(args.data, schema)
    if ds.groups is None:
        raise DataError(f"{args.data} carries no {schema.group_attribute!r} column")
    pred, tally = predict_dataset(forest, ds)
    positive = schema.label_set[0]
    pred_names = np.array([schema.label_set[v] for v in pred], dtype=object)
    act_names = np.array([schema.label_set[v] for v in ds.y], dtype=object)
    scores = tally[:, 0] / forest.config.n_trees  # high-risk vote share

    group_values = sorted(set(ds.groups))
    if len(group_values) < 2:
        raise DataError("audit needs at least two groups in the data")
    rows = {g: ds.groups == g for g in group_values}
    grouped = GroupedOutcomes({g: GroupOutcome(act_names[r], pred_names[r], scores[r])
                               for g, r in rows.items()}, positive)
    verdicts = [check(grouped, args.epsilon) for check in ALL_CHECKS]

    def fmt(value):
        return "undefined" if value is None else f"{value:.4f}"

    body = [f"Positive label: {positive}. Epsilon: {args.epsilon}.", "",
            "| Criterion | Statistic | "
            + " | ".join(str(g) for g in group_values) + " | Gap | Verdict |",
            "| --- | --- | " + " | ".join("---" for _ in group_values)
            + " | --- | --- |"]
    for v in verdicts:
        stat_names = next(iter(v.per_group.values())).keys()
        for k, stat in enumerate(stat_names):
            cells = " | ".join(fmt(v.per_group[g][stat]) for g in group_values)
            tail = (f"{fmt(v.gap)} | {'pass' if v.passed else 'FAIL'}"
                    if k == 0 else " | ")
            body.append(f"| {v.criterion if k == 0 else ''} | {stat} |"
                        f" {cells} | {tail} |")
        for note in v.notes:
            body.append(f"| | note: {note} | " +
                        " | ".join("" for _ in group_values) + " | | |")

    result = {"epsilon": args.epsilon, "positive_label": positive,
              "groups": {str(g): int(r.sum()) for g, r in rows.items()},
              "verdicts": [v.to_dict() for v in verdicts]}

    if len(group_values) == 2:
        try:
            imp = impossibility_search(grouped, args.epsilon)
            result["impossibility"] = imp.to_dict()
            body += ["",
                     f"Joint threshold search over {imp.pairs_scanned} pairs:"
                     f" {'a feasible pair exists' if imp.jointly_feasible else 'no jointly feasible pair'}"
                     f" at epsilon {args.epsilon}."]
        except DataError as exc:
            result["impossibility"] = {"skipped": str(exc)}
            body += ["", f"Joint threshold search skipped: {exc}"]

    _write_reports(out, "fairness", args, result, "\n".join(body))
    failed = [v.criterion for v in verdicts if not v.passed]
    print("audit: " + ("all criteria pass" if not failed
                       else "failing: " + ", ".join(failed)))
    return 0


def cmd_baseline(args) -> int:
    out = Path(args.out)
    if args.marginals and args.data:
        raise UsageError(f"give --marginals{_source(args.marginals)} or"
                         f" --data{_source(args.data)}, not both")
    if args.marginals:
        marginals = _parse_floats(args.marginals)
        source = "flag"
    elif args.data:
        schema = _load_schema(args)
        ds = load_csv(args.data, schema)
        marginals = tuple(float(v) for v in ds.label_marginals())
        source = str(args.data)
    else:
        marginals = VALIDATION_MARGINALS
        source = "bundled validation marginals"
    value = random_baseline(marginals)
    _write_reports(out, "baseline", args,
                   {"marginals": list(marginals), "source": source,
                    "accuracy": value},
                   f"Random-guesser accuracy over marginals {list(marginals)}:"
                   f" **{value:.4f}**")
    print(f"baseline: {value:.4f}")
    return 0


def cmd_k_anon(args) -> int:
    out = Path(args.out)
    schema = _load_schema(args)
    ds = load_csv(args.data, schema)
    quasi = [q.strip() for q in args.quasi.split(",") if q.strip()]
    k = k_anonymity(ds, quasi)
    _write_reports(out, "kanon", args,
                   {"k": k, "quasi_identifiers": quasi, "rows": len(ds)},
                   f"k-anonymity of {len(ds)} rows under"
                   f" {{{', '.join(quasi)}}}: **k = {k}**")
    print(f"k-anon: k = {k}")
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskforest",
        description="Train, evaluate, and audit cost-sensitive risk forests.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Each verb lists the layers it runs (see _BORROWED), which main()
    # imports and no others, and the flags it requires, which main() checks
    # first.
    csv_layers = ("data.schema", "data.dataset")

    def option(p, flag, default=None, **kwargs):
        """Add ``flag``, read from RISKFOREST_<FLAG> if set, else ``default``."""
        variable = ENV_PREFIX + flag.lstrip("-").upper().replace("-", "_")
        text = os.environ.get(variable)
        if text is not None:
            default = _EnvText(text, variable)
        p.add_argument(flag, default=default, **kwargs)

    def common(p, *, data=True, seed=False, model=False, epsilon=False):
        own = "the model's own schema" if model else "bundled custody schema"
        option(p, "--schema", help=f"schema file (default: {own})")
        option(p, "--group", help="treat this column as the protected-group attribute")
        if data:
            option(p, "--data", help="dataset CSV")
        option(p, "--out", help="output directory")
        if seed:
            option(p, "--seed", type=_seed)
        if model:
            option(p, "--model", help="serialized forest file")
        if epsilon:
            option(p, "--epsilon", "0.05", type=_epsilon)

    p = sub.add_parser("reproduce-tables",
                       help="recompute the bundled fixture figures and diff"
                            " them against the published ones")
    option(p, "--fixture-dir")
    option(p, "--out")
    p.set_defaults(func=cmd_reproduce_tables,
                   layers=("data.schema", "metrics", "reference"),
                   required=("out",))

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    common(p, data=False, seed=True)
    option(p, "--n", "10000", type=_integer)
    option(p, "--signal", "0.8", type=_number)
    option(p, "--marginals")
    p.add_argument("--two-group", action="store_true",
                   help="plant a high-risk base-rate gap between two groups"
                        " (or set RISKFOREST_TWO_GROUP=1)")
    option(p, "--group-gap", type=_number,
           help="the gap --two-group plants (default 0.2)")
    p.set_defaults(func=cmd_generate, layers=(*csv_layers, "data.synth"),
                   required=("out", "seed"))

    p = sub.add_parser("train", help="train a forest and report OOB accuracy")
    common(p, seed=True)
    option(p, "--trees", "509", type=_integer)
    option(p, "--weights", help="comma-separated per-label class weights")
    option(p, "--min-leaf", "5", type=_integer)
    option(p, "--max-depth", "16", type=_integer)
    option(p, "--feature-subset", type=_integer)
    option(p, "--bootstrap-size", type=_integer)
    p.set_defaults(func=cmd_train, layers=(*csv_layers, "forest", "metrics"),
                   required=("out", "seed", "data"))

    p = sub.add_parser("predict", help="write per-row labels and vote tallies")
    common(p, model=True)
    p.set_defaults(func=cmd_predict, layers=(*csv_layers, "forest"),
                   required=("out", "model", "data"))

    p = sub.add_parser("evaluate",
                       help="confusion matrix and performance measures")
    common(p, model=True)
    p.set_defaults(func=cmd_evaluate, layers=(*csv_layers, "forest", "metrics"),
                   required=("out", "model", "data"))

    p = sub.add_parser("audit", help="group fairness report")
    common(p, model=True, epsilon=True)
    p.set_defaults(func=cmd_audit, layers=(*csv_layers, "forest", "fairness"),
                   required=("out", "model", "data"))

    p = sub.add_parser("baseline", help="random-guesser accuracy for marginals")
    common(p)
    option(p, "--marginals")
    p.set_defaults(func=cmd_baseline,
                   layers=(*csv_layers, "data.synth", "metrics"), required=("out",))

    p = sub.add_parser("k-anon", help="k-anonymity of a dataset")
    common(p)
    option(p, "--quasi", help="comma-separated quasi-identifier columns")
    p.set_defaults(func=cmd_k_anon, layers=(*csv_layers, "data.privacy"),
                   required=("out", "data", "quasi"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        for flag in args.required:
            if getattr(args, flag) in (None, ""):
                raise UsageError(f"--{flag} is required"
                                 f" (or set {ENV_PREFIX}{flag.upper()})")
        _bind(args.layers)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, SchemaError, FingerprintMismatchError, CalibrationError,
            OSError) as exc:
        print(f"error: {exc}{_group_hint(args, exc)}", file=sys.stderr)
        return 1


def _group_hint(args, exc) -> str:
    """A hint when a CSV's one unexpected column may be the group column
    that the verb, run without --group, did not expect."""
    if (not isinstance(exc, SchemaMismatchError) or exc.missing
            or len(exc.extra) != 1 or args.group):
        return ""
    name = exc.extra[0]
    return (f"; if {name} is the group column, pass --group {name}"
            f" (or set {ENV_PREFIX}GROUP)")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
