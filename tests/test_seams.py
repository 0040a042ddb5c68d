"""The names the benchmark's tracer wraps, and the tree shape it walks.

``perfbench/tracing.py`` wraps program functions by module and name and
walks each trained root through ``.left``/``.right``. A renamed function or
a changed tree view shows up here as a failing test rather than as a traced
benchmark run without a result. The module is loaded read-only: no bytecode
is written under ``perfbench/``.
"""

import importlib.util
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import riskforest.cli as cli
import riskforest.forest as forest_api
from riskforest import VALIDATION_MARGINALS, generate_synthetic, hart_schema
from riskforest.data.dataset import load_csv
from riskforest.tree import train_tree

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("targets", ["VERB_TARGETS", "ROW_TARGETS"])
def test_every_traced_name_exists(tracing, targets):
    tracer = tracing.Tracer("seams")
    undo = tracer.install(getattr(tracing, targets))
    try:
        assert tracer.absent == []
    finally:
        tracer.restore(undo)


def test_traced_train_and_predict_give_every_forest_and_tree_metric(
        tracing, tmp_path):
    gen, tr, pr = tmp_path / "gen", tmp_path / "tr", tmp_path / "pr"
    assert cli.main(["generate", "--n", "150", "--seed", "2",
                     "--out", str(gen)]) == 0
    data = str(gen / "synthetic.csv")
    tracer = tracing.Tracer("seams")
    undo = tracer.install(tracing.VERB_TARGETS)
    try:
        assert cli.main(["train", "--data", data, "--trees", "3", "--seed", "2",
                         "--max-depth", "6", "--out", str(tr)]) == 0
        assert cli.main(["predict", "--model", str(tr / "model.forest"),
                         "--data", data, "--out", str(pr)]) == 0
    finally:
        tracer.restore(undo)
    tracer.finish()
    metrics = tracing.layer_metrics(tracer.spans, tracer.wrapped)
    for name in ("tree.train_tree_calls", "tree.nodes_mean", "tree.depth_max",
                 "forest.oob_s", "forest.votes_s", "forest.tally_s"):
        assert math.isfinite(metrics[name]), name
    for name in ("forest.oob_s", "forest.votes_s", "forest.tally_s"):
        assert metrics[name] > 0, name  # a span was recorded
    forest = forest_api.load_forest(tr / "model.forest", hart_schema())
    assert metrics["tree.train_tree_calls"] == 3
    assert metrics["tree.nodes_mean"] == len(forest.table.right) / 3
    assert metrics["tree.depth_max"] == forest.table.depth

    row = load_csv(data, hart_schema()).X[0]
    tracer = tracing.Tracer("seams")
    undo = tracer.install(tracing.ROW_TARGETS)
    try:
        forest_api.predict_forest(forest, row)  # as the benchmark calls it
    finally:
        tracer.restore(undo)
    metrics = tracing.layer_metrics(tracer.spans, tracer.wrapped)
    assert metrics["forest.predict_row_s"] > 0
    assert math.isfinite(metrics["forest.votes_s"])


def test_one_row_records_one_span_of_each_row_target(tracing):
    # predict_forest reaches the gather and the tally through the
    # riskforest.forest namespace, once each, inside its own span.
    data = generate_synthetic(hart_schema(), 200, VALIDATION_MARGINALS, 0.8, 5)
    forest = forest_api.train_forest(data, forest_api.ForestConfig(
        n_trees=5, master_seed=5))
    tracer = tracing.Tracer("seams")
    undo = tracer.install(tracing.ROW_TARGETS)
    try:
        forest_api.predict_forest(forest, data.X[0])
    finally:
        tracer.restore(undo)
    assert tracer.absent == []
    assert sorted(span["name"] for span in tracer.spans) == [
        "forest.predict_row", "forest.tally", "forest.votes"]
    row, = (s for s in tracer.spans if s["name"] == "forest.predict_row")
    assert all(s["parent"] == row["id"] for s in tracer.spans if s is not row)


def test_tree_shape_walks_a_trained_tree_to_its_table_counts(tracing):
    data = generate_synthetic(hart_schema(), 300, VALIDATION_MARGINALS, 0.8, 4)
    root = train_tree(data, (1.0, 1.0, 1.0), min_leaf=3, max_depth=9, seed=11)
    assert root.table.depth > 1
    assert tracing.tree_shape(root) == {"nodes": len(root.table.right),
                                        "depth": root.table.depth}
    assert np.array_equal(root.table.left[~root.table.is_leaf],
                          np.flatnonzero(~root.table.is_leaf) + 1)


def test_traced_train_with_tree_workers_keeps_every_tree_metric(
        tracing, tmp_path, monkeypatch):
    # The traced train run that ends a perfbench pass: with two tree
    # workers, the tree.* metrics describe this process's share of trees.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    gen, tr = tmp_path / "gen", tmp_path / "tr"
    assert cli.main(["generate", "--n", "300", "--seed", "4",
                     "--out", str(gen)]) == 0
    n_trees, draws = 7, 4096
    assert forest_api.tree_workers(n_trees, draws) == 2
    tracer = tracing.Tracer("seams")
    undo = tracer.install(tracing.VERB_TARGETS)
    try:
        assert cli.main(["train", "--data", str(gen / "synthetic.csv"),
                         "--trees", str(n_trees), "--bootstrap-size", str(draws),
                         "--max-depth", "6", "--seed", "4",
                         "--out", str(tr)]) == 0
    finally:
        tracer.restore(undo)
    tracer.finish()
    assert tracer.absent == []
    metrics = tracing.layer_metrics(tracer.spans, tracer.wrapped)
    for name in ("tree.train_tree_s", "tree.train_tree_calls", "tree.nodes_mean",
                 "tree.depth_max", "forest.train_self_s"):
        assert math.isfinite(metrics[name]), name
    assert metrics["tree.train_tree_calls"] == len(range(0, n_trees, 2))
