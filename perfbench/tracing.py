"""Spans around riskforest's layer boundaries, recorded from outside the program.

The tracer wraps the functions one module calls in another, in the calling
module's namespace (``riskforest.cli.load_forest``, not
``riskforest.forest.load_forest``), so that the program's own code is not
edited. A span is a dict with ``id``, ``name``, ``start``, ``end``,
``parent`` and ``workload``; a few spans also carry ``counts``. Spans stay
in memory until the owner writes them out. Times come from
``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC, a clock that
all processes of the machine share, so spans from a verb process and from
the benchmark process can be compared.

A wrapped name that a later version of the program removed is recorded as
absent and skipped; the metrics that rest only on it are then left out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import time

# (calling module, attribute, span name). Each entry is a call that crosses
# from one layer of the program into another.
VERB_TARGETS = (
    ("riskforest.cli", "generate_synthetic", "data.generate"),
    ("riskforest.cli", "generate_two_group", "data.generate"),
    ("riskforest.cli", "write_csv", "data.write_csv"),
    ("riskforest.cli", "load_csv", "data.load_csv"),
    ("riskforest.cli", "load_unlabeled_csv", "data.load_csv"),
    ("riskforest.cli", "k_anonymity", "data.k_anonymity"),
    ("riskforest.cli", "train_forest", "forest.train"),
    ("riskforest.cli", "save_forest", "forest.save"),
    ("riskforest.cli", "load_forest", "forest.load"),
    ("riskforest.cli", "oob_predict", "forest.oob"),
    ("riskforest.cli", "predict_dataset", "forest.predict_dataset"),
    ("riskforest.cli", "confusion_from_predictions", "metrics.confusion"),
    ("riskforest.cli", "derive_metrics", "metrics.derive"),
    ("riskforest.cli", "ALL_CHECKS", "fairness.checks"),
    ("riskforest.cli", "impossibility_search", "fairness.impossibility"),
    ("riskforest.forest", "train_tree", "tree.train_tree"),
    ("riskforest.forest", "forest_votes", "forest.votes"),
    ("riskforest.forest", "tally_votes", "forest.tally"),
)

# Calls the benchmark itself makes for the single-row loop, plus the forest
# internals they reach.
ROW_TARGETS = (
    ("riskforest.forest", "predict_forest", "forest.predict_row"),
    ("riskforest.forest", "forest_votes", "forest.votes"),
    ("riskforest.forest", "tally_votes", "forest.tally"),
)


def tree_shape(root):
    """{"nodes", "depth"} of a linked tree, or None for any other shape."""
    if not hasattr(root, "left"):
        return None
    nodes = depth = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        for child in (node.left, node.right):
            if child is not None:
                stack.append((child, d + 1))
    return {"nodes": nodes, "depth": depth}


def _rows(result):
    table = result[0] if isinstance(result, tuple) else result
    return {"rows": len(table)}


def _pairs(result):
    pairs = getattr(result, "pairs_scanned", None)
    return None if pairs is None else {"pairs": int(pairs)}


# Counts taken from a wrapped call's result. They are computed in
# Tracer.finish, after the program's own work, so they add no time to spans.
COUNTERS = {
    "tree.train_tree": tree_shape,
    "data.load_csv": _rows,
    "fairness.impossibility": _pairs,
}


class Tracer:
    def __init__(self, workload: str, parent: str | None = None):
        self.workload = workload
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.wrapped: set[str] = set()
        self._stack = [parent]
        self._ids = itertools.count()
        self._prefix = f"{os.getpid()}."
        self._results: list[tuple[dict, object]] = []

    def open(self, name: str, start: float | None = None) -> dict:
        span = {"id": self._prefix + str(next(self._ids)), "name": name,
                "start": time.perf_counter() if start is None else start,
                "end": None, "parent": self._stack[-1],
                "workload": self.workload}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict, end: float | None = None) -> None:
        span["end"] = time.perf_counter() if end is None else end
        self._stack.pop()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                self._results.append((span, result))
            return result

        return traced

    def install(self, targets) -> list:
        """Patch each target; returns what ``restore`` needs to undo it."""
        undo = []
        for module_name, attr, name in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if isinstance(original, (tuple, list)):
                patched = type(original)(self.wrap(f, name) for f in original)
            else:
                patched = self.wrap(original, name)
            setattr(module, attr, patched)
            self.wrapped.add(name)
            undo.append((module, attr, original))
        return undo

    @staticmethod
    def restore(undo) -> None:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    def finish(self) -> None:
        """Fill in the counts of wrapped calls and drop the results."""
        for span, result in self._results:
            counts = COUNTERS[span["name"]](result)
            if counts is not None:
                span["counts"] = counts
        self._results.clear()


# -- analysis ------------------------------------------------------------


def self_time(span: dict, children: list[dict]) -> float:
    """The span's duration minus the part of it its children cover."""
    covered = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        start = max(child["start"], reach)
        end = min(child["end"], span["end"])
        if end > start:
            covered += end - start
            reach = end
    return (span["end"] - span["start"]) - covered


# metric -> the span it rests on; left out when that span was never wrapped.
METRIC_SOURCES = {
    "tree.train_tree_s": "tree.train_tree",
    "tree.train_tree_calls": "tree.train_tree",
    "tree.nodes_mean": "tree.train_tree",
    "tree.depth_max": "tree.train_tree",
    "forest.train_self_s": "forest.train",
    "forest.oob_s": "forest.oob",
    "forest.save_s": "forest.save",
    "forest.load_s": "forest.load",
    "forest.votes_s": "forest.votes",
    "forest.tally_s": "forest.tally",
    "forest.predict_row_s": "forest.predict_row",
    "data.load_csv_s": "data.load_csv",
    "data.load_csv_rows_per_s": "data.load_csv",
    "data.write_csv_s": "data.write_csv",
    "data.generate_s": "data.generate",
    "data.k_anonymity_s": "data.k_anonymity",
    "metrics.confusion_s": "metrics.confusion",
    "metrics.derive_s": "metrics.derive",
    "fairness.checks_s": "fairness.checks",
    "fairness.impossibility_s": "fairness.impossibility",
    "fairness.pairs_scanned": "fairness.impossibility",
    "cli.startup_s": "cli.startup",
    "cli.self_s": "cli.main",
}


def layer_metrics(spans: list[dict], wrapped: set[str]) -> dict[str, float]:
    """Per-layer figures for one traced pass.

    ``wrapped`` holds the span names that had at least one wrapper
    installed. Times are totals over the pass unless named otherwise:
    ``forest.predict_row_s`` and ``cli.startup_s`` are medians per call.
    """
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def median_duration(name):
        spans_ = of(name)
        return statistics.median(s["end"] - s["start"] for s in spans_) if spans_ else 0.0

    def self_total(name):
        return sum(self_time(s, children.get(s["id"], [])) for s in of(name))

    def counts(name, key):
        return [s["counts"][key] for s in of(name) if key in s.get("counts", {})]

    nodes = counts("tree.train_tree", "nodes")
    depths = counts("tree.train_tree", "depth")
    rows = sum(counts("data.load_csv", "rows"))
    load_s = total("data.load_csv")
    values = {
        "tree.train_tree_s": total("tree.train_tree"),
        "tree.train_tree_calls": len(of("tree.train_tree")),
        "tree.nodes_mean": statistics.fmean(nodes) if nodes else None,
        "tree.depth_max": max(depths) if depths else None,
        "forest.train_self_s": self_total("forest.train"),
        "forest.oob_s": total("forest.oob"),
        "forest.save_s": total("forest.save"),
        "forest.load_s": total("forest.load"),
        "forest.votes_s": total("forest.votes"),
        "forest.tally_s": total("forest.tally"),
        "forest.predict_row_s": median_duration("forest.predict_row"),
        "data.load_csv_s": load_s,
        "data.load_csv_rows_per_s": rows / load_s if load_s > 0 else None,
        "data.write_csv_s": total("data.write_csv"),
        "data.generate_s": total("data.generate"),
        "data.k_anonymity_s": total("data.k_anonymity"),
        "metrics.confusion_s": total("metrics.confusion"),
        "metrics.derive_s": total("metrics.derive"),
        "fairness.checks_s": total("fairness.checks"),
        "fairness.impossibility_s": total("fairness.impossibility"),
        "fairness.pairs_scanned": sum(counts("fairness.impossibility", "pairs")),
        "cli.startup_s": median_duration("cli.startup"),
        "cli.self_s": self_total("cli.main"),
    }
    return {metric: value for metric, value in values.items()
            if value is not None
            and METRIC_SOURCES[metric] in wrapped}
