"""Bootstrap-aggregated tree ensembles with plurality voting.

Every tree trains on a with-replacement bootstrap whose generator is
derived from (master_seed, tree index) through a splittable seed
sequence, so the trained forest is a pure function of the data and the
config. The per-tree bootstrap membership is therefore never stored: it
is drawn again from the seed when out-of-bag predictions need to know
which trees never saw a row.

All trees live in one flat node table (``tree.NodeTable``), and one
kernel, ``forest_tally``, counts every vote: it gathers runs of
consecutive trees, a few thousand nodes each, and adds each run's votes
into one (rows, labels) tally. Out-of-bag voting runs each tree alone,
over the rows its bootstrap left out.

Since no tree depends on another, a large forest's trees grow in forked
worker processes, one per available CPU; the forest is the same for any
number of workers.

Vote ties: an individual tree breaks its leaf-distribution ties toward
the lower-risk label; the forest breaks vote ties toward the higher-risk
label (labels are ordered highest risk first).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
from dataclasses import dataclass, fields, replace

import numpy as np

from .data.dataset import Dataset, check_setting, split_holdout
from .data.schema import FeatureSchema
from .errors import CalibrationError, DataError, FingerprintMismatchError
from .tree import (BLOCK_PAIRS, NodeTable, check_class_weights,
                   default_feature_subset_size, read_trees, train_tree,
                   write_trees)

FOREST_FORMAT_LINE = "riskforest-forest v4"

#: High-risk weight multipliers swept by calibrate_cost_ratio.
COST_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)

#: Bootstrap draws (trees times bootstrap size) each tree worker must get.
#: A forked worker costs a fork, and copy-on-write page faults in both
#: processes while they run side by side; smaller forests grow in fewer
#: workers, down to this process alone.
WORKER_MIN_DRAWS = 1 << 13


#: The least value of each integer setting, a ForestConfig or Forest field.
_LEAST = {"n_trees": 1, "feature_subset_size": 1, "min_leaf": 1,
          "max_depth": 1, "master_seed": 0, "bootstrap_size": 1, "n_train": 1}


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 509
    class_weights: tuple[float, ...] | None = None  # uniform when None
    feature_subset_size: int | None = None  # ceil(sqrt(d)) when None
    min_leaf: int = 5
    max_depth: int = 16
    master_seed: int = 0
    bootstrap_size: int | None = None  # training-set size when None

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None and field.default is None:
                continue  # resolved() fills it in from the data
            object.__setattr__(self, field.name, (
                check_class_weights(value) if field.name == "class_weights"
                else check_setting(field.name, value, _LEAST[field.name])))

    def resolved(self, data: Dataset) -> "ForestConfig":
        """Fill data-dependent defaults so the config is fully explicit."""
        return replace(
            self,
            class_weights=((1.0,) * data.schema.n_labels
                           if self.class_weights is None else self.class_weights),
            feature_subset_size=(
                default_feature_subset_size(data.schema.n_features)
                if self.feature_subset_size is None else self.feature_subset_size),
            bootstrap_size=(len(data) if self.bootstrap_size is None
                            else self.bootstrap_size),
        )


@dataclass(frozen=True, eq=False, kw_only=True)
class Forest:
    """A trained forest: its config, its trees in one flat node table, and
    what it needs to refuse data it was not made for.

    ``schema`` is the schema it was trained on, whose fingerprint, labels
    and feature count are the forest's and whose kind rules a scored row
    must keep. ``n_train`` is the size of the training set, from which
    ``oob_predict`` draws the in-bag rows again, and ``data_digest``
    identifies its training rows.
    """

    config: ForestConfig
    schema: FeatureSchema
    table: NodeTable
    n_train: int
    data_digest: str

    @property
    def fingerprint(self) -> str:
        return self.schema.fingerprint()

    @property
    def labels(self) -> tuple[str, ...]:
        return self.schema.label_set

    @property
    def n_features(self) -> int:
        return self.schema.n_features

    @property
    def n_labels(self) -> int:
        return self.schema.n_labels


def _tree_streams(master_seed: int, index: int):
    """The (bootstrap, tree) seed sequences of tree ``index``."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)).spawn(2)


def derive_tree_seed(master_seed: int, index: int) -> int:
    """The integer seed tree ``index`` trains with. Exposed for tests."""
    _, tree_ss = _tree_streams(master_seed, index)
    return int(tree_ss.generate_state(1, dtype=np.uint64)[0])


def bootstrap_rows(cfg: ForestConfig, index: int, n: int) -> np.ndarray:
    """Sorted in-bag row multiset of tree ``index`` for ``n`` training rows."""
    boot_ss, _ = _tree_streams(cfg.master_seed, index)
    draws = np.random.default_rng(boot_ss).integers(0, n, size=cfg.bootstrap_size)
    return np.sort(draws)  # canonical multiset representation


def data_digest(data: Dataset) -> str:
    """16 hex digits identifying a dataset's rows and labels."""
    h = hashlib.sha256(f"{data.X.shape}".encode())
    h.update(np.ascontiguousarray(data.X, dtype="<f8"))
    h.update(np.ascontiguousarray(data.y, dtype="<i8"))
    return h.hexdigest()[:16]


def tree_workers(n_trees: int, bootstrap_size: int) -> int:
    """Processes that grow a forest's trees: one per CPU this process may
    run on, at most one per tree and one per WORKER_MIN_DRAWS bootstrap
    draws, at least 1. Always 1 where the system cannot fork.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_trees,
                      n_trees * bootstrap_size // WORKER_MIN_DRAWS))


def train_forest(data: Dataset, config: ForestConfig) -> Forest:
    """Train config.n_trees trees on per-tree bootstraps of ``data``.

    Each tree is one ``train_tree`` call, and the trees' one-tree tables
    are joined in index order into the forest's table. With W tree
    workers, worker w grows trees w, w + W, ...; worker 0 is this process
    and the others are forked children that send their tables back.
    """
    if len(data) == 0:
        raise DataError("cannot train on an empty dataset")
    cfg = config.resolved(data)
    n = len(data)

    def grow(share):
        return [train_tree(data, cfg.class_weights, cfg.feature_subset_size,
                           cfg.min_leaf, cfg.max_depth,
                           seed=derive_tree_seed(cfg.master_seed, i),
                           row_indices=bootstrap_rows(cfg, i, n)).table
                for i in share]

    W = tree_workers(cfg.n_trees, cfg.bootstrap_size)
    tables = [None] * cfg.n_trees
    workers = []  # (worker, pid, read end of its pipe), not yet reaped
    try:
        for w in range(1, W):
            workers.append((w, *_fork_worker(grow, range(w, cfg.n_trees, W))))
        tables[0::W] = grow(range(0, cfg.n_trees, W))
        while workers:
            w, pid, pipe = workers.pop(0)
            tables[w::W] = _worker_result(w, pid, pipe)
    finally:
        for _, pid, pipe in workers:  # left only when something raised
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return Forest(config=cfg, schema=data.schema,
                  table=NodeTable.concatenate(tables), n_train=n,
                  data_digest=data_digest(data))


def _fork_worker(grow, share):
    """Fork a child that sends back ``grow(share)``, or the exception it
    raised, pickled through a pipe; returns (pid, read end of the pipe).

    The child always ends in ``os._exit``: it never returns into the
    caller's code, so it runs none of the caller's ``finally`` blocks,
    ``atexit`` hooks or stdio flushes.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, grow(share)))
            except BaseException as exc:  # raised again in the parent
                payload = pickle.dumps((False, exc))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _worker_result(w: int, pid: int, pipe) -> list:
    """The tables worker ``w`` sent, once it has ended; raises what it raised."""
    try:
        with pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:  # a worker that was cut off may have sent part
        raise OSError(f"tree worker {w} ended without a result"
                      f" (exit status {code})")
    ok, result = pickle.loads(payload)
    if not ok:
        raise result
    return result


# -- prediction ----------------------------------------------------------


#: Nodes in a stretch of the node table: a run of the scoring kernel takes
#: the consecutive trees whose first nodes share a stretch, so the nodes a
#: gather block reads stay in cache.
RUN_NODES = 1 << 13
#: (tree, row) pairs a run holds at most, which bounds the votes it holds.
RUN_PAIRS = 1 << 17


def _check_fingerprint(schema: FeatureSchema, fingerprint: str) -> None:
    if schema.fingerprint() != fingerprint:
        raise FingerprintMismatchError(f"schema {schema.fingerprint()} does not"
                                       f" match the model's {fingerprint}")


def forest_votes(forest: Forest, X: np.ndarray, roots=None) -> np.ndarray:
    """(len(roots), n_rows) vote label indices of the trees at ``roots``, by
    default every tree: one run's votes."""
    leaves = forest.table.leaves(X, roots)
    # Every leaf index is in range, so "clip" changes no vote; unlike the
    # default mode it writes into ``leaves`` without first buffering a
    # second (trees, rows) array.
    return np.take(forest.table.vote, leaves, out=leaves, mode="clip")


def tally_votes(votes: np.ndarray, n_labels: int, rows=slice(None),
                n_rows: int | None = None) -> np.ndarray:
    """(n_rows, K) vote counts from a (n_trees, m) vote matrix whose columns
    vote on ``rows`` of ``n_rows`` rows; by default on all m rows of m.

    ``votes`` ends up holding each vote's (row, label) cell index, so no
    second (n_trees, m) array is made.
    """
    n_rows = votes.shape[1] if n_rows is None else n_rows
    votes += n_labels * np.arange(n_rows)[rows]
    return np.bincount(votes.ravel(), minlength=n_rows * n_labels
                       ).reshape(n_rows, n_labels)


def _runs(table: NodeTable, n_rows: int) -> list:
    """The (roots, rows) runs of every tree over all ``n_rows`` rows: one
    run if all (tree, row) pairs fit one BLOCK_PAIRS gather block, else the
    trees of each stretch, at most RUN_PAIRS pairs a run."""
    roots = table.roots
    if len(roots) * n_rows <= BLOCK_PAIRS:
        return [(roots, slice(None))]
    stretch = np.arange(len(roots)) // max(1, RUN_PAIRS // n_rows)
    cut = np.flatnonzero(np.diff(roots // RUN_NODES) | np.diff(stretch)) + 1
    return [(part, slice(None)) for part in np.split(roots, cut)]


def _oob_runs(forest: Forest):
    """Each tree's run over the training rows its bootstrap, drawn again
    from the seed, left out; none for a tree that left no row out."""
    for t, root in enumerate(forest.table.roots):
        out = np.ones(forest.n_train, dtype=bool)
        out[bootstrap_rows(forest.config, t, forest.n_train)] = False
        if out.any():  # leaves refuses an empty matrix
            yield [root], np.flatnonzero(out)


def forest_tally(forest: Forest, X: np.ndarray, runs=None) -> np.ndarray:
    """(n_rows, K) vote counts of the row matrix X, the one scoring kernel:
    in each (roots, rows) run, by default those of ``_runs``, the trees at
    ``roots`` vote on ``rows`` of X, and the counts add into one tally."""
    n, K = len(X), forest.n_labels
    tally = np.zeros((n, K), dtype=np.intp)
    for roots, rows in _runs(forest.table, n) if runs is None else runs:
        # One statement, so a run's votes are freed before the next gather.
        tally += tally_votes(forest_votes(forest, X[rows], roots), K, rows, n)
    return tally


def predict_forest(forest: Forest, row):
    """Plurality label and the per-label vote tally for one row, which
    ``FeatureSchema.check_rows`` refuses as it would a Dataset's row."""
    X = np.asarray(row, dtype=float).reshape(1, -1)
    forest.schema.check_rows(X)
    tally = forest_tally(forest, X)[0]
    label = forest.labels[int(np.argmax(tally))]  # argmax ties -> higher risk
    return label, {name: int(c) for name, c in zip(forest.labels, tally)}


def predict_dataset(forest: Forest, data: Dataset):
    """(label indices, vote tallies) for every row; checks the fingerprint."""
    _check_fingerprint(data.schema, forest.fingerprint)
    tally = forest_tally(forest, data.X)
    return np.argmax(tally, axis=1), tally


def oob_predict(forest: Forest, data: Dataset):
    """Out-of-bag labels per row, -1 where every tree saw the row.

    Returns (labels, n_oob_trees) where n_oob_trees[i] counts the trees
    voting on row i. Raises FingerprintMismatchError unless ``data`` holds
    the rows the forest was trained on.
    """
    _check_fingerprint(data.schema, forest.fingerprint)
    if data_digest(data) != forest.data_digest:
        raise FingerprintMismatchError(
            "out-of-bag figures need the training data; this dataset's digest"
            f" {data_digest(data)} is not the model's {forest.data_digest}")
    if len(data) != forest.n_train:
        raise FingerprintMismatchError(
            f"dataset has {len(data)} rows, the model's training set"
            f" {forest.n_train}")
    tally = forest_tally(forest, data.X, _oob_runs(forest))
    oob_counts = tally.sum(axis=1)
    labels = np.argmax(tally, axis=1)
    labels[oob_counts == 0] = -1
    return labels, oob_counts


# -- cost-ratio calibration ----------------------------------------------


def count_policy_errors(pred: np.ndarray, actual: np.ndarray, n_labels: int):
    """(dangerous, cautious) counts under the custody error policy.

    Dangerous: a highest-risk row forecast anything lower. Cautious: a
    lowest-risk row forecast anything higher. Label index 0 is the
    highest risk, index K-1 the lowest.
    """
    high, low = 0, n_labels - 1
    dangerous = int(np.sum((actual == high) & (pred != high)))
    cautious = int(np.sum((actual == low) & (pred != low)))
    return dangerous, cautious


@dataclass(frozen=True)
class SweepPoint:
    multiplier: float
    class_weights: tuple[float, ...]
    dangerous: int
    cautious: int

    @property
    def ratio(self) -> float | None:
        return self.cautious / self.dangerous if self.dangerous > 0 else None


@dataclass(frozen=True)
class CalibrationResult:
    weights: tuple[float, ...]
    realized_ratio: float
    sweep: tuple[SweepPoint, ...]
    target_ratio: float


def calibrate_cost_ratio(data: Dataset, config: ForestConfig,
                         target_ratio: float) -> CalibrationResult:
    """Sweep high-risk weight multipliers toward a cautious:dangerous target.

    Each COST_GRID point trains on one half of ``data`` (split seeded from the
    config's master seed) and counts policy errors on the other half. The
    returned weights realize the ratio nearest ``target_ratio``. Raises
    CalibrationError, carrying the sweep, when no grid point produces
    both error types.
    """
    if not 0 < target_ratio < np.inf:  # also false for NaN
        raise DataError(f"target_ratio must be a finite number > 0,"
                        f" got {target_ratio!r}")
    cfg = config.resolved(data)
    train_part, eval_part = split_holdout(data, 0.5, cfg.master_seed)
    points = []
    for mult in COST_GRID:
        weights = list(cfg.class_weights)
        weights[0] *= mult
        forest = train_forest(train_part,
                              replace(cfg, class_weights=tuple(weights)))
        pred, _ = predict_dataset(forest, eval_part)
        dangerous, cautious = count_policy_errors(pred, eval_part.y,
                                                  data.schema.n_labels)
        points.append(SweepPoint(multiplier=mult, class_weights=tuple(weights),
                                 dangerous=dangerous, cautious=cautious))
    usable = [p for p in points if p.dangerous > 0 and p.cautious > 0]
    if not usable:
        raise CalibrationError(
            "no grid point produced both dangerous and cautious errors; sweep: "
            + "; ".join(f"x{p.multiplier}: d={p.dangerous}, c={p.cautious}"
                        for p in points),
            sweep=points,
        )
    best = min(usable, key=lambda p: (abs(p.ratio - target_ratio), p.multiplier))
    return CalibrationResult(weights=best.class_weights,
                             realized_ratio=best.ratio,
                             sweep=tuple(points), target_ratio=target_ratio)


# -- save/load -----------------------------------------------------------


def save_forest(forest: Forest, path) -> None:
    """Write the forest as a deterministic text document: the header lines of
    ``_HEADER`` in its order, then the trees.

    In-bag lists are not written: load_forest draws them again from the
    seed, ``n_train`` and ``bootstrap_size``.
    """
    lines = [FOREST_FORMAT_LINE]
    for key in _HEADER:
        value = getattr(forest.config if key in _CONFIG_KEYS else forest, key)
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        lines.append(f"{key} {value}")
    lines += write_trees(forest.table)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _hex16(text: str) -> str:
    if len(text) != 16 or text.strip("0123456789abcdef"):
        raise ValueError(text)
    return text


def _integer_reader(key: str):
    """The header reader of integer setting ``key``; any fault is a ValueError."""
    def read(text: str) -> int:
        try:
            return check_setting(key, int(text), _LEAST[key])
        except DataError:
            raise ValueError(text) from None
    return read


# The header lines of a forest document, in the order save_forest writes
# them, each with the function that reads and checks its value. A key names
# a ForestConfig field or else a Forest attribute. A reader raises
# ValueError for a malformed value, or DataError with its own message. The
# labels and feature count are the schema's, which the fingerprint names.
_HEADER = {
    "fingerprint": _hex16,
    "n_trees": _integer_reader("n_trees"),
    "class_weights": lambda text: check_class_weights(text.split(",")),
    "feature_subset_size": _integer_reader("feature_subset_size"),
    "min_leaf": _integer_reader("min_leaf"),
    "max_depth": _integer_reader("max_depth"),
    "master_seed": _integer_reader("master_seed"),
    "bootstrap_size": _integer_reader("bootstrap_size"),
    "n_train": _integer_reader("n_train"),
    "data_digest": _hex16,
}
_CONFIG_KEYS = tuple(f.name for f in fields(ForestConfig))


def load_forest(path, schema: FeatureSchema) -> Forest:
    """Read a forest document into a node table; any malformed input raises
    DataError with its line number. The model must have been trained on
    ``schema``: a fingerprint that is not the schema's raises
    FingerprintMismatchError before any tree is read, and the trees'
    labels, split features and category codes are checked against it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None

    def fail(lineno: int, message: str):
        return DataError(f"{path}, line {lineno}: {message}")

    if not lines or lines[0] != FOREST_FORMAT_LINE:
        if lines and lines[0].startswith("riskforest-forest "):
            raise fail(1, f"{lines[0]!r} cannot be read: this version reads"
                          f" {FOREST_FORMAT_LINE!r} only; retrain the model")
        raise fail(1, f"not a forest document (expected {FOREST_FORMAT_LINE!r})")
    values = {}  # each header key's value, in line order from line 2
    pos = 1
    while pos < len(lines) and not lines[pos].startswith("tree "):
        key, _, text = lines[pos].partition(" ")
        if key not in _HEADER or key in values:
            raise fail(pos + 1, f"unexpected header line {lines[pos]!r}")
        try:
            values[key] = _HEADER[key](text)
        except DataError as exc:
            raise fail(pos + 1, str(exc)) from None
        except ValueError:
            raise fail(pos + 1, f"bad {key} {text!r}") from None
        pos += 1
    missing = [key for key in _HEADER if key not in values]
    if missing:
        raise fail(pos + 1, "forest header missing " + ", ".join(missing))
    _check_fingerprint(schema, values["fingerprint"])
    cfg = ForestConfig(**{key: values[key] for key in _CONFIG_KEYS})
    if len(cfg.class_weights) != schema.n_labels:
        raise fail(2 + list(values).index("class_weights"),
                   f"{len(cfg.class_weights)} class weights for {schema.n_labels} labels")
    try:
        table = read_trees(lines, pos, schema.n_labels,
                           [len(spec.categories) for spec in schema.specs])
    except DataError as exc:
        raise fail(exc.row + 1, str(exc)) from None
    if table.n_trees != cfg.n_trees:  # read_trees ends at the last line
        raise fail(len(lines), f"{table.n_trees} trees, header says {cfg.n_trees}")
    return Forest(config=cfg, schema=schema, table=table,
                  n_train=values["n_train"], data_digest=values["data_digest"])
