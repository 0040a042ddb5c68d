"""Bootstrap-aggregated tree ensembles with plurality voting.

Every tree trains on a with-replacement bootstrap whose generator is
derived from (master_seed, tree index) through a splittable seed
sequence, so the trained forest is a pure function of the data and the
config. The per-tree bootstrap membership is therefore never stored: it
is drawn again from the seed when out-of-bag predictions need to know
which trees never saw a row.

All trees live in one flat node table (``tree.NodeTable``); every
forest-level prediction is one level-by-level gather over it.

Since no tree depends on another, a large forest's trees grow in forked
worker processes, one per available CPU; the forest is the same for any
number of workers.

Vote ties: an individual tree breaks its leaf-distribution ties toward
the lower-risk label; the forest breaks vote ties toward the higher-risk
label (labels are ordered highest risk first).
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import signal
from dataclasses import dataclass, fields, replace

import numpy as np

from .data.dataset import MAX_ROWS, Dataset, check_finite, split_holdout
from .errors import CalibrationError, DataError, FingerprintMismatchError
from .tree import (NodeTable, default_feature_subset_size, read_trees, train_tree,
                   write_trees)

FOREST_FORMAT_LINE = "riskforest-forest v3"

#: High-risk weight multipliers swept by calibrate_cost_ratio.
COST_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)

#: Bootstrap draws (trees times bootstrap size) each tree worker must get.
#: A forked worker costs a fork, and copy-on-write page faults in both
#: processes while they run side by side; smaller forests grow in fewer
#: workers, down to this process alone.
WORKER_MIN_DRAWS = 1 << 13

#: (tree, row) votes one pass of ``tally_votes`` counts together.
TALLY_BLOCK_PAIRS = 1 << 16


def _class_weights(weights) -> tuple[float, ...]:
    cw = tuple(float(w) for w in weights)
    if not all(0 < w < math.inf for w in cw):
        raise DataError("class weights must be finite and positive")
    return cw


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
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if self.bootstrap_size is not None:
            if self.bootstrap_size < 1:
                raise DataError("bootstrap_size must be >= 1")
            if self.bootstrap_size > MAX_ROWS:
                raise DataError(f"bootstrap_size {self.bootstrap_size} exceeds"
                                f" the largest array size {MAX_ROWS}")
        if self.feature_subset_size is not None and self.feature_subset_size < 1:
            raise DataError("feature_subset_size must be >= 1")
        if self.class_weights is not None:
            object.__setattr__(self, "class_weights",
                               _class_weights(self.class_weights))

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


class Forest:
    """A trained forest: its config, its trees in one flat node table, and
    what it needs to refuse data it was not made for.

    ``n_features`` is the row length the model scores, ``n_train`` the
    size of its training set, from which ``oob_predict`` draws the in-bag
    rows again, and ``data_digest`` identifies its training rows.
    """

    def __init__(self, config: ForestConfig, *, fingerprint: str, labels,
                 table: NodeTable, n_features: int, n_train: int,
                 data_digest: str):
        self.config = config
        self.fingerprint = fingerprint
        self.labels = tuple(labels)
        self.table = table
        self.n_features = n_features
        self.n_train = n_train
        self.data_digest = data_digest

    @property
    def n_labels(self) -> int:
        return len(self.labels)


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
    return Forest(config=cfg, table=NodeTable.concatenate(tables),
                  fingerprint=data.schema.fingerprint(),
                  labels=data.schema.label_set,
                  n_features=data.schema.n_features, n_train=n,
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


def _check_fingerprint(forest: Forest, data: Dataset) -> None:
    if data.schema.fingerprint() != forest.fingerprint:
        raise FingerprintMismatchError(
            f"dataset schema {data.schema.fingerprint()} does not match the"
            f" model's {forest.fingerprint}"
        )


def forest_votes(forest: Forest, X: np.ndarray) -> np.ndarray:
    """(n_trees, n_rows) matrix of per-tree vote label indices."""
    leaves = forest.table.leaves(X)
    # Every leaf index is in range, so "clip" changes no vote; unlike the
    # default mode it writes into ``leaves`` without first buffering a
    # second (n_trees, n_rows) array.
    return np.take(forest.table.vote, leaves, out=leaves, mode="clip")


def tally_votes(votes: np.ndarray, n_labels: int) -> np.ndarray:
    """(n_rows, K) vote counts from a (n_trees, n_rows) vote matrix.

    Rows are counted in blocks of at most TALLY_BLOCK_PAIRS votes, so no
    second (n_trees, n_rows) array is made.
    """
    step = max(1, TALLY_BLOCK_PAIRS // votes.shape[0])
    if votes.shape[1] <= step:
        return _tally_block(votes, n_labels)
    return np.concatenate([_tally_block(votes[:, r0:r0 + step], n_labels)
                           for r0 in range(0, votes.shape[1], step)])


def _tally_block(votes: np.ndarray, n_labels: int) -> np.ndarray:
    n_rows = votes.shape[1]
    cells = votes + n_labels * np.arange(n_rows)
    return np.bincount(cells.ravel(), minlength=n_rows * n_labels
                       ).reshape(n_rows, n_labels)


def predict_forest(forest: Forest, row):
    """Plurality label and the per-label vote tally for one row.

    A Dataset checks its rows; this checks the row's length and refuses a
    NaN or infinite value. The rules of a feature's kind (counts >= 0,
    category codes in range) need the schema, which a Forest does not hold.
    """
    X = np.asarray(row, dtype=float).reshape(1, -1)
    if X.shape[1] != forest.n_features:
        raise DataError(f"row has {X.shape[1]} values, the model"
                        f" {forest.n_features} features")
    check_finite(X)
    votes = forest_votes(forest, X)
    tally = tally_votes(votes, forest.n_labels)[0]
    label = forest.labels[int(np.argmax(tally))]  # argmax ties -> higher risk
    return label, {name: int(c) for name, c in zip(forest.labels, tally)}


def predict_dataset(forest: Forest, data: Dataset):
    """(label indices, vote tallies) for every row; checks the fingerprint."""
    _check_fingerprint(forest, data)
    votes = forest_votes(forest, data.X)
    tally = tally_votes(votes, forest.n_labels)
    return np.argmax(tally, axis=1), tally


def oob_predict(forest: Forest, data: Dataset):
    """Out-of-bag labels per row, -1 where every tree saw the row.

    Returns (labels, n_oob_trees) where n_oob_trees[i] counts the trees
    voting on row i. Raises FingerprintMismatchError unless ``data`` holds
    the rows the forest was trained on.

    In-bag votes, drawn again from the seed tree by tree, are overwritten
    with an extra label K; the tally of K + 1 labels drops its column.
    """
    _check_fingerprint(forest, data)
    if data_digest(data) != forest.data_digest:
        raise FingerprintMismatchError(
            "out-of-bag figures need the training data; this dataset's digest"
            f" {data_digest(data)} is not the model's {forest.data_digest}")
    if len(data) != forest.n_train:
        raise FingerprintMismatchError(
            f"dataset has {len(data)} rows, the model's training set"
            f" {forest.n_train}")
    votes = forest_votes(forest, data.X)
    K = forest.n_labels
    for t in range(forest.config.n_trees):
        votes[t, bootstrap_rows(forest.config, t, forest.n_train)] = K
    tally = tally_votes(votes, K + 1)[:, :K]
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
    if target_ratio <= 0:
        raise DataError("target_ratio must be positive")
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


def _positive_int(text: str, limit=math.inf) -> int:
    value = int(text)
    if not 1 <= value <= limit:
        raise ValueError(text)
    return value


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _labels(text: str) -> tuple[str, ...]:
    labels = tuple(text.split(","))
    if len(labels) < 2 or "" in labels or len(set(labels)) != len(labels):
        raise ValueError(text)
    return labels


def _hex16(text: str) -> str:
    if len(text) != 16 or text.strip("0123456789abcdef"):
        raise ValueError(text)
    return text


# The header lines of a forest document, in the order save_forest writes
# them, each with the function that reads and checks its value. A key names
# a ForestConfig field or else a Forest attribute. A reader raises
# ValueError for a malformed value, or DataError with its own message.
_HEADER = {
    "fingerprint": _hex16,
    "labels": _labels,
    "n_features": _positive_int,
    "n_trees": _positive_int,
    "class_weights": lambda text: _class_weights(text.split(",")),
    "feature_subset_size": _positive_int,
    "min_leaf": _positive_int,
    "max_depth": _positive_int,
    "master_seed": _natural,
    "bootstrap_size": lambda text: _positive_int(text, MAX_ROWS),
    "n_train": _positive_int,
    "data_digest": _hex16,
}
_CONFIG_KEYS = tuple(f.name for f in fields(ForestConfig))


def load_forest(path, schema=None) -> Forest:
    """Read a forest document into a node table; any malformed input raises
    DataError with its line number. When a schema is given, the model's
    fingerprint, feature count, split features and category codes are
    checked against it.
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
    values, at = {}, {}  # each header key's value and line number
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
        at[key] = pos + 1
        pos += 1
    missing = [key for key in _HEADER if key not in values]
    if missing:
        raise fail(pos + 1, "forest header missing " + ", ".join(missing))
    cfg = ForestConfig(**{key: values.pop(key) for key in _CONFIG_KEYS})
    n_labels, n_features = len(values["labels"]), values["n_features"]
    if len(cfg.class_weights) != n_labels:
        raise fail(at["class_weights"],
                   f"{len(cfg.class_weights)} class weights for {n_labels} labels")
    n_categories = None
    if schema is not None:
        if schema.fingerprint() != values["fingerprint"]:
            raise FingerprintMismatchError(
                f"schema {schema.fingerprint()} does not match the saved"
                f" model's {values['fingerprint']}")
        if schema.n_features != n_features:
            raise fail(at["n_features"],
                       f"model has {n_features} features, the schema"
                       f" {schema.n_features}")
        n_categories = [len(spec.categories) for spec in schema.specs]

    try:
        table = read_trees(lines, pos, n_labels, n_features, n_categories)
    except DataError as exc:
        raise fail(exc.row + 1, str(exc)) from None
    if table.n_trees != cfg.n_trees:  # read_trees ends at the last line
        raise fail(len(lines), f"{table.n_trees} trees, header says {cfg.n_trees}")
    return Forest(config=cfg, table=table, **values)
