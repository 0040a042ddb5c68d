"""Bootstrap-aggregated tree ensembles with plurality voting.

Every tree trains on a with-replacement bootstrap whose generator is
derived from (master_seed, tree index) through a splittable seed
sequence, so the trained forest is a pure function of the data and the
config. The per-tree bootstrap membership is therefore never stored: it
is drawn again from the seed when out-of-bag predictions need to know
which trees never saw a row.

All trees live in one flat node table (``tree.NodeTable``); every
forest-level prediction is one level-by-level gather over it.

Vote ties: an individual tree breaks its leaf-distribution ties toward
the lower-risk label; the forest breaks vote ties toward the higher-risk
label (labels are ordered highest risk first).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data.dataset import Dataset, split_holdout
from .errors import CalibrationError, DataError, FingerprintMismatchError
from .tree import NodeTable, TableBuilder, default_feature_subset_size, train_tree

FOREST_FORMAT_LINE = "riskforest-forest v2"

#: High-risk weight multipliers swept by calibrate_cost_ratio.
COST_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 509
    class_weights: tuple[float, ...] | None = None  # uniform when None
    feature_subset_size: int | None = None  # ceil(sqrt(d)) when None
    min_leaf: int = 5
    max_depth: int = 16
    master_seed: int = 0
    bootstrap_size: int | None = None  # training-set size when None
    identity_bootstrap: bool = False  # test hook: in-bag = every row once

    def __post_init__(self):
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if self.bootstrap_size is not None and self.bootstrap_size < 1:
            raise DataError("bootstrap_size must be >= 1")
        if self.feature_subset_size is not None and self.feature_subset_size < 1:
            raise DataError("feature_subset_size must be >= 1")
        if self.class_weights is not None:
            cw = tuple(float(w) for w in self.class_weights)
            if not all(0 < w < math.inf for w in cw):
                raise DataError("class weights must be finite and positive")
            object.__setattr__(self, "class_weights", cw)

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
    size of its training set, from which ``inbag`` draws the in-bag lists
    again, and ``data_digest`` identifies its training rows.
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

    @cached_property
    def inbag(self) -> tuple[np.ndarray, ...]:
        return tuple(bootstrap_rows(self.config, i, self.n_train)
                     for i in range(self.config.n_trees))


def derive_tree_seed(master_seed: int, index: int) -> int:
    """The integer seed tree ``index`` trains with. Exposed for tests."""
    _, tree_ss = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(index,)).spawn(2)
    return int(tree_ss.generate_state(1, dtype=np.uint64)[0])


def bootstrap_rows(cfg: ForestConfig, index: int, n: int) -> np.ndarray:
    """Sorted in-bag row multiset of tree ``index`` for ``n`` training rows."""
    if cfg.identity_bootstrap:
        return np.arange(n, dtype=np.int64)
    boot_ss, _ = np.random.SeedSequence(
        entropy=cfg.master_seed, spawn_key=(index,)).spawn(2)
    draws = np.random.default_rng(boot_ss).integers(0, n, size=cfg.bootstrap_size)
    return np.sort(draws)  # canonical multiset representation


def data_digest(data: Dataset) -> str:
    """16 hex digits identifying a dataset's rows and labels."""
    h = hashlib.sha256(f"{data.X.shape}".encode())
    h.update(np.ascontiguousarray(data.X, dtype="<f8"))
    h.update(np.ascontiguousarray(data.y, dtype="<i8"))
    return h.hexdigest()[:16]


def train_forest(data: Dataset, config: ForestConfig) -> Forest:
    """Train config.n_trees trees on per-tree bootstraps of ``data``.

    Each tree is one ``train_tree`` call, and the trees' one-tree tables
    are joined in index order into the forest's table.
    """
    if len(data) == 0:
        raise DataError("cannot train on an empty dataset")
    cfg = config.resolved(data)
    n = len(data)
    trees = [train_tree(data, cfg.class_weights, cfg.feature_subset_size,
                        cfg.min_leaf, cfg.max_depth,
                        seed=derive_tree_seed(cfg.master_seed, i),
                        row_indices=bootstrap_rows(cfg, i, n))
             for i in range(cfg.n_trees)]
    return Forest(config=cfg,
                  table=NodeTable.concatenate([tree.table for tree in trees]),
                  fingerprint=data.schema.fingerprint(),
                  labels=data.schema.label_set,
                  n_features=data.schema.n_features, n_train=n,
                  data_digest=data_digest(data))


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
    return np.take(forest.table.vote, leaves, out=leaves)


def tally_votes(votes: np.ndarray, n_labels: int, keep=None) -> np.ndarray:
    """(n_rows, K) vote counts from a (n_trees, n_rows) vote matrix.

    With a boolean ``keep`` of the same shape, only the votes it marks count.
    """
    n_rows = votes.shape[1]
    cells = votes + n_labels * np.arange(n_rows)
    if keep is not None:
        cells = cells[keep]
    return np.bincount(cells.ravel(), minlength=n_rows * n_labels
                       ).reshape(n_rows, n_labels)


def predict_forest(forest: Forest, row):
    """Plurality label and the per-label vote tally for one row."""
    X = np.asarray(row, dtype=float).reshape(1, -1)
    if X.shape[1] != forest.n_features:
        raise DataError(f"row has {X.shape[1]} values, the model"
                        f" {forest.n_features} features")
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
    """
    _check_fingerprint(forest, data)
    n = len(data)
    if data_digest(data) != forest.data_digest:
        raise FingerprintMismatchError(
            "out-of-bag figures need the training data; this dataset's digest"
            f" {data_digest(data)} is not the model's {forest.data_digest}")
    inbag = forest.inbag
    if any(b.size and b.max() >= n for b in inbag):
        raise FingerprintMismatchError(
            "dataset is smaller than the training set this model recorded")
    votes = forest_votes(forest, data.X)
    oob = np.ones(votes.shape, dtype=bool)
    for t, rows in enumerate(inbag):
        oob[t, rows] = False
    tally = tally_votes(votes, forest.n_labels, keep=oob)
    oob_counts = oob.sum(axis=0)
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


def calibrate_cost_ratio(data: Dataset, config: ForestConfig, target_ratio: float,
                         grid=COST_GRID, eval_fraction: float = 0.5) -> CalibrationResult:
    """Sweep high-risk weight multipliers toward a cautious:dangerous target.

    Each grid point trains on one half of ``data`` (split seeded from the
    config's master seed) and counts policy errors on the other half. The
    returned weights realize the ratio nearest ``target_ratio``. Raises
    CalibrationError, carrying the sweep, when no grid point produces
    both error types.
    """
    if target_ratio <= 0:
        raise DataError("target_ratio must be positive")
    cfg = config.resolved(data)
    train_part, eval_part = split_holdout(data, eval_fraction, cfg.master_seed)
    points = []
    for mult in grid:
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


# Header keys of a forest document, in the order they are written.
_HEADER_KEYS = ("fingerprint", "labels", "n_features", "n_trees",
                "class_weights", "feature_subset_size", "min_leaf", "max_depth",
                "master_seed", "bootstrap_size", "identity_bootstrap",
                "n_train", "data_digest")


def save_forest(forest: Forest, path) -> None:
    """Write the forest as a deterministic text document.

    In-bag lists are not written: load_forest draws them again from the
    seed, ``n_train`` and ``bootstrap_size``.
    """
    cfg = forest.config
    values = {
        "fingerprint": forest.fingerprint,
        "labels": ",".join(forest.labels),
        "n_features": forest.n_features,
        "n_trees": cfg.n_trees,
        "class_weights": ",".join(repr(w) for w in cfg.class_weights),
        "feature_subset_size": cfg.feature_subset_size,
        "min_leaf": cfg.min_leaf,
        "max_depth": cfg.max_depth,
        "master_seed": cfg.master_seed,
        "bootstrap_size": cfg.bootstrap_size,
        "identity_bootstrap": int(cfg.identity_bootstrap),
        "n_train": forest.n_train,
        "data_digest": forest.data_digest,
    }
    lines = [FOREST_FORMAT_LINE] + [f"{key} {values[key]}" for key in _HEADER_KEYS]
    for t in range(cfg.n_trees):
        lines.append(f"tree {t}")
        lines += forest.table.subtree_lines(int(forest.table.roots[t]))
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _bit(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(text)
    return text == "1"


def _labels(text: str) -> tuple[str, ...]:
    labels = tuple(text.split(","))
    if len(labels) < 2 or "" in labels or len(set(labels)) != len(labels):
        raise ValueError(text)
    return labels


def _hex16(text: str) -> str:
    if len(text) != 16 or text.strip("0123456789abcdef"):
        raise ValueError(text)
    return text


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
                          f" {FOREST_FORMAT_LINE!r} only (v1 stored in-bag"
                          " lists; retrain the model to write v2)")
        raise fail(1, f"not a forest document (expected {FOREST_FORMAT_LINE!r})")
    header: dict[str, tuple[int, str]] = {}
    pos = 1
    while pos < len(lines) and not lines[pos].startswith("tree "):
        key, _, value = lines[pos].partition(" ")
        if key not in _HEADER_KEYS or key in header:
            raise fail(pos + 1, f"unexpected header line {lines[pos]!r}")
        header[key] = (pos + 1, value)
        pos += 1
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise fail(pos + 1, "forest header missing " + ", ".join(missing))

    def field(key, convert):
        lineno, value = header[key]
        try:
            return convert(value)
        except ValueError:
            raise fail(lineno, f"bad {key} {value!r}") from None

    labels = field("labels", _labels)
    fingerprint = field("fingerprint", _hex16)
    n_features = field("n_features", _positive_int)
    n_train = field("n_train", _positive_int)
    digest = field("data_digest", _hex16)
    try:
        cfg = ForestConfig(
            n_trees=field("n_trees", _positive_int),
            class_weights=field("class_weights",
                                lambda v: tuple(float(w) for w in v.split(","))),
            feature_subset_size=field("feature_subset_size", _positive_int),
            min_leaf=field("min_leaf", _positive_int),
            max_depth=field("max_depth", _positive_int),
            master_seed=field("master_seed", _natural),
            bootstrap_size=field("bootstrap_size", _positive_int),
            identity_bootstrap=field("identity_bootstrap", _bit),
        )
    except DataError as exc:
        raise fail(header["class_weights"][0], str(exc)) from None
    if len(cfg.class_weights) != len(labels):
        raise fail(header["class_weights"][0],
                   f"{len(cfg.class_weights)} class weights for"
                   f" {len(labels)} labels")
    n_categories = None
    if schema is not None:
        if schema.fingerprint() != fingerprint:
            raise FingerprintMismatchError(
                f"schema {schema.fingerprint()} does not match the saved"
                f" model's {fingerprint}")
        if schema.n_features != n_features:
            raise fail(header["n_features"][0],
                       f"model has {n_features} features, the schema"
                       f" {schema.n_features}")
        n_categories = [len(spec.categories) for spec in schema.specs]

    builder = TableBuilder(len(labels), n_features, n_categories)
    for pos in range(pos, len(lines)):
        line = lines[pos]
        try:
            if line == "end":
                table = builder.finish()
                break
            if line.startswith("tree "):
                expected = f"tree {len(builder.roots)}"
                if line != expected:
                    raise DataError(f"expected {expected!r}, got {line!r}")
                builder.start_tree()
            else:
                builder.add_line(line)
        except DataError as exc:
            raise fail(pos + 1, str(exc)) from None
    else:
        raise fail(len(lines), "forest document not terminated with 'end'")
    if pos != len(lines) - 1:
        raise fail(pos + 2, "content after 'end'")
    if table.n_trees != cfg.n_trees:
        raise fail(pos + 1, f"{table.n_trees} trees, header says {cfg.n_trees}")
    return Forest(config=cfg, fingerprint=fingerprint, labels=labels,
                  table=table, n_features=n_features, n_train=n_train,
                  data_digest=digest)
