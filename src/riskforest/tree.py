"""Greedy decision-tree induction with class-weighted Gini impurity.

Each internal node tests one feature: numeric-like kinds (numeric,
count, years-since) split on "value <= threshold", categorical and
binary kinds on "value in subset". Candidate thresholds are midpoints
between consecutive distinct sorted values. Categorical candidates are
exhaustive two-way partitions when at most 12 categories are present at
the node; beyond that, categories are ordered by their weight fraction
on the highest-risk class and prefixes of that ordering are scanned.

Class weighting alters the prior over outcomes: a class's weight
multiplies its rows inside both the impurity computation and the leaf
counts, which is how asymmetric error costs enter training without any
resampling.

Determinism contract: candidate splits whose scores agree within a
small tolerance count as tied, and ties resolve to the lowest feature
index, then the lowest threshold or the lexicographically smallest
pinned subset. Training is a pure function of (data view, parameters,
seed).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import ceil, inf, sqrt

import numpy as np

from .data.dataset import Dataset
from .data.schema import NUMERIC_KINDS
from .errors import DataError, SchemaError

#: Relative score tolerance below which two splits count as tied.
SCORE_TIE_REL = 1e-9

FORMAT_LINE = "riskforest-tree v1"


@dataclass(frozen=True)
class SplitRule:
    """One node test. Exactly one of threshold / subset is set."""

    feature_index: int
    threshold: float | None = None
    subset: frozenset[int] | None = None

    def __post_init__(self):
        if (self.threshold is None) == (self.subset is None):
            raise SchemaError("rule needs exactly one of threshold or subset")
        if self.subset is not None:
            object.__setattr__(self, "subset", frozenset(int(c) for c in self.subset))
            if not self.subset:
                raise SchemaError("subset rule must be nonempty")


class TreeNode:
    """Internal node (rule, left, right) or leaf (class_weights)."""

    __slots__ = ("rule", "left", "right", "class_weights")

    def __init__(self, rule=None, left=None, right=None, class_weights=None):
        self.rule = rule
        self.left = left
        self.right = right
        self.class_weights = class_weights
        if self.is_leaf:
            if class_weights is None or not np.sum(class_weights) > 0:
                raise SchemaError("leaf class_weights must sum to > 0")

    @property
    def is_leaf(self) -> bool:
        return self.rule is None


def default_feature_subset_size(n_features: int) -> int:
    return ceil(sqrt(n_features))


def train_tree(data: Dataset, class_weights, feature_subset_size: int | None = None,
               min_leaf: int = 5, max_depth: int = 16, seed: int = 0,
               row_indices=None) -> TreeNode:
    """Grow a tree on ``data`` (optionally restricted to a row-index multiset).

    ``row_indices`` may repeat indices, which is how bootstrap draws feed
    in: a repeated row simply counts multiple times. At every node
    ``feature_subset_size`` features are sampled without replacement from
    the seeded generator; recursion stops at ``max_depth``, on pure
    nodes, when no candidate improves impurity, or when a child would
    hold fewer than ``min_leaf`` rows.
    """
    X, y = data.X, data.y
    K = data.schema.n_labels
    cw = np.asarray(class_weights, dtype=float)
    if cw.shape != (K,):
        raise DataError(f"need {K} class weights, got {cw.shape}")
    if not (cw > 0).all():
        raise DataError("class weights must be positive")
    d = data.schema.n_features
    m = default_feature_subset_size(d) if feature_subset_size is None else feature_subset_size
    if not 1 <= m <= d:
        raise DataError(f"feature_subset_size {m} outside [1, {d}]")
    if min_leaf < 1 or max_depth < 1:
        raise DataError("min_leaf and max_depth must be >= 1")
    idx = (np.arange(len(data)) if row_indices is None
           else np.asarray(row_indices, dtype=np.int64))
    if idx.size == 0:
        raise DataError("cannot train on an empty row set")

    kinds = [spec.kind for spec in data.schema.specs]
    n_cats = [len(spec.categories) for spec in data.schema.specs]
    rng = np.random.default_rng(seed)
    return _grow(X, y, idx, 0, kinds, n_cats, K, cw, m, min_leaf, max_depth, rng)


def _grow(X, y, idx, depth, kinds, n_cats, K, cw, m, min_leaf, max_depth, rng):
    ynode = y[idx]
    counts = np.bincount(ynode, minlength=K).astype(float)
    wcounts = counts * cw
    leaf = TreeNode(class_weights=wcounts)
    if depth >= max_depth or idx.size < 2 * min_leaf:
        return leaf
    if np.count_nonzero(counts) <= 1:
        return leaf

    features = np.sort(rng.choice(len(kinds), size=m, replace=False))
    W = wcounts.sum()
    parent_score = float(wcounts @ wcounts) / W
    tol = SCORE_TIE_REL * W
    best = None  # (score, rule, left_mask_builder args)

    for j in features:
        v = X[idx, j]
        if kinds[j] in NUMERIC_KINDS:
            found = _best_numeric(v, ynode, K, cw, min_leaf)
        else:
            found = _best_subset(v, ynode, K, cw, min_leaf, n_cats[j])
        if found is None:
            continue
        score, rule_args = found
        if best is None or score > best[0] + tol:
            best = (score, int(j), rule_args)

    if best is None or best[0] <= parent_score + tol:
        return leaf

    _, j, rule_args = best
    if rule_args[0] == "threshold":
        rule = SplitRule(feature_index=j, threshold=rule_args[1])
        mask = X[idx, j] <= rule.threshold
    else:
        rule = SplitRule(feature_index=j, subset=rule_args[1])
        mask = np.isin(X[idx, j].astype(np.int64), rule_args[2])
    left = _grow(X, y, idx[mask], depth + 1, kinds, n_cats, K, cw, m,
                 min_leaf, max_depth, rng)
    right = _grow(X, y, idx[~mask], depth + 1, kinds, n_cats, K, cw, m,
                  min_leaf, max_depth, rng)
    return TreeNode(rule=rule, left=left, right=right)


def _best_numeric(v, ynode, K, cw, min_leaf):
    """Best threshold by the sum-of-squares score; None if no cut is legal.

    Maximizing sum_k wL_k^2/WL + sum_k wR_k^2/WR over cut points is
    equivalent to maximizing the weighted-Gini decrease.
    """
    order = np.argsort(v, kind="stable")
    sv = v[order]
    if sv[0] == sv[-1]:
        return None
    sy = ynode[order]
    n = sv.shape[0]
    M = np.zeros((n, K))
    M[np.arange(n), sy] = cw[sy]
    cums = np.cumsum(M, axis=0)
    tot = cums[-1]
    cut = np.flatnonzero(sv[:-1] < sv[1:])  # left side = rows [0..i]
    if min_leaf > 1:
        cut = cut[(cut + 1 >= min_leaf) & (n - cut - 1 >= min_leaf)]
    if cut.size == 0:
        return None
    L = cums[cut]
    R = tot - L
    score = (L * L).sum(axis=1) / L.sum(axis=1) + (R * R).sum(axis=1) / R.sum(axis=1)
    pos = _first_within_tol(score, SCORE_TIE_REL * tot.sum())
    i = int(cut[pos])
    threshold = (sv[i] + sv[i + 1]) / 2.0
    return float(score[pos]), ("threshold", threshold)


def _first_within_tol(score: np.ndarray, tol: float) -> int:
    """Earliest candidate within tolerance of the best score.

    Scan order is the tie-break order, so near-ties (float noise between
    algebraically equal splits) resolve to the earliest candidate.
    """
    return int(np.argmax(score > score.max() - tol))


# Cache of mask orderings that realize lexicographic subset tie-breaks.
_LEX_MASKS: dict[int, np.ndarray] = {}


def _lex_mask_order(c: int) -> np.ndarray:
    """Masks over categories 1..c-1 (category 0 pinned left), lex-sorted."""
    if c not in _LEX_MASKS:
        masks = np.arange(2 ** (c - 1) - 1)  # all-ones mask excluded: improper
        keys = [tuple(b for b in range(c - 1) if mask >> b & 1) for mask in masks]
        _LEX_MASKS[c] = masks[sorted(range(masks.size), key=keys.__getitem__)]
    return _LEX_MASKS[c]


def _best_subset(v, ynode, K, cw, min_leaf, n_categories):
    vi = v.astype(np.int64)
    wrow = cw[ynode]
    wmat = np.bincount(ynode * n_categories + vi, weights=wrow,
                       minlength=K * n_categories).reshape(K, n_categories)
    raw = np.bincount(vi, minlength=n_categories)
    present = np.flatnonzero(raw > 0)
    c = present.size
    if c < 2:
        return None
    wp = wmat[:, present]  # K x c weighted counts
    rawp = raw[present].astype(np.int64)
    tot_w = wp.sum(axis=1)
    n = vi.shape[0]

    if c <= 12:
        masks = _lex_mask_order(c)
        bits = (masks[:, None] >> np.arange(c - 1)) & 1  # n_masks x (c-1)
        L = bits @ wp[:, 1:].T + wp[:, 0]  # n_masks x K
        rawL = bits @ rawp[1:] + rawp[0]
        subsets_iter = ("mask", masks, bits)
    else:
        # heuristic: order by highest-risk-class weight fraction, scan prefixes
        frac = wp[0] / wp.sum(axis=0)
        order = np.lexsort((present, -frac))  # desc fraction, asc index on ties
        cum_w = np.cumsum(wp[:, order], axis=1)[:, :-1]  # prefixes 1..c-1
        L = cum_w.T
        rawL = np.cumsum(rawp[order])[:-1]
        subsets_iter = ("prefix", order, None)

    R = tot_w - L
    rawR = n - rawL
    ok = (rawL >= min_leaf) & (rawR >= min_leaf)
    if not ok.any():
        return None
    WL = L.sum(axis=1)
    WR = R.sum(axis=1)
    score = np.where(ok, (L * L).sum(axis=1) / WL + (R * R).sum(axis=1) / WR,
                     -np.inf)
    pos = _first_within_tol(score, SCORE_TIE_REL * tot_w.sum())
    kind, a, b = subsets_iter
    if kind == "mask":
        chosen = [present[0]] + [int(present[1 + bpos])
                                 for bpos in range(c - 1) if a[pos] >> bpos & 1]
    else:
        chosen = [int(present[k]) for k in a[: pos + 1]]
    members = np.array(sorted(chosen), dtype=np.int64)
    return float(score[pos]), ("subset", frozenset(int(x) for x in members), members)


# -- flat node table ----------------------------------------------------

#: (tree, row) pairs one pass of the level-wise gather advances together.
#: It bounds the gather's temporary arrays whatever the batch or forest size.
BLOCK_PAIRS = 1 << 12

#: Largest category code a subset split may hold when no schema says more.
MAX_CATEGORY_CODE = (1 << 20) - 1


class NodeTable:
    """Every node of one or more trees in flat arrays, each tree in pre-order.

    Node i splits on ``feature[i]`` and has children ``left[i]`` and
    ``right[i]``. A numeric split sends a row left when
    ``row[feature] <= threshold[i]``. A subset split sends it left when the
    value, truncated like ``int()``, is a member: with ``s = start[i]`` and
    ``w = width[i]`` (one past the largest member), ``members[s:s + w]``
    flags categories 0..w-1, and the flags just before and just after them
    are False, so any code clipped to [-1, w] reads a flag. A numeric split
    has start 0 and width 0 and reads one of those False flags; a subset
    split has a NaN threshold. A leaf has both of these, and points to
    itself on both sides, so extra levels leave it in place.

    ``weights[i]`` holds a leaf's class weights (zeros at splits) and
    ``vote[i]`` its vote: the argmax of the normalised weights, ties broken
    toward the lower-risk label (the higher label index). ``roots[t]`` is
    tree t's first node and ``depth`` the deepest leaf over all trees.
    """

    def __init__(self, feature, start, width, left, right, threshold,
                 members, weights, roots, depth):
        self.feature = feature
        self.start = start
        self.width = width
        self.left = left
        self.right = right
        self.threshold = threshold
        self.members = members
        self.weights = weights
        self.roots = roots
        self.depth = depth
        self.is_leaf = self.left == np.arange(len(self.left))
        splits = self.feature[~self.is_leaf]
        self.n_columns = int(splits.max()) + 1 if splits.size else 0
        leaf_w = weights[self.is_leaf]
        dist = leaf_w / leaf_w.sum(axis=1, keepdims=True)
        K = weights.shape[1]
        self.vote = np.zeros(len(self.left), dtype=np.intp)
        self.vote[self.is_leaf] = K - 1 - np.argmax(dist[:, ::-1], axis=1)

    @classmethod
    def from_trees(cls, trees, n_labels=None) -> "NodeTable":
        builder = TableBuilder(n_labels)
        for tree in trees:
            builder.start_tree()
            stack = [tree]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    builder.leaf(node.class_weights)
                    continue
                r = node.rule
                builder.split(r.feature_index, r.threshold,
                              None if r.subset is None else sorted(r.subset))
                stack.append(node.right)
                stack.append(node.left)
        return builder.finish()

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def _span(self, t: int) -> range:
        end = self.roots[t + 1] if t + 1 < len(self.roots) else len(self.left)
        return range(int(self.roots[t]), int(end))

    def subset(self, i: int) -> list[int]:
        start = self.start[i]
        return np.flatnonzero(self.members[start:start + self.width[i]]).tolist()

    def leaves(self, X) -> np.ndarray:
        """(n_trees, n_rows) index of the leaf each row reaches in each tree.

        All trees advance one level per step, over blocks of at most
        BLOCK_PAIRS (tree, row) pairs.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError("empty row matrix")
        n, d = X.shape
        if d < self.n_columns:
            raise DataError(f"rows have {d} values; the trees split on"
                            f" feature {self.n_columns - 1}")
        T = len(self.roots)
        out = np.empty((T, n), dtype=np.intp)
        step = max(1, BLOCK_PAIRS // T)
        # Values beyond the integer range cast to a negative code (read as
        # no category) and would warn at every level.
        with np.errstate(invalid="ignore"):
            for r0 in range(0, n, step):
                self._descend(X, r0, min(step, n - r0), out)
        return out

    def _descend(self, X, r0: int, b: int, out: np.ndarray) -> None:
        """Move rows r0..r0+b-1 from every root to their leaves in ``out``."""
        T, d = len(self.roots), X.shape[1]
        block = np.ascontiguousarray(X[r0:r0 + b]).ravel()
        offsets = np.tile(np.arange(0, b * d, d), T)
        nodes = np.repeat(self.roots, b)
        for _ in range(self.depth):
            v = block[offsets + self.feature[nodes]]
            go_left = v <= self.threshold[nodes]
            code = v.astype(np.intp)
            np.maximum(code, -1, out=code)
            np.minimum(code, self.width[nodes], out=code)
            code += self.start[nodes]
            go_left |= self.members[code]
            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
        out[:, r0:r0 + b] = nodes.reshape(T, b)

    def tree(self, t: int) -> TreeNode:
        """Tree t as linked nodes."""
        def build(i):
            if self.is_leaf[i]:
                return TreeNode(class_weights=self.weights[i].copy())
            f = int(self.feature[i])
            rule = (SplitRule(f, subset=frozenset(self.subset(i))) if self.width[i]
                    else SplitRule(f, threshold=float(self.threshold[i])))
            return TreeNode(rule=rule, left=build(self.left[i]),
                            right=build(self.right[i]))

        return build(int(self.roots[t]))

    def node_lines(self, t: int) -> list[str]:
        """Tree t's pre-order node lines, floats in repr round-trip form."""
        span = self._span(t)
        nodes = slice(span.start, span.stop)
        lines = []
        for i, f, width, left, thr, w in zip(
                span, self.feature[nodes].tolist(), self.width[nodes].tolist(),
                self.left[nodes].tolist(), self.threshold[nodes].tolist(),
                self.weights[nodes].tolist()):
            if left == i:
                lines.append("leaf " + ",".join(map(repr, w)))
            elif width:
                lines.append(f"split {f} in "
                             + ",".join(map(str, self.subset(i))))
            else:
                lines.append(f"split {f} <= {thr!r}")
        return lines


class TableBuilder:
    """Fills a NodeTable from nodes given in pre-order, tree after tree.

    It checks the structure as it goes (every split gets two subtrees, no
    node follows a finished tree) and, when told the label, feature and
    category counts, that every node fits them. Violations raise DataError.
    """

    def __init__(self, n_labels=None, n_features=None, n_categories=None):
        self.n_labels = n_labels
        self.n_features = n_features
        self.n_categories = n_categories
        # Typed buffers rather than lists: a list of Python numbers takes
        # four times the memory, next to a freshly trained forest.
        self.feature = array("q")
        self.start = array("q")
        self.width = array("q")
        self.left = array("q")
        self.right = array("q")
        self.threshold = array("d")
        self.members = bytearray(1)
        self.leaf_nodes = array("q")
        self.leaf_weights = array("d")
        self.roots: list[int] = []
        self.depth = 0
        self._open: list[tuple[int, int]] = []  # splits awaiting a right child
        self._next_depth: int | None = None  # None: no node may come next

    def start_tree(self) -> None:
        if self.roots and self._next_depth is not None:
            raise DataError(f"tree {len(self.roots) - 1} ends before its last leaf")
        self.roots.append(len(self.threshold))
        self._next_depth = 0

    def _place(self) -> tuple[int, int]:
        i = len(self.threshold)
        depth = self._next_depth
        if depth is None:
            raise DataError("node after the end of its tree")
        return i, depth

    def _append(self, feature, start, width, left, right) -> None:
        self.feature.append(feature)
        self.start.append(start)
        self.width.append(width)
        self.left.append(left)
        self.right.append(right)

    def split(self, feature: int, threshold=None, members=None) -> None:
        i, depth = self._place()
        if feature < 0 or (self.n_features is not None
                           and feature >= self.n_features):
            raise DataError(f"split feature {feature} outside the model's"
                            f" {self.n_features} features")
        if members is None:
            start = width = 0
        else:
            if not members:
                raise DataError("empty category subset")
            limit = (MAX_CATEGORY_CODE + 1 if self.n_categories is None
                     else self.n_categories[feature])
            bad = [c for c in members if not 0 <= c < limit]
            if bad:
                raise DataError(f"category {bad[0]} outside feature {feature}'s"
                                f" {limit} categories")
            start = len(self.members)
            width = max(members) + 1
            flags = bytearray(width + 1)
            for c in members:
                flags[c] = 1
            self.members += flags
            threshold = float("nan")
        self._append(feature, start, width, i + 1, -1)
        self.threshold.append(threshold)
        self._open.append((i, depth))
        self._next_depth = depth + 1

    def leaf(self, weights) -> None:
        i, depth = self._place()
        w = [float(v) for v in weights]
        K = self.n_labels = self.n_labels or len(w)
        if len(w) != K:
            raise DataError(f"leaf has {len(w)} class weights, expected {K}")
        if not 0 < sum(w) < inf:  # also false when any weight is not finite
            raise DataError("leaf class weights must be finite and sum to > 0")
        self._append(0, 0, 0, i, i)
        self.threshold.append(float("nan"))
        self.leaf_nodes.append(i)
        self.leaf_weights.extend(w)
        self.depth = max(self.depth, depth)
        if self._open:
            parent, parent_depth = self._open.pop()
            self.right[parent] = i + 1
            self._next_depth = parent_depth + 1
        else:
            self._next_depth = None

    def add_line(self, line: str) -> None:
        """One node line: ``leaf w,..``, ``split f <= t`` or ``split f in c,..``."""
        kind, _, rest = line.partition(" ")
        parsed = None
        try:
            if kind == "leaf":
                parsed = [float(t) for t in rest.split(",")]
            elif kind == "split":
                feat, op, arg = rest.split(" ")
                if op == "<=":
                    parsed = (int(feat), float(arg), None)
                elif op == "in":
                    parsed = (int(feat), None,
                              sorted({int(t) for t in arg.split(",")}))
        except ValueError:
            pass
        if parsed is None:
            raise DataError(f"malformed node line {line!r}")
        if kind == "leaf":
            self.leaf(parsed)
        else:
            self.split(*parsed)

    def finish(self) -> NodeTable:
        if not self.roots:
            raise DataError("no trees")
        if self._next_depth is not None:
            raise DataError(f"tree {len(self.roots) - 1} ends before its last leaf")

        def ints(buffer):
            return np.frombuffer(buffer, dtype=np.int64).astype(np.intp)

        weights = np.zeros((len(self.threshold), self.n_labels))
        weights[ints(self.leaf_nodes)] = np.frombuffer(
            self.leaf_weights).reshape(-1, self.n_labels)
        return NodeTable(
            feature=ints(self.feature), start=ints(self.start),
            width=ints(self.width), left=ints(self.left), right=ints(self.right),
            threshold=np.frombuffer(self.threshold).copy(),
            members=np.frombuffer(self.members, dtype=bool).copy(),
            weights=weights,
            roots=np.array(self.roots, dtype=np.intp),
            depth=self.depth,
        )


# -- prediction ----------------------------------------------------------


def tree_apply(tree: TreeNode, X: np.ndarray) -> np.ndarray:
    """Normalised class distribution of the leaf each row lands in; (n, K)."""
    table = NodeTable.from_trees((tree,))
    w = table.weights[table.leaves(X)[0]]
    return w / w.sum(axis=1, keepdims=True)


def predict_tree(tree: TreeNode, row) -> np.ndarray:
    """Normalised class distribution of the leaf this row lands in."""
    return tree_apply(tree, np.asarray(row, dtype=float).reshape(1, -1))[0]


def tree_votes(tree: TreeNode, X: np.ndarray) -> np.ndarray:
    """Per-row argmax labels with ties broken toward the lower-risk label."""
    table = NodeTable.from_trees((tree,))
    return table.vote[table.leaves(X)[0]]


# -- serialization ------------------------------------------------------


def serialize_tree(tree: TreeNode) -> str:
    """Pre-order node list, one node per line. Floats use repr round-trip."""
    lines = [FORMAT_LINE] + NodeTable.from_trees((tree,)).node_lines(0)
    return "\n".join(lines) + "\n"


def deserialize_tree(text: str) -> TreeNode:
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines or lines[0][1] != FORMAT_LINE:
        raise DataError(f"not a tree document (expected {FORMAT_LINE!r})")
    builder = TableBuilder()
    builder.start_tree()
    for lineno, line in lines[1:]:
        try:
            builder.add_line(line)
        except DataError as exc:
            raise DataError(f"tree document, line {lineno}: {exc}") from None
    try:
        return builder.finish().tree(0)
    except DataError as exc:
        raise DataError(f"tree document: {exc}") from None
