"""Greedy decision-tree induction with class-weighted Gini impurity.

Each internal node tests one feature: numeric-like kinds (numeric,
count, years-since) split on "value <= threshold", categorical and
binary kinds on "value in subset". Candidate thresholds are midpoints
between consecutive distinct values present at the node. Categorical
candidates are exhaustive two-way partitions when at most 12 categories
are present at the node; beyond that, categories are ordered by their
weight fraction on the highest-risk class and prefixes of that ordering
are scanned.

Class weighting alters the prior over outcomes: a class's weight
multiplies its rows inside both the impurity computation and the leaf
counts, which is how asymmetric error costs enter training without any
resampling.

A tree grows one depth level at a time, breadth first over columns
ranked once per dataset (``Dataset.ranks``), as in SLIQ (Mehta et al.,
EDBT 1996), while the candidates stay the exact ones of CART. A level
reduces every (row, sampled feature) pair of its splittable nodes to
cells, one per (node, feature, distinct value), holding raw class
counts. One cumulative sum over the cells scores every threshold and
every ordered prefix of the level, and the exhaustive subset search runs
batched by the number of categories present. No Python loop runs per
node or per (node, feature).

Each node's feature sample is a pure function of the tree seed and the
node's path: the root's key is splitmix64(seed), a child's is
splitmix64(3 * parent key + side), side 1 on the left and 2 on the
right, and the node takes the m features j with the smallest
splitmix64(key ^ splitmix64(j)), ties to the lower index. The order in
which nodes grow therefore cannot change a tree, and a tree grown to
depth k is the top k levels of the same tree grown deeper.

Determinism contract: within one feature, candidates whose scores agree
within SCORE_TIE_REL times the node's weight count as tied and the
earliest wins: the lowest threshold, the lexicographically smallest
subset with the first present category pinned left, or the shortest
prefix. Across the sampled features, in ascending index order, a feature
replaces the best so far only when it beats it by more than that
tolerance. Training is a pure function of (data view, parameters, seed).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import ceil, inf, sqrt
from typing import NamedTuple

import numpy as np

from .data.dataset import ColumnRanks, Dataset, check_setting
from .data.schema import NUMERIC_KINDS
from .errors import DataError, SchemaError

#: Relative score tolerance below which two splits count as tied.
SCORE_TIE_REL = 1e-9

#: Most categories present at a node for which every two-way partition is
#: scored; with more, prefixes of the risk-ordered categories are scanned.
MAX_EXHAUSTIVE_CATEGORIES = 12

#: (row, sampled feature) pairs one pass of the level search reduces
#: together. It bounds the search's temporary arrays; a node with more
#: pairs than this is a pass of its own.
LEVEL_BLOCK_PAIRS = 1 << 16

#: (segment, subset) scores one pass of the exhaustive subset search holds.
MASK_BLOCK = 1 << 12


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


class TreeNode(NamedTuple):
    """Read-only view of node ``index`` of a NodeTable and the subtree
    below it. ``rule``, ``left`` and ``right`` are None at a leaf, and
    ``class_weights`` is None at a split.
    """

    table: NodeTable
    index: int

    @property
    def is_leaf(self) -> bool:
        return bool(self.table.is_leaf[self.index])

    @property
    def rule(self) -> SplitRule | None:
        t, i = self.table, self.index
        if t.is_leaf[i]:
            return None
        f = int(t.feature[i])
        return (SplitRule(f, subset=frozenset(t.subset(i))) if t.width[i]
                else SplitRule(f, threshold=float(t.threshold[i])))

    @property
    def left(self) -> TreeNode | None:
        return self._child(self.table.left)

    @property
    def right(self) -> TreeNode | None:
        return self._child(self.table.right)

    def _child(self, side: np.ndarray) -> TreeNode | None:
        # A leaf points to itself on both sides.
        child = side.item(self.index)
        return None if child == self.index else TreeNode(self.table, child)

    @property
    def class_weights(self) -> np.ndarray | None:
        return self.table.weights[self.index].copy() if self.is_leaf else None


def default_feature_subset_size(n_features: int) -> int:
    return ceil(sqrt(n_features))


def check_class_weights(weights) -> tuple[float, ...]:
    """The class weights as floats, each finite and positive."""
    cw = tuple(float(w) for w in weights)
    if not all(0 < w < inf for w in cw):
        raise DataError("class weights must be finite and positive")
    return cw


def train_tree(data: Dataset, class_weights, feature_subset_size: int | None = None,
               min_leaf: int = 5, max_depth: int = 16, seed: int = 0,
               row_indices=None) -> TreeNode:
    """Grow a tree on ``data`` (optionally restricted to a row-index multiset)
    and return its root, a view of the tree's own one-tree NodeTable.

    ``row_indices`` may repeat indices, which is how bootstrap draws feed
    in: a repeated row simply counts multiple times. The tree grows one
    depth level at a time, searching all splittable nodes of a level
    together. Each node samples ``feature_subset_size`` features without
    replacement, keyed by ``seed`` and the node's path from the root, so
    a node's sample does not depend on any other node. Growth stops at
    ``max_depth``, on pure nodes, when no candidate improves impurity, or
    when a child would hold fewer than ``min_leaf`` rows.
    """
    K = data.schema.n_labels
    cw = np.asarray(class_weights, dtype=float)
    if cw.shape != (K,):
        raise DataError(f"need {K} class weights,"
                        f" got {cw.size if cw.ndim == 1 else cw.shape}")
    check_class_weights(cw)
    d = data.schema.n_features
    m = default_feature_subset_size(d) if feature_subset_size is None else feature_subset_size
    if not 1 <= m <= d:
        raise DataError(f"feature_subset_size {m} outside [1, {d}]")
    min_leaf = check_setting("min_leaf", min_leaf, 1)
    max_depth = check_setting("max_depth", max_depth, 1)
    idx = (np.arange(len(data)) if row_indices is None
           else np.asarray(row_indices, dtype=np.int64))
    if idx.size == 0:
        raise DataError("cannot train on an empty row set")
    # The split score sums squared weighted row counts; each must be finite.
    most = float(cw.max()) * idx.size
    if most * most == inf:
        raise DataError(f"class weights up to {float(cw.max())!r} overflow the"
                        f" split score on {idx.size} rows")

    subset_kind = np.array([spec.kind not in NUMERIC_KINDS
                            for spec in data.schema.specs])
    grower = _LevelGrower(data.ranks, data.y, subset_kind, cw, m, min_leaf)
    return TreeNode(grower.grow(idx, max_depth, seed), 0)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser of a uint64 array, in wrapping arithmetic."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _sample_features(keys: np.ndarray, feature_keys: np.ndarray, m: int) -> np.ndarray:
    """(len(keys), m) ascending indices of the features each node samples;
    ``feature_keys`` is splitmix64 of every feature index."""
    draws = _splitmix64(keys[:, None] ^ feature_keys)
    return np.sort(np.argsort(draws, axis=1, kind="stable")[:, :m], axis=1)


def _child_keys(keys: np.ndarray) -> np.ndarray:
    """Path keys of the children, left and right of each node in turn."""
    base = keys * np.uint64(3)
    return np.stack((_splitmix64(base + np.uint64(1)),
                     _splitmix64(base + np.uint64(2))), axis=1).ravel()


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + n) over the (s, n) pairs."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)


def _run_heads(group: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values of ``group`` starts."""
    new = np.ones(group.size, dtype=bool)
    np.not_equal(group[1:], group[:-1], out=new[1:])
    return np.flatnonzero(new)


def _first_near_best(score: np.ndarray, group: np.ndarray,
                     tol: np.ndarray) -> np.ndarray:
    """Per group, the earliest candidate within tol[group] of the group's
    best score; ``group`` is sorted. Groups whose scores are all -inf
    have none.
    """
    heads = _run_heads(group)
    top = np.maximum.reduceat(score, heads)
    ends = np.append(heads[1:], group.size)
    bar = np.repeat(top - tol[group[heads]], ends - heads)
    near = np.flatnonzero(score > bar)
    return near[_run_heads(group[near])]


def _best_feature(score: np.ndarray, tol: np.ndarray):
    """(best score, its column) of each row of a (nodes, m) score matrix.

    Columns are taken in order, and one replaces the best so far only
    when it beats it by more than the row's ``tol``. This is not "the
    first column within tol of the row's maximum": scores rising by less
    than tol at each step can end more than tol above the first.
    """
    best = np.full(score.shape[0], -np.inf)
    k_best = np.zeros(score.shape[0], dtype=np.int64)
    for k in range(score.shape[1]):
        better = score[:, k] > best + tol
        best = np.where(better, score[:, k], best)
        k_best = np.where(better, k, k_best)
    return best, k_best


# Cache of mask orderings that realize lexicographic subset tie-breaks.
_LEX_MASKS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _lex_masks(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks over categories 1..c-1 (category 0 pinned left), in the
    lexicographic order of their member lists, and their bits as a float
    (masks, c - 1) matrix. The all-ones mask is left out: it is improper.
    """
    if c not in _LEX_MASKS:
        n = c - 1
        # Depth-first order: a member list comes right before its
        # extensions, which come in order of the next member.
        order = np.zeros(1, dtype=np.int64)  # over bits >= b, from b = n down
        for b in range(n - 1, -1, -1):
            order = np.concatenate(([0], (1 << b) | order, order[1:]))
        masks = order[order != (1 << n) - 1]
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        _LEX_MASKS[c] = masks, bits
    return _LEX_MASKS[c]


class _LevelGrower:
    """Grows one tree level by level over a dataset's ranked columns."""

    def __init__(self, ranks: ColumnRanks, y, subset_kind, cw, m, min_leaf):
        self.ranks = ranks
        self.d = ranks.rank.shape[1]
        self.feature_keys = _splitmix64(np.arange(self.d, dtype=np.uint64))
        self.rank = ranks.rank.ravel()  # a view: the table is C-contiguous
        self.y = y
        self.subset_kind = subset_kind
        self.cw = cw
        self.K = cw.size
        self.m = m
        self.min_leaf = min_leaf

    def grow(self, rows: np.ndarray, max_depth: int, seed: int) -> NodeTable:
        """The tree grown from the row multiset ``rows``, as a one-tree table.

        A level's nodes hold consecutive runs of ``rows``; the children of
        its i-th split are nodes 2i and 2i + 1 of the next level.
        """
        K = self.K
        keys = _splitmix64(np.array([seed % (1 << 64)], dtype=np.uint64))
        sizes = np.array([rows.size])
        levels = []
        for depth in range(max_depth + 1):
            n_nodes = sizes.size
            node_of_row = np.repeat(np.arange(n_nodes), sizes)
            counts = np.bincount(node_of_row * K + self.y[rows],
                                 minlength=n_nodes * K).reshape(n_nodes, K)
            weights = counts * self.cw
            if depth == max_depth:
                levels.append((weights, None))
                break
            open_nodes = np.flatnonzero((sizes >= 2 * self.min_leaf)
                                        & (np.count_nonzero(counts, axis=1) > 1))
            starts = np.cumsum(sizes) - sizes
            found = self._search(rows, starts, sizes, open_nodes, counts,
                                 weights, keys)
            levels.append((weights, found[:5]))
            split, go_left = found[0], found[5]
            if split.size == 0:
                break
            order = np.zeros(n_nodes, dtype=np.int64)
            order[split] = np.arange(split.size)
            at = _ranges(starts[split], sizes[split])
            child = 2 * order[node_of_row[at]] + ~go_left
            rows = rows[at][np.argsort(child, kind="stable")]
            sizes = np.bincount(child, minlength=2 * split.size)
            keys = _child_keys(keys[split])
        return _pre_order_table(levels)

    def _search(self, rows, starts, sizes, nodes, counts, weights, keys):
        """(split, feature, threshold, codes, n_codes, go_left) for the level.

        ``split`` lists the nodes among ``nodes`` that split, on
        ``feature`` at ``threshold`` (NaN for subset splits) or into the
        subset of the next ``n_codes`` category codes of ``codes`` (0 for
        threshold splits); ``go_left`` routes their rows, node after node.
        """
        if nodes.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0), empty, empty, np.empty(0, dtype=bool)
        pairs = sizes[nodes] * self.m
        block = (np.cumsum(pairs) - pairs) // LEVEL_BLOCK_PAIRS
        bounds = np.append(_run_heads(block), block.size).tolist()
        parts = []
        for i, j in zip(bounds, bounds[1:]):
            b = nodes[i:j]
            split, *rest = self._search_block(
                rows[_ranges(starts[b], sizes[b])], sizes[b], counts[b],
                weights[b], keys[b])
            parts.append((b[split], *rest))
        if len(parts) == 1:
            return parts[0]
        return tuple(map(np.concatenate, zip(*parts)))

    def _scores(self, left, n_left, total, n):
        """Sum-of-squares score of each candidate from its raw left class
        counts and rows and its node's raw class counts and rows; -inf
        where a side holds fewer than min_leaf rows. Class counts are
        class-major: ``left[k]`` holds class k.

        Maximizing sum_k wL_k^2/WL + sum_k wR_k^2/WR over candidates is
        equivalent to maximizing the weighted-Gini decrease. The sums run
        over classes in order, one array operation per class.
        """
        wl = wr = sl = sr = 0.0
        for k in range(self.K):
            lk = left[k] * self.cw[k]
            rk = (total[k] - left[k]) * self.cw[k]
            wl, wr = wl + lk, wr + rk
            sl, sr = sl + lk * lk, sr + rk * rk
        ok = (n_left >= self.min_leaf) & (n - n_left >= self.min_leaf)
        return np.where(ok, sl / wl + sr / wr, -np.inf)

    def _cells(self, rows, node, feats):
        """(cell_seg, cell_rank, cnt, cell_n, pair_cell) of some nodes.

        ``rows`` are the nodes' rows, node after node, ``node[i]`` the
        node of row i and ``feats`` the (nodes, m) sampled features.
        Segment s is node s // m with feature ``feats.flat[s]``. Its cells
        are the distinct values the feature takes on the node's rows, in
        value order: cell i belongs to segment ``cell_seg[i]``, holds the
        ``cell_rank[i]``-th distinct value of the feature's column, and
        has raw class counts ``cnt[:, i]`` over ``cell_n[i]`` rows. Row i
        and its node's k-th feature fall in cell ``pair_cell[i, k]``.
        """
        K = self.K
        # Each (row, feature) pair falls in the bin of the row's value
        # rank; each segment's bins follow the previous segment's.
        n_bins = self.ranks.n_values[feats]
        bin0 = np.cumsum(n_bins).reshape(n_bins.shape) - n_bins
        key = bin0[node] + self.rank[rows[:, None] * self.d + feats[node]]
        y = self.y[rows][:, None]
        total_bins = int(n_bins.sum())
        if total_bins <= 2 * key.size:  # dense enough for one bincount
            cell_n = np.bincount(key.ravel(), minlength=total_bins)
            occupied = cell_n > 0
            cell_bin = np.flatnonzero(occupied)
            cnt = np.bincount((y * total_bins + key).ravel(),
                              minlength=K * total_bins
                              ).reshape(K, total_bins)[:, cell_bin]
            cell_n = cell_n[cell_bin]
            pair_cell = (np.cumsum(occupied) - 1)[key]
        else:
            cell_bin, pair_cell, cell_n = np.unique(key.ravel(), return_inverse=True,
                                                    return_counts=True)
            pair_cell = pair_cell.reshape(key.shape)
            cnt = np.bincount((y * cell_bin.size + pair_cell).ravel(),
                              minlength=K * cell_bin.size).reshape(K, -1)
        cell_seg = np.searchsorted(bin0.ravel(), cell_bin, side="right") - 1
        return cell_seg, cell_bin - bin0.flat[cell_seg], cnt, cell_n, pair_cell

    def _search_block(self, rows, sizes, counts, weights, keys):
        """_search over some of the level's splittable nodes, whose rows
        are ``rows``, node after node; ``split`` indexes these nodes.

        Segment s is node s // m and its (s % m)-th sampled feature. Each
        segment's cells are scanned in value order, except that subset
        segments with more than MAX_EXHAUSTIVE_CATEGORIES categories are
        scanned in risk order; a threshold or prefix candidate sends the
        cells up to one scan position left.
        """
        m, cw, ranks = self.m, self.cw, self.ranks
        n_nodes = sizes.size
        W = weights.sum(axis=1)
        tol = SCORE_TIE_REL * W
        feats = _sample_features(keys, self.feature_keys, m)
        seg_feat = feats.ravel()
        seg_node = np.repeat(np.arange(n_nodes), m)
        seg_n = sizes[seg_node]
        node = np.repeat(np.arange(n_nodes), sizes)
        cell_seg, cell_rank, cnt, cell_n, pair_cell = self._cells(rows, node, feats)
        seg_c = np.bincount(cell_seg, minlength=seg_feat.size)
        seg_c0 = np.cumsum(seg_c) - seg_c
        subset = self.subset_kind[seg_feat]
        masked = subset & (seg_c > 2) & (seg_c <= MAX_EXHAUSTIVE_CATEGORIES)
        prefix = subset & (seg_c > MAX_EXHAUSTIVE_CATEGORIES)

        seq = np.arange(cell_seg.size)  # the cell at each scan position
        if prefix.any():
            # Descending weight fraction on the highest-risk class, ties
            # to the lower category code.
            pc = np.flatnonzero(prefix[cell_seg])
            w = cnt[:, pc] * cw[:, None]
            frac = w[0] / w.sum(axis=0)
            seq[pc] = pc[np.lexsort((cell_rank[pc], -frac, cell_seg[pc]))]
            cnt_seq, n_seq = cnt[:, seq], cell_n[seq]
        else:
            cnt_seq, n_seq = cnt, cell_n

        score = np.full(seg_feat.size, -np.inf)
        pick = np.zeros(seg_feat.size, dtype=np.int64)  # last left position, or mask
        # Only cuts leaving min_leaf rows on both sides are scored.
        cum = np.cumsum(cnt_seq, axis=1)
        rows_left = np.cumsum(n_seq)
        rows_left -= (rows_left - n_seq)[seg_c0][cell_seg]
        cut = np.flatnonzero(~masked[cell_seg]
                             & (rows_left >= self.min_leaf)
                             & (rows_left <= seg_n[cell_seg] - self.min_leaf))
        if cut.size:
            group = cell_seg[cut]
            before = cum[:, seg_c0] - cnt_seq[:, seg_c0]
            sc = self._scores(cum[:, cut] - before[:, group], rows_left[cut],
                              counts.T[:, seg_node[group]], seg_n[group])
            first = _first_near_best(sc, group, tol[seg_node])
            score[group[first]] = sc[first]
            pick[group[first]] = cut[first]
        for c in np.flatnonzero(np.bincount(seg_c[masked])).tolist():
            masks, bits = _lex_masks(c)
            segs = np.flatnonzero(masked & (seg_c == c))
            step = max(1, MASK_BLOCK // masks.size)
            for i in range(0, segs.size, step):
                s = segs[i:i + step]
                at = seg_c0[s, None] + np.arange(c)
                C = cnt[:, at].astype(float)  # (K, segments, c)
                N = cell_n[at].astype(float)
                sc = self._scores(C[..., :1] + C[..., 1:] @ bits.T,
                                  N[:, :1] + N[:, 1:] @ bits.T,
                                  counts.T[:, seg_node[s], None], seg_n[s, None])
                top = sc.max(axis=1)
                first = np.argmax(sc > (top - tol[seg_node[s]])[:, None], axis=1)
                score[s] = sc[np.arange(s.size), first]
                pick[s] = masks[first]

        best, k_best = _best_feature(score.reshape(n_nodes, m), tol)
        parent = (weights * weights).sum(axis=1) / W
        split = np.flatnonzero(best > parent + tol)
        win = split * m + k_best[split]
        feature = seg_feat[win]

        # Scan positions of the winning segments that go left, and the
        # rows in their cells.
        is_win = np.zeros(seg_feat.size, dtype=bool)
        is_win[win] = True
        wp = np.flatnonzero(is_win[cell_seg])
        ws = cell_seg[wp]
        place = wp - seg_c0[ws]
        goes = np.where(masked[ws],
                        (place == 0) | (pick[ws] >> np.maximum(place - 1, 0) & 1 == 1),
                        wp <= pick[ws])
        cell_left = np.zeros(cell_seg.size, dtype=bool)
        cell_left[seq[wp]] = goes
        splits = np.zeros(n_nodes, dtype=bool)
        splits[split] = True
        moved = np.flatnonzero(splits[node])
        go_left = cell_left[pair_cell[moved, k_best[node[moved]]]]

        numeric = ~self.subset_kind[feature]
        threshold = np.full(split.size, np.nan)
        last = pick[win[numeric]]
        v0 = ranks.start[feature[numeric]]
        below = ranks.values[v0 + cell_rank[last]]
        above = ranks.values[v0 + cell_rank[last + 1]]
        # The halves' sum cannot overflow, and equals (below + above) / 2
        # wherever that is finite and normal. Where it rounds up to
        # ``above`` (adjacent floats), the split is at ``below``.
        middle = below / 2 + above / 2
        threshold[numeric] = np.where(middle < above, middle, below)
        into = goes & subset[ws]
        codes = ranks.values[ranks.start[seg_feat[ws[into]]]
                             + cell_rank[seq[wp[into]]]].astype(np.int64)
        n_codes = np.bincount(np.searchsorted(win, ws[into]), minlength=split.size)
        return split, feature, threshold, codes, n_codes, go_left


def _pre_order_table(levels) -> NodeTable:
    """The one-tree NodeTable, in pre-order, of per-level (weights, splits):
    the children of a level's j-th split are nodes 2j and 2j + 1 of the
    next. Subtree sizes run bottom-up, then positions top-down."""
    sizes = [np.ones(len(levels[-1][0]), dtype=np.intp)]
    for level_weights, (split, *_) in reversed(levels[:-1]):
        size = np.ones(len(level_weights), dtype=np.intp)
        size[split] += sizes[0][0::2] + sizes[0][1::2]
        sizes.insert(0, size)
    n = int(sizes[0][0])
    feature = np.zeros(n, dtype=np.intp)
    right = np.arange(n)  # a leaf points to itself
    threshold = np.full(n, np.nan)
    weights = np.zeros((n, levels[0][0].shape[1]))
    none = np.empty(0, dtype=np.intp)
    code_at, code = [none], [none]  # each member code's split, and the code
    pos = np.zeros(1, dtype=np.intp)  # each node's place in pre-order
    for depth, (level_weights, found) in enumerate(levels[:-1]):
        split, feat, thr, codes, n_codes = found
        leaf = np.ones(pos.size, dtype=bool)
        leaf[split] = False
        weights[pos[leaf]] = level_weights[leaf]
        at = pos[split]
        feature[at] = feat
        threshold[at] = thr
        right[at] = at + 1 + sizes[depth + 1][0::2]
        code_at.append(np.repeat(at, n_codes))
        code.append(codes)
        pos = np.stack((at + 1, right[at]), axis=1).ravel()
    weights[pos] = levels[-1][0]
    return NodeTable(feature=feature, right=right, threshold=threshold,
                     weights=weights, roots=np.zeros(1, dtype=np.intp),
                     member_node=np.concatenate(code_at),
                     member_code=np.concatenate(code))


# -- flat node table ----------------------------------------------------

#: (tree, row) pairs one pass of the level-wise gather advances together.
#: It bounds the gather's temporary arrays whatever the batch or forest size.
BLOCK_PAIRS = 1 << 12


class NodeTable:
    """Every node of one or more trees in flat arrays, each tree in pre-order.

    Node i splits on ``feature[i]``; its left child is the next node and
    its right child ``right[i]``. A numeric split sends a row left when
    ``row[feature] <= threshold[i]``. A subset split has a NaN threshold
    and sends it left when the value, truncated like ``int()``, is a
    member: pair j makes code ``member_code[j]`` a member of node
    ``member_node[j]``, and the pairs are kept sorted by node, then code.
    A leaf has a NaN threshold, no members and ``right[i] == i``. The
    constructor derives ``is_leaf`` and ``left`` (i + 1 at a split, i at a
    leaf), so a leaf points to itself and extra levels leave it in place.
    ``children`` holds both: ``children[2 * i]`` is ``right[i]`` and
    ``children[2 * i + 1]`` is ``left[i]``, of which ``left`` is a view.

    The constructor lays the members out as flags. ``members`` opens with
    a False flag, then holds each subset split's flags in node order, each
    block followed by a False flag: with ``s = start[i]`` and
    ``w = width[i]`` (one past the largest member), ``members[s:s + w]``
    flags categories 0..w-1, so any code clipped to [-1, w] reads a flag.
    Other nodes have start 0 and width 0 and read the leading False flag.

    ``weights[i]`` holds a leaf's class weights (zeros at splits) and
    ``vote[i]`` its vote: the argmax of the normalised weights, ties broken
    toward the lower-risk label (the higher label index). ``roots[t]`` is
    tree t's first node and ``depth``, walked down from the roots, the
    deepest leaf over all trees.
    """

    def __init__(self, feature, right, threshold, weights, roots,
                 member_node, member_code):
        self.feature = feature
        self.right = right
        self.threshold = threshold
        self.weights = weights
        self.roots = roots
        order = np.lexsort((member_code, member_node))
        self.member_node = node = np.asarray(member_node, dtype=np.intp)[order]
        self.member_code = code = np.asarray(member_code, dtype=np.intp)[order]
        n = len(right)
        self.is_leaf = right == np.arange(n)
        self.children = np.column_stack((right, np.arange(n) + ~self.is_leaf)
                                        ).ravel()
        self.left = self.children[1::2]

        last = np.flatnonzero(np.diff(node, append=-1))  # a split's largest code
        self.width = np.zeros(n, dtype=np.intp)
        self.width[node[last]] = code[last] + 1
        block = code[last] + 2  # the flags and a False one after them
        self.start = np.zeros(n, dtype=np.intp)
        self.start[node[last]] = 1 + np.cumsum(block) - block
        self.members = np.zeros(1 + int(block.sum()), dtype=bool)
        self.members[self.start[node] + code] = True

        self.depth, level = 0, roots
        while (level := level[~self.is_leaf[level]]).size:  # children come later
            self.depth += 1
            level = np.concatenate((level + 1, right[level]))

        splits = feature[~self.is_leaf]
        self.n_columns = int(splits.max()) + 1 if splits.size else 0
        leaf_w = weights[self.is_leaf]
        dist = leaf_w / leaf_w.sum(axis=1, keepdims=True)
        K = weights.shape[1]
        self.vote = np.zeros(n, dtype=np.intp)
        self.vote[self.is_leaf] = K - 1 - np.argmax(dist[:, ::-1], axis=1)

    @classmethod
    def concatenate(cls, tables) -> NodeTable:
        """The tables' trees in one table, in order."""
        n_nodes = np.array([len(t.right) for t in tables])
        node0 = np.cumsum(n_nodes) - n_nodes

        def joined(name, shift=False):
            parts = [getattr(t, name) for t in tables]
            whole = np.concatenate(parts)
            return whole + np.repeat(node0, list(map(len, parts))) if shift else whole

        return cls(feature=joined("feature"), right=joined("right", True),
                   threshold=joined("threshold"), weights=joined("weights"),
                   roots=joined("roots", True), member_code=joined("member_code"),
                   member_node=joined("member_node", True))

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def subset(self, i: int) -> list[int]:
        start = self.start[i]
        return np.flatnonzero(self.members[start:start + self.width[i]]).tolist()

    def leaves(self, X, roots=None) -> np.ndarray:
        """(len(roots), n_rows) index of the leaf each row reaches from each
        root; by default the roots are every tree's.

        All trees advance one level per step, over blocks of at most
        BLOCK_PAIRS (tree, row) pairs, until every pair of the block has
        reached its leaf.
        """
        roots = self.roots if roots is None else np.asarray(roots, dtype=np.intp)
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise DataError("empty row matrix")
        n, d = X.shape
        if d < self.n_columns:
            raise DataError(f"rows have {d} values; the trees split on"
                            f" feature {self.n_columns - 1}")
        T = len(roots)
        out = np.empty((T, n), dtype=np.intp)
        step = max(1, BLOCK_PAIRS // T)
        # Values beyond the integer range cast to a negative code (read as
        # no category) and would warn in every block.
        with np.errstate(invalid="ignore"):
            for r0 in range(0, n, step):
                self._descend(X, roots, r0, min(step, n - r0), out)
        return out

    def _descend(self, X, roots, r0: int, b: int, out: np.ndarray) -> None:
        """Move rows r0..r0+b-1 from every root to their leaves in ``out``.

        The block's category codes are cast once, before the first level.
        A pair at a leaf stays there, so the block stops once every pair
        sits at a leaf. It looks every second level: a look costs about a
        tenth of a level, and looking at every level was slower for one row.
        """
        T, d = len(roots), X.shape[1]
        block = np.ascontiguousarray(X[r0:r0 + b]).ravel()
        codes = block.astype(np.intp)  # truncated like int()
        np.maximum(codes, -1, out=codes)
        offsets = np.tile(np.arange(0, b * d, d), T)
        nodes = np.repeat(roots, b)
        for level in range(1, self.depth + 1):
            at = offsets + self.feature[nodes]
            go_left = block[at] <= self.threshold[nodes]
            flag = np.minimum(codes[at], self.width[nodes])
            flag += self.start[nodes]
            go_left |= self.members[flag]
            nodes += nodes  # 2 * node + go_left indexes ``children``
            nodes += go_left
            nodes = self.children[nodes]
            if level % 2 == 0 and (np.count_nonzero(self.is_leaf[nodes])
                                   == nodes.size):
                break
        out[:, r0:r0 + b] = nodes.reshape(T, b)

    def subtree_lines(self, root: int) -> list[str]:
        """Pre-order node lines of node ``root`` and the nodes below it,
        floats in repr round-trip form."""
        # In pre-order they run up to the leaf reached by always going right.
        last = root
        while not self.is_leaf[last]:
            last = self.right[last]
        span = range(root, int(last) + 1)
        nodes = slice(span.start, span.stop)
        lines = []
        for i, f, width, leaf, thr, w in zip(
                span, self.feature[nodes].tolist(), self.width[nodes].tolist(),
                self.is_leaf[nodes].tolist(), self.threshold[nodes].tolist(),
                self.weights[nodes].tolist()):
            if leaf:
                lines.append("leaf " + ",".join(map(repr, w)))
            elif width:
                lines.append(f"split {f} in "
                             + ",".join(map(str, self.subset(i))))
            else:
                lines.append(f"split {f} <= {thr!r}")
        return lines


def write_trees(table: NodeTable) -> list[str]:
    """The trees of a model file, as read_trees reads them: ``tree t`` and
    then tree t's node lines, tree after tree, and ``end``."""
    lines = []
    for t, root in enumerate(table.roots.tolist()):
        lines.append(f"tree {t}")
        lines += table.subtree_lines(root)
    lines.append("end")
    return lines


def read_trees(lines, first: int, n_labels: int, n_categories) -> NodeTable:
    """The NodeTable of the trees write_trees wrote from ``lines[first]`` on:
    ``tree t`` and tree t's node lines (``leaf w,..``, ``split f <= t`` or
    ``split f in c,..``) in pre-order, tree after tree, then ``end`` as the
    last line. It checks the structure (trees in order, two subtrees per
    split, no node after a finished tree), that leaf weights are finite and
    nonnegative with a positive sum and thresholds finite, and that every
    node fits the label count and ``n_categories``, which holds each
    feature's category count (0 for a numeric kind), one per feature.
    A violation raises DataError whose ``row`` is the offending line's index.
    """
    # Typed buffers: a list of Python numbers takes four times the memory.
    feature, right, threshold = array("q"), array("q"), array("d")
    member_node, member_code = array("q"), array("q")
    leaf_nodes, leaf_weights = array("q"), array("d")
    roots: list[int] = []
    waiting: list[int] = []  # splits awaiting a right child
    tree_open = False  # whether a node may come next
    nan = float("nan")
    for row in range(first, len(lines)):
        line = lines[row]
        if line == "end":
            break
        i = len(threshold)
        if line.startswith("tree "):
            expected = f"tree {len(roots)}"
            if line != expected:
                raise DataError(f"expected {expected!r}, got {line!r}", row=row)
            if tree_open:
                raise DataError(f"tree {len(roots) - 1} ends before its last leaf",
                                row=row)
            roots.append(i)
            tree_open = True
            continue
        kind, _, rest = line.partition(" ")
        try:
            if kind == "leaf":
                w = [float(t) for t in rest.split(",")]
            elif kind == "split":
                f, op, arg = rest.split(" ")
                f = int(f)
                if op == "<=":
                    thr, codes = float(arg), None
                elif op == "in":
                    thr, codes = nan, sorted({int(t) for t in arg.split(",")})
                else:
                    raise ValueError(op)
            else:
                raise ValueError(kind)
        except ValueError:
            raise DataError(f"malformed node line {line!r}", row=row) from None
        if not tree_open:
            raise DataError("node after the end of its tree", row=row)
        if kind == "leaf":
            if len(w) != n_labels:
                raise DataError(f"leaf has {len(w)} class weights,"
                                f" expected {n_labels}", row=row)
            if not 0 < sum(w) < inf:  # also false when any weight is not finite
                raise DataError("leaf class weights must be finite and sum to > 0",
                                row=row)
            if min(w) < 0:
                raise DataError("leaf class weights must not be negative", row=row)
            leaf_nodes.append(i)
            leaf_weights.extend(w)
            f, thr = 0, nan
            if waiting:
                right[waiting.pop()] = i + 1
            else:
                tree_open = False
        else:
            if not 0 <= f < len(n_categories):
                raise DataError(f"split feature {f} outside the model's"
                                f" {len(n_categories)} features", row=row)
            if codes is None and not -inf < thr < inf:
                raise DataError("split threshold must be finite", row=row)
            if codes is not None:
                bad = [c for c in codes if not 0 <= c < n_categories[f]]
                if bad:
                    raise DataError(f"category {bad[0]} outside feature {f}'s"
                                    f" {n_categories[f]} categories", row=row)
                member_node.extend([i] * len(codes))
                member_code.extend(codes)
            waiting.append(i)
        feature.append(f)
        right.append(i)  # a split's is set where its left subtree ends
        threshold.append(thr)
    else:
        raise DataError("forest document not terminated with 'end'",
                        row=len(lines) - 1)
    if tree_open:
        raise DataError(f"tree {len(roots) - 1} ends before its last leaf", row=row)
    if row != len(lines) - 1:
        raise DataError("content after 'end'", row=row + 1)

    def ints(buffer):
        return np.frombuffer(buffer, dtype=np.int64).astype(np.intp)

    weights = np.zeros((len(threshold), n_labels))
    weights[ints(leaf_nodes)] = np.frombuffer(leaf_weights).reshape(-1, n_labels)
    return NodeTable(feature=ints(feature), right=ints(right),
                     threshold=np.frombuffer(threshold).copy(), weights=weights,
                     roots=np.array(roots, dtype=np.intp),
                     member_node=ints(member_node), member_code=ints(member_code))


# -- prediction ----------------------------------------------------------


def predict_tree(tree: TreeNode, row) -> np.ndarray:
    """Normalised class distribution of the leaf this row lands in."""
    X = np.asarray(row, dtype=float).reshape(1, -1)
    w = tree.table.weights[tree.table.leaves(X, [tree.index]).item()]
    return w / w.sum()
