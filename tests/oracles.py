"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately written the slow, obvious way (plain
loops, per-candidate recomputation from scratch) and shares no code with
the library paths it verifies. Tie handling follows the documented
contract: candidates whose scores agree within a small tolerance count
as tied and the earliest candidate in scan order wins.

The helpers at the end are not oracles: they reach one tree of a node
table through the table's public methods, for the tests that need one.
"""

from __future__ import annotations

import numpy as np

NUMERIC_KINDS = ("numeric", "count", "years-since")


# -- exhaustive greedy tree ------------------------------------------------


def _score(weighted_counts):
    total = sum(weighted_counts)
    return sum(w * w for w in weighted_counts) / total


def prefix_subset_oracle(codes, y, class_weights, min_leaf, tol):
    """Best ordered-prefix subset of one categorical column at one node.

    Categories present are ordered by descending weight fraction on
    label 0, ties to the lower code; the prefixes of 1..c-1 categories
    are the candidates, and the earliest within ``tol`` of the best
    wins. Returns (score, members) or None when no prefix is legal.
    """
    present = sorted(set(codes))
    weight = {c: [0.0] * len(class_weights) for c in present}
    rows = {c: 0 for c in present}
    for c, label in zip(codes, y):
        weight[c][label] += class_weights[label]
        rows[c] += 1
    order = sorted(present, key=lambda c: (-weight[c][0] / sum(weight[c]), c))
    candidates = []
    for size in range(1, len(order)):
        members = order[:size]
        left = [0.0] * len(class_weights)
        right = [0.0] * len(class_weights)
        n_left = 0
        for c in present:
            side = left if c in members else right
            for k, w in enumerate(weight[c]):
                side[k] += w
            n_left += rows[c] if c in members else 0
        if n_left < min_leaf or len(codes) - n_left < min_leaf:
            continue
        candidates.append((_score(left) + _score(right), frozenset(members)))
    if not candidates:
        return None
    top = max(score for score, _ in candidates)
    return next((score, members) for score, members in candidates
                if score > top - tol)


def greedy_tree_oracle(X, y, kinds, K, class_weights, min_leaf, max_depth):
    """Exhaustive greedy tree: every feature, every threshold, and every
    subset of at most 12 present categories (ordered prefixes beyond)."""
    X = [list(map(float, row)) for row in np.asarray(X)]
    y = [int(v) for v in y]
    cw = list(map(float, class_weights))

    def weighted(rows):
        out = [0.0] * K
        for r in rows:
            out[y[r]] += cw[y[r]]
        return out

    def grow(rows, depth):
        wc = weighted(rows)
        if depth >= max_depth or len(rows) < 2 * min_leaf:
            return {"leaf": wc}
        if len({y[r] for r in rows}) == 1:
            return {"leaf": wc}
        parent = _score(wc)
        tol = 1e-9 * sum(wc)
        best = None
        for j in range(len(kinds)):
            values = sorted({X[r][j] for r in rows})
            if kinds[j] in NUMERIC_KINDS:
                for a, b in zip(values, values[1:]):
                    t = a / 2 + b / 2  # (a + b) / 2 overflows past ~9e307
                    if not t < b:  # rounded up to b: split at a
                        t = a
                    left = [r for r in rows if X[r][j] <= t]
                    right = [r for r in rows if X[r][j] > t]
                    if len(left) < min_leaf or len(right) < min_leaf:
                        continue
                    sc = _score(weighted(left)) + _score(weighted(right))
                    if best is None or sc > best[0] + tol:
                        best = (sc, j, ("threshold", t), left, right)
            elif len(values) > 12:
                codes = [int(X[r][j]) for r in rows]
                found = prefix_subset_oracle(codes, [y[r] for r in rows], cw,
                                             min_leaf, tol)
                if found is not None and (best is None or found[0] > best[0] + tol):
                    chosen = found[1]
                    left = [r for r in rows if int(X[r][j]) in chosen]
                    right = [r for r in rows if int(X[r][j]) not in chosen]
                    best = (found[0], j, ("subset", chosen), left, right)
            else:
                present = sorted(int(v) for v in values)
                if len(present) < 2:
                    continue
                rest = present[1:]
                candidates = []
                for mask in range(2 ** len(rest)):
                    members = [present[0]] + [rest[i] for i in range(len(rest))
                                              if mask >> i & 1]
                    if len(members) == len(present):
                        continue
                    candidates.append(tuple(sorted(members)))
                candidates.sort()
                for members in candidates:
                    chosen = set(members)
                    left = [r for r in rows if int(X[r][j]) in chosen]
                    right = [r for r in rows if int(X[r][j]) not in chosen]
                    if len(left) < min_leaf or len(right) < min_leaf:
                        continue
                    sc = _score(weighted(left)) + _score(weighted(right))
                    if best is None or sc > best[0] + tol:
                        best = (sc, j, ("subset", frozenset(members)), left, right)
        if best is None or best[0] <= parent + tol:
            return {"leaf": wc}
        _, j, predicate, left, right = best
        return {"feature": j, "predicate": predicate,
                "left": grow(left, depth + 1), "right": grow(right, depth + 1)}

    return grow(list(range(len(y))), 0)


def oracle_tree_predict(node, row):
    while "leaf" not in node:
        value = row[node["feature"]]
        kind, arg = node["predicate"]
        go_left = value <= arg if kind == "threshold" else int(value) in arg
        node = node["left"] if go_left else node["right"]
    w = np.asarray(node["leaf"], dtype=float)
    return w / w.sum()


def tree_from_lines_oracle(lines, class_weights):
    """The tree given by its pre-order node lines (a leaf's class counts
    ``c,..``, ``f <= t`` or ``f in c,..``), as the nested dict
    oracle_tree_predict walks; a leaf's weights are its class counts times
    ``class_weights``. Recursive descent: a split's left subtree starts on
    the next line, and its right subtree where the left one ends.
    """
    rest = iter(lines)

    def node():
        fields = next(rest).split(" ")
        if len(fields) == 1:
            return {"leaf": [int(c) * w for c, w
                             in zip(fields[0].split(","), class_weights)]}
        feature, op, arg = fields
        predicate = (("threshold", float(arg)) if op == "<=" else
                     ("subset", frozenset(int(c) for c in arg.split(","))))
        left = node()
        right = node()
        return {"feature": int(feature), "predicate": predicate,
                "left": left, "right": right}

    tree = node()
    assert next(rest, None) is None, "lines after the tree's last leaf"
    return tree


# -- out-of-bag voting ---------------------------------------------------------


def oob_oracle(forest, data):
    """(labels, counts) of out-of-bag voting, one tree and one row at a time.

    A tree votes on every row outside its bootstrap, for its leaf's
    largest normalised weight (ties to the lower-risk, higher label
    index). A row takes the plurality of its votes, ties to the lowest
    label index, and -1 when no tree voted. Each tree is walked from its
    node lines by tree_from_lines_oracle, not through the node table.
    """
    from riskforest.forest import bootstrap_rows

    n, K = len(data), forest.n_labels
    tally = [[0] * K for _ in range(n)]
    for t, root in enumerate(forest.table.roots.tolist()):
        tree = tree_from_lines_oracle(forest.table.subtree_lines(root),
                                      forest.config.class_weights)
        inbag = set(bootstrap_rows(forest.config, t, n).tolist())
        for i in range(n):
            if i not in inbag:
                dist = oracle_tree_predict(tree, data.X[i]).tolist()
                tally[i][max(range(K), key=lambda k: (dist[k], k))] += 1
    labels = [max(range(K), key=lambda k: (row[k], -k)) if sum(row) else -1
              for row in tally]
    return np.array(labels), np.array([sum(row) for row in tally])


# -- predicate replay --------------------------------------------------------


def replay_tree_predict(tree, row):
    """Walk a library TreeNode evaluating each predicate from its raw fields."""
    node = tree
    while node.rule is not None:
        value = row[node.rule.feature_index]
        if node.rule.threshold is not None:
            go_left = value <= node.rule.threshold
        else:
            go_left = int(value) in set(node.rule.subset)
        node = node.left if go_left else node.right
    w = np.asarray(node.class_weights, dtype=float)
    return w / w.sum()


def tree_depth(node):
    """Splits on the longest path down from a library TreeNode, by recursion."""
    return 0 if node.is_leaf else 1 + max(tree_depth(node.left),
                                          tree_depth(node.right))


# -- the full-depth gather ----------------------------------------------------


def leaves_oracle(table, X, roots=None):
    """``NodeTable.leaves`` as it was before it stopped early: every pair
    runs the table's full depth, each level casts its values to category
    codes itself and picks ``left`` or ``right``. One block holds every
    (root, row) pair, row-major within each root."""
    roots = table.roots if roots is None else np.asarray(roots, dtype=np.intp)
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    block = np.ascontiguousarray(X).ravel()
    offsets = np.tile(np.arange(0, n * d, d), len(roots))
    nodes = np.repeat(roots, n)
    with np.errstate(invalid="ignore"):
        for _ in range(table.depth):
            v = block[offsets + table.feature[nodes]]
            go_left = v <= table.threshold[nodes]
            code = v.astype(np.intp)
            np.maximum(code, -1, out=code)
            np.minimum(code, table.width[nodes], out=code)
            code += table.start[nodes]
            go_left |= table.members[code]
            nodes = np.where(go_left, table.left[nodes], table.right[nodes])
    return nodes.reshape(len(roots), n)


# -- one tree of a node table ------------------------------------------------


def tree_lines(tree):
    """Pre-order node lines of a library TreeNode and the nodes below it."""
    return tree.table.subtree_lines(tree.index)


def tree_from_lines(lines, class_weights, n_categories):
    """The one tree given by its pre-order node lines, as a root TreeNode."""
    from riskforest.tree import TreeNode, read_trees

    table = read_trees(["tree 0", *lines, "end"], 0, class_weights, n_categories)
    return TreeNode(table, 0)


def forest_trees(forest):
    """A root TreeNode for each tree of a forest, in order."""
    from riskforest.tree import TreeNode

    return [TreeNode(forest.table, root) for root in forest.table.roots.tolist()]


def tree_apply(tree, X):
    """(n_rows, K) normalised class weights of the leaf each row reaches."""
    w = tree.table.weights[tree.table.leaves(X, [tree.index])[0]]
    return w / w.sum(axis=1, keepdims=True)


def tree_votes(tree, X):
    """The vote of the leaf each row reaches."""
    return tree.table.vote[tree.table.leaves(X, [tree.index])[0]]


# -- metrics -----------------------------------------------------------------


def confusion_oracle(pred, actual, labels):
    index = {name: i for i, name in enumerate(labels)}
    cells = [[0] * len(labels) for _ in labels]
    for p, a in zip(pred, actual):
        cells[index[p]][index[a]] += 1
    return np.asarray(cells, dtype=float)


def auc_pair_oracle(scores, actual):
    """All positive-negative pairs; ties count one half."""
    pos = [s for s, a in zip(scores, actual) if a == 1]
    neg = [s for s, a in zip(scores, actual) if a == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def roc_sweep_oracle(scores, actual):
    """Recompute the 2x2 matrix at each threshold, then sort and dedupe."""
    scores = list(map(float, scores))
    actual = list(map(int, actual))
    P = sum(actual)
    N = len(actual) - P
    thresholds = sorted(set(scores), reverse=True)
    points = [(0.0, 0.0)]  # above every score
    for t in thresholds + [min(scores) - 1.0]:
        tp = sum(1 for s, a in zip(scores, actual) if s >= t and a == 1)
        fp = sum(1 for s, a in zip(scores, actual) if s >= t and a == 0)
        points.append((fp / N, tp / P))
    points.sort()
    deduped = [points[0]]
    for pt in points[1:]:
        if pt != deduped[-1]:
            deduped.append(pt)
    return deduped


def threshold_stats_oracle(scores, positive, thresholds):
    """(precision, fpr, fnr) at each threshold, recounting the rows that
    score at or above it one by one; precision is NaN where none do."""
    rows = list(zip(map(float, scores), map(bool, positive)))
    P = sum(1 for _, p in rows if p)
    N = len(rows) - P
    precision, fpr, fnr = [], [], []
    for t in map(float, thresholds):
        tp = sum(1 for s, p in rows if s >= t and p)
        fp = sum(1 for s, p in rows if s >= t and not p)
        precision.append(tp / (tp + fp) if tp + fp else float("nan"))
        fpr.append(fp / N)
        fnr.append((P - tp) / P)
    return np.array(precision), np.array(fpr), np.array(fnr)


# -- k-anonymity --------------------------------------------------------------


def kanon_oracle(rows, qis):
    """O(n^2): count, for each row, the rows matching it on the quasi set."""
    keys = [tuple(row[q] for q in qis) for row in rows]
    best = None
    for i, key in enumerate(keys):
        matches = sum(1 for other in keys if other == key)
        best = matches if best is None else min(best, matches)
    return best


# -- CSV writing ------------------------------------------------------------


def decode_cell_oracle(spec, value):
    """One cell's CSV text: a category's name, ``str(int(v))`` for an
    integral value, ``repr`` of the float otherwise."""
    if spec.kind in ("categorical", "binary"):
        return spec.categories[int(value)]
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def write_csv_oracle(dataset, path):
    """Row by row, one decode_cell_oracle call per cell."""
    import csv

    schema = dataset.schema
    header = list(schema.feature_names) + ["label"]
    if dataset.groups is not None:
        header.append(schema.group_attribute)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            record = [decode_cell_oracle(spec, dataset.X[i, j])
                      for j, spec in enumerate(schema.specs)]
            record.append(schema.label_set[int(dataset.y[i])])
            if dataset.groups is not None:
                record.append(str(dataset.groups[i]))
            writer.writerow(record)
