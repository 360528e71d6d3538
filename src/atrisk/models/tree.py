"""CART decision tree (Gini impurity) and bagged random forest.

Splits are single-feature thresholds at midpoints between distinct sorted
values, chosen to minimise the weighted child Gini.  Each node makes one
``kernels.split_scan`` call over its (rows x candidate features) block,
every column sorted by one stable argsort.  Ties break toward the lowest
feature index, then the lowest threshold.  Impure nodes accept zero-gain
splits (needed for XOR-like layouts), so a fully grown tree reaches
training accuracy 1.0 whenever no duplicate feature rows carry different
labels.

A tree is grown by a loop over an explicit stack of pending nodes, each
the row indices that reach it: a split pushes its right child, then its
left, so nodes are numbered, and the forest's feature draws made, in
preorder.  A node's sorted block lives only during its own scan, and
nothing refers back to the builder, so a forest tree's bootstrap rows are
freed as soon as that tree is built instead of waiting for the cyclic
garbage collector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .. import kernels
from .base import TrainedModel, fitted_array

_NO_FEATURE = -1


@dataclass
class _TreeArrays:
    """Flat preorder tree storage (JSON-friendly)."""

    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    probs: list = field(default_factory=list)  # per node: (p_false, p_true)

    def add_node(self):
        self.feature.append(_NO_FEATURE)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.probs.append((0.0, 0.0))
        return len(self.feature) - 1


def _best_split(X, node_labels, rows, candidates):
    """(feature, threshold) of the best split of X's rows over the candidate
    features, or None when every candidate is constant on them."""
    block = X[np.ix_(rows, candidates)]
    order = np.argsort(block, axis=0, kind="stable")
    column, _, threshold = kernels.split_scan(
        np.take_along_axis(block, order, axis=0),
        node_labels.astype(np.uint8)[order])
    if column < 0:
        return None
    return int(candidates[column]), float(threshold)


def _build_tree(X, y, max_depth, min_samples_split, rng=None,
                max_features=None):
    """Grow a tree on y (bool); returns _TreeArrays.

    rng/max_features enable the forest's per-split feature subsampling; the
    candidate features are always scanned in ascending index order so the
    tie rule is independent of sampling order.
    """
    tree = _TreeArrays()
    d = X.shape[1]
    # (rows, depth, parent, the parent's child list) of each node still to
    # grow; a left child is pushed last so that it is grown first
    pending = [(np.arange(X.shape[0], dtype=np.intp), 0, -1, None)]
    while pending:
        rows, depth, parent, children = pending.pop()
        node = tree.add_node()
        if children is not None:
            children[parent] = node
        node_labels = y[rows]
        n = rows.size
        n_true = int(node_labels.sum())
        tree.probs[node] = ((n - n_true) / n, n_true / n)
        pure = n_true == 0 or n_true == n
        if pure or n < min_samples_split or \
                (max_depth is not None and depth >= max_depth):
            continue
        if max_features is not None and max_features < d:
            candidates = np.sort(rng.choice(d, size=max_features,
                                            replace=False))
        else:
            candidates = np.arange(d)
        split = _best_split(X, node_labels, rows, candidates)
        if split is None:
            continue  # all candidate features constant here
        j, threshold = split
        tree.feature[node] = j
        tree.threshold[node] = threshold
        go_left = X[rows, j] <= threshold
        pending.append((rows[~go_left], depth + 1, node, tree.right))
        pending.append((rows[go_left], depth + 1, node, tree.left))
    return tree


def _tree_proba(tree, rows):
    out = np.empty((rows.shape[0], 2))
    feature = tree.feature
    threshold = tree.threshold
    left, right, probs = tree.left, tree.right, tree.probs
    for i in range(rows.shape[0]):
        node = 0
        while feature[node] != _NO_FEATURE:
            if rows[i, feature[node]] <= threshold[node]:
                node = left[node]
            else:
                node = right[node]
        out[i] = probs[node]
    return out


def _fitted_tree(tree, n_features):
    """tree, or its saved dict, as _TreeArrays whose every path ends at a
    leaf: an internal node tests a feature in [0, n_features), and both its
    children follow it in preorder."""
    if not isinstance(tree, _TreeArrays):
        tree = _TreeArrays(*(tree[f.name] for f in fields(_TreeArrays)))
    n_nodes = len(fitted_array(tree.feature, None, dtype=np.intp))
    if n_nodes == 0:
        raise ValueError("a tree needs at least one node")
    fitted_array(tree.threshold, n_nodes)
    fitted_array(tree.left, n_nodes, dtype=np.intp)
    fitted_array(tree.right, n_nodes, dtype=np.intp)
    fitted_array(tree.probs, n_nodes, 2)
    for node, j in enumerate(tree.feature):
        if j == _NO_FEATURE:
            continue
        if not 0 <= j < n_features:
            raise ValueError(f"tree node {node} tests feature {j}, outside "
                             f"[0, {n_features})")
        if not node < tree.left[node] < n_nodes \
                or not node < tree.right[node] < n_nodes:
            raise ValueError(f"tree node {node} has a child outside "
                             f"({node}, {n_nodes})")
    return tree


class DecisionTreeModel(TrainedModel):
    state = ("tree",)
    needs_both_classes = False

    def __init__(self, spec, n_features, non_converged=False, *, tree):
        super().__init__(spec, n_features, non_converged)
        self.tree = _fitted_tree(tree, n_features)

    def _proba(self, rows):
        return _tree_proba(self.tree, rows)

    @property
    def n_nodes(self):
        return len(self.tree.feature)


class RandomForestModel(TrainedModel):
    state = ("trees",)
    needs_both_classes = False

    def __init__(self, spec, n_features, non_converged=False, *, trees):
        super().__init__(spec, n_features, non_converged)
        self.trees = [_fitted_tree(t, n_features) for t in trees]
        if not self.trees:
            raise ValueError("a forest needs at least one tree")

    def _proba(self, rows):
        stacked = np.stack([_tree_proba(t, rows) for t in self.trees])
        return stacked.mean(axis=0)


def fit_decision_tree(spec, train):
    p = spec.params
    tree = _build_tree(train.features, train.labels,
                       max_depth=p["max_depth"],
                       min_samples_split=p["min_samples_split"])
    return DecisionTreeModel(spec, train.n_features, tree=tree)


def fit_random_forest(spec, train):
    p = spec.params
    d = train.n_features
    if p["max_features"] == "sqrt":
        max_features = max(1, int(math.sqrt(d)))
    else:
        max_features = min(p["max_features"], d)
    n = train.n_rows
    trees = []
    for child in np.random.SeedSequence(p["seed"]).spawn(p["n_trees"]):
        rng = np.random.default_rng(child)
        bootstrap = rng.integers(0, n, size=n)
        trees.append(_build_tree(train.features[bootstrap],
                                 train.labels[bootstrap],
                                 max_depth=p["max_depth"],
                                 min_samples_split=p["min_samples_split"],
                                 rng=rng, max_features=max_features))
    return RandomForestModel(spec, d, trees=trees)
