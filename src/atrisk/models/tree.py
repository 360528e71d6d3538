"""CART decision tree (Gini impurity) and bagged random forest, one model.

Splits are single-feature thresholds at midpoints between distinct sorted
values, chosen to minimise the weighted child Gini.  Each node makes one
``kernels.split_scan`` call over its (rows x candidate features) block,
every column sorted by one stable argsort.  Ties break toward the lowest
feature index, then the lowest threshold.  Impure nodes accept zero-gain
splits (needed for XOR-like layouts), so a fully grown tree reaches
training accuracy 1.0 whenever no duplicate feature rows carry different
labels.

A forest's probability is the mean of its trees' (Breiman 2001), so a
decision tree is a forest of one, and both kinds are a ``TreeModel``
saved as ``trees``.  A tree is four read-only arrays over its nodes in
preorder: ``feature`` (-1 at a leaf), ``threshold``, ``right`` and
``counts``, one (n_false, n_true) row a node; a left child is its
parent's next node, and a leaf's probabilities are its counts over their
sum.  A split pushes its right child, then its left, onto the stack of
pending nodes (each the row indices that reach it), so the forest's
feature draws follow preorder, and a forest tree's bootstrap rows are
freed once it is built.  Prediction walks all rows down at once, one
level a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .. import kernels
from .base import TrainedModel, fitted_array

_NO_FEATURE = -1


@dataclass(frozen=True, eq=False)
class _Tree:
    """A fitted tree's nodes in preorder; made only by _fitted_tree."""

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # (n_nodes, 2): per node (n_false, n_true)


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
    """Grow a tree on y (bool); returns the dict of its node arrays.

    rng/max_features enable the forest's per-split feature subsampling; the
    candidate features are always scanned in ascending index order so the
    tie rule is independent of sampling order.
    """
    n_rows, d = X.shape
    # a split leaves rows on both sides, so n rows make at most 2n - 1 nodes
    size = 2 * n_rows - 1
    feature = np.full(size, _NO_FEATURE, dtype=np.intp)
    threshold = np.zeros(size)
    right = np.full(size, -1, dtype=np.intp)
    counts = np.empty((size, 2), dtype=np.intp)
    # (rows, depth, the parent of a right child) of each node still to
    # grow; a left child is pushed last so that it is grown next
    pending = [(np.arange(n_rows, dtype=np.intp), 0, -1)]
    node = -1
    while pending:
        rows, depth, parent = pending.pop()
        node += 1
        if parent >= 0:
            right[parent] = node
        node_labels = y[rows]
        n = rows.size
        n_true = int(node_labels.sum())
        counts[node] = n - n_true, n_true
        if n_true in (0, n) or n < min_samples_split or \
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
        j, t = split
        feature[node], threshold[node] = j, t
        go_left = X[rows, j] <= t
        pending.append((rows[~go_left], depth + 1, node))
        pending.append((rows[go_left], depth + 1, -1))
    return {name: array[:node + 1].copy() for name, array in (
        ("feature", feature), ("threshold", threshold), ("right", right),
        ("counts", counts))}


def _tree_proba(tree, rows):
    """The (p_false, p_true) of the leaf each row reaches: its counts over
    their sum."""
    leaf = np.zeros(rows.shape[0], dtype=np.intp)
    active = np.arange(rows.shape[0])  # the rows still at an internal node
    while active.size:
        node = leaf[active]
        j = tree.feature[node]
        internal = j != _NO_FEATURE
        active, node, j = active[internal], node[internal], j[internal]
        leaf[active] = np.where(rows[active, j] <= tree.threshold[node],
                                node + 1, tree.right[node])
    counts = tree.counts[leaf]
    return counts / counts.sum(axis=1, keepdims=True)


def _fitted_tree(tree, n_features):
    """tree, or its dict, as a _Tree whose every path ends at a leaf (an
    internal node tests a feature in [0, n_features), and its right child
    follows node + 1) and whose every node counts rows, none negative."""
    if isinstance(tree, _Tree):
        return tree
    feature = fitted_array(tree["feature"], None, dtype=np.intp)
    n_nodes = len(feature)
    if n_nodes == 0:
        raise ValueError("a tree needs at least one node")
    tree = _Tree(feature, fitted_array(tree["threshold"], n_nodes),
                 fitted_array(tree["right"], n_nodes, dtype=np.intp),
                 fitted_array(tree["counts"], n_nodes, 2, dtype=np.intp))
    outside = (feature < 0) | (feature >= n_features)
    bad = (feature != _NO_FEATURE) & (
        outside | (tree.right <= np.arange(1, n_nodes + 1))
        | (tree.right >= n_nodes))
    if bad.any():
        node = int(bad.argmax())
        if outside[node]:
            raise ValueError(f"tree node {node} tests feature "
                             f"{feature[node]}, outside [0, {n_features})")
        raise ValueError(f"tree node {node} has its right child "
                         f"{tree.right[node]} outside ({node + 1}, "
                         f"{n_nodes})")
    bad = (tree.counts < 0).any(axis=1) | (tree.counts.sum(axis=1) <= 0)
    if bad.any():
        node = int(bad.argmax())
        raise ValueError(f"tree node {node} has class counts "
                         f"{tree.counts[node].tolist()}, not two counts "
                         f">= 0 with a positive sum")
    return tree


class TreeModel(TrainedModel):
    """The mean probability of one tree, or of a forest's n_trees."""

    state = ("trees",)
    needs_both_classes = False

    def __init__(self, spec, n_features, non_converged=False, *, trees):
        super().__init__(spec, n_features, non_converged)
        if not isinstance(trees, list):
            raise ValueError(f"'trees' must be a list of trees, got "
                             f"{type(trees).__name__}")
        self.trees = tuple(_fitted_tree(t, n_features) for t in trees)
        want = spec.params.get("n_trees", 1)
        if len(self.trees) != want:
            raise ValueError(f"{spec.kind} needs {want} tree(s), got "
                             f"{len(self.trees)}")

    def _proba(self, rows):
        stacked = np.stack([_tree_proba(t, rows) for t in self.trees])
        return stacked.mean(axis=0)

    @property
    def n_nodes(self):
        return sum(len(t.feature) for t in self.trees)


def fit_trees(spec, train):
    """One tree on the training rows, or a forest of n_trees, each on a
    bootstrap draw and max_features candidate features a split."""
    p = spec.params
    grow = partial(_build_tree, max_depth=p["max_depth"],
                   min_samples_split=p["min_samples_split"])
    d = train.n_features
    if spec.kind == "decision_tree":
        return TreeModel(spec, d, trees=[grow(train.features, train.labels)])
    if p["max_features"] == "sqrt":
        max_features = max(1, int(math.sqrt(d)))
    else:
        max_features = min(p["max_features"], d)
    n = train.n_rows
    trees = []
    for child in np.random.SeedSequence(p["seed"]).spawn(p["n_trees"]):
        rng = np.random.default_rng(child)
        bootstrap = rng.integers(0, n, size=n)
        trees.append(grow(train.features[bootstrap], train.labels[bootstrap],
                          rng=rng, max_features=max_features))
    return TreeModel(spec, d, trees=trees)
