"""CART decision tree (Gini impurity) and bagged random forest, one model.

Splits are single-feature thresholds at midpoints between distinct sorted
values, chosen to minimise the weighted child Gini.  Ties break toward the
lowest feature index, then the lowest threshold.  Impure nodes accept
zero-gain splits (needed for XOR-like layouts), so a fully grown tree
reaches training accuracy 1.0 whenever no duplicate feature rows carry
different labels.

A forest's probability is the mean of its trees' (Breiman 2001), so a
decision tree is a forest of one, and both kinds are a ``TreeModel``:
each tree's node count, ``tree_sizes``, and four read-only arrays over
every tree's nodes, tree after tree, each tree's in preorder: ``feature``
(-1 at a leaf), ``threshold``, ``right`` (numbered within its tree) and
``counts``, one (n_false, n_true) row a node.  A left child is its
parent's next node, and a leaf's probabilities are its counts over their
sum.  Prediction walks all (tree, row) pairs down at once, one level a
pass, and averages the trees in tree order.

All the trees of one fit grow in lockstep.  A node's rows are ids of
training rows, a forest tree's bootstrap repeats kept, so no tree copies
the features.  Each tree keeps a stack of pending nodes; a split pushes
its right child, then its left, so every tree numbers its nodes in
preorder.  A step pops nodes from every tree until it reaches one to
split, and that node draws its candidate features from its tree's own
generator, so every tree makes its draws in the order a tree grown alone
makes them.  Then one step's nodes are scanned at once: each value of the
training matrix is ranked once a fit, by sort and diff, and the (node,
candidate feature) segments go to ``kernels.split_scan`` as integer keys,
at most ``_SCAN_CELLS`` cells a call; a node wider than that is scanned
alone, in groups of columns.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .. import kernels
from .base import TrainedModel, fitted_array

_NO_FEATURE = -1
# the cells (a node's row in a candidate feature) one split_scan call holds
# at most; it bounds the scan's memory
_SCAN_CELLS = 16384


def _ranked(X, y):
    """(codes, values, offsets, n_ranks) of X's columns: codes[j, i] is
    2 * rank + y[i], where rank is the dense rank of X[i, j] among column
    j's distinct values, which ascend in values[offsets[j]:offsets[j + 1]];
    n_ranks is the most any column has."""
    n, d = X.shape
    codes = np.empty((d, n), dtype=np.int32)
    values, n_values = [np.zeros(0)], [0]
    new = np.empty(n, dtype=bool)  # a value differs from the one before
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        ordered = X[order, j]
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        rank = np.cumsum(new)  # from 1
        codes[j, order] = rank
        values.append(ordered[new])
        n_values.append(int(rank[-1]))
    codes *= 2
    codes += y.astype(np.int32) - 2
    return codes, np.concatenate(values), np.cumsum(n_values), \
        max(n_values[1:], default=1)


class _Grower:
    """The trees of one fit, grown in lockstep.

    The row ids of every tree sit in one array, tree t's at [t * n,
    (t + 1) * n), and a node's rows are a range of it: a split partitions
    its range in place, the left child's rows first.  A node is recorded
    when it is popped, and the records of a tree, in order, are its nodes
    in preorder.
    """

    def __init__(self, X, y, max_depth, min_samples_split, max_features,
                 rngs=None):
        """One tree on all the rows (rngs None), or one tree a generator in
        rngs, on a bootstrap draw of the rows and max_features candidate
        features a split, all drawn from it."""
        self.X, self.y = X, y
        self.max_depth = math.inf if max_depth is None else max_depth
        self.min_samples_split = min_samples_split
        self.max_features, self.rngs = max_features, rngs
        n = X.shape[0]
        if rngs is None:
            self.rows = np.arange(n, dtype=np.int32)
        else:
            self.rows = np.empty(len(rngs) * n, dtype=np.int32)
            for t, rng in enumerate(rngs):
                self.rows[t * n:(t + 1) * n] = rng.integers(0, n, size=n)
        self.codes, self.values, self.offsets, self.n_ranks = _ranked(X, y)
        # a scan holds at most _SCAN_CELLS / 2 segments (a node to split
        # has two rows or more), so its keys stay below this
        self.key_type = np.int32 if _SCAN_CELLS * self.n_ranks < 2 ** 31 \
            else np.int64
        # per record: its tree, feature, threshold, right child and counts
        self.tree_of, self.feature, self.threshold, self.right = [], [], [], []
        self.n_false, self.n_true = [], []

    def grow(self):
        """A TreeModel's state: each tree's size and the node arrays of
        every tree, tree after tree."""
        n, d = self.X.shape
        # a pending node: its range of rows, its depth, the record of the
        # node it is the right child of (else -1) and its true rows
        stacks = [[(lo, lo + n, 0, -1, int(self.y[self.rows[lo:lo + n]]
                                          .sum()))]
                  for lo in range(0, self.rows.size, n)]
        n_nodes = [0] * len(stacks)
        tree_of, n_false, n_true = self.tree_of, self.n_false, self.n_true
        growing = range(len(stacks))
        while growing:
            popped, drawn = [], []  # the node each tree splits this step
            for t in growing:
                stack = stacks[t]
                while stack:
                    lo, hi, depth, parent, true = stack.pop()
                    if parent >= 0:
                        self.right[parent] = n_nodes[t]
                    n_nodes[t] += 1
                    tree_of.append(t)
                    n_false.append(hi - lo - true)
                    n_true.append(true)
                    if 0 < true < hi - lo and depth < self.max_depth \
                            and hi - lo >= self.min_samples_split:
                        if self.max_features is not None:
                            drawn.append(self.rngs[t].choice(
                                d, size=self.max_features, replace=False))
                        popped.append((len(tree_of) - 1, lo, hi, depth, true,
                                       stack))
                        break
            # the new records are leaves until a split says otherwise
            added = len(tree_of) - len(self.feature)
            self.feature += [_NO_FEATURE] * added
            self.threshold += [0.0] * added
            self.right += [-1] * added
            if popped:
                self._split(popped, np.sort(
                    np.array(drawn, dtype=np.int32), axis=1) if drawn else
                    np.broadcast_to(np.arange(d), (len(popped), d)))
            growing = [t for t in growing if stacks[t]]
        # a list is freed once it is an array
        by_tree = np.argsort(self.tree_of, kind="stable")
        state = {"tree_sizes": np.array(n_nodes, dtype=np.intp)}
        for name, dtype in (("feature", np.intp), ("threshold", np.float64),
                            ("right", np.intp)):
            state[name] = np.array(getattr(self, name), dtype=dtype)[by_tree]
            getattr(self, name).clear()
        state["counts"] = np.array([self.n_false, self.n_true],
                                   dtype=np.intp).T[by_tree]
        return state

    def _split(self, popped, candidates):
        """Split the popped nodes, each over its row of candidates, in scans
        of at most _SCAN_CELLS cells."""
        m = candidates.shape[1]
        if not m:
            return  # no feature: every node is a leaf
        batches, cells = [[]], 0
        for i, (_, lo, hi, *_) in enumerate(popped):
            if (hi - lo) * m > _SCAN_CELLS:
                # alone, in groups of columns; the first minimum stays
                step = max(1, _SCAN_CELLS // (hi - lo))
                found = min((self._scan(popped[i:i + 1],
                                        candidates[i:i + 1, a:a + step])
                             for a in range(0, m, step)),
                            key=lambda found: found[0][0])
                self._push(popped[i:i + 1], *found)
                continue
            if cells + (hi - lo) * m > _SCAN_CELLS:
                batches.append([])
                cells = 0
            batches[-1].append(i)
            cells += (hi - lo) * m
        for batch in batches:
            if batch:
                entries = [popped[i] for i in batch]
                self._push(entries, *self._scan(entries, candidates[batch]))

    def _ranges(self, entries):
        """The places in self.rows of the popped nodes' rows, node after
        node, and each node's number of rows."""
        lo = np.array([entry[1] for entry in entries], dtype=np.intp)
        sizes = np.array([entry[2] for entry in entries], dtype=np.intp) - lo
        ends = np.cumsum(sizes)
        return np.repeat(lo - ends + sizes, sizes) + np.arange(ends[-1]), \
            sizes

    def _scan(self, entries, candidates):
        """(score, feature, threshold) arrays of the best split of each
        popped node over its row of candidates, from one split_scan call;
        score is inf where no candidate varies."""
        places, sizes = self._ranges(entries)
        k, m = candidates.shape
        # node i's cell of row id r in its candidate a, feature c, takes
        # codes[c, r] and lies in segment i * m + a
        cells = np.multiply(candidates, self.X.shape[0], dtype=np.intp)[
            np.repeat(np.arange(k), sizes)]
        cells += self.rows[places][:, None]
        keys = self.codes.take(cells).astype(self.key_type, copy=False)
        del cells
        stride = 2 * self.n_ranks
        keys += np.repeat(np.arange(0, k * m * stride, m * stride,
                                    dtype=self.key_type), sizes)[:, None]
        keys += np.arange(0, m * stride, stride, dtype=self.key_type)
        keys = keys.ravel()
        score, at = kernels.split_scan(keys,
                                       np.cumsum(np.repeat(sizes, m)))
        score = score.reshape(k, m)
        a = score.argmin(axis=1)
        low = score[np.arange(k), a]
        j = candidates[np.arange(k), a]
        threshold = np.zeros(k)
        ok = np.flatnonzero(low < np.inf)
        seg = ok * m + a[ok]
        # a sorted key halved is its segment * n_ranks + its rank
        base = self.offsets[j[ok]] - seg * self.n_ranks
        threshold[ok] = (self.values[(keys[at[seg]] >> 1) + base]
                         + self.values[(keys[at[seg] + 1] >> 1) + base]) / 2.0
        return low, j, threshold

    def _push(self, entries, score, feature, threshold):
        """Record the split of each popped node that has one (a finite
        score); it partitions its rows, the left child's first, and pushes
        its children onto its tree's stack, the right one first."""
        ok = np.flatnonzero(score < np.inf).tolist()
        if not ok:
            return
        entries = [entries[i] for i in ok]
        feature, threshold = feature[ok], threshold[ok]
        places, sizes = self._ranges(entries)
        rows = self.rows[places]
        go_left = self.X[rows, np.repeat(feature, sizes)] \
            <= np.repeat(threshold, sizes)
        starts = np.cumsum(sizes) - sizes
        n_left = np.add.reduceat(go_left, starts)
        true_left = np.add.reduceat(go_left & self.y[rows], starts)
        # a row's place in its node's range: among the left rows, in order,
        # or among the right ones after them
        offset = places - np.repeat(places[starts], sizes)
        left_before = np.cumsum(go_left) - go_left
        left_before -= np.repeat(left_before[starts], sizes)
        places -= offset
        places += np.where(go_left, left_before, offset - left_before
                           + np.repeat(n_left, sizes))
        self.rows[places] = rows
        for (record, lo, hi, depth, true, stack), j, t, lefts, trues in zip(
                entries, feature.tolist(), threshold.tolist(),
                n_left.tolist(), true_left.tolist()):
            self.feature[record], self.threshold[record] = j, t
            stack.append((lo + lefts, hi, depth + 1, record, true - trues))
            stack.append((lo, lo + lefts, depth + 1, -1, trues))


class _Tree(NamedTuple):
    """One tree's slices of a TreeModel's node arrays."""

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    counts: np.ndarray


class TreeModel(TrainedModel):
    """The mean probability of one tree, or of a forest's n_trees."""

    state = ("tree_sizes", "feature", "threshold", "right", "counts")
    needs_both_classes = False

    def __init__(self, spec, n_features, non_converged=False, *, tree_sizes,
                 feature, threshold, right, counts):
        super().__init__(spec, n_features, non_converged)
        sizes = self.tree_sizes = fitted_array(tree_sizes, None,
                                               dtype=np.intp)
        want = spec.params.get("n_trees", 1)
        if len(sizes) != want:
            raise ValueError(f"{spec.kind} needs {want} tree(s), got "
                             f"{len(sizes)}")
        if (sizes < 1).any():
            tree = int((sizes < 1).argmax())
            raise ValueError(f"tree {tree} has {sizes[tree]} nodes, not one "
                             f"or more")
        n = self.n_nodes = sum(sizes.tolist())  # an int64 sum could wrap
        self.feature = fitted_array(feature, n, dtype=np.intp)
        self.threshold = fitted_array(threshold, n)
        self.right = fitted_array(right, n, dtype=np.intp)
        self.counts = fitted_array(counts, n, 2, dtype=np.intp)
        # every path ends at a leaf: an internal node tests a feature in
        # [0, n_features), and its right child follows node + 1 in its tree
        of = np.repeat(np.arange(len(sizes)), sizes)
        node = np.arange(n) - (np.cumsum(sizes) - sizes)[of]
        outside = (self.feature < 0) | (self.feature >= n_features)
        broken = (self.feature != _NO_FEATURE) & (
            outside | (self.right <= node + 1) | (self.right >= sizes[of]))
        bad = broken | (self.counts < 0).any(axis=1) \
            | (self.counts.sum(axis=1) <= 0)
        if bad.any():
            i = int(bad.argmax())
            at = f"tree {of[i]} node {node[i]}"
            if outside[i] and broken[i]:
                raise ValueError(f"{at} tests feature {self.feature[i]}, "
                                 f"outside [0, {n_features})")
            if broken[i]:
                raise ValueError(f"{at} has its right child {self.right[i]} "
                                 f"outside ({node[i] + 1}, {sizes[of[i]]})")
            raise ValueError(f"{at} has class counts "
                             f"{self.counts[i].tolist()}, not two counts >= 0 "
                             f"with a positive sum")

    def _proba(self, rows):
        n = rows.shape[0]
        # pair p is tree p // n and row p % n, and reaches leaf[p]
        root = np.repeat(np.cumsum(self.tree_sizes) - self.tree_sizes, n)
        leaf = root.copy()
        active = np.arange(leaf.size)  # the pairs still at an internal node
        while active.size:
            node = leaf[active]
            j = self.feature[node]
            internal = j != _NO_FEATURE
            active, node, j = active[internal], node[internal], j[internal]
            leaf[active] = np.where(
                rows[active % n, j] <= self.threshold[node], node + 1,
                root[active] + self.right[node])
        proba = self.counts / self.counts.sum(axis=1, keepdims=True)
        return proba[leaf].reshape(len(self.tree_sizes), n, 2).mean(axis=0)

    @property
    def trees(self):
        """Each tree's slices of the node arrays.  Kept only until ROADMAP
        item 7 step 2, for the benchmark tracer's node count."""
        cuts = np.cumsum(self.tree_sizes)[:-1]
        return tuple(map(_Tree._make, zip(*(np.split(a, cuts) for a in (
            self.feature, self.threshold, self.right, self.counts)))))


def fit_trees(spec, train):
    """One tree on the training rows, or a forest of n_trees, each on a
    bootstrap draw and max_features candidate features a split."""
    p = spec.params
    d = train.n_features
    max_features, rngs = None, None
    if spec.kind == "random_forest":
        max_features = max(1, int(math.sqrt(d))) \
            if p["max_features"] == "sqrt" else p["max_features"]
        if max_features >= d:
            max_features = None  # every feature a candidate: none drawn
        rngs = [np.random.default_rng(child) for child in
                np.random.SeedSequence(p["seed"]).spawn(p["n_trees"])]
    return TreeModel(spec, d, **_Grower(
        train.features, train.labels, p["max_depth"],
        p["min_samples_split"], max_features, rngs).grow())
