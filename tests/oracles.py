"""Independent, deliberately naive reference implementations.

These stay brute-force on purpose: they are the second route every fast
implementation is checked against, so they must not share code with the
package internals.
"""

import csv
import dataclasses
import io
import json

import numpy as np


def knn_oracle(points, k, subset=None):
    """All-pairs sort: k nearest per row, self excluded, ties by index."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    pool = list(range(n)) if subset is None else sorted(subset)
    out = []
    for i in range(n):
        scored = []
        for j in pool:
            if j == i:
                continue
            delta = points[i] - points[j]
            scored.append((float(np.dot(delta, delta)), j))
        scored.sort()
        out.append([j for _, j in scored[:k]])
    return np.asarray(out, dtype=np.intp)


def knn_oracle_fast(points, k):
    """Vectorised all-pairs sort: same contract as knn_oracle, usable at
    the acceptance sizes (n <= 200, d <= 150)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    delta = points[:, None, :] - points[None, :, :]
    dist = (delta * delta).sum(axis=-1)
    np.fill_diagonal(dist, np.inf)
    out = np.empty((n, k), dtype=np.intp)
    cols = np.arange(n)
    for i in range(n):
        order = np.lexsort((cols, dist[i]))
        out[i] = order[:k]
    return out


def confusion_oracle(actual_false, predicted_false):
    """2x2 confusion counts by explicit loop."""
    cm = np.zeros((2, 2), dtype=np.int64)
    for a, p in zip(actual_false, predicted_false):
        row = 0 if a else 1
        col = 0 if p else 1
        cm[row, col] += 1
    return cm


def metrics_oracle(actual_false, predicted_false):
    """precision/recall/f1 for the failing class plus accuracy."""
    cm = confusion_oracle(actual_false, predicted_false)
    tp, fn = cm[0, 0], cm[0, 1]
    fp = cm[1, 0]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) \
        if precision + recall else 0.0
    accuracy = (cm[0, 0] + cm[1, 1]) / cm.sum()
    return cm, precision, recall, f1, accuracy


def auc_pairwise_oracle(scores, positive_mask):
    """O(n^2) Mann-Whitney: pairwise comparisons with ties at 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    pos = scores[positive_mask]
    neg = scores[~positive_mask]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = 0.0
    for s in pos:
        wins += float(np.sum(s > neg)) + 0.5 * float(np.sum(s == neg))
    return wins / (pos.size * neg.size)


def gini_split_oracle(values, labels):
    """All candidate (weighted_gini, threshold) pairs of one sorted column."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(values)
    out = []
    for i in range(n - 1):
        if values[i + 1] == values[i]:
            continue
        left, right = labels[:i + 1], labels[i + 1:]

        def gini(group):
            p = group.mean()
            return 1.0 - p * p - (1.0 - p) * (1.0 - p)

        weighted = (len(left) * gini(left) + len(right) * gini(right)) / n
        out.append((weighted, (values[i] + values[i + 1]) / 2.0))
    return out


def split_block_oracle(values, labels):
    """Best split of a node's (n, m) block, every column sorted ascending
    with its labels aligned: the weighted child Gini of every threshold by
    one textbook expression, the first strict minimum (lowest column, then
    lowest threshold) winning.  Returns (column, score, threshold); column
    is -1 when no column has two distinct values."""
    n = values.shape[0]
    if n < 2:
        return -1, np.inf, 0.0
    ntot = float(n)
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = ntot - nl
    total = labels.sum(axis=0, dtype=np.float64)
    cl1 = np.cumsum(labels[:-1], axis=0, dtype=np.float64)
    cl0 = nl - cl1
    cr1 = total - cl1
    cr0 = nr - cr1
    wg = (nl - (cl0 * cl0 + cl1 * cl1) / nl
          + nr - (cr0 * cr0 + cr1 * cr1) / nr) / ntot
    wg[values[1:] == values[:-1]] = np.inf
    split_at = np.argmin(wg, axis=0)
    best = wg[split_at, np.arange(wg.shape[1])]
    column = int(np.argmin(best))
    if best[column] == np.inf:
        return -1, np.inf, 0.0
    k = split_at[column]
    threshold = (values[k, column] + values[k + 1, column]) / 2.0
    return column, float(best[column]), float(threshold)


def tree_build_oracle(X, y, max_depth, min_samples_split, rng=None,
                      max_features=None):
    """A CART tree grown one node at a time from a stack of row-index
    arrays: pop a node, stop at a pure, small or deep one, else draw
    max_features candidate features from rng (all when None), sort each
    candidate column of the node's rows and split at the block's best
    threshold; push the right child, then the left.  Returns the dict of
    node arrays (feature, threshold, right, counts) in preorder."""
    n_rows, d = X.shape
    feature, threshold, right, counts = [], [], [], []
    pending = [(np.arange(n_rows), 0, -1)]
    while pending:
        rows, depth, parent = pending.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        node_labels = y[rows]
        n_true = int(node_labels.sum())
        feature.append(-1)
        threshold.append(0.0)
        right.append(-1)
        counts.append((rows.size - n_true, n_true))
        if n_true in (0, rows.size) or rows.size < min_samples_split or \
                (max_depth is not None and depth >= max_depth):
            continue
        if max_features is not None and max_features < d:
            candidates = np.sort(rng.choice(d, size=max_features,
                                            replace=False))
        else:
            candidates = np.arange(d)
        block = X[np.ix_(rows, candidates)]
        order = np.argsort(block, axis=0, kind="stable")
        column, _, t = split_block_oracle(
            np.take_along_axis(block, order, axis=0),
            node_labels.astype(np.uint8)[order])
        if column < 0:
            continue  # every candidate constant here
        feature[node], threshold[node] = int(candidates[column]), t
        go_left = X[rows, feature[node]] <= t
        pending.append((rows[~go_left], depth + 1, node))
        pending.append((rows[go_left], depth + 1, -1))
    return {"feature": np.array(feature, dtype=np.intp),
            "threshold": np.array(threshold),
            "right": np.array(right, dtype=np.intp),
            "counts": np.array(counts, dtype=np.intp).reshape(-1, 2)}


def pca_oracle(rows, r):
    """Eigendecomposition of np.cov (general eig path), sign-normalised."""
    rows = np.asarray(rows, dtype=np.float64)
    cov = np.cov(rows, rowvar=False)
    eigenvalues, eigenvectors = np.linalg.eig(cov)
    eigenvalues = np.real(eigenvalues)
    eigenvectors = np.real(eigenvectors)
    order = np.argsort(-eigenvalues)[:r]
    components = eigenvectors[:, order]
    for j in range(components.shape[1]):
        pivot = int(np.argmax(np.abs(components[:, j])))
        if components[pivot, j] < 0:
            components[:, j] = -components[:, j]
    return components, eigenvalues[order]


def logistic_kkt_oracle(X, y, w, b, C, l1_ratio):
    """Relative KKT residual of the penalised logistic objective

        F(w, b) = sum_i log(1 + exp(-m_i)) + l1*|w|_1 + l2/2*|w|^2,
        m_i = y_i (w.x_i + b),  l1 = l1_ratio/C,  l2 = (1 - l1_ratio)/C,

    at (w, b), with y in {-1, +1}: the largest entry of the minimum-norm
    subgradient of F over [w, b], divided by max(1, |F|).  It is 0 exactly
    at the minimiser.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    l1 = l1_ratio / C
    l2 = (1.0 - l1_ratio) / C
    margins = y * (X @ w + b)
    objective = float(np.sum(np.logaddexp(0.0, -margins))
                      + l1 * np.sum(np.abs(w)) + 0.5 * l2 * np.dot(w, w))
    # d/dm log(1 + exp(-m)) = -1/(1 + exp(m)) = -(1 - tanh(m/2))/2
    dloss_dscore = -y * 0.5 * (1.0 - np.tanh(0.5 * margins))
    residual = abs(float(np.sum(dloss_dscore)))  # intercept: unpenalised
    for j in range(len(w)):
        g = float(np.dot(X[:, j], dloss_dscore)) + l2 * w[j]
        if w[j] > 0.0:
            pg = g + l1
        elif w[j] < 0.0:
            pg = g - l1
        elif g + l1 < 0.0:
            pg = g + l1
        elif g - l1 > 0.0:
            pg = g - l1
        else:
            pg = 0.0  # 0 lies in the subdifferential [g - l1, g + l1]
        residual = max(residual, abs(pg))
    return residual / max(1.0, abs(objective))


def svm_kkt_oracle(X, y, alpha, C, kernel, gamma):
    """KKT gap m(alpha) - M(alpha) of the soft-margin SVM dual

        min 1/2 sum_st alpha_s alpha_t y_s y_t K(x_s, x_t) - sum_s alpha_s
        s.t. 0 <= alpha <= C,  sum_s y_s alpha_s = 0,

    at alpha, with y in {-1, +1} and K linear (x.x') or RBF
    (exp(-gamma |x - x'|^2)), built row by row.  With G the gradient,
    m is the largest -y_t G_t over the t whose alpha_t may still move up
    along y_t, and M the smallest over those that may move down; alpha is
    optimal exactly when m <= M (Keerthi et al. 2001).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    n = X.shape[0]
    K = np.empty((n, n))
    for s in range(n):
        if kernel == "linear":
            K[s] = X @ X[s]
        else:
            delta = X - X[s]
            with np.errstate(over="ignore"):  # exp(-inf) = 0, the limit
                K[s] = np.exp(-gamma * np.einsum("ij,ij->i", delta, delta))
    m, M = -np.inf, np.inf
    for t in range(n):
        score = -y[t] * (y[t] * np.dot(K[t], alpha * y) - 1.0)
        if (y[t] > 0 and alpha[t] < C) or (y[t] < 0 and alpha[t] > 0):
            m = max(m, score)
        if (y[t] > 0 and alpha[t] > 0) or (y[t] < 0 and alpha[t] < C):
            M = min(M, score)
    return m - M


def dataset_csv_oracle(dataset):
    """Dataset CSV bytes built cell by cell with the csv module: an
    integral value as str(int(f)), any other as repr(f)."""
    def cell(v):
        f = float(v)
        return str(int(f)) if f == int(f) else repr(f)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*dataset.feature_names, "label", "synthetic"])
    for row, label, synthetic in zip(dataset.features, dataset.labels,
                                     dataset.synthetic_flags):
        writer.writerow([*map(cell, row), "true" if label else "false",
                         "true" if synthetic else "false"])
    return out.getvalue().encode("utf-8")


def jsonable_oracle(value):
    """A document as plain JSON values by an explicit walk: the conversion
    model files and reports went through before json.dump."""
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, dict):
        return {k: jsonable_oracle(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_oracle(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return {field.name: jsonable_oracle(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    return value


def json_file_oracle(doc):
    """JSON artifact bytes: the walked document, key-sorted, indented by
    two spaces, newline-terminated."""
    text = json.dumps(jsonable_oracle(doc), indent=2, sort_keys=True)
    return (text + "\n").encode("utf-8")


def csv_file_oracle(header, rows):
    """Non-dataset CSV bytes with each cell formatted by its caller, as
    the writers of the summary, tune, scatter, provenance and cohort files
    did: a bool as true/false, a float as repr(float(v))."""
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return repr(float(v)) if isinstance(v, float) else v

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in rows)
    return out.getvalue().encode("utf-8")


def tree_proba_oracle(tree, rows):
    """Leaf probabilities by walking one row at a time, node by node, down
    a fitted tree (feature -1 marks a leaf; a row goes left, to the next
    node, when its value is <= the node's threshold), each leaf's class
    counts divided by their sum."""
    feature, threshold, right, counts = (
        a.tolist() for a in
        (tree.feature, tree.threshold, tree.right, tree.counts))
    out = np.empty((rows.shape[0], 2))
    for i in range(rows.shape[0]):
        node = 0
        while feature[node] != -1:
            if rows[i, feature[node]] <= threshold[node]:
                node = node + 1
            else:
                node = right[node]
        n_false, n_true = counts[node]
        out[i] = n_false / (n_false + n_true), n_true / (n_false + n_true)
    return out
