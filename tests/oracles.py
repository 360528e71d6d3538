"""Independent, deliberately naive reference implementations.

These stay brute-force on purpose: they are the second route every fast
implementation is checked against, so they must not share code with the
package internals.
"""

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
            K[s] = np.exp(-gamma * np.einsum("ij,ij->i", delta, delta))
    m, M = -np.inf, np.inf
    for t in range(n):
        score = -y[t] * (y[t] * np.dot(K[t], alpha * y) - 1.0)
        if (y[t] > 0 and alpha[t] < C) or (y[t] < 0 and alpha[t] > 0):
            m = max(m, score)
        if (y[t] > 0 and alpha[t] > 0) or (y[t] < 0 and alpha[t] < C):
            M = min(M, score)
    return m - M
