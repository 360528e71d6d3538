"""Brute-force k-nearest-neighbour search (exact, deterministic).

Distances are Euclidean; ties break by ascending row index.  Point counts in
this package stay in the hundreds, so the O(n^2 d) scan through
``kernels.pairwise_sqdist`` is both fast enough and exactly reproducible.
"""

from __future__ import annotations

import numpy as np

from . import kernels


def knn_among(queries, candidates, k, own=None):
    """k nearest candidate rows for each query row.

    Returns an (n_queries, k) int array of candidate positions ordered by
    ascending distance, ties by ascending position.  ``own[i]``, when
    given, is query i's own position among the candidates, which never
    counts as its neighbour.
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim != 2 or candidates.shape[1] < 1:
        raise ValueError("points must be a 2-D matrix with d >= 1")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(candidates) - (own is not None):
        raise ValueError(f"k={k} exceeds candidate pool of {len(candidates)}"
                         + (" (self excluded)" if own is not None else ""))
    dist = kernels.pairwise_sqdist(queries, candidates)
    if own is not None:
        dist[np.arange(len(dist)), own] = np.inf
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def knn_indices(points, k, subset=None):
    """k nearest other pool rows of every pool row.

    The pool is all rows of ``points``, or the given row indices.  Returns
    one ordered list of k row indices of ``points`` per pool row, pool rows
    in ascending order.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if subset is None:
        pool = np.arange(n, dtype=np.intp)
    else:
        pool = np.asarray(subset, dtype=np.intp)
        if pool.size == 0:
            raise ValueError("candidate subset is empty")
        if pool.min() < 0 or pool.max() >= n:
            raise ValueError(f"subset indices out of range 0..{n - 1}")
        pool = np.sort(pool)
        # np.unique would import numpy.ma; the sorted pool shows repeats
        if (pool[1:] == pool[:-1]).any():
            raise ValueError("subset indices must be unique")
    rows = points[pool]
    return pool[knn_among(rows, rows, k, own=np.arange(pool.size))]
