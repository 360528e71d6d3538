"""Brute-force k-nearest-neighbour search (exact, deterministic).

Distances are Euclidean; ties break by ascending row index.  Point counts in
this package stay in the hundreds, so the O(n^2 d) scan through
``kernels.pairwise_sqdist`` is both fast enough and exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass(frozen=True)
class NeighborQuery:
    points: np.ndarray
    k: int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] < 1:
            raise ValueError("points must be a 2-D matrix with d >= 1")
        object.__setattr__(self, "points", points)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def knn_among(queries, candidates, k):
    """k nearest candidate rows for each query row (no self-exclusion).

    Returns an (n_queries, k) int array of candidate positions ordered by
    ascending distance, ties by ascending position.
    """
    queries = np.asarray(queries, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if k > candidates.shape[0]:
        raise ValueError(f"k={k} exceeds candidate pool of "
                         f"{candidates.shape[0]}")
    dist = kernels.pairwise_sqdist(queries, candidates)
    order = np.argsort(dist, axis=1, kind="stable")
    return order[:, :k]


def knn_indices(query, subset=None):
    """k nearest neighbours of every row among a candidate pool.

    The pool is all rows, or the given row indices; a row never counts as
    its own neighbour.  Output indices are global row indices, one ordered
    list of k per query row.
    """
    points = query.points
    n = points.shape[0]
    if subset is None:
        pool = np.arange(n, dtype=np.intp)
    else:
        pool = np.asarray(subset, dtype=np.intp)
        if pool.size == 0:
            raise ValueError("candidate subset is empty")
        if pool.min() < 0 or pool.max() >= n:
            raise ValueError(f"subset indices out of range 0..{n - 1}")
        if np.unique(pool).size != pool.size:
            raise ValueError("subset indices must be unique")
        pool = np.sort(pool)

    # pool rows are always among the queries and lose themselves as candidates
    if query.k > pool.size - 1:
        raise ValueError(f"k={query.k} too large for candidate pool of "
                         f"{pool.size} (self excluded)")

    dist = kernels.pairwise_sqdist(points, points[pool])
    dist[pool, np.arange(pool.size)] = np.inf
    order = np.argsort(dist, axis=1, kind="stable")[:, :query.k]
    return pool[order]
