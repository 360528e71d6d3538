"""Exactness and determinism of the brute-force neighbour search."""

import numpy as np
import pytest

from atrisk import NeighborQuery, knn_indices
from atrisk.neighbors import knn_among
from oracles import knn_oracle


def test_three_point_line():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    result = knn_indices(NeighborQuery(points=points, k=1))
    assert result.tolist() == [[1], [0], [1]]


def test_duplicate_points_tie_goes_to_lower_index():
    points = np.array([[0.0], [1.0], [1.0], [2.0]])
    result = knn_indices(NeighborQuery(points=points, k=1))
    # row 3 is equidistant from rows 1 and 2 -> picks 1
    assert result[3, 0] == 1
    # rows 1 and 2 are distance 0 from each other
    assert result[1, 0] == 2
    assert result[2, 0] == 1


def test_matches_all_pairs_oracle():
    rng = np.random.default_rng(12)
    points = rng.random((50, 10))
    result = knn_indices(NeighborQuery(points=points, k=5))
    assert np.array_equal(result, knn_oracle(points, 5))


def test_matches_oracle_with_ties():
    rng = np.random.default_rng(13)
    for _ in range(20):
        points = rng.integers(0, 2, (30, 6)).astype(float)
        result = knn_indices(NeighborQuery(points=points, k=4))
        assert np.array_equal(result, knn_oracle(points, 4))


def test_subset_candidates():
    rng = np.random.default_rng(14)
    points = rng.random((20, 4))
    subset = [0, 3, 5, 7, 11, 13]
    result = knn_indices(NeighborQuery(points=points, k=3), subset=subset)
    assert np.array_equal(result, knn_oracle(points, 3, subset=subset))
    assert set(result.ravel().tolist()) <= set(subset)
    for i in subset:
        assert i not in result[i]


def test_permutation_equivariance():
    rng = np.random.default_rng(15)
    points = rng.random((25, 5))  # continuous, ties have probability 0
    k = 4
    base = knn_indices(NeighborQuery(points=points, k=k))
    perm = rng.permutation(25)
    permuted = knn_indices(NeighborQuery(points=points[perm], k=k))
    inverse = np.empty(25, dtype=np.intp)
    inverse[perm] = np.arange(25)
    for new_row in range(25):
        old_row = perm[new_row]
        assert permuted[new_row].tolist() == \
            [inverse[j] for j in base[old_row]]


def test_closest_pair_sanity():
    rng = np.random.default_rng(16)
    points = rng.random((30, 3))
    delta = points[:, None, :] - points[None, :, :]
    dist = (delta ** 2).sum(-1)
    np.fill_diagonal(dist, np.inf)
    a, b = np.unravel_index(np.argmin(dist), dist.shape)
    nn = knn_indices(NeighborQuery(points=points, k=1))
    assert dist[a, nn[a, 0]] == dist[a, b]


def test_k_too_large_reports_pool_size():
    points = np.zeros((4, 2))
    with pytest.raises(ValueError, match="pool of 4"):
        knn_indices(NeighborQuery(points=points, k=4))
    with pytest.raises(ValueError, match="pool of 2"):
        knn_indices(NeighborQuery(points=points, k=2), subset=[0, 1])


def test_query_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        NeighborQuery(points=np.zeros((3, 2)), k=0)
    with pytest.raises(ValueError, match="2-D"):
        NeighborQuery(points=np.zeros(3), k=1)


def test_subset_validation():
    points = np.zeros((5, 2))
    query = NeighborQuery(points=points, k=1)
    with pytest.raises(ValueError, match="out of range"):
        knn_indices(query, subset=[0, 9])
    with pytest.raises(ValueError, match="unique"):
        knn_indices(query, subset=[1, 1, 2])
    with pytest.raises(ValueError, match="empty"):
        knn_indices(query, subset=[])


def test_knn_among_cross_set():
    rng = np.random.default_rng(17)
    train = rng.random((12, 3))
    queries = np.vstack([train[4], rng.random((2, 3))])
    idx = knn_among(queries, train, k=2)
    # an identical point is its own nearest neighbour across sets
    assert idx[0, 0] == 4
    with pytest.raises(ValueError, match="exceeds"):
        knn_among(queries, train, k=13)
