"""Exactness and determinism of the brute-force neighbour search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atrisk import knn_indices
from atrisk.neighbors import knn_among
from oracles import knn_oracle


def test_three_point_line():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    result = knn_indices(points, 1)
    assert result.tolist() == [[1], [0], [1]]


def test_duplicate_points_tie_goes_to_lower_index():
    points = np.array([[0.0], [1.0], [1.0], [2.0]])
    result = knn_indices(points, 1)
    # row 3 is equidistant from rows 1 and 2 -> picks 1
    assert result[3, 0] == 1
    # rows 1 and 2 are distance 0 from each other
    assert result[1, 0] == 2
    assert result[2, 0] == 1


def test_matches_all_pairs_oracle():
    rng = np.random.default_rng(12)
    points = rng.random((50, 10))
    result = knn_indices(points, 5)
    assert np.array_equal(result, knn_oracle(points, 5))


def test_matches_oracle_with_ties():
    rng = np.random.default_rng(13)
    for _ in range(20):
        points = rng.integers(0, 2, (30, 6)).astype(float)
        result = knn_indices(points, 4)
        assert np.array_equal(result, knn_oracle(points, 4))


def test_subset_candidates():
    rng = np.random.default_rng(14)
    points = rng.random((20, 4))
    subset = [0, 3, 5, 7, 11, 13]
    result = knn_indices(points, 3, subset=subset)
    assert np.array_equal(result, knn_oracle(points, 3, subset)[subset])
    assert set(result.ravel().tolist()) <= set(subset)
    for row, i in enumerate(subset):
        assert i not in result[row]


def test_permutation_equivariance():
    rng = np.random.default_rng(15)
    points = rng.random((25, 5))  # continuous, ties have probability 0
    k = 4
    base = knn_indices(points, k)
    perm = rng.permutation(25)
    permuted = knn_indices(points[perm], k)
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
    nn = knn_indices(points, 1)
    assert dist[a, nn[a, 0]] == dist[a, b]


def test_k_too_large_reports_pool_size():
    points = np.zeros((4, 2))
    with pytest.raises(ValueError, match="pool of 4"):
        knn_indices(points, 4)
    with pytest.raises(ValueError, match="pool of 2"):
        knn_indices(points, 2, subset=[0, 1])


def test_query_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        knn_indices(np.zeros((3, 2)), 0)
    with pytest.raises(ValueError, match="2-D"):
        knn_indices(np.zeros(3), 1)
    with pytest.raises(ValueError, match="d >= 1"):
        knn_indices(np.zeros((3, 0)), 1)


def test_subset_validation():
    points = np.zeros((5, 2))
    with pytest.raises(ValueError, match="out of range"):
        knn_indices(points, 1, subset=[0, 9])
    with pytest.raises(ValueError, match="unique"):
        knn_indices(points, 1, subset=[1, 1, 2])
    with pytest.raises(ValueError, match="empty"):
        knn_indices(points, 1, subset=[])


def test_knn_among_cross_set():
    rng = np.random.default_rng(17)
    train = rng.random((12, 3))
    queries = np.vstack([train[4], rng.random((2, 3))])
    idx = knn_among(queries, train, k=2)
    # an identical point is its own nearest neighbour across sets
    assert idx[0, 0] == 4
    with pytest.raises(ValueError, match="exceeds"):
        knn_among(queries, train, k=13)


BITS = st.sampled_from([0.0, 1.0])


@st.composite
def binary_points(draw):
    """0/1 points in few dimensions, so duplicate rows and ties abound."""
    shape = (draw(st.integers(2, 20)), draw(st.integers(1, 4)))
    return draw(arrays(np.float64, shape, elements=BITS))


@settings(max_examples=100, deadline=None)
@given(points=binary_points(), data=st.data())
def test_knn_among_with_own_matches_oracle(points, data):
    n = len(points)
    own = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                        unique=True)), dtype=np.intp)
    k = data.draw(st.integers(1, n - 1))
    result = knn_among(points[own], points, k, own=own)
    assert np.array_equal(result, knn_oracle(points, k)[own])


@settings(max_examples=100, deadline=None)
@given(candidates=binary_points(), data=st.data())
def test_knn_among_cross_set_matches_oracle(candidates, data):
    m, d = candidates.shape
    n_queries = data.draw(st.integers(1, 6))
    queries = data.draw(arrays(np.float64, (n_queries, d), elements=BITS))
    # k < m: the oracle also ranks each candidate among the others
    k = data.draw(st.integers(1, m - 1))
    result = knn_among(queries, candidates, k)
    # queries stacked after the candidates are outside the oracle's pool,
    # so none of them loses itself as a candidate
    stacked = np.vstack([candidates, queries])
    expected = knn_oracle(stacked, k, subset=range(m))[m:]
    assert np.array_equal(result, expected)
