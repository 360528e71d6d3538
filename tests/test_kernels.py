"""Numeric kernels: correctness against direct formulas and oracles."""

import numpy as np
import pytest

from atrisk import kernels
from oracles import gini_split_oracle


def test_pairwise_sqdist_matches_direct_formula():
    rng = np.random.default_rng(5)
    x = rng.random((23, 9))
    y = rng.random((17, 9))
    dist = kernels.pairwise_sqdist(x, y)
    for i in range(x.shape[0]):
        for j in range(y.shape[0]):
            expected = float(np.sum((x[i] - y[j]) ** 2))
            assert dist[i, j] == pytest.approx(expected, abs=1e-12)


def test_pairwise_sqdist_exact_on_binary():
    rng = np.random.default_rng(6)
    x = (rng.random((30, 40)) < 0.5).astype(float)
    dist = kernels.pairwise_sqdist(x, x)
    # 0/1 rows make every distance an exact small integer
    assert np.array_equal(dist, np.round(dist))
    assert np.array_equal(np.diag(dist), np.zeros(30))


def test_pairwise_rejects_mismatched_columns():
    with pytest.raises(ValueError, match="column mismatch"):
        kernels.pairwise_sqdist(np.zeros((2, 3)), np.zeros((2, 4)))


def sorted_block(values, labels):
    """Sort every column of a block, carrying its labels along."""
    order = np.argsort(values, axis=0, kind="stable")
    return (np.take_along_axis(values, order, axis=0),
            np.take_along_axis(labels, order, axis=0))


def test_split_scan_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, 8))
        if rng.random() < 0.5:
            values = rng.integers(0, 2, (n, m)).astype(float)
        else:
            values = rng.random((n, m))
        labels = np.repeat((rng.random((n, 1)) < 0.4).astype(np.uint8),
                           m, axis=1)
        values, labels = sorted_block(values, labels)
        # the best split of each column on its own, by the oracle
        per_column = [gini_split_oracle(values[:, j], labels[:, j])
                      for j in range(m)]
        # each column scanned alone agrees with the oracle
        singles = [kernels.split_scan(values[:, [j]], labels[:, [j]])
                   for j in range(m)]
        for j, (found, impurity, threshold) in enumerate(singles):
            candidates = gini_split_oracle(values[:, j], labels[:, j])
            if not candidates:
                assert found == -1
                continue
            best = min(wg for wg, _ in candidates)
            assert found == 0
            assert impurity == pytest.approx(best, abs=1e-12)
            ties = {thr for wg, thr in candidates if abs(wg - best) < 1e-12}
            assert threshold in ties
        # the block's winner is the first strict minimum over the columns
        expected = (-1, np.inf, 0.0)
        for j, (found, impurity, threshold) in enumerate(singles):
            if found == 0 and impurity < expected[1]:
                expected = (j, impurity, threshold)
        assert kernels.split_scan(values, labels) == expected


def split_scan_reference(values, labels):
    """split_scan as one textbook expression: the weighted Gini scores whose
    bits every saved tree and forest depends on."""
    n = values.shape[0]
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


def test_split_scan_bit_identical_to_reference_expression():
    # exact equality: a reordered sum or product shifts the last bits of
    # some score, which the oracle test's 1e-12 tolerance would let pass
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 300))
        m = int(rng.integers(1, 12))
        if rng.random() < 0.5:
            values = rng.integers(0, 2, (n, m)).astype(float)
        else:
            values = rng.random((n, m))
        labels = np.repeat((rng.random((n, 1)) < rng.random())
                           .astype(np.uint8), m, axis=1)
        values, labels = sorted_block(values, labels)
        assert kernels.split_scan(values, labels) == \
            split_scan_reference(values, labels)
        for j in range(m):
            single = (values[:, [j]], labels[:, [j]])
            assert kernels.split_scan(*single) == \
                split_scan_reference(*single)


def test_split_scan_identical_columns_lower_wins():
    values = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    labels = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=np.uint8)
    column, impurity, threshold = kernels.split_scan(values, labels)
    assert (column, impurity, threshold) == (0, 0.0, 1.5)


def test_split_scan_lowest_threshold_wins_within_column():
    # the splits at 0.5 and 3.5 score exactly 0.4 each
    values = np.arange(5.0).reshape(5, 1)
    labels = np.array([[0], [1], [0], [1], [0]], dtype=np.uint8)
    assert kernels.split_scan(values, labels) == (0, 0.4, 0.5)


def test_split_scan_constant_column():
    values = np.ones((10, 3))
    labels = np.tile(np.array([[0], [1]], dtype=np.uint8), (5, 3))
    assert kernels.split_scan(values, labels)[0] == -1


@pytest.mark.parametrize("n", [0, 1])
def test_split_scan_too_few_rows(n):
    values = np.arange(float(n)).reshape(n, 1)
    labels = np.zeros((n, 1), dtype=np.uint8)
    assert kernels.split_scan(values, labels)[0] == -1


@pytest.mark.parametrize("values_shape, labels_shape",
                         [((4, 2), (4, 3)), ((4, 2), (3, 2)), ((4,), (4,))])
def test_split_scan_rejects_misaligned_shapes(values_shape, labels_shape):
    with pytest.raises(ValueError, match="aligned 2-D"):
        kernels.split_scan(np.zeros(values_shape),
                           np.zeros(labels_shape, dtype=np.uint8))


def test_single_numpy_backend():
    assert kernels.active_backend() == "numpy"
