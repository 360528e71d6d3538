"""Numeric kernels: correctness against direct formulas and oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atrisk import kernels
from oracles import gini_split_oracle, split_block_oracle


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


BINARY = st.sampled_from([0.0, 1.0])
FRACTIONAL = st.floats(-1e6, 1e6)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), d=st.integers(1, 40),
       elements=st.sampled_from([BINARY, FRACTIONAL,
                                 st.one_of(BINARY, FRACTIONAL)]))
def test_pairwise_sqdist_of_one_array_is_bitwise_the_general_path(
        data, n, d, elements):
    # given one array twice, each pair is computed once and mirrored; a
    # copy takes the general path, which computes every entry
    x = data.draw(arrays(np.float64, (n, d), elements=elements))
    mirrored = kernels.pairwise_sqdist(x, x)
    general = kernels.pairwise_sqdist(x, x.copy())
    assert np.array_equal(mirrored.view(np.uint64), general.view(np.uint64))


def test_pairwise_rejects_mismatched_columns():
    with pytest.raises(ValueError, match="column mismatch"):
        kernels.pairwise_sqdist(np.zeros((2, 3)), np.zeros((2, 4)))


def pack(segments, seed=0):
    """(keys, ends, distinct, n_ranks) of segments, each a (values,
    labels) pair of 1-D arrays: a value's rank is dense within its segment,
    distinct[s] holds segment s's values ascending, and the keys are
    shuffled (split_scan sorts them)."""
    distinct = [np.unique(values) for values, _ in segments]
    n_ranks = max(len(d) for d in distinct)
    keys = np.concatenate([
        (s * n_ranks + np.searchsorted(d, values)) * 2 + labels
        for s, ((values, labels), d) in enumerate(zip(segments, distinct))])
    keys = np.random.default_rng(seed).permutation(keys).astype(np.int32)
    ends = np.cumsum([len(values) for values, _ in segments])
    return keys, ends, distinct, n_ranks


def scan(segments):
    """split_scan of the segments, as (score, threshold) a segment; the
    threshold is None where the score is inf."""
    keys, ends, distinct, n_ranks = pack(segments)
    score, at = kernels.split_scan(keys, ends)
    found = []
    for s, (low, k) in enumerate(zip(score.tolist(), at.tolist())):
        if k < 0:
            assert low == np.inf
            found.append((low, None))
            continue
        left, right = ((keys[k:k + 2] >> 1) - s * n_ranks).tolist()
        assert right > left  # a boundary lies between two ranks
        found.append((low, (distinct[s][left] + distinct[s][right]) / 2.0))
    return found


def random_segments(rng, max_rows):
    """Segments of one node's rows: every column shares the labels, and a
    column is binary or fractional with repeats."""
    n = int(rng.integers(1, max_rows))
    labels = (rng.random(n) < rng.random()).astype(np.int32)
    columns = []
    for _ in range(int(rng.integers(1, 8))):
        if rng.random() < 0.5:
            columns.append(rng.integers(0, 2, n).astype(float))
        else:
            columns.append(np.round(rng.random(n), int(rng.integers(1, 3))))
    return [(values, labels) for values in columns]


def test_split_scan_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        segments = random_segments(rng, 60) + random_segments(rng, 60)
        for (values, labels), (score, threshold) in zip(segments,
                                                        scan(segments)):
            order = np.argsort(values, kind="stable")
            candidates = gini_split_oracle(values[order], labels[order])
            if not candidates:
                assert threshold is None
                continue
            best = min(wg for wg, _ in candidates)
            assert score == pytest.approx(best, abs=1e-12)
            ties = {thr for wg, thr in candidates if abs(wg - best) < 1e-12}
            assert threshold in ties


def test_split_scan_bit_identical_to_reference_expression():
    # exact equality with the textbook expression over a sorted column: a
    # reordered sum or product shifts the last bits of some score, which
    # the oracle test's 1e-12 tolerance would let pass
    rng = np.random.default_rng(17)
    for _ in range(200):
        segments = random_segments(rng, 300) + random_segments(rng, 30)
        found = scan(segments)
        for (values, labels), (score, threshold) in zip(segments, found):
            order = np.argsort(values, kind="stable")
            column, best, at = split_block_oracle(
                values[order][:, None], labels[order][:, None])
            assert (score, threshold) == \
                ((np.inf, None) if column < 0 else (best, at))


def test_split_scan_identical_columns_lower_wins():
    # the two columns score alike, so a node's first minimum is column 0
    values = np.array([0.0, 1.0, 2.0, 3.0])
    labels = np.array([0, 0, 1, 1])
    keys, ends, _, _ = pack([(values, labels)] * 2)
    score, _ = kernels.split_scan(keys, ends)
    assert score.tolist() == [0.0, 0.0] and np.argmin(score) == 0


def test_split_scan_lowest_threshold_wins_within_column():
    # the splits at 0.5 and 3.5 score exactly 0.4 each
    assert scan([(np.arange(5.0), np.array([0, 1, 0, 1, 0]))]) == \
        [(0.4, 0.5)]


def test_split_scan_constant_column():
    labels = np.tile([0, 1], 5)
    assert scan([(np.ones(10), labels), (np.arange(10.0), labels)])[0] == \
        (np.inf, None)


@pytest.mark.parametrize("n", [0, 1])
def test_split_scan_too_few_rows(n):
    # one cell has no split; a segment of no cells is refused
    segments = [(np.arange(float(n)), np.zeros(n, dtype=np.int32)),
                (np.arange(3.0), np.array([0, 1, 1]))]
    if n == 0:
        with pytest.raises(ValueError, match="ends must rise"):
            scan(segments)
    else:
        assert scan(segments) == [(np.inf, None), (0.0, 0.5)]


def test_split_scan_sorts_keys_in_place():
    keys, ends, _, _ = pack(random_segments(np.random.default_rng(3), 40))
    before = keys.copy()
    kernels.split_scan(keys, ends)
    assert np.array_equal(keys, np.sort(before))


@pytest.mark.parametrize("ends", [[], [4], [2, 6], [3, 3, 5], [0, 5]])
def test_split_scan_rejects_ends_not_covering_the_keys(ends):
    with pytest.raises(ValueError, match="ends must rise from 1 to the 5"):
        kernels.split_scan(np.arange(5, dtype=np.int32), ends)


def test_single_numpy_backend():
    assert kernels.active_backend() == "numpy"
