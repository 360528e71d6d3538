"""SMOTE/ADASYN structure: balance, containment, provenance, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atrisk import ResampleConfig, adasyn, resample, smote
from atrisk.resampling import _interpolate, allocate_by_share
from conftest import make_dataset
from oracles import knn_oracle


def clustered_dataset(n_minority=8, n_majority=30, separated=False, seed=0):
    rng = np.random.default_rng(seed)
    d = 6
    majority = (rng.random((n_majority, d)) < 0.7).astype(float)
    if separated:
        minority = np.zeros((n_minority, d))
        minority[:, 0] = 0.0  # all-zero block, far from the dense majority
    else:
        minority = (rng.random((n_minority, d)) < 0.3).astype(float)
    features = np.vstack([majority, minority])
    labels = [True] * n_majority + [False] * n_minority
    return make_dataset(features, labels)


def test_smote_counts_on_simulated_split(split_w3):
    train, _ = split_w3
    n_fail, n_pass = train.class_counts()
    assert (n_fail, n_pass) == (45, 258)
    result = smote(train, ResampleConfig(method="smote", seed=3))
    gap = max(n_fail, n_pass) - min(n_fail, n_pass)  # counting oracle
    assert gap == 213
    assert int(result.dataset.synthetic_flags.sum()) == gap
    assert result.dataset.class_counts() == (258, 258)


@pytest.mark.parametrize("method", ["smote", "adasyn"])
def test_balance_and_containment_many_seeds(split_w3, method):
    train, _ = split_w3
    for seed in range(10):
        result = resample(train, ResampleConfig(method=method, seed=seed))
        n_fail, n_pass = result.dataset.class_counts()
        assert n_fail == n_pass
        feats = result.dataset.features
        for entry in result.provenance.rows:
            base = train.features[entry.base_row]
            neighbor = train.features[entry.neighbor_row]
            synthetic = feats[entry.synthetic_row]
            assert np.all(synthetic >= np.minimum(base, neighbor))
            assert np.all(synthetic <= np.maximum(base, neighbor))
            assert 0.0 <= entry.lam < 1.0


def test_original_rows_untouched(split_w3):
    train, _ = split_w3
    result = smote(train, ResampleConfig(seed=5))
    n = train.n_rows
    assert np.array_equal(result.dataset.features[:n], train.features)
    assert np.array_equal(result.dataset.labels[:n], train.labels)
    assert not result.dataset.synthetic_flags[:n].any()
    assert result.dataset.synthetic_flags[n:].all()
    assert result.dataset.feature_names == train.feature_names


def test_synthetic_values_within_unit_interval(split_w3):
    train, _ = split_w3
    result = smote(train, ResampleConfig(seed=6))
    assert result.dataset.features.min() >= 0.0
    assert result.dataset.features.max() <= 1.0


def test_smote_round_robin_base_counts(split_w3):
    train, _ = split_w3
    result = smote(train, ResampleConfig(seed=7))
    bases = [r.base_row for r in result.provenance.rows]
    counts = np.bincount(bases, minlength=train.n_rows)
    minority = np.flatnonzero(~train.labels)
    per_base = counts[minority]
    assert per_base.max() - per_base.min() <= 1
    assert counts[train.labels].sum() == 0  # majority rows never a base


def test_interpolation_endpoints():
    base = np.array([0.0, 1.0, 0.0])
    neighbor = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(_interpolate(base, neighbor, 0.0), base)
    assert np.array_equal(_interpolate(base, neighbor, 1.0), neighbor)


def test_two_point_minority_segment_geometry():
    rng = np.random.default_rng(1)
    majority = (rng.random((12, 4)) < 0.5).astype(float)
    p = np.array([0.0, 0.0, 1.0, 1.0])
    q = np.array([1.0, 1.0, 1.0, 0.0])
    features = np.vstack([majority, p, q])
    labels = [True] * 12 + [False, False]
    ds = make_dataset(features, labels)
    result = smote(ds, ResampleConfig(k_neighbors=1, seed=2))
    direction = q - p
    for entry in result.provenance.rows:
        synthetic = result.dataset.features[entry.synthetic_row]
        lo = np.minimum(p, q)
        hi = np.maximum(p, q)
        assert np.all(synthetic >= lo) and np.all(synthetic <= hi)
        # collinear with p and q within 1e-9
        offset = synthetic - p
        t = offset @ direction / (direction @ direction)
        assert np.linalg.norm(offset - t * direction) < 1e-9


def test_determinism(split_w3):
    train, _ = split_w3
    config = ResampleConfig(method="adasyn", seed=99)
    a = adasyn(train, config)
    b = adasyn(train, config)
    assert np.array_equal(a.dataset.features, b.dataset.features)
    assert a.provenance == b.provenance


def test_k_too_large_advises_smaller_k():
    ds = clustered_dataset(n_minority=4)
    with pytest.raises(ValueError, match="smaller k_neighbors"):
        smote(ds, ResampleConfig(k_neighbors=5, seed=0))


def test_adasyn_surrounded_row_gets_maximal_share():
    rng = np.random.default_rng(3)
    d = 4
    # one minority row sits inside the majority cluster; five more sit far
    majority = np.tile(np.array([1.0, 1.0, 1.0, 1.0]), (15, 1))
    majority[:, 3] = (rng.random(15) < 0.5).astype(float)
    surrounded = np.array([[1.0, 1.0, 1.0, 1.0]])
    far = np.zeros((5, d))
    far[:, 0] = (rng.random(5) < 0.5).astype(float)
    features = np.vstack([majority, surrounded, far])
    labels = [True] * 15 + [False] * 6
    ds = make_dataset(features, labels)
    result = adasyn(ds, ResampleConfig(method="adasyn", k_neighbors=5,
                                       seed=4))
    assert not result.provenance.adasyn_fallback
    bases = [r.base_row for r in result.provenance.rows]
    counts = np.bincount(bases, minlength=ds.n_rows)
    assert counts[15] == counts.max()  # row 15 is the surrounded one


def test_adasyn_fallback_on_separated_classes():
    ds = clustered_dataset(separated=True)
    result = adasyn(ds, ResampleConfig(method="adasyn", k_neighbors=3,
                                       seed=5))
    assert result.provenance.adasyn_fallback
    smote_result = smote(ds, ResampleConfig(k_neighbors=3, seed=5))
    assert result.dataset.class_counts() == smote_result.dataset.class_counts()


def test_adasyn_allocation_sums_to_gap(split_w3):
    train, _ = split_w3
    for seed in range(5):
        result = adasyn(train, ResampleConfig(method="adasyn", seed=seed))
        n_fail, n_pass = train.class_counts()
        assert len(result.provenance.rows) == n_pass - n_fail


def test_allocation_exact_rounding():
    assert allocate_by_share(np.array([0.5, 0.3, 0.2]), 10).tolist() == \
        [5, 3, 2]


def test_allocation_repairs_drift_deterministically():
    # banker's rounding of (4.5, 4.5, 1.0) under-counts by one; the first
    # largest share takes the repair
    assert allocate_by_share(np.array([0.45, 0.45, 0.10]), 10).tolist() == \
        [5, 4, 1]
    rng = np.random.default_rng(6)
    for _ in range(100):
        share = rng.random(7)
        share /= share.sum()
        gap = int(rng.integers(1, 60))
        alloc = allocate_by_share(share, gap)
        assert alloc.sum() == gap
        assert (alloc >= 0).all()


def test_config_validation():
    with pytest.raises(ValueError, match="method"):
        ResampleConfig(method="ctgan")
    with pytest.raises(ValueError, match="k_neighbors"):
        ResampleConfig(k_neighbors=0)


def test_provenance_csv_format(tmp_path, split_w3):
    train, _ = split_w3
    result = smote(train, ResampleConfig(seed=8))
    path = tmp_path / "provenance.csv"
    result.provenance.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "synthetic_row,base_row,neighbor_row,lambda"
    assert len(lines) == 1 + len(result.provenance.rows)
    first = result.provenance.rows[0]
    assert lines[1] == f"{first.synthetic_row},{first.base_row}," \
                       f"{first.neighbor_row},{first.lam!r}"


@settings(max_examples=60, deadline=None)
@given(data=st.data(), method=st.sampled_from(["smote", "adasyn"]),
       seed=st.integers(0, 2**32 - 1))
def test_largest_k_with_duplicate_minority_rows(data, method, seed):
    d = data.draw(st.integers(1, 4))
    bits = st.sampled_from([0.0, 1.0])
    drawn = data.draw(arrays(np.float64, (data.draw(st.integers(1, 6)), d),
                             elements=bits))
    minority = np.vstack([drawn, drawn[:1]])  # always one duplicate
    n_majority = data.draw(st.integers(len(minority), 25))
    majority = data.draw(arrays(np.float64, (n_majority, d), elements=bits))
    ds = make_dataset(np.vstack([majority, minority]),
                      [True] * n_majority + [False] * len(minority))
    k = len(minority) - 1
    result = resample(ds, ResampleConfig(method=method, k_neighbors=k,
                                         seed=seed))

    gap = n_majority - len(minority)
    assert result.dataset.class_counts() == (n_majority, n_majority)
    assert len(result.provenance.rows) == gap
    minority_rows = set(range(n_majority, ds.n_rows))
    for entry in result.provenance.rows:
        assert entry.base_row in minority_rows
        assert entry.neighbor_row in minority_rows - {entry.base_row}
        base = ds.features[entry.base_row]
        neighbor = ds.features[entry.neighbor_row]
        synthetic = result.dataset.features[entry.synthetic_row]
        assert np.all(synthetic >= np.minimum(base, neighbor))
        assert np.all(synthetic <= np.maximum(base, neighbor))

    if method == "adasyn":
        # majority counts among each minority row's k nearest over all rows
        idx = sorted(minority_rows)
        r = ds.labels[knn_oracle(ds.features, k)[idx]].sum(axis=1) / k
        assert result.provenance.adasyn_fallback == (r.sum() == 0)
        if r.sum():
            alloc = allocate_by_share(r / r.sum(), gap)
            bases = np.bincount([e.base_row for e in result.provenance.rows],
                                minlength=ds.n_rows)[idx]
            assert np.array_equal(bases, alloc) and alloc.sum() == gap
