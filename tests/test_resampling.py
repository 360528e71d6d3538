"""Resampling structure: balance, containment, provenance, determinism;
none adds no row; a provenance file rebuilds its set or names its bad
line."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atrisk import ResampleConfig, adasyn, load_resampled, resample, smote
from atrisk.resampling import allocate_by_share, grow
from conftest import make_dataset
from oracles import knn_oracle


def assert_contained(result, real):
    """Every synthetic row lies in the box of its base and neighbour rows,
    and its lambda in [0, 1)."""
    prov = result.provenance
    assert prov.n_real == real.n_rows
    assert prov.base_row.size == prov.neighbor_row.size == prov.lam.size
    synthetic = result.dataset.features[prov.n_real:]
    assert len(synthetic) == prov.lam.size
    base = real.features[prov.base_row]
    neighbor = real.features[prov.neighbor_row]
    assert np.all(synthetic >= np.minimum(base, neighbor))
    assert np.all(synthetic <= np.maximum(base, neighbor))
    assert np.all((prov.lam >= 0.0) & (prov.lam < 1.0))


def assert_rebuilds(result):
    """Each synthetic row equals the per-row interpolation its provenance
    names, bit for bit."""
    prov = result.provenance
    feats = result.dataset.features
    for i in range(prov.lam.size):
        base, lam = feats[prov.base_row[i]], prov.lam[i]
        rebuilt = base + lam * (feats[prov.neighbor_row[i]] - base)
        assert np.array_equal(feats[prov.n_real + i], rebuilt)


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
        assert_contained(result, train)
        assert_rebuilds(result)


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
    counts = np.bincount(result.provenance.base_row, minlength=train.n_rows)
    minority = np.flatnonzero(~train.labels)
    per_base = counts[minority]
    assert per_base.max() - per_base.min() <= 1
    assert counts[train.labels].sum() == 0  # majority rows never a base


def test_interpolation_endpoints():
    ds = make_dataset([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [False, False])
    grown = grow(ds, np.array([0, 0]), np.array([1, 1]), np.array([0.0, 1.0]))
    assert np.array_equal(grown.features[2:], ds.features)
    assert grown.synthetic_flags.tolist() == [False, False, True, True]


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
    synthetic = result.dataset.features[result.provenance.n_real:]
    assert len(synthetic) == 10
    assert np.all(synthetic >= np.minimum(p, q))
    assert np.all(synthetic <= np.maximum(p, q))
    # collinear with p and q within 1e-9
    offset = synthetic - p
    t = offset @ direction / (direction @ direction)
    assert np.all(np.linalg.norm(offset - t[:, None] * direction,
                                 axis=1) < 1e-9)


def test_determinism(split_w3):
    train, _ = split_w3
    config = ResampleConfig(method="adasyn", seed=99)
    a = adasyn(train, config)
    b = adasyn(train, config)
    assert np.array_equal(a.dataset.features, b.dataset.features)
    pa, pb = a.provenance, b.provenance
    assert (pa.n_real, pa.adasyn_fallback) == (pb.n_real, pb.adasyn_fallback)
    for name in ("base_row", "neighbor_row", "lam"):
        assert np.array_equal(getattr(pa, name), getattr(pb, name))


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
    counts = np.bincount(result.provenance.base_row, minlength=ds.n_rows)
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
        prov = result.provenance
        assert prov.base_row.size == prov.neighbor_row.size == \
            prov.lam.size == n_pass - n_fail


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
    prov = result.provenance
    assert len(lines) == 1 + prov.lam.size
    for i, line in enumerate(lines[1:]):
        assert line == f"{prov.n_real + i},{prov.base_row[i]}," \
                       f"{prov.neighbor_row[i]},{float(prov.lam[i])!r}"


def test_none_returns_the_training_set_unchanged(split_w3):
    train, _ = split_w3
    # k_neighbors exceeds the minority count: none does not read it
    result = resample(train, ResampleConfig(method="none", k_neighbors=999))
    assert result.dataset is train
    prov = result.provenance
    assert prov.n_real == train.n_rows and not prov.adasyn_fallback
    for arr in (prov.base_row, prov.neighbor_row, prov.lam):
        assert arr.size == 0 and not arr.flags.writeable


def test_provenance_arrays_are_read_only(split_w3):
    train, _ = split_w3
    prov = smote(train, ResampleConfig(seed=8)).provenance
    for name in ("base_row", "neighbor_row", "lam"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(prov, name)[0] = 0


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
    prov = result.provenance
    assert prov.lam.size == gap
    assert_contained(result, ds)
    assert_rebuilds(result)
    minority_rows = set(range(n_majority, ds.n_rows))
    for base, neighbor in zip(prov.base_row.tolist(),
                              prov.neighbor_row.tolist()):
        assert base in minority_rows
        assert neighbor in minority_rows - {base}

    if method == "adasyn":
        # majority counts among each minority row's k nearest over all rows
        idx = sorted(minority_rows)
        r = ds.labels[knn_oracle(ds.features, k)[idx]].sum(axis=1) / k
        assert result.provenance.adasyn_fallback == (r.sum() == 0)
        if r.sum():
            alloc = allocate_by_share(r / r.sum(), gap)
            bases = np.bincount(prov.base_row, minlength=ds.n_rows)[idx]
            assert np.array_equal(bases, alloc) and alloc.sum() == gap


# --- the provenance file as the stored form of a resampled set --------------

def assert_same_dataset(a, b):
    assert np.array_equal(a.features.view(np.uint64),
                          b.features.view(np.uint64))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.synthetic_flags, b.synthetic_flags)
    assert a.feature_names == b.feature_names


@st.composite
def oversampling_inputs(draw):
    """A small 0/1 training set in a drawn row order, its minority either
    label, and a k_neighbors its minority rows allow."""
    d = draw(st.integers(1, 5))
    n_minority = draw(st.integers(2, 8))
    n_majority = draw(st.integers(n_minority, 25))
    n = n_minority + n_majority
    bits = st.sampled_from([0.0, 1.0])
    features = draw(arrays(np.float64, (n, d), elements=bits))
    minority_label = draw(st.booleans())
    labels = np.array([minority_label] * n_minority
                      + [not minority_label] * n_majority)
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, n_minority - 1))
    return make_dataset(features[order], labels[order]), k


@settings(max_examples=80, deadline=None)
@given(inputs=oversampling_inputs(),
       method=st.sampled_from(["smote", "adasyn"]),
       seed=st.integers(0, 2**32 - 1))
def test_provenance_file_rebuilds_the_resampled_set(inputs, method, seed):
    train, k = inputs
    result = resample(train, ResampleConfig(method=method, k_neighbors=k,
                                            seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "provenance.csv"
        result.provenance.to_csv(path)
        rebuilt = load_resampled(path, train)
    assert_same_dataset(rebuilt, result.dataset)


PROVENANCE_BASE = clustered_dataset(n_minority=6, n_majority=14)
PROVENANCE_ROWS = smote(PROVENANCE_BASE,
                        ResampleConfig(k_neighbors=3, seed=2)).provenance


def _renumber(data, cells):
    row = int(cells[0])
    cells[0] = str(row + data.draw(st.sampled_from((-1, 1, 1000))))
    return f"synthetic_row must be {row}, got {cells[0]}"


def _index_outside(data, cells):
    column = data.draw(st.sampled_from((1, 2)))
    n = PROVENANCE_BASE.n_rows
    cells[column] = str(data.draw(st.sampled_from((-1, n, 10**6))))
    name = ("base_row", "neighbor_row")[column - 1]
    return f"{name} {cells[column]} is outside the {n} training rows"


def _other_label(data, cells):
    labels = PROVENANCE_BASE.labels
    base = int(cells[1])
    other = np.flatnonzero(labels != labels[base]).tolist()
    cells[2] = str(data.draw(st.sampled_from(other)))
    return (f"base_row {base} and neighbor_row {cells[2]} have different "
            f"labels")


def _bad_lambda(data, cells):
    cells[3] = data.draw(st.sampled_from(
        ("1.0", "1", "-0.25", "-1e-300", "1e308", "nan", "inf", "-inf")))
    return f"lambda must be finite and in [0, 1), got {cells[3]!r}"


def _not_a_number(data, cells):
    column = data.draw(st.integers(0, 3))
    if column == 3:
        cells[3] = data.draw(st.sampled_from(("abc", "", "0x1", "1__0")))
        return "could not convert string to float"
    cells[column] = data.draw(st.sampled_from(("abc", "", "1.5", "0x1")))
    return "invalid literal for int()"


def _stray_quote(data, cells):
    column = data.draw(st.integers(0, 3))
    cells[column] = '"' + cells[column]
    return "malformed CSV: "


def _drop_field(data, cells):
    del cells[data.draw(st.integers(0, 3))]
    return "expected 4 fields, got 3"


@settings(max_examples=150, deadline=None)
@given(corrupt=st.sampled_from((_renumber, _index_outside, _other_label,
                                _bad_lambda, _not_a_number, _stray_quote,
                                _drop_field)),
       data=st.data(), blank_lines=st.integers(0, 2))
def test_corrupted_provenance_names_file_and_line(corrupt, data,
                                                  blank_lines):
    row = data.draw(st.integers(0, PROVENANCE_ROWS.lam.size - 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "provenance.csv"
        PROVENANCE_ROWS.to_csv(path)
        lines = path.read_text().splitlines()
        cells = lines[row + 1].split(",")
        reason = corrupt(data, cells)
        lines[row + 1:row + 2] = [""] * blank_lines + [",".join(cells)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_resampled(path, PROVENANCE_BASE)
    message = str(info.value)
    assert type(info.value) is ValueError and "\n" not in message
    assert message.startswith(f"{path}:{row + 2 + blank_lines}: {reason}")


def test_provenance_for_another_training_set_fails_on_its_first_row(
        tmp_path, split_w3):
    train, _ = split_w3
    path = tmp_path / "provenance.csv"
    PROVENANCE_ROWS.to_csv(path)
    with pytest.raises(ValueError) as info:
        load_resampled(path, train)
    assert str(info.value) == (f"{path}:2: synthetic_row must be "
                               f"{train.n_rows}, got "
                               f"{PROVENANCE_BASE.n_rows}")
