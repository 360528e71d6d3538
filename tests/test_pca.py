"""PCA: orthonormality, reconstruction, oracle agreement, scatter export."""

import csv

import numpy as np
import pytest

from atrisk import ResampleConfig, export_scatter, fit_pca, reconstruct, \
    smote, transform
from oracles import pca_oracle


def test_rank_one_line():
    rng = np.random.default_rng(71)
    t = rng.normal(size=50)
    rows = np.column_stack([t, t])
    model = fit_pca(rows, 1)
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(model.components[:, 0], expected, atol=1e-12)
    assert model.explained_variance_ratio[0] == pytest.approx(1.0)


def test_full_rank_reconstruction():
    rng = np.random.default_rng(72)
    rows = rng.random((40, 12))
    model = fit_pca(rows, 12)
    again = reconstruct(model, transform(model, rows))
    assert np.abs(again - rows).max() < 1e-8


def test_orthonormal_components_and_ratio_ordering():
    rng = np.random.default_rng(73)
    for _ in range(10):
        rows = rng.random((30, 8))
        model = fit_pca(rows, 5)
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(5)).max() < 1e-9
        ratios = model.explained_variance_ratio
        assert np.all(np.diff(ratios) <= 1e-15)
        assert ratios.sum() <= 1.0 + 1e-9


def test_matches_eigensolver_oracle_up_to_sign():
    rng = np.random.default_rng(74)
    for _ in range(10):
        rows = rng.random((60, 20))
        model = fit_pca(rows, 2)
        oracle_components, _ = pca_oracle(rows, 2)
        assert np.abs(model.components - oracle_components).max() < 1e-6


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(75)
    rows = rng.random((25, 6))
    model = fit_pca(rows, 4)
    for j in range(4):
        pivot = np.argmax(np.abs(model.components[:, j]))
        assert model.components[pivot, j] > 0


def test_transform_of_mean_is_zero():
    rng = np.random.default_rng(76)
    rows = rng.random((30, 5))
    model = fit_pca(rows, 3)
    scores = transform(model, model.mean[None, :])
    assert np.abs(scores).max() < 1e-12


def test_score_variance_ordering():
    rng = np.random.default_rng(77)
    rows = rng.random((50, 7))
    model = fit_pca(rows, 3)
    scores = transform(model, rows)
    variances = scores.var(axis=0)
    assert variances[0] >= variances[1] >= variances[2]


def test_projection_idempotence():
    rng = np.random.default_rng(78)
    rows = rng.random((40, 9))
    scores = transform(fit_pca(rows, 3), rows)
    identity_fit = fit_pca(scores, 3)
    again = transform(identity_fit, scores)
    assert np.allclose(again, scores, atol=1e-9)


def test_rejects_constant_matrix():
    with pytest.raises(ValueError, match="constant input"):
        fit_pca(np.ones((10, 3)), 1)


def test_rejects_bad_rank_and_dimensions():
    rng = np.random.default_rng(79)
    rows = rng.random((5, 3))
    with pytest.raises(ValueError, match="r must be"):
        fit_pca(rows, 5)
    model = fit_pca(rows, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        transform(model, rng.random((2, 7)))


def test_scatter_export_carries_labels_and_flags(tmp_path, split_w3):
    train, _ = split_w3
    grown = smote(train, ResampleConfig(seed=13)).dataset
    path = tmp_path / "scatter.csv"
    export_scatter(grown, "smote", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "pc1,pc2,label,synthetic,method"
    assert len(lines) == 1 + grown.n_rows
    synth = sum(1 for line in lines[1:] if line.split(",")[3] == "true")
    assert synth == int(grown.synthetic_flags.sum())
    assert all(line.endswith(",smote") for line in lines[1:])


def test_scatter_export_real_only_fit(tmp_path, split_w3):
    train, _ = split_w3
    grown = smote(train, ResampleConfig(seed=14)).dataset
    union_model = export_scatter(grown, "smote", tmp_path / "a.csv")
    real_model = export_scatter(grown, "smote", tmp_path / "b.csv",
                                fit_on_real_only=True)
    assert not np.allclose(union_model.mean, real_model.mean)


@pytest.mark.parametrize("real_only", [False, True])
def test_scatter_rows_read_back_exactly(tmp_path, split_w3, real_only):
    train, _ = split_w3
    grown = smote(train, ResampleConfig(seed=15)).dataset
    path = tmp_path / "scatter.csv"
    model = export_scatter(grown, "smote", path, fit_on_real_only=real_only)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["pc1", "pc2", "label", "synthetic", "method"]
    scores = transform(model, grown.features)
    assert len(rows) == grown.n_rows
    for row, (pc1, pc2), label, synthetic in zip(
            rows, scores.tolist(), grown.labels.tolist(),
            grown.synthetic_flags.tolist()):
        assert (float(row[0]), float(row[1])) == (pc1, pc2)
        assert row[2:] == [str(label).lower(), str(synthetic).lower(),
                           "smote"]
