"""PCA projection for the real-versus-synthetic scatter diagnostics.

Components come from an exact eigendecomposition of the sample covariance
(centered, divisor n-1), which is cheap and fully reproducible at this
scale (d <= 150).  Signs are fixed so each component's largest-magnitude
entry is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_csv


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray                       # (d,)
    components: np.ndarray                 # (d, r), orthonormal columns
    explained_variance_ratio: np.ndarray   # (r,), non-increasing

    def __post_init__(self):
        for arr in (self.mean, self.components,
                    self.explained_variance_ratio):
            arr.setflags(write=False)


def fit_pca(rows, r):
    """Top-r principal components of a data matrix."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D matrix")
    n, d = rows.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 rows, got {n}")
    if not 1 <= r <= min(n - 1, d):
        raise ValueError(f"r must be in 1..min(n-1, d) = "
                         f"{min(n - 1, d)}, got {r}")
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = (centered.T @ centered) / (n - 1)
    total_variance = float(np.trace(cov))
    if total_variance == 0.0:
        raise ValueError("constant input matrix: covariance is zero")
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues, kind="stable")[::-1][:r]
    values = np.maximum(eigenvalues[order], 0.0)
    components = eigenvectors[:, order]
    # deterministic sign: largest-magnitude entry of each component positive
    for j in range(components.shape[1]):
        pivot = int(np.argmax(np.abs(components[:, j])))
        if components[pivot, j] < 0:
            components[:, j] = -components[:, j]
    return PcaModel(mean=mean, components=components,
                    explained_variance_ratio=values / total_variance)


def transform(model, rows):
    """Project rows onto the fitted components: (rows - mean) @ components."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.mean.shape[0]:
        raise ValueError(f"dimension mismatch: model fitted on "
                         f"{model.mean.shape[0]} features, rows have "
                         f"{rows.shape[1] if rows.ndim == 2 else 'n/a'}")
    return (rows - model.mean) @ model.components


def reconstruct(model, scores):
    """Inverse of transform: scores @ components.T + mean."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores @ model.components.T + model.mean


def export_scatter(dataset, method, path, fit_on_real_only=False):
    """Write the 2-D scatter CSV (pc1,pc2,label,synthetic,method).

    The projection is fitted on the union of real and synthetic rows by
    default, which is what the diagnostic overlay plots; pass
    fit_on_real_only=True to fit on real rows and project everything.
    """
    if fit_on_real_only:
        fit_rows = dataset.features[~dataset.synthetic_flags]
    else:
        fit_rows = dataset.features
    model = fit_pca(fit_rows, r=2)
    scores = transform(model, dataset.features)
    write_csv(path, ("pc1", "pc2", "label", "synthetic", "method"),
              ((*pcs, label, synthetic, method) for pcs, label, synthetic in
               zip(scores.tolist(), dataset.labels.tolist(),
                   dataset.synthetic_flags.tolist())))
    return model
