"""Soft-margin SVM (linear and RBF) trained by sequential minimal
optimization, with a logistic link fitted on training decision values to
expose probabilities.

The SMO loop is the simplified variant: sweep every multiplier, pick the
partner at random (seeded), and take the analytic two-variable step when it
improves the pair.  Training stops after a few consecutive clean sweeps or
at the sweep cap, in which case the model is flagged non-converged but
remains usable.  The probability link is a one-dimensional logistic fit on
the training decision values — a calibration approximation, adequate for
threshold sweeps.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from .base import TrainedModel, fitted_array
from .logistic import fit_logistic_raw, sigmoid

_CLEAN_SWEEPS_TO_STOP = 3
_ALPHA_EPS = 1e-12


def rbf_gamma(features):
    """Default gamma: 1 / (d * mean per-feature variance)."""
    mean_var = float(features.var(axis=0).mean())
    if mean_var <= 0.0:
        return 1.0
    return 1.0 / (features.shape[1] * mean_var)


def _kernel_matrix(kind, x, y, gamma):
    if kind == "linear":
        return x @ y.T
    return np.exp(-gamma * kernels.pairwise_sqdist(x, y))


def _smo(K, y, C, tol, max_sweeps, rng):
    """Simplified SMO on a precomputed kernel matrix; returns (alpha, b,
    converged)."""
    n = K.shape[0]
    alpha = np.zeros(n)
    b = 0.0
    clean = 0
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        changed = 0
        for i in range(n):
            f_i = (alpha * y) @ K[:, i] + b
            e_i = f_i - y[i]
            if not ((y[i] * e_i < -tol and alpha[i] < C) or
                    (y[i] * e_i > tol and alpha[i] > 0)):
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            f_j = (alpha * y) @ K[:, j] + b
            e_j = f_j - y[j]
            a_i_old, a_j_old = alpha[i], alpha[j]
            if y[i] != y[j]:
                low = max(0.0, a_j_old - a_i_old)
                high = min(C, C + a_j_old - a_i_old)
            else:
                low = max(0.0, a_i_old + a_j_old - C)
                high = min(C, a_i_old + a_j_old)
            if low == high:
                continue
            eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
            if eta >= 0:
                continue
            a_j = a_j_old - y[j] * (e_i - e_j) / eta
            a_j = min(high, max(low, a_j))
            if abs(a_j - a_j_old) < 1e-12:
                continue
            a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
            alpha[i], alpha[j] = a_i, a_j
            b1 = b - e_i - y[i] * (a_i - a_i_old) * K[i, i] \
                - y[j] * (a_j - a_j_old) * K[i, j]
            b2 = b - e_j - y[i] * (a_i - a_i_old) * K[i, j] \
                - y[j] * (a_j - a_j_old) * K[j, j]
            if 0.0 < a_i < C:
                b = b1
            elif 0.0 < a_j < C:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            changed += 1
        if changed == 0:
            clean += 1
            if clean >= _CLEAN_SWEEPS_TO_STOP:
                return alpha, b, True
        else:
            clean = 0
    return alpha, b, False


class SvmModel(TrainedModel):
    state = ("sv_features", "sv_coef", "intercept", "gamma", "link_scale",
             "link_offset")

    def __init__(self, spec, n_features, non_converged=False, *, sv_features,
                 sv_coef, intercept, gamma, link_scale, link_offset):
        super().__init__(spec, n_features, non_converged)
        self.sv_features = fitted_array(sv_features, None, n_features)
        # alpha_i * y_i, one per support vector
        self.sv_coef = fitted_array(sv_coef, len(self.sv_features))
        self.intercept = float(intercept)
        self.gamma = None if self._kernel_kind == "linear" else float(gamma)
        self.link_scale = float(link_scale)
        self.link_offset = float(link_offset)

    @property
    def _kernel_kind(self):
        return "linear" if self.spec.kind == "svm_linear" else "rbf"

    def decision_values(self, rows):
        K = _kernel_matrix(self._kernel_kind, rows, self.sv_features,
                           self.gamma)
        return K @ self.sv_coef + self.intercept

    def _proba(self, rows):
        scores = self.decision_values(rows)
        p_true = sigmoid(self.link_scale * scores + self.link_offset)
        return np.column_stack([1.0 - p_true, p_true])


def fit_svm(spec, train):
    p = spec.params
    X = train.features
    y = np.where(train.labels, 1.0, -1.0)
    if spec.kind == "svm_rbf":
        gamma = rbf_gamma(X) if p["gamma"] == "scale" else float(p["gamma"])
        kind = "rbf"
    else:
        gamma = None
        kind = "linear"
    K = _kernel_matrix(kind, X, X, gamma)
    rng = np.random.default_rng(p["seed"])
    alpha, b, converged = _smo(K, y, C=p["C"], tol=p["tolerance"],
                               max_sweeps=p["max_iterations"], rng=rng)

    support = alpha > _ALPHA_EPS
    sv_features = X[support]
    sv_coef = (alpha * y)[support]

    # probability link: 1-D logistic fit on the training decision values
    scores = _kernel_matrix(kind, X, sv_features, gamma) @ sv_coef + b
    w, b_link, _, _ = fit_logistic_raw(scores[:, None], y, C=1e4,
                                       l1_ratio=0.0, tolerance=1e-12,
                                       max_iterations=5000)
    return SvmModel(spec, train.n_features, non_converged=not converged,
                    sv_features=sv_features, sv_coef=sv_coef, intercept=b,
                    gamma=gamma, link_scale=w[0], link_offset=b_link)
