"""Soft-margin SVM (linear and RBF) with a logistic link fitted on training
decision values to expose probabilities.

SMO with second-order working-set selection (WSS2, Fan, Chen & Lin 2005)
solves the dual: each step pairs the maximal violator with the partner of
greatest second-order gain and takes the clipped two-variable step, ties
going to the lowest index.  The fit stops when the KKT gap m - M (Keerthi
et al. 2001) is within ``tolerance``; ``max_iterations`` caps the steps.
``non_converged`` is read from the gap of a gradient recomputed at the
returned multipliers, so the flag certifies the model actually returned.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from .base import TrainedModel, fitted_array
from .logistic import fit_logistic_raw, sigmoid

_ALPHA_EPS = 1e-12  # a multiplier above this makes its row a support vector
_TAU = 1e-12        # floor of the curvature K_ii + K_jj - 2 K_ij


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


def _violators(G, y, alpha, C):
    """Scores -y*G and the masks of I_up (where y*alpha may grow) and
    I_low (where y*alpha may shrink)."""
    up = np.where(y > 0, alpha < C, alpha > 0.0)
    low = np.where(y > 0, alpha > 0.0, alpha < C)
    return -y * G, up, low


def _smo(K, y, C, tolerance, max_iterations):
    """Second-order SMO on a precomputed kernel matrix; returns
    (alpha, b, gap), with b and the gap m - M read from a gradient
    recomputed at alpha."""
    alpha = np.zeros(len(y))
    G = -np.ones(len(y))  # gradient of the dual: Q alpha - 1
    diag = np.diag(K)
    for _ in range(max_iterations):
        score, up, low = _violators(G, y, alpha, C)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        if score[i] - score[low].min() <= tolerance:
            break
        gain = score[i] - score
        curvature = np.maximum(diag[i] + diag - 2.0 * K[i], _TAU)
        j = int(np.argmax(np.where(low & (gain > 0.0),
                                   gain * gain / curvature, -np.inf)))
        # alpha_i += y_i * step, alpha_j -= y_j * step keeps y'alpha fixed
        room_i = C - alpha[i] if y[i] > 0 else alpha[i]
        room_j = C - alpha[j] if y[j] < 0 else alpha[j]
        step = min(gain[j] / curvature[j], room_i, room_j)
        alpha[i] = (C if y[i] > 0 else 0.0) if step == room_i \
            else alpha[i] + y[i] * step
        alpha[j] = (C if y[j] < 0 else 0.0) if step == room_j \
            else alpha[j] - y[j] * step
        G += step * y * (K[i] - K[j])

    G = y * (K @ (alpha * y)) - 1.0
    score, up, low = _violators(G, y, alpha, C)
    top, bottom = score[up].max(), score[low].min()
    free = (alpha > 0.0) & (alpha < C)
    b = score[free].mean() if free.any() else (top + bottom) / 2.0
    return alpha, float(b), float(top - bottom)


class SvmModel(TrainedModel):
    state = ("sv_features", "sv_coef", "intercept", "gamma", "link_scale",
             "link_offset")

    def __init__(self, spec, n_features, non_converged=False, *, sv_features,
                 sv_coef, intercept, gamma, link_scale, link_offset,
                 alpha=None, kkt_gap=None):
        super().__init__(spec, n_features, non_converged)
        # fit diagnostics, kept in memory only (not serialised)
        self.alpha = alpha
        self.kkt_gap = kkt_gap
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
    kind = "linear" if spec.kind == "svm_linear" else "rbf"
    gamma = None if kind == "linear" else (
        rbf_gamma(X) if p["gamma"] == "scale" else float(p["gamma"]))
    K = _kernel_matrix(kind, X, X, gamma)
    alpha, b, gap = _smo(K, y, p["C"], p["tolerance"], p["max_iterations"])

    support = alpha > _ALPHA_EPS
    sv_features = X[support]
    sv_coef = (alpha * y)[support]

    # probability link: 1-D logistic fit on the training decision values;
    # its gradient's rounding floor reached 6e-12, and a tolerance below
    # the floor runs all 5000 Newton steps
    scores = _kernel_matrix(kind, X, sv_features, gamma) @ sv_coef + b
    w, b_link, _, _ = fit_logistic_raw(scores[:, None], y, C=1e4,
                                       l1_ratio=0.0, tolerance=1e-10,
                                       max_iterations=5000)
    return SvmModel(spec, train.n_features,
                    non_converged=gap > p["tolerance"],
                    sv_features=sv_features, sv_coef=sv_coef, intercept=b,
                    gamma=gamma, link_scale=w[0], link_offset=b_link,
                    alpha=alpha, kkt_gap=gap)
