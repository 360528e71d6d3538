"""Bernoulli naive Bayes with add-one smoothing.

Features are treated as binary events; fractional inputs (synthetic
oversampled rows) are thresholded at 0.5 inside this model only, since a
Bernoulli likelihood needs 0/1 outcomes.
"""

from __future__ import annotations

import numpy as np

from .base import TrainedModel, fitted_array


def _binarize(rows):
    return rows >= 0.5


class NaiveBayesModel(TrainedModel):
    state = ("log_prior", "log_theta", "log_one_minus_theta")

    def __init__(self, spec, n_features, non_converged=False, *, log_prior,
                 log_theta, log_one_minus_theta):
        # log_theta[c] has one entry per feature; class order (false, true)
        super().__init__(spec, n_features, non_converged)
        self.log_prior = fitted_array(log_prior, 2)
        self.log_theta = fitted_array(log_theta, 2, n_features)
        self.log_one_minus_theta = fitted_array(log_one_minus_theta, 2,
                                                n_features)

    def _proba(self, rows):
        xb = _binarize(rows).astype(np.float64)
        joint = np.empty((rows.shape[0], 2))
        for c in range(2):
            joint[:, c] = (self.log_prior[c]
                           + xb @ self.log_theta[c]
                           + (1.0 - xb) @ self.log_one_minus_theta[c])
        peak = joint.max(axis=1, keepdims=True)
        unnorm = np.exp(joint - peak)
        return unnorm / unnorm.sum(axis=1, keepdims=True)


def fit_naive_bayes(spec, train):
    xb = _binarize(train.features)
    n = train.n_rows
    log_prior = np.empty(2)
    log_theta = np.empty((2, train.n_features))
    log_one_minus_theta = np.empty((2, train.n_features))
    for c, label in enumerate((False, True)):
        mask = train.labels == label
        n_c = int(mask.sum())
        counts = xb[mask].sum(axis=0)
        theta = (counts + 1.0) / (n_c + 2.0)
        log_prior[c] = np.log(n_c / n)
        log_theta[c] = np.log(theta)
        log_one_minus_theta[c] = np.log1p(-theta)
    return NaiveBayesModel(spec, train.n_features, log_prior=log_prior,
                           log_theta=log_theta,
                           log_one_minus_theta=log_one_minus_theta)
