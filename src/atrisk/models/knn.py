"""k-nearest-neighbour classifier over stored training rows."""

from __future__ import annotations

import numpy as np

from ..neighbors import knn_among
from .base import TrainedModel, fitted_array


class KnnModel(TrainedModel):
    state = ("train_features", "train_labels")

    def __init__(self, spec, n_features, non_converged=False, *,
                 train_features, train_labels):
        super().__init__(spec, n_features, non_converged)
        self.train_features = fitted_array(train_features, None, n_features)
        self.train_labels = fitted_array(train_labels,
                                         len(self.train_features),
                                         dtype=bool)
        if spec.params["k"] > len(self.train_labels):
            raise ValueError(f"k={spec.params['k']} exceeds the "
                             f"{len(self.train_labels)} stored training rows")

    def _proba(self, rows):
        k = self.spec.params["k"]
        idx = knn_among(rows, self.train_features, k)
        p_true = self.train_labels[idx].sum(axis=1) / k
        return np.column_stack([1.0 - p_true, p_true])


def fit_knn(spec, train):
    return KnnModel(spec, train.n_features, train_features=train.features,
                    train_labels=train.labels)
