"""Classifier suite: fit dispatch and model persistence."""

from __future__ import annotations

import json

import numpy as np

from .base import (DEFAULT_PARAMS, MODEL_FORMAT, MODEL_KINDS, MODEL_VERSION,
                   ModelSpec, TrainedModel)
from .knn import KnnModel, fit_knn
from .logistic import LogisticModel, fit_logistic
from .naive_bayes import NaiveBayesModel, fit_naive_bayes
from .svm import SvmModel, fit_svm
from .tree import (DecisionTreeModel, RandomForestModel, fit_decision_tree,
                   fit_random_forest)

_FITTERS = {
    "logreg": fit_logistic,
    "naive_bayes": fit_naive_bayes,
    "decision_tree": fit_decision_tree,
    "random_forest": fit_random_forest,
    "knn": fit_knn,
    "svm_linear": fit_svm,
    "svm_rbf": fit_svm,
}

_CLASSES = {
    "logreg": LogisticModel,
    "naive_bayes": NaiveBayesModel,
    "decision_tree": DecisionTreeModel,
    "random_forest": RandomForestModel,
    "knn": KnnModel,
    "svm_linear": SvmModel,
    "svm_rbf": SvmModel,
}


def fit(spec, train):
    """Fit a classifier of spec.kind on a LabeledDataset."""
    if not np.isfinite(train.features).all():
        raise ValueError("training features must be finite")
    if train.n_rows == 0:
        raise ValueError("cannot fit on an empty dataset")
    return _FITTERS[spec.kind](spec, train)


# top-level document keys read after the format/version check, and the
# JSON type each must have
_DOCUMENT_FIELDS = (("kind", str), ("params", dict), ("n_features", int),
                    ("non_converged", bool), ("state", dict))


def load_model(path):
    """Load a model saved by TrainedModel.save; validates the format.

    A malformed document raises ValueError naming the file and the key.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not an atrisk model file")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version "
                         f"{doc.get('version')!r}")
    for key, kind in _DOCUMENT_FIELDS:
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
        if type(doc[key]) is not kind:
            raise ValueError(f"{path}: key {key!r} must be a JSON "
                             f"{kind.__name__}, got "
                             f"{type(doc[key]).__name__}")
    try:
        spec = ModelSpec(doc["kind"], **doc["params"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad 'kind' or 'params' ({exc})") from None
    try:
        return _CLASSES[spec.kind].from_state(
            spec, doc["state"], n_features=doc["n_features"],
            non_converged=doc["non_converged"])
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r} "
                         f"in 'state'") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed 'state' ({exc})") from None


__all__ = [
    "DEFAULT_PARAMS", "MODEL_KINDS", "ModelSpec", "TrainedModel",
    "fit", "load_model",
    "LogisticModel", "NaiveBayesModel", "DecisionTreeModel",
    "RandomForestModel", "KnnModel", "SvmModel",
]
