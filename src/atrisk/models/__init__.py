"""Classifier suite: the table of model kinds, fit dispatch and loading.

``_KINDS`` declares each kind once: its model class, its fitter and its
hyperparameter defaults.  ``ModelSpec`` checks hyperparameters against
those defaults and against one rule per hyperparameter name, whichever
kinds take it.  Saving and loading go through ``TrainedModel`` for every
kind (see ``base``).
"""

from __future__ import annotations

import json
from sys import float_info, maxsize
from typing import Callable, NamedTuple

import numpy as np

from ..data import read_text
from .base import MODEL_FORMAT, MODEL_VERSION, TrainedModel
from .knn import KnnModel, fit_knn
from .logistic import LogisticModel, fit_logistic
from .naive_bayes import NaiveBayesModel, fit_naive_bayes
from .svm import SvmModel, fit_svm
from .tree import TreeModel, fit_trees


class _Kind(NamedTuple):
    model: type
    fitter: Callable
    defaults: dict  # unknown hyperparameters are rejected


_KINDS = {
    "logreg": _Kind(LogisticModel, fit_logistic, {
        "penalty": "l2", "C": 1.0, "l1_ratio": 0.0, "tolerance": 1e-8,
        "max_iterations": 10000}),
    "naive_bayes": _Kind(NaiveBayesModel, fit_naive_bayes, {}),
    "decision_tree": _Kind(TreeModel, fit_trees, {
        "max_depth": None, "min_samples_split": 2}),
    "random_forest": _Kind(TreeModel, fit_trees, {
        "n_trees": 100, "max_depth": None, "min_samples_split": 2,
        "max_features": "sqrt", "seed": 0}),
    "knn": _Kind(KnnModel, fit_knn, {"k": 5}),
    "svm_linear": _Kind(SvmModel, fit_svm, {
        "C": 1.0, "tolerance": 1e-3, "max_iterations": 100000}),
    "svm_rbf": _Kind(SvmModel, fit_svm, {
        "C": 1.0, "gamma": "scale", "tolerance": 1e-3,
        "max_iterations": 100000}),
}

MODEL_KINDS = tuple(sorted(_KINDS))


# hyperparameter name -> (check, rule); a name means the same for every
# kind that takes it, and a name with no entry only has its type checked
_RULES = {
    "penalty": (lambda v: v in ("l2", "elasticnet"),
                "'l2' or 'elasticnet'"),
    "C": (lambda v: 0 < v <= float_info.max, "> 0 and finite"),
    "l1_ratio": (lambda v: 0.0 <= v <= 1.0, "in [0,1]"),
    "gamma": (lambda v: v == "scale" or (isinstance(v, (int, float))
                                         and v > 0),
              "'scale' or > 0"),
    "tolerance": (lambda v: v > 0, "> 0"),
    "max_iterations": (lambda v: v >= 1, ">= 1"),
    "seed": (lambda v: v >= 0, ">= 0"),
    "k": (lambda v: v >= 1, ">= 1"),
    "max_depth": (lambda v: v is None or v >= 1, ">= 1 or None"),
    "min_samples_split": (lambda v: v >= 2, ">= 2"),
    # SeedSequence.spawn takes a C ssize_t
    "n_trees": (lambda v: 1 <= v <= maxsize, f"in [1, {maxsize}]"),
    "max_features": (lambda v: v == "sqrt" or (isinstance(v, int)
                                               and v >= 1),
                     "'sqrt' or an int >= 1"),
}


class ModelSpec:
    """Classifier kind plus validated hyperparameters."""

    def __init__(self, kind, /, **params):
        if kind not in _KINDS:
            raise ValueError(f"unknown model kind {kind!r}; "
                             f"expected one of {MODEL_KINDS}")
        defaults = _KINDS[kind].defaults
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise ValueError(f"unknown hyperparameter(s) for {kind}: "
                             f"{unknown}")
        for key, value in params.items():
            # no value is a bool, and a number must fit a finite float (nan
            # fails <=); int defaults (and max_depth's None) need an int,
            # float defaults any number; _RULES checks string-valued keys
            if isinstance(value, bool) or (isinstance(value, (int, float)) and
                                           not abs(value) <= float_info.max):
                raise ValueError(f"{kind} hyperparameter {key!r} must be "
                                 f"a finite number, got {value!r}")
            default = defaults[key]
            if isinstance(default, str) or (default is None and value is None):
                continue
            if isinstance(default, float):
                if not isinstance(value, (int, float)):
                    raise ValueError(f"{kind} hyperparameter {key!r} must "
                                     f"be a number, got {value!r}")
            elif not isinstance(value, int):
                raise ValueError(f"{kind} hyperparameter {key!r} must be "
                                 f"an integer, got {value!r}")
        merged = {**defaults, **params}
        for key, value in merged.items():
            if key in _RULES and not _RULES[key][0](value):
                raise ValueError(f"{key} must be {_RULES[key][1]}, "
                                 f"got {value!r}")
        if merged.get("penalty") == "l2" and merged["l1_ratio"] != 0.0:
            raise ValueError("l1_ratio requires penalty='elasticnet'")
        self.kind = kind
        self.params = merged

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"ModelSpec({self.kind!r}, {inner})"

    def __eq__(self, other):
        return (isinstance(other, ModelSpec) and self.kind == other.kind
                and self.params == other.params)


def fit(spec, train, start=None):
    """Fit a classifier of spec.kind on a LabeledDataset.

    start, logreg only, is the [weights, intercept] vector its solver
    iterates from (see logistic.fit_logistic_raw); None starts at zero.
    """
    if start is not None:
        if spec.kind != "logreg":
            raise ValueError(f"a start vector applies to logreg only, "
                             f"not {spec.kind}")
        if np.shape(start) != (train.n_features + 1,):
            raise ValueError(f"start must hold {train.n_features} weights "
                             f"and an intercept, got shape "
                             f"{np.shape(start)}")
        if not np.isfinite(start).all():
            raise ValueError("start must be finite")
    if not np.isfinite(train.features).all():
        raise ValueError("training features must be finite")
    if train.n_rows == 0:
        raise ValueError("cannot fit on an empty dataset")
    kind = _KINDS[spec.kind]
    if kind.model.needs_both_classes:
        n_true = int(np.sum(train.labels))
        n_false = train.n_rows - n_true
        if n_true == 0 or n_false == 0:
            raise ValueError(f"{spec.kind} requires both classes in the "
                             f"training data")
        if min(n_true, n_false) < 2:
            raise ValueError(f"{spec.kind} requires >= 2 rows per class, "
                             f"got false={n_false}, true={n_true}")
    if start is None:
        return kind.fitter(spec, train)
    return kind.fitter(spec, train, start=start)


# top-level document keys read after the format/version check, and the
# JSON type each must have
_DOCUMENT_FIELDS = (("kind", str), ("params", dict), ("classes", list),
                    ("n_features", int), ("non_converged", bool),
                    ("state", dict))


def load_model(path):
    """Load a model saved by TrainedModel.save; validates the format.

    A malformed document raises ValueError naming the file and the key.
    """
    try:
        doc = json.loads(read_text(path))
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
    if doc["n_features"] < 1:
        raise ValueError(f"{path}: key 'n_features' must be >= 1, got "
                         f"{doc['n_features']}")
    # types too: [0, 1] == [False, True] in Python
    classes = doc["classes"]
    if classes != list(TrainedModel.classes) or \
            any(type(c) is not bool for c in classes):
        raise ValueError(f"{path}: key 'classes' must be [false, true] "
                         f"(failing, passing), got {json.dumps(classes)}")
    try:
        spec = ModelSpec(doc["kind"], **doc["params"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad 'kind' or 'params' ({exc})") from None
    try:
        return _KINDS[spec.kind].model.from_state(
            spec, doc["state"], n_features=doc["n_features"],
            non_converged=doc["non_converged"])
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r} "
                         f"in 'state'") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed 'state' ({exc})") from None


__all__ = [
    "MODEL_KINDS", "ModelSpec", "TrainedModel", "fit", "load_model",
    "LogisticModel", "NaiveBayesModel", "TreeModel", "KnnModel",
    "SvmModel",
]
