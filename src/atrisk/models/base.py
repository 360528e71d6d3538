"""Model specification, fit dispatch, and JSON persistence.

Every classifier exposes ``predict_proba(rows) -> (n, 2)`` with columns in
class order (failing=False, passing=True), rows summing to 1 within 1e-9.
Models are immutable once fitted and serialise to a versioned JSON document
whose round-trip preserves predictions bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..data import write_json

MODEL_FORMAT = "atrisk-model"
MODEL_VERSION = 1

# per-kind hyperparameter defaults; unknown keys are rejected
DEFAULT_PARAMS = {
    "logreg": {"penalty": "l2", "C": 1.0, "l1_ratio": 0.0,
               "tolerance": 1e-8, "max_iterations": 10000},
    "naive_bayes": {},
    "decision_tree": {"max_depth": None, "min_samples_split": 2},
    "random_forest": {"n_trees": 100, "max_depth": None,
                      "min_samples_split": 2, "max_features": "sqrt",
                      "seed": 0},
    "knn": {"k": 5},
    "svm_linear": {"C": 1.0, "tolerance": 1e-3, "max_iterations": 1000,
                   "seed": 0},
    "svm_rbf": {"C": 1.0, "gamma": "scale", "tolerance": 1e-3,
                "max_iterations": 1000, "seed": 0},
}

MODEL_KINDS = tuple(sorted(DEFAULT_PARAMS))


class ModelSpec:
    """Classifier kind plus validated hyperparameters."""

    def __init__(self, kind, **params):
        if kind not in DEFAULT_PARAMS:
            raise ValueError(f"unknown model kind {kind!r}; "
                             f"expected one of {MODEL_KINDS}")
        defaults = DEFAULT_PARAMS[kind]
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise ValueError(f"unknown hyperparameter(s) for {kind}: "
                             f"{unknown}")
        for key, value in params.items():
            # int defaults (and max_depth's None) need an int, float
            # defaults a number; string-valued keys are checked below
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
        _validate_params(kind, merged)
        self.kind = kind
        self.params = merged

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"ModelSpec({self.kind!r}, {inner})"

    def __eq__(self, other):
        return (isinstance(other, ModelSpec) and self.kind == other.kind
                and self.params == other.params)


def _validate_params(kind, p):
    if kind == "logreg":
        if p["penalty"] not in ("l2", "elasticnet"):
            raise ValueError(f"penalty must be 'l2' or 'elasticnet', "
                             f"got {p['penalty']!r}")
        if p["C"] <= 0:
            raise ValueError(f"C must be > 0, got {p['C']}")
        if not 0.0 <= p["l1_ratio"] <= 1.0:
            raise ValueError(f"l1_ratio must be in [0,1], got {p['l1_ratio']}")
        if p["penalty"] == "l2" and p["l1_ratio"] != 0.0:
            raise ValueError("l1_ratio requires penalty='elasticnet'")
    elif kind in ("svm_linear", "svm_rbf"):
        if p["C"] <= 0:
            raise ValueError(f"C must be > 0, got {p['C']}")
        if kind == "svm_rbf" and p["gamma"] != "scale" and \
                not (isinstance(p["gamma"], (int, float)) and p["gamma"] > 0):
            raise ValueError(f"gamma must be 'scale' or > 0, got {p['gamma']}")
    elif kind == "knn":
        if p["k"] < 1:
            raise ValueError(f"k must be >= 1, got {p['k']}")
    elif kind in ("decision_tree", "random_forest"):
        if p["max_depth"] is not None and p["max_depth"] < 1:
            raise ValueError(f"max_depth must be >= 1 or None, "
                             f"got {p['max_depth']}")
        if p["min_samples_split"] < 2:
            raise ValueError(f"min_samples_split must be >= 2, "
                             f"got {p['min_samples_split']}")
        if kind == "random_forest":
            if p["n_trees"] < 1:
                raise ValueError(f"n_trees must be >= 1, got {p['n_trees']}")
            if p["max_features"] != "sqrt" and (
                    not isinstance(p["max_features"], int)
                    or p["max_features"] < 1):
                raise ValueError("max_features must be 'sqrt' or an int >= 1")


class TrainedModel:
    """Base class: immutable fitted classifier with a probability surface."""

    classes = (False, True)

    def __init__(self, spec, n_features, non_converged=False):
        self.spec = spec
        self.n_features = n_features
        self.non_converged = non_converged

    def predict_proba(self, rows):
        """(n, 2) probabilities in class order (failing, passing)."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D matrix")
        if rows.shape[1] != self.n_features:
            raise ValueError(f"dimension mismatch: model trained on "
                             f"{self.n_features} features, rows have "
                             f"{rows.shape[1]}")
        return self._proba(rows)

    def _proba(self, rows):
        raise NotImplementedError

    def _state(self):
        raise NotImplementedError

    def to_json_dict(self):
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": self.spec.kind,
            "params": _jsonable(self.spec.params),
            "classes": list(self.classes),
            "n_features": self.n_features,
            "non_converged": self.non_converged,
            "state": self._state(),
        }

    def save(self, path):
        write_json(path, self.to_json_dict())


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def check_training_labels(spec, labels):
    """Non-tree models need both classes with at least 2 rows each."""
    if spec.kind in ("decision_tree", "random_forest"):
        return
    n_true = int(np.sum(labels))
    n_false = len(labels) - n_true
    if n_true == 0 or n_false == 0:
        raise ValueError(f"{spec.kind} requires both classes in the "
                         f"training data")
    if min(n_true, n_false) < 2:
        raise ValueError(f"{spec.kind} requires >= 2 rows per class, got "
                         f"false={n_false}, true={n_true}")
