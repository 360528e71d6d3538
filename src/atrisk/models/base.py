"""Fitted-model base class and the one JSON save/load path.

Every classifier exposes ``predict_proba(rows) -> (n, 2)`` with columns in
class order (failing=False, passing=True), rows summing to 1 within 1e-9.
Models are immutable once fitted and serialise to a versioned JSON document
whose round-trip preserves predictions bit for bit.

A model class lists its saved values in ``state``.  Each name there is an
attribute, a constructor keyword and a key of the document's ``"state"``
object, so ``to_json_dict`` and ``from_state`` serve every class, and the
constructor checks a loaded value as it checks a fitted one.
"""

from __future__ import annotations

import numpy as np

from ..data import write_json

MODEL_FORMAT = "atrisk-model"
MODEL_VERSION = 3


# by dtype kind: a JSON string or bool is no number, and a fraction no index
_ENTRIES = {"f": ((int, float), "numbers"), "i": ((int,), "integers"),
            "b": ((bool,), "bools")}


def fitted_array(value, *shape, dtype=np.float64):
    """value as a read-only array of the given shape (None: any length; no
    shape: a scalar).  An entry of the wrong type raises TypeError, and a
    non-finite float (NaN or inf) raises ValueError.

    A saved matrix with no rows is the JSON list ``[]``; it is read back as
    zero rows of ``shape[1]`` columns.
    """
    kind = np.dtype(dtype).kind
    types, what = _ENTRIES[kind]
    if isinstance(value, np.ndarray):  # one dtype: an entry stands for all
        entries = value.ravel()[:1].tolist()
    else:
        entries = np.asarray(value, dtype=object).flat
    for t in set(map(type, entries)):
        if not issubclass(t, types) or (t is bool and kind != "b"):
            raise TypeError(f"expected {what}, got {t.__name__}")
    array = np.asarray(value, dtype=dtype)
    if kind == "f" and not np.isfinite(array).all():
        raise ValueError(f"expected finite numbers, got "
                         f"{array[~np.isfinite(array)][0]}")
    if len(shape) == 2 and array.shape == (0,):
        array = array.reshape(0, shape[1])
    if array.ndim != len(shape) or any(
            want is not None and got != want
            for got, want in zip(array.shape, shape)):
        raise ValueError(f"expected an array of shape {shape}, got "
                         f"{array.shape}")
    array.setflags(write=False)
    return array


class TrainedModel:
    """Base class: immutable fitted classifier with a probability surface."""

    classes = (False, True)
    state = ()                  # names of the saved values
    needs_both_classes = True   # fit() requires >= 2 rows of each class

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

    def to_json_dict(self):
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": self.spec.kind,
            "params": self.spec.params,
            "classes": list(self.classes),
            "n_features": self.n_features,
            "non_converged": self.non_converged,
            "state": {name: getattr(self, name) for name in self.state},
        }

    @classmethod
    def from_state(cls, spec, state, n_features, non_converged):
        """The model a document's "state" object describes.

        A missing name raises KeyError; a value of the wrong type or shape
        raises TypeError or ValueError.
        """
        return cls(spec, n_features, non_converged,
                   **{name: state[name] for name in cls.state})

    def save(self, path):
        write_json(path, self.to_json_dict())

