"""Model JSON persistence: bit-exact round trips for every kind."""

import json

import numpy as np
import pytest

from atrisk import ModelSpec, fit, load_model
from atrisk.models import _KINDS, MODEL_KINDS

KINDS = [
    ModelSpec("logreg", penalty="elasticnet", l1_ratio=0.5, C=0.01),
    ModelSpec("logreg"),
    ModelSpec("naive_bayes"),
    ModelSpec("decision_tree"),
    ModelSpec("random_forest", n_trees=10, seed=4),
    ModelSpec("knn", k=3),
    ModelSpec("svm_linear"),
    ModelSpec("svm_rbf"),
]


@pytest.mark.parametrize("spec", KINDS,
                         ids=lambda s: f"{s.kind}-{len(s.params)}")
def test_round_trip_preserves_predictions_bitwise(tmp_path, spec, split_w3):
    train, _ = split_w3
    model = fit(spec, train)
    before = model.predict_proba(train.features)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = load_model(path)
    after = loaded.predict_proba(train.features)
    assert np.array_equal(before, after)
    assert loaded.spec == model.spec
    assert loaded.non_converged == model.non_converged
    assert loaded.n_features == model.n_features
    resaved = tmp_path / "resaved.json"
    loaded.save(resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_document_structure(tmp_path, split_w3):
    train, _ = split_w3
    model = fit(ModelSpec("logreg"), train)
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "atrisk-model"
    assert doc["version"] == 1
    assert doc["kind"] == "logreg"
    assert doc["classes"] == [False, True]
    assert "state" in doc


def test_rejects_foreign_document(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError, match="not an atrisk model"):
        load_model(path)


def test_rejects_unknown_version(tmp_path, split_w3):
    train, _ = split_w3
    model = fit(ModelSpec("naive_bayes"), train)
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unsupported model version"):
        load_model(path)


SPECS = {spec.kind: spec for spec in KINDS}


def saved_document(tmp_path, train, kind="logreg"):
    path = tmp_path / "model.json"
    fit(SPECS[kind], train).save(path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("kind, key", [
    *(pytest.param("logreg", key, id=key)
      for key in ("kind", "params", "n_features", "non_converged", "state")),
    *(pytest.param(kind, f"state.{name}",
                   id=f"state.{name}" if kind == "logreg"
                   else f"{kind}-state.{name}")
      for kind in MODEL_KINDS for name in _KINDS[kind].model.state),
])
def test_rejects_missing_key(tmp_path, split_w3, kind, key):
    train, _ = split_w3
    path, doc = saved_document(tmp_path, train, kind)
    *parents, leaf = key.split(".")
    node = doc
    for parent in parents:
        node = node[parent]
    del node[leaf]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError,
                       match=f"model.json: missing key '{leaf}'"):
        load_model(path)


def _set_n_features(doc):
    doc["n_features"] = 10


def _tree_edit(name, value):
    def edit(doc):
        doc["state"]["tree"][name][0] = value
    return edit


def _drop_last_probs(doc):
    doc["state"]["tree"]["probs"].pop()


def _set_gamma_null(doc):
    doc["state"]["gamma"] = None


def _keep_two_rows(doc):
    for name in ("train_features", "train_labels"):
        doc["state"][name] = doc["state"][name][:2]


@pytest.mark.parametrize("kind, edit", [
    pytest.param("logreg", _set_n_features, id="logreg-n_features"),
    pytest.param("decision_tree", _tree_edit("feature", 500),
                 id="tree-feature-out-of-range"),
    pytest.param("decision_tree", _tree_edit("left", 0), id="tree-cycle"),
    pytest.param("decision_tree", _drop_last_probs, id="tree-short-list"),
    pytest.param("svm_rbf", _set_gamma_null, id="svm_rbf-gamma-null"),
    pytest.param("knn", _keep_two_rows, id="knn-fewer-rows-than-k"),
])
def test_rejects_malformed_state(tmp_path, split_w3, kind, edit):
    train, _ = split_w3
    path, doc = saved_document(tmp_path, train, kind)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="model.json: malformed 'state'"):
        load_model(path)


@pytest.mark.parametrize("key, value, message", [
    ("n_features", "3", "'n_features' must be a JSON int"),
    ("state", [], "'state' must be a JSON dict"),
    ("params", {"C": "big"}, "bad 'kind' or 'params'"),
])
def test_rejects_wrong_typed_field(tmp_path, split_w3, key, value, message):
    train, _ = split_w3
    path, doc = saved_document(tmp_path, train)
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"model.json: .*{message}"):
        load_model(path)


@pytest.mark.parametrize("params, message", [
    pytest.param({"gamma": float("inf")},
                 "svm_rbf hyperparameter 'gamma' must be a finite number, "
                 "got inf", id="gamma-infinity"),
    # a file saved while the SVM solver still took a seed
    pytest.param({"max_iterations": 1000, "seed": 0},
                 "unknown hyperparameter(s) for svm_rbf: ['seed']",
                 id="svm-seed"),
])
def test_rejects_bad_svm_params(tmp_path, split_w3, params, message):
    train, _ = split_w3
    path, doc = saved_document(tmp_path, train, "svm_rbf")
    doc["params"].update(params)
    path.write_text(json.dumps(doc))  # inf is written as Infinity
    with pytest.raises(ValueError) as caught:
        load_model(path)
    assert str(caught.value) == f"{path}: bad 'kind' or 'params' ({message})"
