"""Model JSON persistence: bit-exact round trips for every kind."""

import json

import numpy as np
import pytest

from atrisk import ModelSpec, fit, load_model

KINDS = [
    ModelSpec("logreg", penalty="elasticnet", l1_ratio=0.5, C=0.01),
    ModelSpec("logreg"),
    ModelSpec("naive_bayes"),
    ModelSpec("decision_tree"),
    ModelSpec("random_forest", n_trees=10, seed=4),
    ModelSpec("knn", k=3),
    ModelSpec("svm_linear", seed=2),
    ModelSpec("svm_rbf", seed=2),
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


def saved_logreg_document(tmp_path, train):
    path = tmp_path / "model.json"
    fit(ModelSpec("logreg"), train).save(path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("key", ["kind", "params", "n_features",
                                 "non_converged", "state", "state.weights"])
def test_rejects_missing_key(tmp_path, split_w3, key):
    train, _ = split_w3
    path, doc = saved_logreg_document(tmp_path, train)
    *parents, leaf = key.split(".")
    node = doc
    for parent in parents:
        node = node[parent]
    del node[leaf]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError,
                       match=f"model.json: missing key '{leaf}'"):
        load_model(path)


@pytest.mark.parametrize("key, value, message", [
    ("n_features", "3", "'n_features' must be a JSON int"),
    ("state", [], "'state' must be a JSON dict"),
    ("params", {"C": "big"}, "bad 'kind' or 'params'"),
])
def test_rejects_wrong_typed_field(tmp_path, split_w3, key, value, message):
    train, _ = split_w3
    path, doc = saved_logreg_document(tmp_path, train)
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"model.json: .*{message}"):
        load_model(path)
