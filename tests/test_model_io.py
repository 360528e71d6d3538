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
    assert doc["version"] == 2
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


def _as_version_1(doc):
    """doc as format 1 saved it: a decision tree's state was one "tree",
    and a tree also held "left" (-1 at a leaf) and per-node "probs"."""
    doc["version"] = 1
    if "trees" in doc["state"]:
        trees = doc["state"].pop("trees")
        for tree in trees:
            tree["left"] = [-1 if j == -1 else i + 1
                            for i, j in enumerate(tree["feature"])]
            tree["probs"] = [[f / (f + t), t / (f + t)]
                             for f, t in tree.pop("counts")]
        if doc["kind"] == "decision_tree":
            doc["state"]["tree"] = trees[0]
        else:
            doc["state"]["trees"] = trees
    return doc


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "knn"])
def test_rejects_version_1_file(tmp_path, split_w3, kind):
    train, _ = split_w3
    path, doc = saved_document(tmp_path, train, kind)
    path.write_text(json.dumps(_as_version_1(doc)))
    with pytest.raises(ValueError) as caught:
        load_model(path)
    assert str(caught.value) == f"{path}: unsupported model version 1"


@pytest.mark.parametrize("kind, key", [
    *(pytest.param("logreg", key, id=key)
      for key in ("kind", "params", "classes", "n_features", "non_converged",
                  "state")),
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


def _tree_edit(name, value, node=0):
    def edit(doc):
        doc["state"]["trees"][0][name][node] = value
    return edit


def _drop_last_counts(doc):
    doc["state"]["trees"][0]["counts"].pop()


def _point_back_to_root(doc):
    # the right child of the first internal node below the root is the root
    tree = doc["state"]["trees"][0]
    node = next(i for i, j in enumerate(tree["feature"]) if i and j != -1)
    tree["right"][node] = 0


def _right_past_end(doc):
    tree = doc["state"]["trees"][0]
    tree["right"][0] = len(tree["feature"])


def _copy_first_tree(doc):
    trees = doc["state"]["trees"]
    trees.append(trees[0])


def _drop_last_tree(doc):
    doc["state"]["trees"].pop()


def _set_state(name, value):
    def edit(doc):
        doc["state"][name] = value
    return edit


def _keep_two_rows(doc):
    for name in ("train_features", "train_labels"):
        doc["state"][name] = doc["state"][name][:2]


@pytest.mark.parametrize("kind, edit", [
    pytest.param("logreg", _set_n_features, id="logreg-n_features"),
    pytest.param("decision_tree", _tree_edit("feature", 500),
                 id="tree-feature-out-of-range"),
    pytest.param("decision_tree", _point_back_to_root, id="tree-cycle"),
    pytest.param("decision_tree", _tree_edit("right", 0),
                 id="tree-right-cycle"),
    pytest.param("decision_tree", _tree_edit("right", 1),
                 id="tree-right-is-left-child"),
    pytest.param("decision_tree", _right_past_end, id="tree-right-past-end"),
    pytest.param("decision_tree", _tree_edit("counts", [-1, 5]),
                 id="tree-negative-count"),
    pytest.param("decision_tree", _tree_edit("counts", [0, 0], node=-1),
                 id="tree-zero-count-leaf"),
    pytest.param("decision_tree", _copy_first_tree, id="tree-two-trees"),
    pytest.param("random_forest", _drop_last_tree,
                 id="random_forest-one-tree-short"),
    pytest.param("decision_tree", _tree_edit("feature", -2),
                 id="tree-negative-feature"),
    pytest.param("decision_tree", _drop_last_counts, id="tree-short-list"),
    pytest.param("svm_rbf", _set_state("gamma", None),
                 id="svm_rbf-gamma-null"),
    pytest.param("knn", _keep_two_rows, id="knn-fewer-rows-than-k"),
    # values a load once converted: int(12.7) is 12, float("0.5") is 0.5
    pytest.param("decision_tree", _tree_edit("feature", 12.7),
                 id="tree-fractional-feature"),
    pytest.param("decision_tree", _tree_edit("threshold", "0.5"),
                 id="tree-string-threshold"),
    pytest.param("decision_tree", _tree_edit("feature", True),
                 id="tree-bool-feature"),
    pytest.param("decision_tree", _tree_edit("counts", [5, "5"]),
                 id="tree-string-in-counts-pair"),
    pytest.param("naive_bayes", _set_state("log_prior", ["-0.1", "-2.0"]),
                 id="naive_bayes-string-log_prior"),
    pytest.param("naive_bayes", _set_state("log_prior", [True, False]),
                 id="naive_bayes-bool-log_prior"),
    pytest.param("logreg", _set_state("intercept", "0.5"),
                 id="logreg-string-intercept"),
    pytest.param("svm_rbf", _set_state("link_scale", True),
                 id="svm_rbf-bool-link_scale"),
])
def test_rejects_malformed_state(tmp_path, split_w3, kind, edit):
    train, _ = split_w3
    path, doc = saved_document(tmp_path, train, kind)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="model.json: malformed 'state'") \
            as caught:
        load_model(path)
    assert "\n" not in str(caught.value)


def _one_tree_object(doc):
    doc["state"]["trees"] = doc["state"]["trees"][0]


@pytest.mark.parametrize("edit, got", [
    pytest.param(_one_tree_object, "dict", id="one-tree-object"),
    pytest.param(_set_state("trees", 5), "int", id="number"),
])
def test_rejects_trees_that_are_not_a_list(tmp_path, split_w3, edit, got):
    train, _ = split_w3
    path, doc = saved_document(tmp_path, train, "decision_tree")
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as caught:
        load_model(path)
    assert str(caught.value) == (f"{path}: malformed 'state' ('trees' must "
                                 f"be a list of trees, got {got})")


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


# a float entry of each kind's state, as keys and indexes below "state"
_FLOAT_ENTRY = {
    "logreg": ("intercept",),
    "naive_bayes": ("log_theta", 1, 0),
    "decision_tree": ("trees", 0, "threshold", 0),
    "random_forest": ("trees", 9, "threshold", 0),
    "knn": ("train_features", 0, 0),
    "svm_linear": ("sv_coef", 0),
    "svm_rbf": ("link_scale",),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rejects_non_finite_state_entry(tmp_path, split_w3, kind, value):
    train, _ = split_w3
    path, doc = saved_document(tmp_path, train, kind)
    *parents, leaf = _FLOAT_ENTRY[kind]
    node = doc["state"]
    for parent in parents:
        node = node[parent]
    node[leaf] = value
    path.write_text(json.dumps(doc))  # written as NaN or Infinity
    with pytest.raises(ValueError) as caught:
        load_model(path)
    assert str(caught.value) == (f"{path}: malformed 'state' (expected "
                                 f"finite numbers, got {value})")


@pytest.mark.parametrize("classes, shown", [
    pytest.param([True, False], "[true, false]", id="swapped"),
    pytest.param([0, 1], "[0, 1]", id="integers"),
    pytest.param([False, True, True], "[false, true, true]", id="three"),
])
def test_rejects_classes_other_than_false_true(tmp_path, split_w3, classes,
                                               shown):
    train, _ = split_w3
    path, doc = saved_document(tmp_path, train)
    doc["classes"] = classes
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as caught:
        load_model(path)
    assert str(caught.value) == (f"{path}: key 'classes' must be [false, "
                                 f"true] (failing, passing), got {shown}")
