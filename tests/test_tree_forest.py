"""CART tree and random forest behaviour."""

import dataclasses
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrisk import (LabeledDataset, ModelSpec, fit, load_model,
                    load_resampled)
from atrisk.cli import main
from atrisk.data import write_json
from atrisk.evaluation import evaluate
from atrisk.models import MODEL_KINDS, TreeModel, tree as tree_module
from conftest import make_dataset, random_binary_dataset
from oracles import tree_build_oracle, tree_proba_oracle


def training_accuracy(model, ds):
    proba = model.predict_proba(ds.features)
    predicted_true = proba[:, 1] >= 0.5
    return float((predicted_true == ds.labels).mean())


def test_tree_training_accuracy_one_on_distinct_rows():
    rng = np.random.default_rng(41)
    for trial in range(5):
        n, d = 40, 8
        features = np.unique((rng.random((n, d)) < 0.5).astype(float),
                             axis=0)
        labels = rng.random(features.shape[0]) < 0.5
        ds = make_dataset(features, labels)
        model = fit(ModelSpec("decision_tree"), ds)
        assert training_accuracy(model, ds) == 1.0


def test_tree_pure_leaves_probability_one():
    rng = np.random.default_rng(42)
    features = np.unique((rng.random((30, 6)) < 0.5).astype(float), axis=0)
    labels = rng.random(features.shape[0]) < 0.5
    ds = make_dataset(features, labels)
    model = fit(ModelSpec("decision_tree"), ds)
    proba = model.predict_proba(ds.features)
    picked = np.where(ds.labels, proba[:, 1], proba[:, 0])
    assert np.all(picked == 1.0)


def test_tree_solves_xor():
    features = np.array([[0., 0.], [0., 1.], [1., 0.], [1., 1.]])
    labels = [False, True, True, False]
    ds = make_dataset(features, labels)
    model = fit(ModelSpec("decision_tree"), ds)
    assert training_accuracy(model, ds) == 1.0


def test_tree_tie_breaks_to_lowest_feature_index():
    # identical predictive columns: the split must use feature 0
    base = np.array([0.0, 0.0, 1.0, 1.0])
    features = np.column_stack([base, base])
    ds = make_dataset(features, [False, False, True, True])
    model = fit(ModelSpec("decision_tree"), ds)
    assert model.trees[0].feature[0] == 0


def test_tree_tie_breaks_to_lowest_threshold():
    # both candidate thresholds give weighted gini 1/3; 0.5 must win
    features = np.array([[0.0], [1.0], [1.0]])
    labels = [True, False, True]
    ds = make_dataset(features, labels)
    model = fit(ModelSpec("decision_tree"), ds)
    assert model.trees[0].threshold[0] == pytest.approx(0.5)


def test_tree_respects_max_depth():
    rng = np.random.default_rng(43)
    ds = random_binary_dataset(rng, 60, 6)
    model = fit(ModelSpec("decision_tree", max_depth=1), ds)
    # a stump has at most 3 nodes
    assert model.n_nodes <= 3


def test_tree_min_samples_split():
    rng = np.random.default_rng(44)
    ds = random_binary_dataset(rng, 40, 5)
    loose = fit(ModelSpec("decision_tree"), ds)
    tight = fit(ModelSpec("decision_tree", min_samples_split=20), ds)
    assert tight.n_nodes < loose.n_nodes


def test_tree_tolerates_single_class():
    ds = make_dataset(np.array([[0.], [1.], [0.]]), [True, True, True])
    model = fit(ModelSpec("decision_tree"), ds)
    proba = model.predict_proba(np.array([[0.5]]))
    assert proba.tolist() == [[0.0, 1.0]]


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
def test_tree_without_features_is_one_leaf(kind):
    ds = make_dataset(np.zeros((3, 0)), [True, False, True])
    for tree in fit(ModelSpec(kind), ds).trees:
        assert tree.feature.tolist() == [-1] and tree.counts.sum() == 3


def test_tree_duplicate_conflicting_rows_become_frequency_leaf():
    features = np.array([[1.0], [1.0], [1.0], [0.0]])
    labels = [True, True, False, False]
    ds = make_dataset(features, labels)
    model = fit(ModelSpec("decision_tree"), ds)
    proba = model.predict_proba(np.array([[1.0]]))
    assert proba[0].tolist() == [1.0 / 3.0, 2.0 / 3.0]


def test_forest_probability_is_exact_mean_of_members(split_w3):
    train, test = split_w3
    model = fit(ModelSpec("random_forest", n_trees=12, seed=5), train)
    proba = model.predict_proba(test.features)
    members = [TreeModel(ModelSpec("decision_tree"), train.n_features,
                         trees=[tree]).predict_proba(test.features)
               for tree in model.trees]
    assert np.array_equal(proba, np.stack(members).mean(axis=0))


def test_forest_deterministic_given_seed(split_w3):
    train, test = split_w3
    a = fit(ModelSpec("random_forest", n_trees=8, seed=9), train)
    b = fit(ModelSpec("random_forest", n_trees=8, seed=9), train)
    assert np.array_equal(a.predict_proba(test.features),
                          b.predict_proba(test.features))
    c = fit(ModelSpec("random_forest", n_trees=8, seed=10), train)
    assert not np.array_equal(a.predict_proba(test.features),
                              c.predict_proba(test.features))


def test_forest_tolerates_single_class():
    rng = np.random.default_rng(45)
    features = (rng.random((10, 4)) < 0.5).astype(float)
    ds = make_dataset(features, [True] * 10)
    model = fit(ModelSpec("random_forest", n_trees=5, seed=1), ds)
    proba = model.predict_proba(features)
    assert np.all(proba[:, 1] == 1.0)


def test_forest_explicit_max_features(split_w3):
    train, _ = split_w3
    model = fit(ModelSpec("random_forest", n_trees=4, max_features=2,
                          seed=2), train)
    assert model.predict_proba(train.features).shape == (train.n_rows, 2)


@pytest.fixture(scope="module")
def seed7_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("seed7"))
    for stage in ("simulate", "encode", "split", "resample"):
        assert main([stage, "--seed", "7", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def smote_train_w9_seed7(seed7_run):
    train = LabeledDataset.from_csv(f"{seed7_run}/train_w9.csv")
    return load_resampled(f"{seed7_run}/train_w9_smote_provenance.csv",
                          train)


def rows_on_thresholds(tree, rows):
    """Each row once for every internal node on its path, with the value
    that node tests set exactly on its threshold."""
    out = []
    for row in rows:
        node = 0
        while tree.feature[node] != -1:
            j, t = tree.feature[node], tree.threshold[node]
            out.append(row.copy())
            out[-1][j] = t
            node = node + 1 if row[j] <= t else tree.right[node]
    return np.array(out)


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
def test_array_walk_matches_reference_walk(kind, seed7_run,
                                           smote_train_w9_seed7):
    train = smote_train_w9_seed7
    test = LabeledDataset.from_csv(f"{seed7_run}/test_w9.csv")
    model = fit(ModelSpec(kind), train)
    walked = []
    for tree in model.trees:
        member = TreeModel(ModelSpec("decision_tree"), train.n_features,
                           trees=[tree])
        on_threshold = rows_on_thresholds(tree, train.features[:50])
        assert on_threshold.shape[0] > 0
        for rows in (train.features, test.features, on_threshold):
            assert np.array_equal(member.predict_proba(rows),
                                  tree_proba_oracle(tree, rows))
        walked.append(tree_proba_oracle(tree, test.features))
    assert np.array_equal(model.predict_proba(test.features),
                          np.stack(walked).mean(axis=0))


@pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
def test_fitted_and_loaded_tree_arrays_are_read_only(kind, tmp_path,
                                                     split_w3):
    train, _ = split_w3
    model = fit(ModelSpec(kind, **({"n_trees": 3} if kind == "random_forest"
                                   else {})), train)
    model.save(tmp_path / "model.json")
    for source in (model, load_model(tmp_path / "model.json")):
        for tree in source.trees:
            for field in dataclasses.fields(tree):
                array = getattr(tree, field.name)
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                tree.feature = tree.feature.copy()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_leaves_no_cyclic_garbage(kind, smote_train_w9_seed7):
    # garbage in a reference cycle lives until the cyclic collector runs, so
    # a fit that leaves one holds its arrays (a forest tree's bootstrap
    # rows) after it returns
    gc.collect()
    gc.disable()
    try:
        fit(ModelSpec(kind), smote_train_w9_seed7)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_save_leaves_no_cyclic_garbage(kind, tmp_path, smote_train_w9_seed7,
                                       seed7_run):
    # as for a fit: a model file or report written leaves no object that
    # only the cyclic collector frees
    model = fit(ModelSpec(kind), smote_train_w9_seed7)
    report = evaluate(model, LabeledDataset.from_csv(
        f"{seed7_run}/test_w9.csv"), 0.5)
    gc.collect()
    gc.disable()
    try:
        model.save(tmp_path / "model.json")
        write_json(tmp_path / "report.json", report)
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def tree_problems(draw):
    """A small matrix of fractional values with duplicate rows and constant
    columns, its labels, and the tree parameters to grow on it."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 6))
    pool = draw(st.lists(st.sampled_from((0.0, 0.25, 0.3, 0.5, 1.0, 0.75)),
                         min_size=1, max_size=4))
    distinct = draw(st.integers(1, n))
    rows = [draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d))
            for _ in range(distinct)]
    X = np.array([rows[draw(st.integers(0, distinct - 1))]
                  for _ in range(n)])
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = pool[0]
    y = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    params = {"max_depth": draw(st.none() | st.integers(1, 4)),
              "min_samples_split": draw(st.integers(2, 6))}
    return X, y, params, draw(st.integers(1, 4)), draw(
        st.sampled_from(["sqrt", 1, 2, 3, 7])), draw(st.integers(0, 99))


@settings(max_examples=150, deadline=None)
@given(problem=tree_problems())
def test_node_arrays_match_the_one_node_at_a_time_oracle(problem):
    X, y, params, n_trees, max_features, seed = problem
    ds = make_dataset(X, y, np.ones(len(y), dtype=bool))
    grown = fit(ModelSpec("decision_tree", **params), ds).trees
    want = [tree_build_oracle(X, y, **params)]
    forest = fit(ModelSpec("random_forest", n_trees=n_trees, seed=seed,
                           max_features=max_features, **params), ds)
    grown += forest.trees
    d = X.shape[1]
    per_split = max(1, int(math.sqrt(d))) if max_features == "sqrt" \
        else min(max_features, d)
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, len(y), size=len(y))
        want.append(tree_build_oracle(X[rows], y[rows], **params, rng=rng,
                                      max_features=per_split))
    for tree, expected in zip(grown, want, strict=True):
        for name, array in expected.items():
            found = getattr(tree, name)
            assert found.dtype == array.dtype
            assert np.array_equal(found, array), name


@pytest.mark.parametrize("cells", [5, 2 ** 30])
def test_scan_size_changes_no_tree(monkeypatch, cells):
    # 5 cells a scan puts every node's columns in groups; 2**30 puts a
    # step in one scan, with keys too wide for int32
    monkeypatch.setattr(tree_module, "_SCAN_CELLS", cells)
    rng = np.random.default_rng(12)
    X = np.round(rng.random((40, 7)), 1)
    y = rng.random(40) < 0.4
    ds = make_dataset(X, y, np.ones(40, dtype=bool))
    grown = fit(ModelSpec("decision_tree"), ds).trees \
        + fit(ModelSpec("random_forest", n_trees=3, max_features=3,
                        seed=4), ds).trees
    want = [tree_build_oracle(X, y, None, 2)]
    for child in np.random.SeedSequence(4).spawn(3):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, 40, size=40)
        want.append(tree_build_oracle(X[rows], y[rows], None, 2, rng=rng,
                                      max_features=3))
    for tree, expected in zip(grown, want, strict=True):
        for name, array in expected.items():
            assert np.array_equal(getattr(tree, name), array), name
