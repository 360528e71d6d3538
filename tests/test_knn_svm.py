"""kNN classifier and SMO-trained SVMs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrisk import ModelSpec, fit
from atrisk.models.svm import rbf_gamma
from conftest import make_dataset, random_binary_dataset
from oracles import knn_oracle


def xor_dataset():
    features = np.array([[0., 0.], [0., 1.], [1., 0.], [1., 1.]])
    return make_dataset(features, [False, True, True, False])


# --- knn ---------------------------------------------------------------------

def test_knn_unanimous_neighbors():
    rng = np.random.default_rng(51)
    cluster_false = np.zeros((5, 3))
    cluster_false[:, 0] = rng.random(5) < 0.5
    cluster_true = np.ones((5, 3))
    ds = make_dataset(np.vstack([cluster_false, cluster_true]),
                      [False] * 5 + [True] * 5)
    model = fit(ModelSpec("knn", k=5), ds)
    proba = model.predict_proba(np.array([[0.0, 0.0, 0.1]]))
    assert proba.tolist() == [[1.0, 0.0]]


def test_knn_fraction_matches_oracle(split_w3):
    train, test = split_w3
    k = 5
    model = fit(ModelSpec("knn", k=k), train)
    proba = model.predict_proba(test.features)
    # oracle: stack test rows after train rows, query each among train only
    stacked = np.vstack([train.features, test.features])
    subset = list(range(train.n_rows))
    neighbors = knn_oracle(stacked, k, subset=subset)[train.n_rows:]
    expected_true = train.labels[neighbors].sum(axis=1) / k
    assert np.array_equal(proba[:, 1], expected_true)


def test_knn_k_larger_than_training_rejected():
    rng = np.random.default_rng(52)
    ds = random_binary_dataset(rng, 6, 3)
    with pytest.raises(ValueError, match="exceeds"):
        fit(ModelSpec("knn", k=7), ds)


def test_knn_deterministic(split_w3):
    train, test = split_w3
    a = fit(ModelSpec("knn"), train).predict_proba(test.features)
    b = fit(ModelSpec("knn"), train).predict_proba(test.features)
    assert np.array_equal(a, b)


# --- svm ---------------------------------------------------------------------

def test_svm_rbf_default_gamma_formula(split_w3):
    train, _ = split_w3
    model = fit(ModelSpec("svm_rbf"), train)
    expected = 1.0 / (train.n_features
                      * train.features.var(axis=0).mean())
    assert model.gamma == pytest.approx(expected, rel=1e-12)


def test_svm_rbf_solves_xor_with_default_settings():
    ds = xor_dataset()
    model = fit(ModelSpec("svm_rbf", C=1.0), ds)
    assert rbf_gamma(ds.features) == pytest.approx(2.0)
    proba = model.predict_proba(ds.features)
    predicted_true = proba[:, 1] >= 0.5
    assert np.array_equal(predicted_true, ds.labels)


def test_svm_linear_separates_separable_data():
    features = np.array([[0., 0.], [0., 1.], [1., 0.], [1., 1.]])
    labels = [False, False, True, True]  # split on the first coordinate
    ds = make_dataset(features, labels)
    model = fit(ModelSpec("svm_linear"), ds)
    proba = model.predict_proba(ds.features)
    assert np.array_equal(proba[:, 1] >= 0.5, ds.labels)
    scores = model.decision_values(ds.features)
    assert np.all(np.sign(scores) == np.where(ds.labels, 1.0, -1.0))


def test_svm_probabilities_sum_to_one(split_w3):
    train, test = split_w3
    model = fit(ModelSpec("svm_rbf"), train)
    proba = model.predict_proba(test.features)
    assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-9
    assert np.all((proba >= 0.0) & (proba <= 1.0))


@pytest.mark.parametrize("kind", ["svm_linear", "svm_rbf"])
def test_svm_default_fit_reaches_the_gap(smote_train_w3, kind):
    model = fit(ModelSpec(kind), smote_train_w3)
    assert not model.non_converged
    assert model.kkt_gap <= model.spec.params["tolerance"]


def test_svm_deterministic(split_w3):
    train, test = split_w3
    a = fit(ModelSpec("svm_rbf"), train)
    b = fit(ModelSpec("svm_rbf"), train)
    assert np.array_equal(a.predict_proba(test.features),
                          b.predict_proba(test.features))


def test_svm_non_convergence_flag():
    rng = np.random.default_rng(53)
    ds = random_binary_dataset(rng, 40, 6)
    model = fit(ModelSpec("svm_rbf", max_iterations=1), ds)
    assert model.non_converged
    assert model.predict_proba(ds.features).shape == (40, 2)


def test_svm_single_class_rejected():
    ds = make_dataset(np.zeros((4, 2)), [True] * 4)
    with pytest.raises(ValueError, match="both classes"):
        fit(ModelSpec("svm_linear"), ds)


def test_svm_gamma_validation():
    with pytest.raises(ValueError, match="gamma"):
        ModelSpec("svm_rbf", gamma=-1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
       d=st.integers(1, 6), kind=st.sampled_from(["svm_linear", "svm_rbf"]),
       problem=st.sampled_from(["opposite_duplicates", "constant_kernel",
                                "large_C"]))
def test_degenerate_svm_problems_end_finite_and_certified(seed, n, d, kind,
                                                          problem):
    # certify_svm_fits checks each fit's flag against svm_kkt_oracle
    rng = np.random.default_rng(seed)
    features = (rng.random((n, d)) < 0.5).astype(np.float64)
    labels = rng.random(n) < 0.5
    labels[:2], labels[2:4] = False, True
    C = 1e6 if problem == "large_C" else 1.0
    if problem == "opposite_duplicates":  # every row also has the other label
        features = np.vstack([features, features])
        labels = np.concatenate([labels, ~labels])
    elif problem == "constant_kernel":  # all rows equal
        features = np.ones((n, d))
    ds = make_dataset(features, labels)
    # with C = 1e6, a linear fit on few distinct rows can need ~C two-variable
    # steps along a direction of zero curvature; the cap keeps examples fast,
    # and the flag must be honest either way
    model = fit(ModelSpec(kind, C=C, max_iterations=1000), ds)
    assert np.isfinite(model.alpha).all()
    assert np.isfinite(model.kkt_gap)
    assert np.isfinite(model.predict_proba(ds.features)).all()
