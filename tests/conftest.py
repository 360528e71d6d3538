import numpy as np
import pytest

from atrisk import (LabeledDataset, ResampleConfig, SimConfig, SplitSpec,
                    encode, models, simulate, smote, split)
from oracles import logistic_kkt_oracle, svm_kkt_oracle


def assert_kkt_certificate(model, train):
    """A logreg model's convergence flag agrees with the KKT oracle."""
    p = model.spec.params
    l1_ratio = p["l1_ratio"] if p["penalty"] == "elasticnet" else 0.0
    y = np.where(train.labels, 1.0, -1.0)
    residual = logistic_kkt_oracle(train.features, y, model.weights,
                                   model.intercept, p["C"], l1_ratio)
    assert np.isfinite(model.weights).all() and np.isfinite(model.intercept)
    assert model.non_converged == (residual > p["tolerance"])
    return residual


@pytest.fixture(autouse=True)
def certify_logreg_fits(monkeypatch):
    """Every logreg fit made through atrisk.fit is checked by the oracle."""
    logreg = models._KINDS["logreg"]

    def certified(spec, train):
        model = logreg.fitter(spec, train)
        assert_kkt_certificate(model, train)
        return model

    monkeypatch.setitem(models._KINDS, "logreg",
                        logreg._replace(fitter=certified))


def assert_svm_certificate(model, train):
    """An SVM model's convergence flag agrees with the dual-KKT oracle, its
    support vectors are the rows with alpha > 1e-12, and y'alpha = 0 within
    1e-9 per unit of C (each step rounds at the multipliers' scale)."""
    p = model.spec.params
    y = np.where(train.labels, 1.0, -1.0)
    alpha = model.alpha
    kernel = "linear" if model.spec.kind == "svm_linear" else "rbf"
    gap = svm_kkt_oracle(train.features, y, alpha, p["C"], kernel,
                         model.gamma)
    assert np.isfinite(alpha).all() and np.isfinite(model.intercept)
    assert model.non_converged == (gap > p["tolerance"])
    support = alpha > 1e-12
    assert np.array_equal(model.sv_coef, (alpha * y)[support])
    assert np.array_equal(model.sv_features, train.features[support])
    assert abs(np.dot(alpha, y)) <= 1e-9 * max(1.0, p["C"])
    return gap


@pytest.fixture(autouse=True)
def certify_svm_fits(monkeypatch):
    """Every SVM fit made through atrisk.fit is checked by the oracle."""
    for kind in ("svm_linear", "svm_rbf"):
        entry = models._KINDS[kind]

        def certified(spec, train, fitter=entry.fitter):
            model = fitter(spec, train)
            assert_svm_certificate(model, train)
            return model

        monkeypatch.setitem(models._KINDS, kind,
                            entry._replace(fitter=certified))


@pytest.fixture(scope="session")
def default_cohort():
    """One default simulated cohort, shared across the suite."""
    records, manifest = simulate(SimConfig(seed=0))
    return records, manifest


@pytest.fixture(scope="session")
def dataset_w3(default_cohort):
    records, manifest = default_cohort
    return encode(records, manifest, 3)


@pytest.fixture(scope="session")
def dataset_w9(default_cohort):
    records, manifest = default_cohort
    return encode(records, manifest, 9)


@pytest.fixture(scope="session")
def split_w3(dataset_w3):
    return split(dataset_w3, SplitSpec(train_fraction=0.8, seed=1))


@pytest.fixture(scope="session")
def split_w9(dataset_w9):
    return split(dataset_w9, SplitSpec(train_fraction=0.8, seed=1))


@pytest.fixture(scope="session")
def smote_train_w3(split_w3):
    train, _ = split_w3
    return smote(train, ResampleConfig(method="smote", k_neighbors=5,
                                       seed=11)).dataset


def make_dataset(features, labels, synthetic=None):
    features = np.asarray(features, dtype=np.float64)
    names = tuple(f"f{j}" for j in range(features.shape[1]))
    return LabeledDataset(features, labels, names, synthetic)


def random_binary_dataset(rng, n, d, p_true=0.5):
    features = (rng.random((n, d)) < 0.5).astype(np.float64)
    labels = rng.random(n) < p_true
    # ensure both classes are present with two rows each
    labels[:2] = False
    labels[2:4] = True
    return make_dataset(features, labels)
