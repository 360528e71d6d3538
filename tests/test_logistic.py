"""Logistic regression numerics: gradients, descent, penalties, and the
KKT certificate of the Newton solver."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atrisk import (ModelSpec, encode, fit, load_model, resample, simulate,
                    split)
from atrisk.config import build_config
from atrisk.models import logistic
from atrisk.models.logistic import (fit_logistic_raw, smooth_gradient,
                                    smooth_objective)
from conftest import assert_kkt_certificate, make_dataset, \
    random_binary_dataset
from oracles import logistic_kkt_oracle


def central_difference_gradient(X, y, w, b, C, l1_ratio, eps=1e-5):
    d = len(w)
    grad_w = np.empty(d)
    for j in range(d):
        step = np.zeros(d)
        step[j] = eps
        grad_w[j] = (smooth_objective(X, y, w + step, b, C, l1_ratio)
                     - smooth_objective(X, y, w - step, b, C, l1_ratio)) \
            / (2 * eps)
    grad_b = (smooth_objective(X, y, w, b + eps, C, l1_ratio)
              - smooth_objective(X, y, w, b - eps, C, l1_ratio)) / (2 * eps)
    return grad_w, grad_b


@pytest.mark.parametrize("dataset_seed", range(5))
def test_gradient_matches_central_differences(dataset_seed):
    rng = np.random.default_rng(dataset_seed)
    n, d = 30, 6
    X = rng.random((n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    C, l1_ratio = 0.7, 0.4
    for _ in range(20):
        w = rng.normal(scale=2.0, size=d)
        b = float(rng.normal())
        grad_w, grad_b = smooth_gradient(X, y, w, b, C, l1_ratio)
        num_w, num_b = central_difference_gradient(X, y, w, b, C, l1_ratio)
        analytic = np.append(grad_w, grad_b)
        numeric = np.append(num_w, num_b)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-4


def test_objective_monotone_non_increasing(smote_train_w3):
    model = fit(ModelSpec("logreg", C=1.0), smote_train_w3)
    history = model.objective_history
    assert len(history) >= 2
    assert np.all(np.diff(history) <= 0)
    assert not model.non_converged


def test_objective_monotone_elasticnet(smote_train_w3):
    model = fit(ModelSpec("logreg", penalty="elasticnet", l1_ratio=0.5,
                          C=0.01), smote_train_w3)
    assert np.all(np.diff(model.objective_history) <= 0)


def test_l1_limit_kills_all_weights():
    rng = np.random.default_rng(11)
    ds = random_binary_dataset(rng, 40, 10)
    model = fit(ModelSpec("logreg", penalty="elasticnet", l1_ratio=1.0,
                          C=1e-8), ds)
    assert np.all(model.weights == 0.0)


def test_l1_limit_balanced_data_gives_half_probabilities():
    rng = np.random.default_rng(12)
    features = (rng.random((20, 5)) < 0.5).astype(float)
    labels = [False] * 10 + [True] * 10
    ds = make_dataset(features, labels)
    model = fit(ModelSpec("logreg", penalty="elasticnet", l1_ratio=1.0,
                          C=1e-8), ds)
    assert np.all(model.weights == 0.0)
    assert model.intercept == 0.0
    proba = model.predict_proba(ds.features)
    assert np.all(proba == 0.5)


def test_stronger_penalty_shrinks_weights():
    # separable two-point layout, duplicated to meet the two-per-class rule
    features = np.array([[0.0], [0.0], [1.0], [1.0]])
    labels = [False, False, True, True]
    ds = make_dataset(features, labels)
    heavy = fit(ModelSpec("logreg", C=0.01), ds)
    light = fit(ModelSpec("logreg", C=1.0), ds)
    assert np.abs(heavy.weights).sum() < np.abs(light.weights).sum()


def test_probabilities_sum_to_one(smote_train_w3):
    model = fit(ModelSpec("logreg", C=1.0), smote_train_w3)
    proba = model.predict_proba(smote_train_w3.features)
    assert np.all(proba >= 0.0) and np.all(proba <= 1.0)
    assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-9


def test_deterministic_fit(smote_train_w3):
    a = fit(ModelSpec("logreg", C=0.1), smote_train_w3)
    b = fit(ModelSpec("logreg", C=0.1), smote_train_w3)
    assert np.array_equal(a.weights, b.weights)
    assert a.intercept == b.intercept


def test_non_convergence_flagged_but_usable():
    rng = np.random.default_rng(13)
    ds = random_binary_dataset(rng, 50, 8)
    model = fit(ModelSpec("logreg", max_iterations=2), ds)
    assert model.non_converged
    proba = model.predict_proba(ds.features)
    assert proba.shape == (50, 2)


def test_single_class_rejected():
    features = np.zeros((4, 2))
    features[:, 0] = [0, 1, 0, 1]
    ds = make_dataset(features, [True, True, True, True])
    with pytest.raises(ValueError, match="both classes"):
        fit(ModelSpec("logreg"), ds)


def test_one_row_per_class_rejected():
    ds = make_dataset([[0.0], [1.0]], [False, True])
    with pytest.raises(ValueError, match=">= 2 rows per class"):
        fit(ModelSpec("logreg"), ds)


def test_dimension_mismatch_on_predict(smote_train_w3):
    model = fit(ModelSpec("logreg"), smote_train_w3)
    with pytest.raises(ValueError, match="43 features, rows have 5"):
        model.predict_proba(np.zeros((2, 5)))


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown hyperparameter"):
        ModelSpec("logreg", alpha=1.0)
    with pytest.raises(ValueError, match="C must be > 0"):
        ModelSpec("logreg", C=0.0)
    with pytest.raises(ValueError, match="requires penalty"):
        ModelSpec("logreg", l1_ratio=0.5)
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelSpec("mlp")
    with pytest.raises(ValueError, match="'n_trees' must be a finite number"):
        ModelSpec("random_forest", n_trees=True)
    with pytest.raises(ValueError, match="'C' must be a finite number"):
        ModelSpec("logreg", C=10**400)  # no float holds it


# --- KKT certificate --------------------------------------------------------

PENALTIES = [("l2", 0.0), ("elasticnet", 0.5), ("elasticnet", 1.0)]


def logreg_spec(penalty, l1_ratio, C, **kw):
    if penalty == "l2":
        return ModelSpec("logreg", C=C, **kw)
    return ModelSpec("logreg", penalty=penalty, l1_ratio=l1_ratio, C=C, **kw)


@pytest.mark.parametrize("C", [0.01, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("penalty,l1_ratio", PENALTIES)
def test_fit_meets_kkt_oracle(smote_train_w3, penalty, l1_ratio, C):
    model = fit(logreg_spec(penalty, l1_ratio, C), smote_train_w3)
    assert not model.non_converged
    assert assert_kkt_certificate(model, smote_train_w3) <= 1e-8
    assert model.kkt_residual <= 1e-8
    assert np.all(np.diff(model.objective_history) <= 0)


def test_kkt_oracle_rejects_perturbed_optimum(smote_train_w3):
    model = fit(ModelSpec("logreg", penalty="elasticnet", l1_ratio=0.5,
                          C=1.0), smote_train_w3)
    y = np.where(smote_train_w3.labels, 1.0, -1.0)
    X = smote_train_w3.features
    nudged = model.weights.copy()
    nudged[np.argmax(np.abs(nudged))] *= 1.01
    assert logistic_kkt_oracle(X, y, nudged, model.intercept, 1.0,
                               0.5) > 1e-6
    assert logistic_kkt_oracle(X, y, model.weights, model.intercept + 1e-3,
                               1.0, 0.5) > 1e-6


def test_non_converged_fit_reports_its_residual():
    rng = np.random.default_rng(13)
    ds = random_binary_dataset(rng, 50, 8)
    model = fit(ModelSpec("logreg", max_iterations=1), ds)
    assert model.non_converged
    assert model.kkt_residual > 1e-8
    assert len(model.objective_history) == 2


def test_a_nan_residual_is_flagged_non_converged(monkeypatch):
    # NaN > tolerance is false, so the flag must not be that comparison
    def nan_residual(X, y, C, l1_ratio, tolerance, max_iterations,
                     start=None):
        return np.zeros(X.shape[1]), 0.0, np.zeros(1), float("nan")

    monkeypatch.setattr(logistic, "fit_logistic_raw", nan_residual)
    rng = np.random.default_rng(13)
    ds = random_binary_dataset(rng, 50, 8)
    model = logistic.fit_logistic(ModelSpec("logreg"), ds)
    assert model.non_converged


def test_kkt_residual_stays_out_of_the_saved_model(smote_train_w3, tmp_path):
    model = fit(ModelSpec("logreg"), smote_train_w3)
    path = tmp_path / "model.json"
    model.save(path)
    assert set(json.loads(path.read_text())["state"]) == \
        {"weights", "intercept"}
    loaded = load_model(path)
    assert loaded.kkt_residual is None
    assert loaded.objective_history is None


def random_problem(seed, n, d, binary):
    rng = np.random.default_rng(seed)
    features = rng.random((n, d))
    if binary:
        features = (features < 0.5).astype(np.float64)
    labels = rng.random(n) < 0.5
    labels[:2], labels[2:4] = False, True
    # fractional rows are only legal as synthetic (oversampled) rows
    return make_dataset(features, labels, np.full(n, not binary))


# the last Newton steps of these cases lower the gradient but leave the
# objective unchanged, so stopping at the first step that does not strictly
# lower the objective ends them short of the certificate
@example(seed=536870911, n=10, d=2, C=0.0266072505979881, l1_ratio=0.0,
         binary=True)
@example(seed=536870911, n=10, d=2, C=0.6309573444801932, l1_ratio=0.09,
         binary=False)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 40),
       d=st.integers(1, 8), C=st.floats(1e-2, 1e2),
       l1_ratio=st.floats(0.0, 1.0), binary=st.booleans())
def test_random_problems_meet_kkt_oracle(seed, n, d, C, l1_ratio, binary):
    ds = random_problem(seed, n, d, binary)
    model = fit(logreg_spec("elasticnet", l1_ratio, C), ds)
    assert not model.non_converged
    assert assert_kkt_certificate(model, ds) <= 1e-8
    assert np.all(np.diff(model.objective_history) <= 0)


# wide problems, n < d included: many weights cross zero in one step.  In
# the example more free weights than rows make the free-set Hessian singular
# but for the ridge, and no halving of the plain Newton step is accepted
@example(seed=1, n=31, d=43, C=46.0, l1_ratio=1.0, binary=False)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 120),
       d=st.integers(1, 60), C=st.floats(1e-2, 1e2),
       l1_ratio=st.floats(0.0, 1.0, exclude_min=True), binary=st.booleans())
def test_wide_l1_problems_meet_kkt_oracle(seed, n, d, C, l1_ratio, binary):
    ds = random_problem(seed, n, d, binary)
    model = fit(logreg_spec("elasticnet", l1_ratio, C), ds)
    assert assert_kkt_certificate(model, ds) <= 1e-8
    assert np.all(np.diff(model.objective_history) <= 0)


# --- warm starts ----------------------------------------------------------

def solution(model):
    return np.append(model.weights, model.intercept)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 40),
       d=st.integers(1, 8), C=st.floats(1e-2, 1e2),
       l1_ratio=st.floats(0.0, 1.0), other_C=st.floats(1e-2, 1e2),
       other_l1_ratio=st.floats(0.0, 1.0), scale=st.floats(0.01, 10.0),
       binary=st.booleans())
def test_warm_started_fits_meet_kkt_oracle(seed, n, d, C, l1_ratio, other_C,
                                           other_l1_ratio, scale, binary):
    ds = random_problem(seed, n, d, binary)
    spec = logreg_spec("elasticnet", l1_ratio, C)
    cold = fit(spec, ds)
    other = fit(logreg_spec("elasticnet", other_l1_ratio, other_C), ds)
    random_start = np.random.default_rng(seed).normal(scale=scale,
                                                      size=d + 1)
    y = np.where(ds.labels, 1.0, -1.0)
    for start in (random_start, solution(other)):
        model = fit(spec, ds, start=start)
        assert not model.non_converged
        assert assert_kkt_certificate(model, ds) <= 1e-8
        history = model.objective_history
        assert history[0] == smooth_objective(
            ds.features, y, start[:d], start[d], C, l1_ratio) \
            + l1_ratio / C * np.abs(start[:d]).sum()
        assert np.all(np.diff(history) <= 0)
        final = cold.objective_history[-1]
        assert abs(history[-1] - final) <= 1e-8 * max(1.0, abs(final))


def test_all_zero_chain_keeps_a_zero_intercept_on_balanced_data():
    # as test_l1_limit_balanced_data_gives_half_probabilities, warm started
    # along a path of all-zero solutions
    rng = np.random.default_rng(12)
    features = (rng.random((20, 5)) < 0.5).astype(float)
    ds = make_dataset(features, [False] * 10 + [True] * 10)
    start = None
    for C, l1_ratio in ((1e-8, 1.0), (1e-8, 0.5), (1e-6, 1.0), (1e-6, 0.5)):
        model = fit(logreg_spec("elasticnet", l1_ratio, C), ds, start=start)
        assert np.all(model.weights == 0.0)
        assert model.intercept == 0.0
        assert np.all(model.predict_proba(ds.features) == 0.5)
        start = solution(model)


def test_start_is_checked_before_fitting(smote_train_w3):
    d = smote_train_w3.n_features
    with pytest.raises(ValueError, match="^a start vector applies to logreg "
                                         "only, not knn$"):
        fit(ModelSpec("knn"), smote_train_w3, start=np.zeros(d + 1))
    for bad in (np.zeros(d), np.zeros((1, d + 1))):
        with pytest.raises(ValueError, match=f"^start must hold {d} weights "
                                             f"and an intercept"):
            fit(ModelSpec("logreg"), smote_train_w3, start=bad)
    with pytest.raises(ValueError, match="^start must be finite$"):
        fit(ModelSpec("logreg"), smote_train_w3,
            start=np.full(d + 1, np.nan))


def test_start_at_the_optimum_takes_no_step(smote_train_w3):
    spec = logreg_spec("elasticnet", 0.5, 1.0)
    cold = fit(spec, smote_train_w3)
    warm = fit(spec, smote_train_w3, start=solution(cold))
    assert len(warm.objective_history) == 1
    assert np.array_equal(solution(warm), solution(cold))


@pytest.fixture(scope="module")
def smote_train_seed7_w9():
    """The week-9 SMOTE training set of `atrisk pipeline --seed 7`."""
    cfg = build_config(overrides={"seed": 7})
    cohort, _ = simulate(cfg.simulate)
    train, _ = split(encode(cohort, 9), cfg.split)
    return resample(train, cfg.resample).dataset


# orthant projection alone took 22, 35 and 127 steps on this set; taking
# the pinned step without its Armijo test took 653 at C = 10
@pytest.mark.parametrize("l1_ratio,C,max_steps",
                         [(0.5, 1.0, 15), (1.0, 1.0, 15), (1.0, 10.0, 60)])
def test_elasticnet_fit_takes_few_newton_steps(smote_train_seed7_w9,
                                               l1_ratio, C, max_steps):
    model = fit(logreg_spec("elasticnet", l1_ratio, C), smote_train_seed7_w9)
    assert not model.non_converged
    assert len(model.objective_history) - 1 <= max_steps


@pytest.mark.parametrize("penalty,l1_ratio", PENALTIES)
def test_tolerance_below_rounding_stops_on_a_stalled_step(
        smote_train_w3, penalty, l1_ratio):
    # no step can reach 1e-17; once one changes neither the objective nor
    # the residual, the fit stops and says it did not converge
    model = fit(logreg_spec(penalty, l1_ratio, 1.0, tolerance=1e-17,
                            max_iterations=300), smote_train_w3)
    assert model.non_converged
    assert len(model.objective_history) - 1 < 300
    assert model.objective_history[-1] == model.objective_history[-2]


def degenerate_cases():
    rng = np.random.default_rng(21)
    base = (rng.random((30, 4)) < 0.5).astype(np.float64)
    labels = rng.random(30) < 0.5
    labels[:2], labels[2:4] = False, True
    return {
        "duplicate_columns": (np.hstack([base, base[:, :2]]), labels,
                              ("elasticnet", 0.5, 1.0)),
        "all_zero_column": (np.hstack([base, np.zeros((30, 1))]), labels,
                            ("l2", 0.0, 1.0)),
        "pure_l1_weak_penalty": (base, labels, ("elasticnet", 1.0, 1e4)),
    }


@pytest.mark.parametrize("case", sorted(degenerate_cases()))
def test_degenerate_inputs_give_finite_certified_weights(case):
    features, labels, (penalty, l1_ratio, C) = degenerate_cases()[case]
    ds = make_dataset(features, labels)
    model = fit(logreg_spec(penalty, l1_ratio, C), ds)
    assert np.isfinite(model.weights).all()
    assert not model.non_converged
    assert np.all(np.diff(model.objective_history) <= 0)


def test_separable_svm_link_scores_give_finite_fit():
    # the SVM probability link: 1-D fit on perfectly separated scores
    rng = np.random.default_rng(22)
    scores = np.sort(rng.normal(size=40))
    y = np.where(np.arange(40) >= 20, 1.0, -1.0)
    w, b, history, _ = fit_logistic_raw(scores[:, None], y, C=1e4,
                                        l1_ratio=0.0, tolerance=1e-12,
                                        max_iterations=5000)
    assert np.isfinite(w).all() and np.isfinite(b)
    assert w[0] > 0.0
    assert np.all(np.diff(history) <= 0)
    assert logistic_kkt_oracle(scores[:, None], y, w, b, 1e4, 0.0) < 1e-9
