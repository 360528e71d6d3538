"""Acceptance criteria: oracle equivalence, structural invariants, and
directional reproduction on simulated cohorts, each at its stated tolerance
and runtime budget.  Every test prints one PASS line; a failure surfaces
through pytest as usual."""

import json
import time

import numpy as np
import pytest

from atrisk import (GridSpec, ModelSpec, ResampleConfig, SimConfig,
                    SplitSpec, adasyn, encode, evaluate, fit, fit_pca,
                    grid_search, knn_indices, reconstruct, score_arm,
                    simulate, smote, split, transform)
from atrisk.cli import main as cli_main
from atrisk.models.logistic import smooth_gradient, smooth_objective
from conftest import make_dataset
from oracles import (auc_pairwise_oracle, knn_oracle_fast, metrics_oracle,
                     pca_oracle)
from test_evaluation import FixedModel, dataset_for


@pytest.fixture(scope="module")
def sim_split():
    cohort, _ = simulate(SimConfig(seed=0))
    dataset = encode(cohort, 9)
    return split(dataset, SplitSpec(train_fraction=0.8, seed=1))


def test_criterion_1_metric_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(4, 501))
        labels = rng.random(n) < rng.uniform(0.1, 0.9)
        labels[0] = False
        labels[1] = True
        p_false = np.round(rng.random(n), 2)  # coarse grid induces ties
        threshold = float(rng.uniform(0.05, 0.95))
        report = evaluate(FixedModel(p_false), dataset_for(labels), threshold)
        cm, precision, recall, f1, accuracy = metrics_oracle(
            ~labels, p_false >= threshold)
        assert np.array_equal(report.confusion, cm)
        assert report.precision_false == precision
        assert report.recall_false == recall
        assert report.f1_false == f1
        assert report.accuracy == accuracy
        oracle_auc = auc_pairwise_oracle(p_false, ~labels)
        assert abs(report.auc - oracle_auc) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: metrics exact and AUC within 1e-12 on 1000 "
          f"random vectors ({elapsed:.1f}s)")


def test_criterion_2_neighbor_exactness():
    start = time.time()
    rng = np.random.default_rng(102)
    for trial in range(100):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(2, 151))
        k = int(rng.integers(1, min(8, n - 1) + 1))
        if trial % 2 == 0:
            points = (rng.random((n, d)) < 0.5).astype(float)  # exact ties
        else:
            points = rng.random((n, d))
        result = knn_indices(points, k)
        assert np.array_equal(result, knn_oracle_fast(points, k))
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: knn_indices matches the all-pairs oracle on "
          f"100 random sets incl. ties ({elapsed:.1f}s)")


def test_criterion_3_resampling_structure(sim_split):
    start = time.time()
    train, _ = sim_split
    n_fail, n_pass = train.class_counts()
    gap = n_pass - n_fail
    for seed in range(25):
        for method, op in (("smote", smote), ("adasyn", adasyn)):
            result = op(train, ResampleConfig(method=method, k_neighbors=5,
                                              seed=seed))
            a, b = result.dataset.class_counts()
            assert a == b  # (a) exact balance
            prov = result.provenance
            assert prov.base_row.size == prov.neighbor_row.size == \
                prov.lam.size == gap  # (c) allocation sum
            # (b) containment
            synthetic = result.dataset.features[prov.n_real:]
            assert prov.n_real == train.n_rows and len(synthetic) == gap
            base = train.features[prov.base_row]
            neighbor = train.features[prov.neighbor_row]
            assert np.all(synthetic >= np.minimum(base, neighbor))
            assert np.all(synthetic <= np.maximum(base, neighbor))
    # (d) all-r-zero input falls back to the uniform scheme
    rng = np.random.default_rng(103)
    majority = np.ones((20, 5))
    majority[:, 0] = (rng.random(20) < 0.5).astype(float)
    minority = np.zeros((6, 5))
    ds = make_dataset(np.vstack([majority, minority]),
                      [True] * 20 + [False] * 6)
    result = adasyn(ds, ResampleConfig(method="adasyn", k_neighbors=3,
                                       seed=0))
    assert result.provenance.adasyn_fallback
    a, b = result.dataset.class_counts()
    assert a == b
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: balance, containment, allocation, and "
          f"fallback over 50 seeded runs ({elapsed:.1f}s)")


def test_criterion_4_logistic_numerics(sim_split):
    rng = np.random.default_rng(104)
    # gradient vs central differences on 5 random datasets x 20 points
    for ds_index in range(5):
        n, d = 25, 6
        X = rng.random((n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        C = float(rng.uniform(0.05, 5.0))
        l1_ratio = float(rng.uniform(0.0, 1.0))
        eps = 1e-5
        for _ in range(20):
            w = rng.normal(scale=1.5, size=d)
            b = float(rng.normal())
            grad_w, grad_b = smooth_gradient(X, y, w, b, C, l1_ratio)
            numeric = np.empty(d + 1)
            for j in range(d):
                step = np.zeros(d)
                step[j] = eps
                numeric[j] = (smooth_objective(X, y, w + step, b, C, l1_ratio)
                              - smooth_objective(X, y, w - step, b, C,
                                                 l1_ratio)) / (2 * eps)
            numeric[d] = (smooth_objective(X, y, w, b + eps, C, l1_ratio)
                          - smooth_objective(X, y, w, b - eps, C, l1_ratio)) \
                / (2 * eps)
            analytic = np.append(grad_w, grad_b)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric),
                                                          1e-8)
            assert rel.max() < 1e-4
    # monotone objective on a real training problem
    train, _ = sim_split
    grown = smote(train, ResampleConfig(seed=5)).dataset
    model = fit(ModelSpec("logreg", C=1.0), grown)
    assert np.all(np.diff(model.objective_history) <= 0)
    # l1_ratio=1 with C -> 0 kills every weight exactly
    dead = fit(ModelSpec("logreg", penalty="elasticnet", l1_ratio=1.0,
                         C=1e-10), grown)
    assert np.all(dead.weights == 0.0)
    print("\nACCEPTANCE 4 PASS: gradient check < 1e-4, monotone objective, "
          "exact l1 kill")


def test_criterion_5_directional_reproduction():
    # earliest-intervention interval (weeks 1-3), default simulator config
    start = time.time()
    wins = 0
    improvements = []
    for seed in range(20):
        cohort, _ = simulate(SimConfig(seed=seed))
        dataset = encode(cohort, 3)
        train, test = split(dataset, SplitSpec(train_fraction=0.8,
                                               seed=seed))
        # each arm resamples the training rows only, scored on real rows
        (_, [[baseline]]), (_, [[oversampled]]) = (
            score_arm(train, test, [ModelSpec("logreg")], (0.5,), config)
            for config in (None, ResampleConfig(method="smote",
                                                k_neighbors=5, seed=seed)))
        recall_base = baseline.recall_false
        recall_smote = oversampled.recall_false
        wins += recall_smote >= recall_base
        improvements.append(recall_smote - recall_base)
    elapsed = time.time() - start
    assert wins >= 15, f"SMOTE+LR beat baseline in only {wins}/20 seeds"
    assert float(np.median(improvements)) > 0.0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 PASS: SMOTE+LR recall >= baseline in {wins}/20 "
          f"seeds, median improvement "
          f"{float(np.median(improvements)):.3f} ({elapsed:.1f}s)")


def test_criterion_6_grid_search_protocol(sim_split):
    train, _ = sim_split
    grid = GridSpec(resample_methods=("smote",), k_neighbors_grid=(5,),
                    c_grid=(0.01,), l1_ratios=(0.5,), thresholds=(0.50,),
                    folds=5, seed=0)
    first = grid_search(grid, train)
    cell = first.find("smote", 5, "elasticnet", 0.01, 0.5, 0.50)
    assert cell.feasible
    assert np.isfinite(cell.mean_metric("f1_false"))
    assert first.audit["synthetic_rows_in_validation"] == 0
    assert first.audit["folds_checked"] == 5
    second = grid_search(grid, train)
    assert [c.key() for c in first.cells] == [c.key() for c in second.cells]
    assert [c.means for c in first.cells] == [c.means for c in second.cells]
    print("\nACCEPTANCE 6 PASS: winning cell evaluable, validation folds "
          "clean, ranking deterministic")


def test_criterion_7_pca():
    rng = np.random.default_rng(107)
    for trial in range(20):
        n = int(rng.integers(20, 80))
        d = int(rng.integers(3, 25))
        rows = rng.random((n, d))
        r = int(rng.integers(2, min(n - 1, d) + 1))
        model = fit_pca(rows, r)
        gram = model.components.T @ model.components
        assert np.abs(gram - np.eye(r)).max() < 1e-9
        oracle_components, _ = pca_oracle(rows, r)
        for j in range(r):
            ours = model.components[:, j]
            theirs = oracle_components[:, j]
            assert min(np.abs(ours - theirs).max(),
                       np.abs(ours + theirs).max()) < 1e-6
        full = fit_pca(rows, min(n - 1, d))
        if full.components.shape[1] == d:  # complete basis
            again = reconstruct(full, transform(full, rows))
            assert np.abs(again - rows).max() < 1e-8
    print("\nACCEPTANCE 7 PASS: orthonormality 1e-9, reconstruction 1e-8, "
          "eigensolver oracle 1e-6 on 20 matrices")


def test_criterion_8_pipeline_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["pipeline", "--out", str(out_a), "--seed", "7"]) == 0
    assert cli_main(["pipeline", "--out", str(out_b), "--seed", "7"]) == 0
    manifest_a = json.loads((out_a / "run_manifest.json").read_text())
    manifest_b = json.loads((out_b / "run_manifest.json").read_text())
    assert manifest_a == manifest_b
    summary = (out_a / "summary.csv").read_text().splitlines()
    counts = [line.split(",")[:2] for line in summary[1:]]
    assert counts == [["3", "43"], ["6", "106"], ["9", "150"]]
    print("\nACCEPTANCE 8 PASS: byte-identical pipeline reruns with "
          "43/106/150 feature counts")
