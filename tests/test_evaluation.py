"""Metrics, AUC, sweeps, and the cross-validated grid search."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrisk import (GridSpec, ModelSpec, ResampleConfig, TrainedModel,
                    evaluate, fit, grid_search, mann_whitney_auc, resample,
                    score_arm, sweep_thresholds)
import atrisk.evaluation as evaluation
from atrisk.evaluation import (METRICS, stratified_fold_indices,
                               write_summary_csv)
from atrisk.resampling import METHODS
from conftest import make_dataset
from oracles import auc_pairwise_oracle, metrics_oracle


class FixedModel:
    """Stub exposing a fixed failing-class probability per row; counts how
    often it is scored."""

    def __init__(self, p_false):
        self.p_false = np.asarray(p_false, dtype=np.float64)
        self.calls = 0

    def predict_proba(self, rows):
        assert rows.shape[0] == len(self.p_false)
        self.calls += 1
        return np.column_stack([self.p_false, 1.0 - self.p_false])


def dataset_for(labels):
    labels = np.asarray(labels, dtype=bool)
    features = np.zeros((len(labels), 2))
    features[:, 0] = labels.astype(float)
    return make_dataset(features, labels)


def report_fields(report):
    return (report.confusion.tolist(), report.precision_false,
            report.recall_false, report.f1_false, report.accuracy,
            report.auc, report.threshold, report.zero_division)


# --- evaluate ----------------------------------------------------------------

def test_definitional_confusion_arithmetic():
    # failing class: TP=7, FP=3, FN=4 plus 7 true negatives
    labels = [False] * 11 + [True] * 10
    p_false = np.array([0.9] * 7 + [0.1] * 4 + [0.9] * 3 + [0.1] * 7)
    ds = dataset_for(labels)
    report = evaluate(FixedModel(p_false), ds, 0.5)
    assert report.confusion.tolist() == [[7, 4], [3, 7]]
    assert report.precision_false == pytest.approx(0.70)
    assert round(report.recall_false, 4) == 0.6364
    assert round(report.f1_false, 4) == 0.6667
    assert report.accuracy == pytest.approx(14 / 21)


def test_confusion_row_sums_equal_class_counts(split_w3):
    train, test = split_w3
    model = fit(ModelSpec("logreg"), train)
    report = evaluate(model, test, 0.5)
    n_fail, n_pass = test.class_counts()
    assert report.confusion.sum() == test.n_rows
    assert report.confusion[0].sum() == n_fail
    assert report.confusion[1].sum() == n_pass


def test_metrics_match_oracle_on_random_vectors():
    rng = np.random.default_rng(61)
    # 0.4 and 0.6 are score values: rows tie with the threshold there
    grid = (0.3, 0.4, 0.5, 0.6, 0.7)
    for _ in range(200):
        n = int(rng.integers(4, 80))
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        labels[0] = False
        labels[1] = True
        p_false = rng.choice([0.1, 0.4, 0.6, 0.9], size=n)
        model = FixedModel(p_false)
        reports = sweep_thresholds(model, dataset_for(labels), grid)
        assert model.calls == 1  # one scoring for the whole sweep
        auc = auc_pairwise_oracle(p_false, ~labels)
        for threshold, report in zip(grid, reports):
            cm, precision, recall, f1, accuracy = metrics_oracle(
                ~labels, p_false >= threshold)
            assert np.array_equal(report.confusion, cm)
            assert report.precision_false == precision
            assert report.recall_false == recall
            assert report.f1_false == f1
            assert report.accuracy == accuracy
            assert report.auc == pytest.approx(auc, abs=1e-12)
            assert report.threshold == threshold


def test_auc_boundary_cases():
    labels = [False] * 3 + [True] * 4
    perfect = FixedModel([0.9, 0.8, 0.85, 0.1, 0.2, 0.3, 0.15])
    assert evaluate(perfect, dataset_for(labels), 0.5).auc == 1.0
    flat = FixedModel([0.4] * 7)
    assert evaluate(flat, dataset_for(labels), 0.5).auc == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(62)
    for _ in range(200):
        n = int(rng.integers(4, 60))
        labels = rng.random(n) < 0.5
        labels[0] = False
        labels[1] = True
        scores = np.round(rng.random(n), 2)  # induce ties
        auc = mann_whitney_auc(scores, ~labels)
        assert auc == pytest.approx(auc_pairwise_oracle(scores, ~labels),
                                    abs=1e-12)


def test_auc_invariant_across_thresholds(split_w3):
    train, test = split_w3
    model = fit(ModelSpec("logreg"), train)
    aucs = {evaluate(model, test, t).auc for t in (0.3, 0.5, 0.7)}
    assert len(aucs) == 1


def test_zero_division_convention_flags():
    labels = [False] * 3 + [True] * 3
    nothing_failing = FixedModel([0.1] * 6)
    report = evaluate(nothing_failing, dataset_for(labels), 0.5)
    assert report.precision_false == 0.0
    assert report.recall_false == 0.0
    assert report.f1_false == 0.0
    assert "precision_false" in report.zero_division
    assert "f1_false" in report.zero_division


def test_single_class_test_flags_auc():
    labels = [True] * 4
    report = evaluate(FixedModel([0.2] * 4), dataset_for(labels), 0.5)
    assert report.auc == 0.5
    assert "auc" in report.zero_division


def test_rejects_synthetic_test_rows():
    features = np.array([[0.0, 1.0], [0.25, 0.5]])
    ds = make_dataset(features, [False, True], synthetic=[False, True])
    with pytest.raises(ValueError, match="test purity"):
        evaluate(FixedModel([0.5, 0.5]), ds, 0.5)


def test_rejects_empty_and_bad_thresholds():
    ds = dataset_for([False, True])
    model = FixedModel([0.9, 0.1])
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError, match="threshold"):
            evaluate(model, ds, bad)


def test_tie_at_threshold_counts_as_failing():
    labels = [False, True]
    report = evaluate(FixedModel([0.5, 0.4]), dataset_for(labels), 0.5)
    assert report.confusion[0, 0] == 1  # p_false == threshold -> failing


# --- sweeps -------------------------------------------------------------------

def test_sweep_matches_single_evaluations(split_w3):
    train, test = split_w3
    model = fit(ModelSpec("logreg"), train)
    grid = (0.45, 0.50)
    reports = sweep_thresholds(model, test, grid)
    for threshold, swept in zip(grid, reports):
        single = evaluate(model, test, threshold)
        assert report_fields(swept) == report_fields(single)


def test_threshold_monotonicity(split_w3):
    train, test = split_w3
    model = fit(ModelSpec("logreg"), train)
    p_false = model.predict_proba(test.features)[:, 0]
    grid = np.linspace(0.05, 0.95, 19)
    previous_set = None
    previous_recall = None
    for report, threshold in zip(sweep_thresholds(model, test, grid), grid):
        predicted = set(np.flatnonzero(p_false >= threshold).tolist())
        if previous_set is not None:
            assert predicted <= previous_set
            assert report.recall_false <= previous_recall
        previous_set = predicted
        previous_recall = report.recall_false


def test_threshold_above_every_score_gives_zero_recall(split_w3):
    train, test = split_w3
    model = fit(ModelSpec("logreg"), train)
    p_false = model.predict_proba(test.features)[:, 0]
    above = min(float(p_false.max()) + 0.01, 0.999)
    report = evaluate(model, test, above)
    assert report.recall_false == 0.0
    assert report.confusion[:, 0].sum() == 0


def test_empty_sweep_rejected(split_w3):
    train, test = split_w3
    model = fit(ModelSpec("logreg"), train)
    with pytest.raises(ValueError, match="empty"):
        sweep_thresholds(model, test, ())


# --- score_arm ----------------------------------------------------------------

# the benchmark grid's logreg objectives, in path order
BENCH_SPECS = [ModelSpec("logreg", penalty="elasticnet", C=1.0, l1_ratio=r)
               for r in (1.0, 0.5)] + [ModelSpec("logreg", C=1.0)]


def every_field(report):
    return {f.name: getattr(report, f.name) if f.name != "confusion"
            else report.confusion.tolist() for f in fields(report)}


@pytest.mark.parametrize("config", [None, ResampleConfig(k_neighbors=5,
                                                         seed=11)],
                         ids=["none", "smote"])
def test_score_arm_matches_fits_by_hand(split_w3, config):
    train, test = split_w3
    thresholds = (0.4, 0.5, 0.6)
    fitted, sweeps = score_arm(train, test, BENCH_SPECS, thresholds, config)
    expected = resample(train, config or ResampleConfig("none")).dataset
    for name in ("features", "labels", "synthetic_flags"):
        assert np.array_equal(getattr(fitted, name), getattr(expected, name))
    assert fitted.feature_names == expected.feature_names
    start = None  # one C: each fit starts from the one before it
    for spec, reports in zip(BENCH_SPECS, sweeps, strict=True):
        model = fit(spec, expected, start=start)
        start = np.append(model.weights, model.intercept)
        assert [every_field(r) for r in reports] == \
            [every_field(r) for r in sweep_thresholds(model, test, thresholds)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 30),
       d=st.integers(1, 6), method=st.sampled_from([None, *METHODS]))
def test_score_arm_resamples_only_train(seed, n, d, method):
    rng = np.random.default_rng(seed)
    features = (rng.random((n + 4, d)) < 0.5).astype(np.float64)
    labels = rng.random(n + 4) < rng.uniform(0.2, 0.8)
    labels[:3], labels[3:6] = False, True  # 3 train rows of each class
    train = make_dataset(features[:n], labels[:n])
    test = make_dataset(features[n:], labels[n:])
    config = None if method is None else ResampleConfig(
        method, k_neighbors=2, seed=seed)
    drawn = []

    def recording(rows, config):
        drawn.append((rows, resample(rows, config)))
        return drawn[-1][1]

    specs = BENCH_SPECS[1:]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "resample", recording)
        fitted, sweeps = score_arm(train, test, specs, (0.5,), config)
        assert len(sweeps) == len(specs)
        if method is not None:
            ((rows, result),) = drawn
            assert rows is train and fitted is result.dataset
            prov = result.provenance
            assert prov.n_real == train.n_rows
            for index in (prov.base_row, prov.neighbor_row):
                assert np.all((0 <= index) & (index < train.n_rows))
        impure = make_dataset(test.features, test.labels,
                              np.arange(test.n_rows) == 0)
        with pytest.raises(ValueError, match="test purity"):
            score_arm(train, impure, specs, (0.5,), config)
    assert np.array_equal(fitted.features[:n], train.features)
    assert np.array_equal(fitted.labels[:n], train.labels)
    added = fitted.n_rows - n
    assert fitted.synthetic_flags.tolist() == [False] * n + [True] * added
    if method in (None, "none"):
        assert added == 0


# --- stratified folds ---------------------------------------------------------

def test_stratified_folds_partition_and_balance():
    rng = np.random.default_rng(63)
    labels = rng.random(97) < 0.2
    labels[:2] = False
    labels[2:4] = True
    folds = stratified_fold_indices(labels, 5, seed=3)
    together = np.concatenate(folds)
    assert sorted(together.tolist()) == list(range(97))
    n_false = int((~labels).sum())
    for fold in folds:
        fold_false = int((~labels[fold]).sum())
        assert abs(fold_false - n_false / 5) < 1.0


# --- grid search ----------------------------------------------------------------

def tiny_grid(**kw):
    defaults = dict(resample_methods=("smote",), k_neighbors_grid=(5,),
                    c_grid=(0.01,), l1_ratios=(0.5,), thresholds=(0.50,),
                    folds=3, seed=0)
    defaults.update(kw)
    return GridSpec(**defaults)


def test_single_cell_grid_ranks_first(split_w3):
    train, _ = split_w3
    result = grid_search(tiny_grid(), train)
    assert len(result.cells) == 1
    best = result.best()
    assert best.rank == 1
    assert best.feasible
    assert (best.method, best.k_neighbors) == ("smote", 5)
    assert (best.penalty, best.C, best.l1_ratio) == ("elasticnet", 0.01, 0.5)
    assert best.threshold == 0.50
    assert 0.0 <= best.mean_metric("f1_false") <= 1.0


def test_winning_cell_evaluable_in_wider_grid(split_w3):
    train, _ = split_w3
    grid = tiny_grid(c_grid=(0.01, 1.0), thresholds=(0.45, 0.50))
    result = grid_search(grid, train)
    cell = result.find("smote", 5, "elasticnet", 0.01, 0.5, 0.50)
    assert cell.feasible
    assert not np.isnan(cell.mean_metric("recall_false"))


def test_grid_search_deterministic(split_w3):
    train, _ = split_w3
    grid = tiny_grid(l1_ratios=(0.0, 0.5), c_grid=(0.01, 1.0),
                     thresholds=(0.4, 0.5))
    a = grid_search(grid, train)
    b = grid_search(grid, train)
    assert [c.key() for c in a.cells] == [c.key() for c in b.cells]
    assert [c.means for c in a.cells] == [c.means for c in b.cells]
    assert a.audit == b.audit


def test_grid_search_leakage_audit(split_w3):
    train, _ = split_w3
    result = grid_search(tiny_grid(), train)
    assert result.audit["folds_checked"] == 3
    assert result.audit["synthetic_rows_in_validation"] == 0
    assert result.audit["synthetic_rows_in_fit"] > 0


def test_grid_search_rejects_synthetic_training_rows(smote_train_w3):
    with pytest.raises(ValueError, match="real-only"):
        grid_search(tiny_grid(), smote_train_w3)


def test_grid_search_marks_infeasible_cells():
    rng = np.random.default_rng(64)
    features = (rng.random((40, 4)) < 0.5).astype(float)
    labels = np.ones(40, dtype=bool)
    labels[:6] = False  # 6 minority rows over 3 folds -> 4 per fit part
    ds = make_dataset(features, labels)
    grid = tiny_grid(k_neighbors_grid=(3, 5), l1_ratios=(0.0,), folds=3)
    result = grid_search(grid, ds)
    by_k = {c.k_neighbors: c for c in result.cells}
    assert by_k[3].feasible          # needs 4 minority rows per fit part
    assert not by_k[5].feasible      # needs 6, only 4 available
    assert by_k[5].rank > by_k[3].rank
    assert np.isnan(by_k[5].means).all()
    # every fold for k = 3, then k = 5 stops at its first fold
    assert result.audit["folds_checked"] == 3 + 1
    assert result.audit["synthetic_rows_in_validation"] == 0


def test_grid_ranking_tie_breaks_prefer_smaller_c(split_w3):
    train, _ = split_w3
    # duplicate cells except for C; if metrics tie, smaller C must rank higher
    grid = tiny_grid(l1_ratios=(0.0,), c_grid=(10.0, 1.0),
                     thresholds=(0.5,))
    result = grid_search(grid, train)
    cells = result.cells
    if all(cells[0].mean_metric(name) == cells[1].mean_metric(name)
           for name in ("f1_false", "recall_false")):
        assert cells[0].C < cells[1].C


def objective_of(cell):
    """(C, l1_ratio) fixes the objective; l2 is l1_ratio 0."""
    return cell.C, cell.l1_ratio if cell.penalty == "elasticnet" else 0.0


def test_default_grid_has_no_duplicate_objectives(split_w3):
    train, _ = split_w3
    defaults = GridSpec()
    grid = GridSpec(k_neighbors_grid=(5,), thresholds=(0.5,), folds=2)
    assert (grid.c_grid, grid.l1_ratios) == \
        (defaults.c_grid, defaults.l1_ratios)
    cells = grid_search(grid, train).cells
    objectives = [objective_of(c) for c in cells]
    assert len(objectives) == len(set(objectives)) == 12
    # a ratio of 0 is reported as (l2, C, 0.0)
    assert all(c.l1_ratio > 0.0 for c in cells if c.penalty == "elasticnet")
    assert sum(c.penalty == "l2" for c in cells) == len(grid.c_grid)


def test_a_negative_zero_ratio_is_the_l2_cell(split_w3, tmp_path):
    train, _ = split_w3
    for ratio, name in ((0.0, "zero.csv"), (-0.0, "negative_zero.csv")):
        result = grid_search(tiny_grid(l1_ratios=(ratio,)), train)
        result.to_csv(tmp_path / name)
        (cell,) = result.cells
        assert cell.penalty == "l2"
        assert math.copysign(1.0, cell.l1_ratio) == 1.0  # 0.0, not -0.0
    assert (tmp_path / "zero.csv").read_bytes() == \
        (tmp_path / "negative_zero.csv").read_bytes()
    assert ",l2,0.01,0.0,0.5," in (tmp_path / "zero.csv").read_text()


def test_grid_fits_each_objective_once_per_fold(split_w3, monkeypatch):
    fitted = []   # (objective, start, solution) per fit
    scored = []
    original_fit = evaluation.fit
    original_proba = TrainedModel.predict_proba

    def counting_fit(spec, train, start=None):
        model = original_fit(spec, train, start=start)
        p = spec.params
        fitted.append(((p["penalty"], p["C"], p["l1_ratio"]), start,
                       np.append(model.weights, model.intercept)))
        return model

    def counting_proba(self, rows):
        scored.append((self.spec.params["penalty"], self.spec.params["C"]))
        return original_proba(self, rows)

    monkeypatch.setattr(evaluation, "fit", counting_fit)
    monkeypatch.setattr(TrainedModel, "predict_proba", counting_proba)
    train, _ = split_w3
    grid = tiny_grid(c_grid=(1.0, 0.1), l1_ratios=(0.0, 0.5),
                     thresholds=(0.4, 0.5, 0.6), folds=2)
    cells = grid_search(grid, train).cells
    # path order: C ascending, l1_ratio descending, l2 last; a ratio of 0
    # is fitted as l2
    path = [("elasticnet", 0.1, 0.5), ("l2", 0.1, 0.0),
            ("elasticnet", 1.0, 0.5), ("l2", 1.0, 0.0)]
    assert [objective for objective, _, _ in fitted] == path * 2
    for fold in (fitted[:4], fitted[4:]):
        (_, first, a), (_, second, _), (_, third, c), (_, fourth, _) = fold
        assert first is None  # each fold starts cold
        assert np.array_equal(second, a)   # the fit just before
        assert np.array_equal(third, a)    # the first at the previous C
        assert np.array_equal(fourth, c)
    # one scoring per (fold, objective) in path order, however many
    # thresholds
    assert scored == [(penalty, C) for penalty, C, _ in path] * 2
    assert sorted((c.penalty, c.C, c.l1_ratio) for c in cells) == \
        [("elasticnet", 0.1, 0.5)] * 3 + [("elasticnet", 1.0, 0.5)] * 3 + \
        [("l2", 0.1, 0.0)] * 3 + [("l2", 1.0, 0.0)] * 3


def test_grid_means_equal_np_mean_of_fold_values(split_w3, monkeypatch):
    # from 8 folds on, numpy's pairwise sum and a running sum can differ in
    # the last bit; a cell's mean must be np.mean of its fold values
    reports = {}  # (penalty, C, l1_ratio) -> one report list per fold
    original_sweep = evaluation.sweep_thresholds

    def recording_sweep(model, test, grid):
        p = model.spec.params
        out = original_sweep(model, test, grid)
        reports.setdefault((p["penalty"], p["C"], p["l1_ratio"]),
                           []).append(out)
        return out

    monkeypatch.setattr(evaluation, "sweep_thresholds", recording_sweep)
    train, _ = split_w3
    grid = tiny_grid(l1_ratios=(0.0, 0.5), c_grid=(0.1, 1.0),
                     thresholds=(0.4, 0.5, 0.6), folds=10)
    cells = grid_search(grid, train).cells
    assert len(cells) == 4 * 3
    for cell in cells:
        folds = reports[cell.penalty, cell.C, cell.l1_ratio]
        i = grid.thresholds.index(cell.threshold)
        assert len(folds) == 10
        for name in METRICS:
            expected = float(np.mean([getattr(f[i], name) for f in folds]))
            assert cell.mean_metric(name) == expected, (cell.key(), name)


@pytest.mark.parametrize("order", [
    lambda axis: axis[::-1],
    lambda axis: axis[1:] + axis[:1],
], ids=["reversed", "rotated"])
def test_tune_file_ignores_objective_axis_order(split_w3, tmp_path, order):
    # k_neighbors_grid and resample_methods are left out: their positions
    # seed the resampling
    train, _ = split_w3
    axes = dict(c_grid=GridSpec.c_grid, l1_ratios=GridSpec.l1_ratios,
                thresholds=(0.4, 0.5, 0.6))
    base = dict(k_neighbors_grid=(5,), folds=3, seed=7)
    grid_search(GridSpec(**base, **axes), train).to_csv(tmp_path / "a.csv")
    permuted = {name: order(values) for name, values in axes.items()}
    assert permuted != axes
    grid_search(GridSpec(**base, **permuted), train).to_csv(
        tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()


def test_grid_path_scores_match_cold_fits(split_w3, monkeypatch):
    # C = 0.01 holds all-zero fits, whose P(fail) = 0.5 ties with the
    # threshold 0.5; every mean metric must equal that of cold fits
    train, _ = split_w3
    grid = tiny_grid(c_grid=(0.01, 0.1, 1.0, 10.0), l1_ratios=(0.0, 0.5, 1.0),
                     thresholds=(0.4, 0.5, 0.6), folds=3)
    original_fit = evaluation.fit
    starts, zero_fits = [], []

    def warm_fit(spec, train, start=None):
        model = original_fit(spec, train, start=start)
        starts.append(start)
        if not model.weights.any():
            zero_fits.append((spec.params["C"], model.intercept))
        return model

    def cold_fit(spec, train, start=None):
        return original_fit(spec, train)

    monkeypatch.setattr(evaluation, "fit", warm_fit)
    warm = grid_search(grid, train)
    monkeypatch.setattr(evaluation, "fit", cold_fit)
    cold = grid_search(grid, train)
    # 12 objectives a fold, all but the first warm started
    assert sum(start is not None for start in starts) == 3 * (12 - 1)
    assert zero_fits and all(C == 0.01 and b == 0.0 for C, b in zero_fits)
    for a, b in zip(warm.cells, cold.cells, strict=True):
        assert a.key() == b.key()
        for name in METRICS:
            assert a.mean_metric(name) == b.mean_metric(name), (a.key(), name)


def cells_of(result, method):
    """(key, feasible, fold-mean METRICS) of each cell of one method, in
    rank order."""
    return [(c.key(), c.feasible, [c.mean_metric(name) for name in METRICS])
            for c in result.cells if c.method == method]


@pytest.mark.parametrize("methods", [("none", "smote", "adasyn"),
                                     ("smote", "none", "adasyn"),
                                     ("smote", "adasyn", "none")])
def test_none_leaves_the_resampled_cells_as_they_were(split_w3, methods):
    # a none pair takes no resample-seed index, wherever it is listed
    train, _ = split_w3
    axes = dict(k_neighbors_grid=(3, 5), c_grid=(0.01, 1.0),
                thresholds=(0.4, 0.5))
    without = grid_search(tiny_grid(resample_methods=("smote", "adasyn"),
                                    **axes), train)
    with_none = grid_search(tiny_grid(resample_methods=methods, **axes),
                            train)
    for method in ("smote", "adasyn"):
        assert cells_of(with_none, method) == cells_of(without, method)
    assert len(cells_of(with_none, "none")) == 2 * 2  # one pair, not two


def test_none_cells_ignore_the_k_neighbors_axis(split_w3):
    train, _ = split_w3
    results = [grid_search(tiny_grid(resample_methods=("none",),
                                     k_neighbors_grid=ks,
                                     thresholds=(0.4, 0.5)), train)
               for ks in ((3, 5, 7), (5,))]
    assert cells_of(results[0], "none") == cells_of(results[1], "none")
    assert [c.k_neighbors for c in results[0].cells] == [0, 0]


def test_none_cell_scores_each_fold_on_its_raw_rows(split_w3):
    train, _ = split_w3
    grid = tiny_grid(resample_methods=("none",))
    result = grid_search(grid, train)
    assert result.audit["synthetic_rows_in_fit"] == 0
    assert result.audit["folds_checked"] == grid.folds
    spec = ModelSpec("logreg", penalty="elasticnet", C=0.01, l1_ratio=0.5)
    reports = []
    for val_idx in stratified_fold_indices(train.labels, grid.folds,
                                           grid.seed):
        fit_idx = np.setdiff1d(np.arange(train.n_rows), val_idx)
        model = fit(spec, train.subset(fit_idx))
        reports.append(evaluate(model, train.subset(val_idx), 0.5))
    (cell,) = result.cells
    assert cell.key() == ("none", 0, "elasticnet", 0.01, 0.5, 0.5)
    for name in METRICS:
        expected = np.mean([getattr(r, name) for r in reports])
        assert abs(cell.mean_metric(name) - expected) <= 1e-12, name


def test_grid_search_rejects_more_folds_than_smaller_class(monkeypatch):
    def refuse(spec, train):
        raise AssertionError("fit before the folds check")

    monkeypatch.setattr(evaluation, "fit", refuse)
    features = np.eye(20)[:, :4]
    labels = np.ones(20, dtype=bool)
    labels[:4] = False  # 4 failing rows cannot fill 5 validation folds
    with pytest.raises(ValueError, match=r"^folds = 5 .*\(4 failing, "
                                         r"16 passing training rows\)"):
        grid_search(tiny_grid(k_neighbors_grid=(1,), folds=5),
                    make_dataset(features, labels))


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="folds"):
        GridSpec(folds=1)
    with pytest.raises(ValueError, match="thresholds"):
        GridSpec(thresholds=(0.0, 0.5))
    with pytest.raises(ValueError, match="selection_metric"):
        GridSpec(selection_metric="accuracy")
    with pytest.raises(ValueError, match="non-empty"):
        GridSpec(c_grid=())



@pytest.mark.parametrize("name, values, got", [
    ("resample_methods", ("smote", "ctgan"), "'ctgan'"),
    ("k_neighbors_grid", (3, 0), "0"),
    ("c_grid", (1e-320,), "1e-320"),  # 1 / C overflows to inf
    ("c_grid", (1.0, 0.0), "0.0"),
    ("c_grid", (float("nan"),), "nan"),
    ("l1_ratios", (0.5, 1.5), "1.5"),
    ("resample_methods", ("smote", "smote"), "'smote'"),
    ("k_neighbors_grid", (5, 3, 5), "5"),
    ("l1_ratios", (0.0, -0.0), "-0.0"),
    ("c_grid", (1.0, 1), "1"),
    ("l1_ratios", (0.5, 0.5), "0.5"),
    ("thresholds", (0.5, 0.5), "0.5"),
    ("c_grid", (1.0, float("inf")), "inf"),
])
def test_grid_spec_rejects_bad_axis_value(name, values, got):
    with pytest.raises(ValueError, match=f"^{name} entries .* got {got}$"):
        GridSpec(**{name: values})

# --- summary csv ---------------------------------------------------------------

def test_summary_csv_columns(tmp_path, split_w3):
    train, test = split_w3
    model = fit(ModelSpec("logreg"), train)
    report = evaluate(model, test, 0.5)
    path = tmp_path / "summary.csv"
    write_summary_csv([report.summary_row(3, test.n_features, "logreg")],
                      path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("interval,n_features,model,precision_false,"
                        "recall_false,f1_false,accuracy,auc,threshold")
    assert lines[1].startswith(f"3,{test.n_features},logreg,")
