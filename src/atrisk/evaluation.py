"""Confusion-matrix metrics, Mann-Whitney AUC, threshold sweeps, the
cross-validated grid search, and the summary and tune file formats.

The failing class (label false) is the positive class for reporting
throughout.  A row is predicted failing exactly when P(false) >= threshold,
so the set of rows predicted failing shrinks as the threshold rises and
failing-class recall is non-increasing in the threshold.  Division-by-zero
metrics follow the 0/0 -> 0 convention and are flagged on the report.

``sweep_thresholds`` scores a model on a test set once and reports every
threshold from that one score.  ``score_arm`` is the one place an arm of the
comparison (none, SMOTE or ADASYN on the training rows only) is fitted and
scored on real test rows; ``grid_search`` scores each fold through it.
``METRICS`` names the five reported metrics once for every file format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import write_csv, write_json
from .models import _RULES, ModelSpec, fit
from .resampling import RULES as RESAMPLE_RULES, ResampleConfig, resample

METRICS = ("precision_false", "recall_false", "f1_false", "accuracy", "auc")
SELECTION_METRICS = ("f1_false", "recall_false")  # what tune may rank by
SUMMARY_COLUMNS = ("interval", "n_features", "model", *METRICS, "threshold")

# (check, rule) for a decision threshold, wherever one is set
THRESHOLD_RULE = (lambda t: 0.0 < t < 1.0, "inside (0,1)")


def check_axis(name, values, rule, distinct=True):
    """A list setting: non-empty, every entry passing rule (check, text),
    and with distinct=True no entry repeated."""
    ok, text = rule
    if not values:
        raise ValueError(f"{name} must be non-empty")
    bad = [v for v in values if not ok(v)]
    if bad:
        raise ValueError(f"{name} entries must be {text}, got {bad[0]!r}")
    repeats = [v for i, v in enumerate(values) if v in values[:i]]
    if distinct and repeats:
        raise ValueError(f"{name} entries must be distinct, "
                         f"got {repeats[0]!r}")


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Threshold-tuned evaluation of one model on one real test set."""

    confusion: np.ndarray  # rows = actual (false, true), cols = predicted
    precision_false: float
    precision_true: float
    recall_false: float
    recall_true: float
    f1_false: float
    f1_true: float
    accuracy: float
    auc: float
    threshold: float
    zero_division: tuple = ()

    def save(self, path):
        write_json(path, self)

    def summary_row(self, interval, n_features, model):
        """This report as a SUMMARY_COLUMNS row (see write_summary_csv)."""
        return (interval, n_features, model,
                *(getattr(self, name) for name in METRICS), self.threshold)


def _safe_div(num, den, name, hits):
    if den == 0:
        hits.append(name)
        return 0.0
    return num / den


def mann_whitney_auc(scores, positive_mask):
    """P(random positive scores above random negative), ties at 1/2.

    Computed from average ranks; returns None when either group is empty.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    n_pos = int(positive_mask.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    avg_rank = starts + (counts + 1) / 2.0  # 1-based, ties averaged
    u = avg_rank[inverse][positive_mask].sum() - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def evaluate(model, test, threshold):
    """Score a model on a real-only test set at one decision threshold."""
    return sweep_thresholds(model, test, (threshold,))[0]


def sweep_thresholds(model, test, grid):
    """One EvalReport per threshold in grid, all from one scoring of the
    real-only test set, so every report carries the same AUC."""
    grid = tuple(grid)
    check_axis("thresholds", grid, THRESHOLD_RULE, distinct=False)
    if test.synthetic_flags.any():
        raise ValueError("test purity violated: test data contains "
                         "synthetic rows")
    if test.n_rows == 0:
        raise ValueError("test set is empty")

    p_false = model.predict_proba(test.features)[:, 0]
    actual_false = ~test.labels
    auc = mann_whitney_auc(p_false, actual_false)
    return [_report(p_false, actual_false, auc, t) for t in grid]


def _report(p_false, actual_false, auc, threshold):
    """EvalReport at one threshold; auc is None when a class is absent."""
    predicted_false = p_false >= threshold
    cm = np.array([
        [int(np.sum(actual_false & predicted_false)),
         int(np.sum(actual_false & ~predicted_false))],
        [int(np.sum(~actual_false & predicted_false)),
         int(np.sum(~actual_false & ~predicted_false))],
    ], dtype=np.int64)

    hits = []
    precision_false = _safe_div(cm[0, 0], cm[0, 0] + cm[1, 0],
                                "precision_false", hits)
    recall_false = _safe_div(cm[0, 0], cm[0, 0] + cm[0, 1],
                             "recall_false", hits)
    precision_true = _safe_div(cm[1, 1], cm[1, 1] + cm[0, 1],
                               "precision_true", hits)
    recall_true = _safe_div(cm[1, 1], cm[1, 1] + cm[1, 0],
                            "recall_true", hits)
    f1_false = _safe_div(2.0 * precision_false * recall_false,
                         precision_false + recall_false, "f1_false", hits)
    f1_true = _safe_div(2.0 * precision_true * recall_true,
                        precision_true + recall_true, "f1_true", hits)
    accuracy = (cm[0, 0] + cm[1, 1]) / actual_false.size
    if auc is None:
        hits.append("auc")
        auc = 0.5

    cm.setflags(write=False)
    return EvalReport(cm, precision_false, precision_true, recall_false,
                      recall_true, f1_false, f1_true, accuracy, auc,
                      float(threshold), tuple(hits))


@dataclass(frozen=True)
class GridSpec:
    """Search space for the resample + logistic-regression tuning loop."""

    resample_methods: tuple = ("smote",)
    k_neighbors_grid: tuple = (3, 5, 7)
    c_grid: tuple = (0.01, 0.1, 1.0, 10.0)
    l1_ratios: tuple = (0.0, 0.5, 1.0)  # 0 is ridge: the cell named l2
    thresholds: tuple = (0.30, 0.35, 0.40, 0.45, 0.50,
                         0.55, 0.60, 0.65, 0.70)
    selection_metric: str = "f1_false"
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, rule in (
                ("resample_methods", RESAMPLE_RULES["method"]),
                ("k_neighbors_grid", RESAMPLE_RULES["k_neighbors"]),
                ("c_grid", _RULES["C"]),
                ("l1_ratios", _RULES["l1_ratio"]),
                ("thresholds", THRESHOLD_RULE)):
            check_axis(name, getattr(self, name), rule)
        if self.selection_metric not in SELECTION_METRICS:
            raise ValueError(f"selection_metric must be "
                             f"{' or '.join(map(repr, SELECTION_METRICS))}, "
                             f"got {self.selection_metric!r}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")


# the columns that name a grid cell, in the order of GridCell.key()
CELL_KEY = ("method", "k_neighbors", "penalty", "C", "l1_ratio", "threshold")


@dataclass
class GridCell:
    method: str
    k_neighbors: int
    penalty: str
    C: float
    l1_ratio: float  # 0.0 under l2
    threshold: float
    feasible: bool = True
    means: tuple = (float("nan"),) * len(METRICS)  # fold means, METRICS order
    rank: int = -1

    def mean_metric(self, name):
        return self.means[METRICS.index(name)]

    def key(self):
        return tuple(getattr(self, name) for name in CELL_KEY)


@dataclass(frozen=True)
class GridSearchResult:
    cells: tuple           # ranked, feasible first
    audit: dict            # leakage audit counters

    def best(self):
        return self.cells[0]

    def find(self, *key):
        """The cell whose key() is key, given in CELL_KEY order."""
        for cell in self.cells:
            if cell.key() == key:
                return cell
        raise KeyError(f"cell {key} not in grid results")

    def to_csv(self, path):
        """Every cell in rank order with its fold-mean METRICS."""
        write_csv(path, ("rank", *CELL_KEY, "feasible", *METRICS),
                  ((cell.rank, *cell.key(), cell.feasible, *cell.means)
                   for cell in self.cells))

    def save_best(self, path):
        """The best cell's key, its fold-mean METRICS and the audit."""
        best = self.best()
        write_json(path, {
            **dict(zip(CELL_KEY, best.key())),
            **{f"mean_{name}": m for name, m in zip(METRICS, best.means)},
            "audit": self.audit})


def stratified_fold_indices(labels, folds, seed):
    """Validation index arrays for seeded stratified K-fold."""
    labels = np.asarray(labels, dtype=bool)
    rng = np.random.default_rng(seed)
    out = [[] for _ in range(folds)]
    for label in (False, True):
        members = np.flatnonzero(labels == label)
        perm = members[rng.permutation(members.size)]
        base, extra = divmod(members.size, folds)
        start = 0
        for f in range(folds):
            size = base + (1 if f < extra else 0)
            out[f].extend(perm[start:start + size].tolist())
            start += size
    return [np.sort(np.asarray(f, dtype=np.intp)) for f in out]


def _model_cells(grid):
    """The (penalty, C, l1_ratio) objectives in path order: C ascending,
    then l1_ratio descending.  A ratio of 0 is ridge, named l2; adding 0.0
    reads -0.0 as 0.0."""
    return [("elasticnet" if l1r else "l2", C, l1r)
            for C in sorted(grid.c_grid)
            for l1r in sorted((r + 0.0 for r in grid.l1_ratios),
                              reverse=True)]


def score_arm(train, test, specs, thresholds, resample_config=None):
    """One arm of the comparison: train resampled by resample_config (None
    keeps it as it is), the logreg specs fitted on it in order, and each
    model scored once on the real-only test set at every threshold.
    Returns (the set the models were fitted on, one sweep_thresholds list
    per spec).  The specs run as a path: the first fit starts at zero, the
    first at each later C from the first solution at the previous C, and
    every other fit from the solution just before it."""
    if resample_config is not None:
        train = resample(train, resample_config).dataset
    sweeps = []
    start = head = last_c = None  # head: the first solution at last_c
    for spec in specs:
        first = spec.params["C"] != last_c
        if first:
            start, last_c = head, spec.params["C"]
        model = fit(spec, train, start=start)
        sweeps.append(sweep_thresholds(model, test, thresholds))
        start = np.append(model.weights, model.intercept)
        if first:
            head = start
    return train, sweeps


def grid_search(grid, train):
    """Cross-validated search over (resample, model, threshold) cells.

    Resampling is fit inside each fold on the training folds only, so no
    synthetic row can reach a validation fold; the audit counters in the
    result record the check; none fits on them as they are.  Ranking is by
    mean selection metric, ties broken by higher failing recall, smaller C,
    lower threshold, then the remaining cell key for full determinism.

    Each fold of each resample pair is one score_arm call, whose logistic
    fits follow a regularization path (Friedman, Hastie & Tibshirani 2010),
    each started from a neighbouring solution, which saves Newton steps.
    The path runs from the strongest l1 penalty l1_ratio / C to the weakest.
    w = 0 is optimal exactly when every |dL/dw_j| at (w, b) = (0, b*) is at
    most l1_ratio / C, a bound that only shrinks along the path, so a cell
    whose weights are all zero starts only from other all-zero solutions.
    On a balanced fold (SMOTE balances the classes) that is the zero vector,
    which the cold fit returns too, so such a cell keeps P(fail) = 0.5
    exactly.  In the grid's own order a warm start from a denser solution
    ended such cells at an intercept near 1e-12 instead, which flipped
    threshold-0.5 ties.
    """
    if train.synthetic_flags.any():
        raise ValueError("grid_search requires real-only training data")
    n_fail, n_pass = train.class_counts()
    if grid.folds > min(n_fail, n_pass):
        raise ValueError(
            f"folds = {grid.folds} exceeds the smaller class count "
            f"({n_fail} failing, {n_pass} passing training rows); every "
            f"validation fold needs a row of each class")
    folds = []  # (fit rows, validation rows, fit-part minority count)
    for val_idx in stratified_fold_indices(train.labels, grid.folds,
                                           grid.seed):
        fit_idx = np.setdiff1d(np.arange(train.n_rows), val_idx,
                               assume_unique=True)
        n_true = int(train.labels[fit_idx].sum())
        folds.append((fit_idx, val_idx, min(n_true, fit_idx.size - n_true)))
    audit = {"folds_checked": 0, "synthetic_rows_in_validation": 0,
             "synthetic_rows_in_fit": 0}
    model_cells = _model_cells(grid)
    specs = [ModelSpec("logreg", penalty=penalty, C=C, l1_ratio=l1r)
             for penalty, C, l1r in model_cells]
    # none is one pair, with k 0, placed last: it is not resampled, so it
    # needs no ResampleConfig (whose k must be >= 1) and its index seeds
    # nothing; where it is listed changes no other cell
    pairs = list(itertools.product(
        [m for m in grid.resample_methods if m != "none"],
        grid.k_neighbors_grid))
    if "none" in grid.resample_methods:
        pairs.append(("none", 0))
    cells = []
    for ri, (method, k) in enumerate(pairs):
        scores = []  # [fold][model cell][threshold][metric]
        for f, (fit_idx, val_idx, minority) in enumerate(folds):
            val_part = train.subset(val_idx)
            audit["folds_checked"] += 1
            audit["synthetic_rows_in_validation"] += \
                int(val_part.synthetic_flags.sum())
            if minority < k + 1:
                cells += [GridCell(method, k, *cell, t, feasible=False)
                          for cell in model_cells for t in grid.thresholds]
                break
            config = None if method == "none" else ResampleConfig(
                method=method, k_neighbors=k, seed=int(np.random.SeedSequence(
                    grid.seed, spawn_key=(ri, f)).generate_state(1)[0]))
            fitted, sweeps = score_arm(train.subset(fit_idx), val_part,
                                       specs, grid.thresholds, config)
            audit["synthetic_rows_in_fit"] += int(fitted.synthetic_flags.sum())
            del fitted  # held through the next fold's fits, it raised peak RSS
            scores.append([[[getattr(r, name) for name in METRICS]
                            for r in reports] for reports in sweeps])
        else:
            # a contiguous last fold axis sums each mean pairwise, as over
            # one list; axis 0 sums in sequence: another last bit at 8+ folds
            by_fold = np.moveaxis(np.array(scores), 0, -1).copy()
            means = by_fold.mean(axis=-1).tolist()
            cells += [GridCell(method, k, *cell, t, means=tuple(metric_means))
                      for cell, by_threshold in zip(model_cells, means)
                      for t, metric_means in zip(grid.thresholds,
                                                 by_threshold)]

    if not any(cell.feasible for cell in cells):
        raise ValueError(
            f"no feasible grid cell: a fit fold has "
            f"{min(minority for _, _, minority in folds)} minority rows, "
            f"too few for every k_neighbors up to "
            f"{max(grid.k_neighbors_grid)} (each needs k + 1)")

    def sort_key(cell):
        if not cell.feasible:
            return (1, 0.0, 0.0, 0.0, 0.0, cell.key())
        return (0, -cell.mean_metric(grid.selection_metric),
                -cell.mean_metric("recall_false"), cell.C, cell.threshold,
                cell.key())

    cells.sort(key=sort_key)
    for i, cell in enumerate(cells):
        cell.rank = i + 1
    return GridSearchResult(cells=tuple(cells), audit=audit)


def write_summary_csv(rows, path):
    """Summary or sweep CSV: SUMMARY_COLUMNS, one EvalReport.summary_row
    per line."""
    if not rows:
        raise ValueError("no summary rows to write")
    write_csv(path, SUMMARY_COLUMNS, rows)
