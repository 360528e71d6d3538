"""In-process span tracer for the atrisk CLI.

The traced run calls ``atrisk.cli.main(argv)`` in this process with the
same argv sequences as the timed run.  :func:`installed` wraps public
functions of each layer at the name their caller looks them up (for
example ``atrisk.kernels.split_scan`` and ``atrisk.evaluation.fit``), so no
file of the program changes.  Each wrapped call records a span (name,
start, end, parent index) in memory; a span's self time is its duration
minus the time its child spans cover.  Counts are recorded at the same
boundaries.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

MODEL_KINDS = ("logreg", "naive_bayes", "decision_tree", "random_forest",
               "knn", "svm_linear", "svm_rbf")
CLI_COMMANDS = ("simulate", "encode", "split", "resample", "train",
                "evaluate", "tune", "pca-export", "pipeline")


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []                    # (name, start, end, parent)
        self.self_s = defaultdict(float)   # span name -> summed self time
        self.counts = defaultdict(float)   # metric name -> count
        self._stack = []                   # [span index, child time]
        self.grid_depth = 0
        self.resample_calls = 0
        self.grid_objectives = set()

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; name is a string or name(args) -> str.

        after(tracer, result, args) records counts once fn has returned.
        """
        spans, stack, self_s = self.spans, self._stack, self.self_s

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]] = (span_name, start, end, parent)
                self_s[span_name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if after is not None:
                after(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, value=1):
        self.counts[name] += value

    def count_max(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def write(self, path):
        """Trace file: every span with its inclusive duration, and counts."""
        doc = {"fields": ["name", "start", "end", "duration", "parent"],
               "spans": [[n, s, e, e - s, p] for n, s, e, p in self.spans],
               "self_s": self.self_s, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# --- count hooks: after(tracer, result, args) -------------------------------

def _rows_cells(tracer, prefix, dataset):
    tracer.count(f"data.{prefix}_cells",
                 dataset.n_rows * (dataset.n_features + 2))


def _after_to_csv(tracer, result, args):
    dataset, path = args[0], args[1]
    _rows_cells(tracer, "to_csv", dataset)
    tracer.count("data.csv_bytes_written", os.path.getsize(path))


def _after_from_csv(tracer, result, args):
    _rows_cells(tracer, "from_csv", result)


def _after_simulate(tracer, result, args):
    tracer.count("simulate.students", len(result[0]))


def _after_resample(tracer, result, args):
    train = args[0]
    added = int(result.dataset.synthetic_flags.sum()) \
        - int(train.synthetic_flags.sum())
    tracer.count("resampling.synthetic_rows", added)
    tracer.count("resampling.adasyn_fallbacks",
                 int(result.provenance.adasyn_fallback))
    tracer.resample_calls += 1


def _after_pairwise(tracer, result, args):
    (n, d), m = args[0].shape, args[1].shape[0]
    tracer.count("kernels.pairwise_sqdist_calls")
    # computed from shapes: one subtract, multiply and add per (i, j, k);
    # inputs read once and the (n, m) result written once, 8-byte floats
    tracer.count("kernels.pairwise_sqdist_flops", 3 * n * m * d)
    tracer.count("kernels.pairwise_sqdist_bytes", 8 * (n * d + m * d + n * m))


def _after_split_scan(tracer, result, args):
    tracer.count("kernels.split_scan_calls")
    tracer.count("kernels.split_scan_rows", len(args[0]))


def _after_fit(tracer, model, args):
    spec = args[0]
    kind = spec.kind
    tracer.count(f"models.{kind}.fits")
    tracer.count("models.non_converged", int(bool(model.non_converged)))
    if kind == "logreg":
        iterations = len(model.objective_history) - 1
        tracer.count("models.logreg.iterations", iterations)
        tracer.count_max("models.logreg.iterations_max", iterations)
    elif kind in ("svm_linear", "svm_rbf"):
        tracer.count("models.svm.support_vectors",
                     model.sv_features.shape[0])
    elif kind == "decision_tree":
        tracer.count("models.tree.nodes", model.n_nodes)
    elif kind == "random_forest":
        tracer.count("models.tree.nodes",
                     sum(len(t.feature) for t in model.trees))
    if tracer.grid_depth and kind == "logreg":
        p = spec.params
        # (elasticnet, C, 0.0) is the same objective as (l2, C)
        l1_ratio = p["l1_ratio"] if p["penalty"] == "elasticnet" else 0.0
        objective = ("l2", p["C"]) if l1_ratio == 0.0 \
            else ("elasticnet", p["C"], l1_ratio)
        tracer.count("evaluation.grid_fits")
        tracer.grid_objectives.add((tracer.resample_calls, objective))


def _after_save(tracer, result, args):
    tracer.count("models.json_bytes", os.path.getsize(args[1]))


def _after_evaluate(tracer, result, args):
    tracer.count("evaluation.evaluate_calls")


def _after_grid(tracer, result, args):
    tracer.count("evaluation.grid_cells_feasible",
                 sum(1 for c in result.cells if c.feasible))


def _fit_name(args):
    return f"models.{args[0].kind}.fit"


def _predict_name(args):
    return f"models.{args[0].spec.kind}.predict"


# (module, attribute, span name, count hook); "Class.method" patches the
# class attribute so every instance and subclass picks it up
_PATCHES = (
    ("atrisk.cli", "simulate", "simulate.simulate", _after_simulate),
    ("atrisk.cli", "save_cohort", "data.save_cohort", None),
    ("atrisk.cli", "load_cohort", "data.load_cohort", None),
    ("atrisk.cli", "encode", "data.encode", None),
    ("atrisk.cli", "split", "data.split", None),
    ("atrisk.data", "LabeledDataset.to_csv", "data.to_csv", _after_to_csv),
    ("atrisk.data", "LabeledDataset.from_csv", "data.from_csv",
     _after_from_csv),
    ("atrisk.resampling", "smote", "resampling.smote", _after_resample),
    ("atrisk.resampling", "adasyn", "resampling.adasyn", _after_resample),
    ("atrisk.resampling", "knn_indices", "neighbors.knn_indices", None),
    ("atrisk.models.knn", "knn_among", "neighbors.knn_among", None),
    ("atrisk.kernels", "pairwise_sqdist", "kernels.pairwise_sqdist",
     _after_pairwise),
    ("atrisk.kernels", "split_scan", "kernels.split_scan", _after_split_scan),
    ("atrisk.cli", "fit", _fit_name, _after_fit),
    ("atrisk.evaluation", "fit", _fit_name, _after_fit),
    ("atrisk.models.base", "TrainedModel.predict_proba", _predict_name, None),
    ("atrisk.models.base", "TrainedModel.save", "models.save", _after_save),
    ("atrisk.cli", "load_model", "models.load", None),
    ("atrisk.cli", "evaluate", "evaluation.evaluate", _after_evaluate),
    ("atrisk.evaluation", "evaluate", "evaluation.evaluate", _after_evaluate),
    ("atrisk.cli", "export_scatter", "pca.export_scatter", None),
)


def _grid_wrapper(tracer, fn):
    traced = tracer.wrap("evaluation.grid_search", fn, _after_grid)

    def grid_search(*args, **kwargs):
        tracer.grid_depth += 1
        try:
            return traced(*args, **kwargs)
        finally:
            tracer.grid_depth -= 1

    return grid_search


@contextlib.contextmanager
def installed(tracer):
    """Wrap every traced name for the duration of the block."""
    import atrisk.cli as cli

    saved = []
    commands = dict(cli._COMMANDS)

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for module_name, attr, name, after in _PATCHES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(name, original.__func__,
                                                  after))
            else:
                wrapped = tracer.wrap(name, original, after)
            patch(owner, attr, wrapped)
        patch(cli, "grid_search", _grid_wrapper(tracer, cli.grid_search))
        # cmd_pipeline calls the other cmd_* through module globals and
        # main() dispatches through the _COMMANDS table: patch both
        for command, fn in commands.items():
            wrapped = tracer.wrap(f"cli.{command}", fn)
            patch(cli, fn.__name__, wrapped)
            cli._COMMANDS[command] = wrapped
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        cli._COMMANDS.update(commands)


def _per_layer():
    cli = [("cli.import_s", "s")] + [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    models = []
    for kind in MODEL_KINDS:
        models += [(f"models.{kind}.fit_s", "s"),
                   (f"models.{kind}.predict_s", "s"),
                   (f"models.{kind}.fits", "count")]
    return cli + [
        ("simulate.simulate_s", "s"), ("simulate.students", "count"),
        ("data.to_csv_s", "s"), ("data.to_csv_cells", "count"),
        ("data.csv_bytes_written", "B"), ("data.from_csv_s", "s"),
        ("data.from_csv_cells", "count"), ("data.save_cohort_s", "s"),
        ("data.load_cohort_s", "s"), ("data.encode_s", "s"),
        ("data.split_s", "s"),
        ("resampling.smote_s", "s"), ("resampling.adasyn_s", "s"),
        ("resampling.synthetic_rows", "count"),
        ("resampling.adasyn_fallbacks", "count"),
        ("neighbors.knn_indices_s", "s"), ("neighbors.knn_among_s", "s"),
        ("kernels.pairwise_sqdist_s", "s"),
        ("kernels.pairwise_sqdist_calls", "count"),
        ("kernels.pairwise_sqdist_flops", "flop_computed"),
        ("kernels.pairwise_sqdist_bytes", "B_computed"),
        ("kernels.split_scan_s", "s"), ("kernels.split_scan_calls", "count"),
        ("kernels.split_scan_rows", "count"),
    ] + models + [
        ("models.logreg.iterations", "count"),
        ("models.logreg.iterations_max", "count"),
        ("models.non_converged", "count"),
        ("models.svm.support_vectors", "count"),
        ("models.tree.nodes", "count"),
        ("models.save_s", "s"), ("models.load_s", "s"),
        ("models.json_bytes", "B"),
        ("evaluation.evaluate_s", "s"), ("evaluation.evaluate_calls", "count"),
        ("evaluation.grid_search_s", "s"), ("evaluation.grid_fits", "count"),
        ("evaluation.grid_fits_distinct", "count"),
        ("evaluation.grid_useful_ratio", "ratio"),
        ("evaluation.grid_cells_feasible", "count"),
        ("pca.export_scatter_s", "s"),
        ("trace.overhead_ratio", "ratio"), ("error_rate", "ratio"),
    ]


# every per-layer metric, in report order, with its unit; layers a workload
# does not reach report 0
PER_LAYER = tuple(_per_layer())


def layer_metrics(tracer):
    """Self times and counts under the per-layer metric names."""
    out = {f"{name}_s": value for name, value in tracer.self_s.items()}
    out.update(tracer.counts)
    fits = tracer.counts.get("evaluation.grid_fits", 0)
    distinct = len(tracer.grid_objectives)
    out["evaluation.grid_fits_distinct"] = distinct
    out["evaluation.grid_useful_ratio"] = distinct / fits if fits else 0.0
    return out
