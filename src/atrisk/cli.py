"""Command-line pipeline: every stage is a subcommand, all seeded.

    atrisk simulate   --out runs/demo --seed 7
    atrisk encode     --out runs/demo --interval 3
    atrisk split      --out runs/demo --interval 3
    atrisk resample   --out runs/demo --interval 3
    atrisk train      --out runs/demo --interval 3
    atrisk evaluate   --out runs/demo --interval 3
    atrisk tune       --out runs/demo --interval 3
    atrisk pca-export --out runs/demo --interval 3
    atrisk pipeline   --out runs/demo --seed 7

Stages communicate through conventionally named artifacts in the output
directory (cohort.csv, dataset_w3.csv, train_w3.csv, ...), each written
once; a resampled training set is stored as train_w3.csv plus its
provenance file, train_w3_smote_provenance.csv.  A single-stage subcommand
reads its inputs from that directory.  ``pipeline`` makes or loads the
cohort and its manifest once, then runs encode -> split -> resample ->
train -> evaluate for one interval before it starts the next, in the
configured order.  Each stage hands its artifact to the next in memory,
and the run forgets it once that reader has it, so only the cohort, the
manifest and one interval's artifacts are ever held.  The run ends with
summary.csv (every interval's rows, in order) and a manifest of artifact
hashes.  Rerunning with an identical config at the same BLAS thread count
reproduces the same bytes (the ROADMAP's reproducibility contract covers
thread counts).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import PCA_REAL_ONLY, _OPTIONS, build_config
from .data import (LabeledDataset, TaskManifest, encode, load_cohort,
                   save_cohort, split, write_json)
from .evaluation import (SELECTION_METRICS, evaluate, grid_search,
                         sweep_thresholds, write_summary_csv)
from .models import fit, load_model
from .pca import export_scatter
from .resampling import METHODS, load_resampled, resample
from .simulate import build_manifest, simulate

# once a process, not per main(): the imports' objects live until exit, so
# neither full collections nor shutdown need to walk them
gc.freeze()
# every generator is seeded, so numpy.random's secrets -> hmac import needs
# no OpenSSL: hashlib falls back to CPython's own code, same digests
sys.modules.setdefault("_hashlib", None)


class CliError(Exception):
    """Raised for user-facing failures; the message becomes stderr output."""


class _Store:
    """The artifacts of one run, by file name in the output directory.

    put writes an artifact once and, given obj, holds that object for the
    one stage that reads it; get hands a held object over and forgets it,
    or else reads the file (path overrides the default location).  The
    cohort and manifest are the exception: every interval reads them, so
    the first get or put of either holds it until the run ends.  Only a
    pipeline run, whose next stage reads what one puts, sets hold: a
    single-stage command's store holds nothing.
    """

    _KEPT = ("cohort.csv", "manifest.csv")
    hold = False

    def __init__(self, out_dir):
        self.out = Path(out_dir)
        self.written = []
        self._held = {}

    def put(self, name, write, obj=None):
        self.out.mkdir(parents=True, exist_ok=True)
        write(self.out / name)
        self.written.append(name)
        if self.hold and obj is not None:
            self._held[self.out / name] = obj

    def get(self, name, read, stage, path=None):
        path = Path(path) if path else self.out / name
        if path in self._held:
            return (self._held[path] if name in self._KEPT
                    else self._held.pop(path))
        if not path.exists():
            raise CliError(f"[{stage}] missing upstream artifact: {path}")
        obj = read(path)
        if self.hold and name in self._KEPT:
            self._held[path] = obj
        return obj


@contextlib.contextmanager
def _naming(interval, path):
    """A ValueError raised in the block names the interval and the input
    file(s) given as path."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"interval {interval}, {path}: {exc}") from None


def _resampled(store, interval, method, stage):
    """(provenance file name, resampled training set): the set resample
    held, or else train_w{N}.csv grown by its provenance file."""
    def read(path):
        train = store.get(f"train_w{interval}.csv", LabeledDataset.from_csv,
                          stage)
        return load_resampled(path, train)

    name = f"train_w{interval}_{method}_provenance.csv"
    return name, store.get(name, read, stage)


def cmd_simulate(cfg, args, store):
    cohort, manifest = simulate(cfg.simulate)
    store.put("cohort.csv", lambda p: save_cohort(cohort, p), cohort)
    store.put("manifest.csv", manifest.to_csv, manifest)
    print(f"simulate: wrote {len(cohort)} records -> "
          f"{store.out / 'cohort.csv'}")


def cmd_encode(cfg, args, store):
    manifest = store.get("manifest.csv", TaskManifest.from_csv, "encode",
                         cfg.manifest_path)
    cohort = store.get("cohort.csv", lambda p: load_cohort(p, manifest),
                       "encode", cfg.cohort_path)
    for interval in cfg.intervals:
        dataset = encode(cohort, interval)
        store.put(f"dataset_w{interval}.csv", dataset.to_csv, dataset)
        print(f"encode: interval {interval} -> {dataset.n_rows} rows x "
              f"{dataset.n_features} features")


def cmd_split(cfg, args, store):
    for interval in cfg.intervals:
        dataset = store.get(f"dataset_w{interval}.csv",
                            LabeledDataset.from_csv, "split")
        train, test = split(dataset, cfg.split)
        store.put(f"train_w{interval}.csv", train.to_csv, train)
        store.put(f"test_w{interval}.csv", test.to_csv, test)
        print(f"split: interval {interval} -> {train.n_rows} train / "
              f"{test.n_rows} test")


def cmd_resample(cfg, args, store):
    for interval in cfg.intervals:
        source = f"train_w{interval}.csv"
        train = store.get(source, LabeledDataset.from_csv, "resample")
        with _naming(interval, store.out / source):
            result = resample(train, cfg.resample)
        # held as the set it grows, so train reads nothing back
        store.put(f"train_w{interval}_{cfg.resample.method}_provenance.csv",
                  result.provenance.to_csv, result.dataset)
        n_fail, n_pass = result.dataset.class_counts()
        print(f"resample: interval {interval} {cfg.resample.method} -> "
              f"{n_fail}/{n_pass} fail/pass")


def cmd_train(cfg, args, store):
    spec = cfg.model
    for interval in cfg.intervals:
        source, train = _resampled(store, interval, cfg.resample.method,
                                   "train")
        with _naming(interval, store.out / source):
            model = fit(spec, train)
        name = f"model_w{interval}_{spec.kind}.json"
        store.put(name, model.save, model)
        flag = " (non-converged)" if model.non_converged else ""
        print(f"train: interval {interval} {spec.kind}{flag} -> {name}")


def cmd_evaluate(cfg, args, store, summary=True):
    """Score each interval's model on its test rows; returns the summary
    rows, written as summary_{intervals}_{kind}.csv unless summary is
    false."""
    for flag in ("model_file", "test_file"):
        # getattr: pipeline's args have no --model-file or --test-file
        if getattr(args, flag, None) and len(cfg.intervals) > 1:
            raise CliError(f"--{flag.replace('_', '-')} names one file, so "
                           f"it needs a single --interval")
    rows = []
    for interval in cfg.intervals:
        model_name = f"model_w{interval}_{cfg.model.kind}.json"
        model_file = (getattr(args, "model_file", None)
                      or store.out / model_name)
        model = store.get(model_name, load_model, "evaluate", model_file)
        kind = model.spec.kind  # a --model-file may hold another kind
        test_name = f"test_w{interval}.csv"
        test_file = getattr(args, "test_file", None) or store.out / test_name
        test = store.get(test_name, LabeledDataset.from_csv, "evaluate",
                         test_file)
        # one scoring serves the report and the sweep; without a sweep the
        # plain evaluate call stays, as clibench/tracing.py times it by name
        with _naming(interval, f"{model_file} on {test_file}"):
            if cfg.sweep_thresholds:
                report, *swept = sweep_thresholds(
                    model, test, (cfg.threshold, *cfg.sweep_thresholds))
            else:
                report = evaluate(model, test, cfg.threshold)
        store.put(f"report_w{interval}_{kind}.json", report.save)
        rows.append(report.summary_row(interval, test.n_features, kind))
        scores = " ".join(f"{name}={getattr(report, name):.4f}"
                          for name in SELECTION_METRICS)
        print(f"evaluate: interval {interval} threshold {cfg.threshold} "
              f"{scores}")
        if cfg.sweep_thresholds:
            sweep = [r.summary_row(interval, test.n_features, kind)
                     for r in swept]
            store.put(f"sweep_w{interval}_{kind}.csv",
                      lambda p: write_summary_csv(sweep, p))
    if summary:
        intervals = "_".join(f"w{i}" for i in cfg.intervals)
        store.put(f"summary_{intervals}_{kind}.csv",
                  lambda p: write_summary_csv(rows, p))
    return rows


def cmd_tune(cfg, args, store):
    grid = cfg.tune
    for interval in cfg.intervals:
        train = store.get(f"train_w{interval}.csv", LabeledDataset.from_csv,
                          "tune")
        result = grid_search(grid, train)
        store.put(f"tune_w{interval}.csv", result.to_csv)
        store.put(f"tune_w{interval}_best.json", result.save_best)
        best = result.best()
        print(f"tune: interval {interval} best {best.method} "
              f"k={best.k_neighbors} {best.penalty} C={best.C} "
              f"l1_ratio={best.l1_ratio} t={best.threshold} "
              f"{grid.selection_metric}={best.mean_metric(grid.selection_metric):.4f}")


def cmd_pca_export(cfg, args, store):
    method = cfg.pca_method or cfg.resample.method
    real_only = cfg.pca_fit_on == PCA_REAL_ONLY
    suffix = "_real" if real_only else ""  # never overwrites a union export
    for interval in cfg.intervals:
        _, grown = _resampled(store, interval, method, "pca-export")
        name = f"scatter_w{interval}_{method}{suffix}.csv"
        store.put(name, lambda p: export_scatter(
            grown, method, p, fit_on_real_only=real_only))
        print(f"pca-export: interval {interval} {method} -> {name}")


def cmd_pipeline(cfg, args, store):
    # imported here, so a command that draws no number (evaluate) never
    # loads hashlib; numpy.random loads it through hmac anyway
    import hashlib
    store.hold = True
    if cfg.cohort_path:  # ingest an existing cohort instead of simulating
        print(f"pipeline: ingesting {cfg.cohort_path}")
        tasks = store.get("manifest.csv", TaskManifest.from_csv, "encode",
                          cfg.manifest_path)
    else:
        tasks = build_manifest(cfg.simulate.tasks_per_week)
    for interval in cfg.intervals:  # refused before anything is written
        tasks.columns_through(interval)
    if not cfg.cohort_path:
        cmd_simulate(cfg, args, store)
    rows = []
    for interval in cfg.intervals:
        one = replace(cfg, intervals=(interval,))
        cmd_encode(one, args, store)
        cmd_split(one, args, store)
        cmd_resample(one, args, store)
        cmd_train(one, args, store)
        rows += cmd_evaluate(one, args, store, summary=False)
    store.put("summary.csv", lambda p: write_summary_csv(rows, p))
    manifest = {"artifacts": {
        name: hashlib.sha256((store.out / name).read_bytes()).hexdigest()
        for name in sorted(store.written)}}
    store.put("run_manifest.json", lambda p: write_json(p, manifest))
    print(f"pipeline: {len(manifest['artifacts'])} artifacts -> "
          f"{store.out / 'run_manifest.json'}")


_COMMANDS = {
    "simulate": cmd_simulate,
    "encode": cmd_encode,
    "split": cmd_split,
    "resample": cmd_resample,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "tune": cmd_tune,
    "pca-export": cmd_pca_export,
    "pipeline": cmd_pipeline,
}


def _parser():
    def interval(text):  # one interval replaces the configured list
        return (int(text),)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (key=value sections)")
    common.add_argument("--seed", type=int, help="root seed (stage seeds "
                        "derive from it by fixed offsets)")
    common.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory")
    common.add_argument("--interval", dest="intervals", type=interval,
                        metavar="INTERVAL",
                        help="restrict to one encoding interval (max week)")

    parser = argparse.ArgumentParser(
        prog="atrisk",
        description="imbalanced-classification pipeline for early at-risk "
                    "prediction")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's dest is the _OPTIONS path of the setting it overrides
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "evaluate":
            p.add_argument("--threshold", type=float)
            p.add_argument("--model-file")
            p.add_argument("--test-file")
        if name in ("evaluate", "train", "pipeline"):
            p.add_argument("--model-kind", dest="model.kind",
                           metavar="MODEL_KIND")
        if name == "resample":
            p.add_argument("--method", dest="resample.method",
                           choices=METHODS)
            p.add_argument("--k-neighbors", dest="resample.k_neighbors",
                           metavar="K_NEIGHBORS", type=int)
        if name == "tune":
            p.add_argument("--metric", dest="tune.selection_metric",
                           choices=SELECTION_METRICS)
        if name == "pca-export":
            p.add_argument("--method", dest="pca_method", choices=METHODS)
            p.add_argument("--real-only", dest="pca_fit_on",
                           action="store_const", const=PCA_REAL_ONLY)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args.config, {path: getattr(args, path, None)
                                         for path, _ in _OPTIONS.values()})
        _COMMANDS[args.command](cfg, args, _Store(cfg.out_dir))
    except (CliError, ValueError, OSError) as exc:
        print(f"atrisk {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
