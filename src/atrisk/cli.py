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
provenance file, train_w3_smote_provenance.csv.  Each stage but simulate
is a function of one interval, and one driver, _run, runs a single-stage
command over the configured intervals, reading from that directory.
``pipeline`` makes or loads the cohort and its manifest once, then runs
_PIPELINE (encode -> split -> resample -> train -> evaluate) per interval,
in the configured order.  Each stage hands its artifact to the next in
memory, and the run forgets it once that reader has it, so only the
cohort, the manifest and one interval's artifacts are ever held.  The run
ends with summary.csv (every interval's rows, in order) and a manifest of
artifact hashes.  Rerunning with an identical config at the same BLAS
thread count reproduces the same bytes (the ROADMAP's reproducibility
contract covers thread counts).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
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
    the first get of either, in any command, holds it until the run ends.
    Only a pipeline run, whose next stage reads what one puts, sets hold:
    a single-stage command's store holds nothing it puts.
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
        if name in self._KEPT:
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


def cmd_encode(cfg, args, store, interval):
    manifest = store.get("manifest.csv", TaskManifest.from_csv, "encode",
                         cfg.manifest_path)
    cohort = store.get("cohort.csv", lambda p: load_cohort(p, manifest),
                       "encode", cfg.cohort_path)
    dataset = encode(cohort, interval)
    store.put(f"dataset_w{interval}.csv", dataset.to_csv, dataset)
    print(f"encode: interval {interval} -> {dataset.n_rows} rows x "
          f"{dataset.n_features} features")


def cmd_split(cfg, args, store, interval):
    dataset = store.get(f"dataset_w{interval}.csv", LabeledDataset.from_csv,
                        "split")
    train, test = split(dataset, cfg.split)
    store.put(f"train_w{interval}.csv", train.to_csv, train)
    store.put(f"test_w{interval}.csv", test.to_csv, test)
    print(f"split: interval {interval} -> {train.n_rows} train / "
          f"{test.n_rows} test")


def cmd_resample(cfg, args, store, interval):
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


def cmd_train(cfg, args, store, interval):
    spec = cfg.model
    source, train = _resampled(store, interval, cfg.resample.method, "train")
    with _naming(interval, store.out / source):
        model = fit(spec, train)
    name = f"model_w{interval}_{spec.kind}.json"
    store.put(name, model.save, model)
    flag = " (non-converged)" if model.non_converged else ""
    print(f"train: interval {interval} {spec.kind}{flag} -> {name}")


def cmd_evaluate(cfg, args, store, interval):
    """Score the interval's model on its test rows; return the summary row."""
    for flag in ("model_file", "test_file"):
        # getattr: pipeline's args have no --model-file or --test-file
        if getattr(args, flag, None) and len(cfg.intervals) > 1:
            raise CliError(f"--{flag.replace('_', '-')} names one file, so "
                           f"it needs a single --interval")
    model_name = f"model_w{interval}_{cfg.model.kind}.json"
    model_file = getattr(args, "model_file", None) or store.out / model_name
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
    scores = " ".join(f"{name}={getattr(report, name):.4f}"
                      for name in SELECTION_METRICS)
    print(f"evaluate: interval {interval} threshold {cfg.threshold} "
          f"{scores}")
    if cfg.sweep_thresholds:
        sweep = [r.summary_row(interval, test.n_features, kind)
                 for r in swept]
        store.put(f"sweep_w{interval}_{kind}.csv",
                  lambda p: write_summary_csv(sweep, p))
    return report.summary_row(interval, test.n_features, kind)


def cmd_tune(cfg, args, store, interval):
    grid = cfg.tune
    source = f"train_w{interval}.csv"
    train = store.get(source, LabeledDataset.from_csv, "tune")
    with _naming(interval, store.out / source):
        result = grid_search(grid, train)
    store.put(f"tune_w{interval}.csv", result.to_csv)
    store.put(f"tune_w{interval}_best.json", result.save_best)
    best = result.best()
    print(f"tune: interval {interval} best {best.method} "
          f"k={best.k_neighbors} {best.penalty} C={best.C} "
          f"l1_ratio={best.l1_ratio} t={best.threshold} "
          f"{grid.selection_metric}={best.mean_metric(grid.selection_metric):.4f}")


def cmd_pca_export(cfg, args, store, interval):
    method = cfg.resample.method
    real_only = cfg.pca_fit_on == PCA_REAL_ONLY
    suffix = "_real" if real_only else ""  # never overwrites a union export
    _, grown = _resampled(store, interval, method, "pca-export")
    name = f"scatter_w{interval}_{method}{suffix}.csv"
    store.put(name, lambda p: export_scatter(
        grown, method, p, fit_on_real_only=real_only))
    print(f"pca-export: interval {interval} {method} -> {name}")


# per interval; the last stage, evaluate, returns the summary row
_PIPELINE = ("encode", "split", "resample", "train", "evaluate")


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
        _COMMANDS["simulate"](cfg, args, store)
    rows = []
    for interval in cfg.intervals:
        for stage in _PIPELINE:
            row = _COMMANDS[stage](cfg, args, store, interval)
        rows.append(row)
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


def _run(command, cfg, args, store):
    """Run simulate or pipeline once, any other stage once per interval."""
    if command in ("simulate", "pipeline"):
        return _COMMANDS[command](cfg, args, store)
    rows = [_COMMANDS[command](cfg, args, store, interval)
            for interval in cfg.intervals]
    if command == "evaluate":  # one summary, named by the last model kind
        intervals = "_".join(f"w{i}" for i in cfg.intervals)
        store.put(f"summary_{intervals}_{rows[-1][2]}.csv",
                  lambda p: write_summary_csv(rows, p))


def _interval(text):  # one interval replaces the configured list
    return (int(text),)


_interval.__name__ = "interval"  # argparse's "invalid interval value"


_MODEL_KIND = ("--model-kind", dict(dest="model.kind", metavar="MODEL_KIND"))
_METHOD = ("--method", dict(dest="resample.method", choices=METHODS))
# command ("" for all) -> (flag, add_argument keywords); a dest is the
# _OPTIONS path a flag overrides, but for --config and evaluate's files
_FLAGS = {
    "": (("--config", dict(help="config file (key=value sections)")),
         ("--seed", dict(type=int, help="root seed (stage seeds derive "
                         "from it by fixed offsets)")),
         ("--out", dict(dest="out_dir", metavar="OUT",
                        help="output directory")),
         ("--interval", dict(dest="intervals", type=_interval,
                             metavar="INTERVAL", help="restrict to one "
                             "encoding interval (max week)"))),
    "resample": (_METHOD,
                 ("--k-neighbors", dict(dest="resample.k_neighbors",
                                        metavar="K_NEIGHBORS", type=int))),
    "train": (_MODEL_KIND,),
    "evaluate": (("--threshold", dict(type=float)), ("--model-file", {}),
                 ("--test-file", {}), _MODEL_KIND),
    "tune": (("--metric", dict(dest="tune.selection_metric",
                               choices=SELECTION_METRICS)),),
    "pca-export": (_METHOD,
                   ("--real-only", dict(dest="pca_fit_on",
                                        action="store_const",
                                        const=PCA_REAL_ONLY))),
    "pipeline": (_MODEL_KIND,),
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="atrisk",
        description="imbalanced-classification pipeline for early at-risk "
                    "prediction")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    for name in ("", *_COMMANDS):  # each subcommand copies common's flags
        p = sub.add_parser(name, parents=[common]) if name else common
        for flag, keywords in _FLAGS.get(name, ()):
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args.config, {path: getattr(args, path, None)
                                         for path, _ in _OPTIONS.values()})
        _run(args.command, cfg, args, _Store(cfg.out_dir))
    except (CliError, ValueError, OSError) as exc:
        print(f"atrisk {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
