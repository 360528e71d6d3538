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
directory (cohort.csv, dataset_w3.csv, train_w3.csv, ...).  ``pipeline``
chains everything across the configured intervals and writes a manifest of
artifact hashes; rerunning with an identical config reproduces the same
bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .config import _OPTIONS, build_config, stage_seed
from .data import (LabeledDataset, TaskManifest, encode, load_cohort,
                   save_cohort, split)
from .evaluation import (evaluate, grid_search, sweep_thresholds,
                         write_summary_csv)
from .models import ModelSpec, fit, load_model
from .pca import export_scatter
from .resampling import resample
from .simulate import simulate


class CliError(Exception):
    """Raised for user-facing failures; the message becomes stderr output."""


def _require(path, stage):
    if not path.exists():
        raise CliError(f"[{stage}] missing upstream artifact: {path}")
    return path


def _out_dir(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cohort_paths(cfg, out, stage):
    cohort = Path(cfg.cohort_path) if cfg.cohort_path else out / "cohort.csv"
    manifest = Path(cfg.manifest_path) if cfg.manifest_path \
        else out / "manifest.csv"
    return _require(cohort, stage), _require(manifest, stage)


def _model_spec(cfg):
    spec = ModelSpec(cfg.model_kind, **cfg.model_params)
    if "seed" in spec.params and "seed" not in cfg.model_params:
        spec.params["seed"] = stage_seed(cfg.seed, "train")
    return spec


def cmd_simulate(cfg, args):
    out = _out_dir(cfg)
    records, manifest = simulate(cfg.simulate)
    save_cohort(records, out / "cohort.csv")
    manifest.to_csv(out / "manifest.csv")
    print(f"simulate: wrote {len(records)} records -> {out / 'cohort.csv'}")
    return ["cohort.csv", "manifest.csv"]


def cmd_encode(cfg, args):
    out = _out_dir(cfg)
    cohort_path, manifest_path = _cohort_paths(cfg, out, "encode")
    manifest = TaskManifest.from_csv(manifest_path)
    records = load_cohort(cohort_path, manifest)
    written = []
    for interval in cfg.intervals:
        dataset = encode(records, manifest, interval)
        name = f"dataset_w{interval}.csv"
        dataset.to_csv(out / name)
        written.append(name)
        print(f"encode: interval {interval} -> {dataset.n_rows} rows x "
              f"{dataset.n_features} features")
    return written


def cmd_split(cfg, args):
    out = _out_dir(cfg)
    written = []
    for interval in cfg.intervals:
        dataset = LabeledDataset.from_csv(
            _require(out / f"dataset_w{interval}.csv", "split"))
        train, test = split(dataset, cfg.split)
        train.to_csv(out / f"train_w{interval}.csv")
        test.to_csv(out / f"test_w{interval}.csv")
        written += [f"train_w{interval}.csv", f"test_w{interval}.csv"]
        print(f"split: interval {interval} -> {train.n_rows} train / "
              f"{test.n_rows} test")
    return written


def cmd_resample(cfg, args):
    out = _out_dir(cfg)
    written = []
    for interval in cfg.intervals:
        train = LabeledDataset.from_csv(
            _require(out / f"train_w{interval}.csv", "resample"))
        result = resample(train, cfg.resample)
        stem = f"train_w{interval}_{cfg.resample.method}"
        result.dataset.to_csv(out / f"{stem}.csv")
        result.provenance.to_csv(out / f"{stem}_provenance.csv")
        written += [f"{stem}.csv", f"{stem}_provenance.csv"]
        n_fail, n_pass = result.dataset.class_counts()
        print(f"resample: interval {interval} {cfg.resample.method} -> "
              f"{n_fail}/{n_pass} fail/pass")
    return written


def _train_file(cfg, out, interval, stage):
    suffix = "" if cfg.train_input == "raw" else f"_{cfg.resample.method}"
    return _require(out / f"train_w{interval}{suffix}.csv", stage)


def cmd_train(cfg, args):
    out = _out_dir(cfg)
    spec = _model_spec(cfg)
    written = []
    for interval in cfg.intervals:
        train = LabeledDataset.from_csv(
            _train_file(cfg, out, interval, "train"))
        model = fit(spec, train)
        name = f"model_w{interval}_{spec.kind}.json"
        model.save(out / name)
        written.append(name)
        flag = " (non-converged)" if model.non_converged else ""
        print(f"train: interval {interval} {spec.kind}{flag} -> {name}")
    return written


def _summary_row(report, interval, n_features, kind):
    row = report.summary_row(interval, kind)
    return {"interval": interval, "n_features": n_features,
            **{k: v for k, v in row.items() if k != "interval"}}


def cmd_evaluate(cfg, args):
    out = _out_dir(cfg)
    written = []
    rows = []
    for interval in cfg.intervals:
        model_path = Path(args.model_file) if args.model_file else \
            out / f"model_w{interval}_{cfg.model_kind}.json"
        test_path = Path(args.test_file) if args.test_file else \
            out / f"test_w{interval}.csv"
        model = load_model(_require(model_path, "evaluate"))
        test = LabeledDataset.from_csv(_require(test_path, "evaluate"))
        report = evaluate(model, test, cfg.threshold)
        name = f"report_w{interval}_{cfg.model_kind}.json"
        report.save(out / name)
        written.append(name)
        rows.append(_summary_row(report, interval, test.n_features,
                                 cfg.model_kind))
        print(f"evaluate: interval {interval} threshold {cfg.threshold} "
              f"recall_false={report.recall_false:.4f} "
              f"f1_false={report.f1_false:.4f}")
        if cfg.sweep_thresholds:
            swept = sweep_thresholds(model, test, cfg.sweep_thresholds)
            sweep_rows = [_summary_row(r, interval, test.n_features,
                                       cfg.model_kind) for r in swept]
            sweep_name = f"sweep_w{interval}_{cfg.model_kind}.csv"
            write_summary_csv(sweep_rows, out / sweep_name)
            written.append(sweep_name)
    name = f"summary_{'_'.join(f'w{i}' for i in cfg.intervals)}_" \
           f"{cfg.model_kind}.csv"
    write_summary_csv(rows, out / name)
    written.append(name)
    return written


def cmd_tune(cfg, args):
    out = _out_dir(cfg)
    grid = cfg.tune
    written = []
    for interval in cfg.intervals:
        train = LabeledDataset.from_csv(
            _require(out / f"train_w{interval}.csv", "tune"))
        result = grid_search(grid, train)
        result.to_csv(out / f"tune_w{interval}.csv")
        best = result.best()
        best_doc = {"method": best.method, "k_neighbors": best.k_neighbors,
                    "penalty": best.penalty, "C": best.C,
                    "l1_ratio": best.l1_ratio, "threshold": best.threshold,
                    "mean_f1_false": best.mean_f1_false,
                    "mean_recall_false": best.mean_recall_false,
                    "mean_precision_false": best.mean_precision_false,
                    "mean_accuracy": best.mean_accuracy,
                    "mean_auc": best.mean_auc,
                    "audit": result.audit}
        with open(out / f"tune_w{interval}_best.json", "w",
                  encoding="utf-8") as fh:
            json.dump(best_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written += [f"tune_w{interval}.csv", f"tune_w{interval}_best.json"]
        print(f"tune: interval {interval} best {best.method} "
              f"k={best.k_neighbors} {best.penalty} C={best.C} "
              f"l1_ratio={best.l1_ratio} t={best.threshold} "
              f"{grid.selection_metric}={best.mean_metric(grid.selection_metric):.4f}")
    return written


def cmd_pca_export(cfg, args):
    out = _out_dir(cfg)
    method = cfg.pca_method or cfg.resample.method
    written = []
    for interval in cfg.intervals:
        grown = LabeledDataset.from_csv(
            _require(out / f"train_w{interval}_{method}.csv", "pca-export"))
        name = f"scatter_w{interval}_{method}.csv"
        export_scatter(grown, method, out / name,
                       fit_on_real_only=(cfg.pca_fit_on == "real"))
        written.append(name)
        print(f"pca-export: interval {interval} {method} -> {name}")
    return written


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_pipeline(cfg, args):
    spec = _model_spec(cfg)  # a bad kind or hyperparameter fails up front
    out = _out_dir(cfg)
    artifacts = []
    if cfg.cohort_path:
        # ingest an existing cohort instead of simulating one
        cohort_path, manifest_path = _cohort_paths(cfg, out, "pipeline")
        print(f"pipeline: ingesting {cohort_path} with {manifest_path}")
    else:
        artifacts += cmd_simulate(cfg, args)
    artifacts += cmd_encode(cfg, args)
    artifacts += cmd_split(cfg, args)
    artifacts += cmd_resample(cfg, args)
    artifacts += cmd_train(cfg, args)

    rows = []
    for interval in cfg.intervals:
        model = load_model(
            _require(out / f"model_w{interval}_{spec.kind}.json", "pipeline"))
        test = LabeledDataset.from_csv(
            _require(out / f"test_w{interval}.csv", "pipeline"))
        report = evaluate(model, test, cfg.threshold)
        name = f"report_w{interval}_{spec.kind}.json"
        report.save(out / name)
        artifacts.append(name)
        rows.append(_summary_row(report, interval, test.n_features,
                                 spec.kind))
    write_summary_csv(rows, out / "summary.csv")
    artifacts.append("summary.csv")

    manifest = {"artifacts": {name: _sha256(out / name)
                              for name in sorted(artifacts)}}
    with open(out / "run_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pipeline: {len(artifacts)} artifacts -> {out / 'run_manifest.json'}")
    return artifacts + ["run_manifest.json"]


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
            p.add_argument("--model-kind")
        if name == "resample":
            p.add_argument("--method", dest="resample.method",
                           choices=("smote", "adasyn"))
            p.add_argument("--k-neighbors", dest="resample.k_neighbors",
                           metavar="K_NEIGHBORS", type=int)
        if name in ("train", "pipeline"):
            p.add_argument("--model-kind")
            p.add_argument("--train-input", choices=("raw", "resampled"))
        if name == "tune":
            p.add_argument("--metric", dest="tune.selection_metric",
                           choices=("f1_false", "recall_false"))
        if name == "pca-export":
            p.add_argument("--method", dest="pca_method",
                           choices=("smote", "adasyn"))
            p.add_argument("--real-only", dest="pca_fit_on",
                           action="store_const", const="real")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args.config, {path: getattr(args, path, None)
                                         for path, _ in _OPTIONS.values()})
        _COMMANDS[args.command](cfg, args)
    except (CliError, ValueError, OSError) as exc:
        print(f"atrisk {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
