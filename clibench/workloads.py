"""The benchmark's workloads: inputs made from the seed, the argv sequence
each one times, and the checks on what the program wrote.

Every workload covers several simulated cohorts per run (root seeds
seed, seed+1, ...).  The cost of a cohort depends on how hard its data are
for the solvers (logistic-regression iteration counts vary by about 30%
between cohorts), so a run that timed one cohort would measure mostly which
seed it was given.  One pass over all of a workload's cohorts is one timed
sample.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

INTERVAL = 9
SUITE_KINDS = ("naive_bayes", "decision_tree", "random_forest", "knn",
               "svm_linear", "svm_rbf")
REPORT_RATIOS = ("precision_false", "precision_true", "recall_false",
                 "recall_true", "f1_false", "f1_true", "accuracy", "auc")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _summary_quality(paths):
    """(mean f1_false, mean auc) over the rows of summary CSV files."""
    f1, auc = [], []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                f1.append(float(row["f1_false"]))
                auc.append(float(row["auc"]))
    return sum(f1) / len(f1), sum(auc) / len(auc)


def _split_setup(out, seed, config):
    """simulate -> encode -> split for the benchmark interval."""
    common = ["--config", str(config), "--out", str(out), "--seed", str(seed)]
    return [["simulate", *common],
            ["encode", *common, "--interval", str(INTERVAL)],
            ["split", *common, "--interval", str(INTERVAL)]]


class Workload:
    """One workload.  Subclasses fill in the class attributes and hooks."""

    name = ""
    why = ""
    cohorts = 1          # cohorts per pass (root seeds seed .. seed+n-1)
    min_passes = 1
    config = ""          # config file text, written once per run
    split_inputs = ()    # files one cohort's timed sequence starts from

    def __init__(self, smoke=False):
        self.smoke = smoke
        if smoke:
            self.cohorts = 1

    def config_text(self):
        if self.smoke:  # tiny cohorts: the self-test checks plumbing only
            return self.config + "[simulate]\nn_students = 80\n"
        return self.config

    def describe(self):
        return {"name": self.name, "why": self.why,
                "cohorts_per_pass": self.cohorts,
                "min_passes": self.min_passes,
                "interval": INTERVAL, "config": self.config_text()}

    def setup_commands(self, cohort_dir, seed, config):
        """argv lists that build one cohort's inputs (may be empty)."""
        return []

    def commands(self, out, seed, config):
        """argv lists timed for one cohort."""
        raise NotImplementedError

    def prepare(self, cohort_dir, out):
        """Fresh output directory for one timed cohort (untimed)."""
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        for name in self.split_inputs:
            shutil.copyfile(cohort_dir / name, out / name)

    def check(self, out, seed, first_pass):
        """(checks, quality) for one cohort's outputs; quality is
        (f1_false, auc).  first_pass holds, per seed, what pass 1 saw."""
        raise NotImplementedError


class Pipeline(Workload):
    name = "pipeline"
    why = ("the paper's headline flow end to end (simulate to evaluate, "
           "intervals 3/6/9, SMOTE, logreg); write-heavy: dataset CSV "
           "writing and three logreg fits per cohort")
    cohorts = 6
    min_passes = 2      # pass 2 repeats every seed: manifests must match

    def commands(self, out, seed, config):
        return [["pipeline", "--config", str(config), "--out", str(out),
                 "--seed", str(seed)]]

    def check(self, out, seed, first_pass):
        manifest_path = out / "run_manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        hashes_ok = all(_sha256(out / name) == digest
                        for name, digest in manifest["artifacts"].items())
        checks = [Check("manifest_hashes", hashes_ok)]
        raw = manifest_path.read_bytes()
        if seed in first_pass:
            checks.append(Check("manifest_repeats", raw == first_pass[seed]))
        else:
            first_pass[seed] = raw
        return checks, _summary_quality([out / "summary.csv"])


class Tune(Workload):
    name = "tune"
    why = ("grid search, ~97% logreg solver; grid cut to k_neighbors=5, "
           "C=1.0: 4 cells (one duplicate objective) x 5 folds per cohort; "
           "reads one CSV, no kernels, trees or SVM")
    cohorts = 6
    config = "[tune]\nk_neighbors = 5\nc_values = 1.0\n"
    split_inputs = (f"train_w{INTERVAL}.csv",)
    folds = 5
    k_grid = (5,)

    def setup_commands(self, cohort_dir, seed, config):
        return _split_setup(cohort_dir, seed, config)

    def commands(self, out, seed, config):
        return [["tune", "--config", str(config), "--out", str(out),
                 "--seed", str(seed), "--interval", str(INTERVAL)]]

    def check(self, out, seed, first_pass):
        best = json.loads((out / f"tune_w{INTERVAL}_best.json")
                          .read_text(encoding="utf-8"))
        audit = best["audit"]
        with open(out / f"tune_w{INTERVAL}.csv", newline="",
                  encoding="utf-8") as fh:
            ranks = [int(row["rank"]) for row in csv.DictReader(fh)]
        checks = [
            Check("no_synthetic_in_validation",
                  audit["synthetic_rows_in_validation"] == 0),
            Check("folds_checked",
                  audit["folds_checked"] == self.folds * len(self.k_grid)),
            Check("ranks_contiguous", ranks == list(range(1, len(ranks) + 1))),
        ]
        return checks, (best["mean_f1_false"], best["mean_auc"])


class Suite(Workload):
    name = "suite"
    why = ("ADASYN, then train+evaluate the six non-logreg models, then "
           "pca-export: SVM SMO, forest split_scan, kNN pairwise_sqdist, "
           "~1 MB model JSON; logreg only via the SVM link")
    cohorts = 3
    config = "[resample]\nmethod = adasyn\n"
    split_inputs = (f"train_w{INTERVAL}.csv", f"test_w{INTERVAL}.csv")

    def setup_commands(self, cohort_dir, seed, config):
        return _split_setup(cohort_dir, seed, config)

    def commands(self, out, seed, config):
        common = ["--config", str(config), "--out", str(out),
                  "--seed", str(seed), "--interval", str(INTERVAL)]
        argv = [["resample", *common, "--method", "adasyn"]]
        for kind in SUITE_KINDS:
            argv.append(["train", *common, "--model-kind", kind])
            argv.append(["evaluate", *common, "--model-kind", kind])
        argv.append(["pca-export", *common])
        return argv

    def check(self, out, seed, first_pass):
        with open(out / f"test_w{INTERVAL}.csv", encoding="utf-8") as fh:
            test_rows = sum(1 for _ in fh) - 1
        checks = []
        for kind in SUITE_KINDS:
            report = json.loads((out / f"report_w{INTERVAL}_{kind}.json")
                                .read_text(encoding="utf-8"))
            total = sum(sum(row) for row in report["confusion"])
            checks.append(Check(f"{kind}_confusion_total",
                                total == test_rows))
            checks.append(Check(f"{kind}_ratios_in_unit_interval",
                                all(0.0 <= report[k] <= 1.0
                                    for k in REPORT_RATIOS)))
        summaries = [out / f"summary_w{INTERVAL}_{kind}.csv"
                     for kind in SUITE_KINDS]
        return checks, _summary_quality(summaries)


WORKLOADS = {w.name: w for w in (Pipeline, Tune, Suite)}
