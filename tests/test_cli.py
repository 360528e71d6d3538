"""CLI stages: artifact chain, config handling, determinism, guards."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from atrisk import cli
from atrisk.cli import main
from atrisk.config import SEED_OFFSETS, build_config
from atrisk.data import LabeledDataset, TaskManifest
from atrisk.models import MODEL_KINDS, fit
from atrisk.models.base import TrainedModel
from atrisk.resampling import load_resampled
from oracles import dataset_csv_oracle

BASE_CONFIG = """\
[run]
seed = 5

[simulate]
n_students = 100

[data]
intervals = 3

[resample]
method = smote
k_neighbors = 5

[model]
kind = logreg
C = 1.0

[evaluate]
threshold = 0.5
thresholds = 0.45,0.5

[tune]
methods = smote
k_neighbors = 5
penalties = l2
c_values = 0.01,1.0
thresholds = 0.5
folds = 3
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


def run_ok(args):
    code = main(args)
    assert code == 0
    return code


def test_stage_chain(tmp_path, config_file):
    out = str(tmp_path / "run")
    run_ok(["simulate", "--config", config_file, "--out", out])
    assert (tmp_path / "run" / "cohort.csv").exists()
    assert (tmp_path / "run" / "manifest.csv").exists()
    run_ok(["encode", "--config", config_file, "--out", out])
    header = (tmp_path / "run" / "dataset_w3.csv").read_text().splitlines()[0]
    assert header.count(",") == 44  # 43 features + label + synthetic
    run_ok(["split", "--config", config_file, "--out", out])
    run_ok(["resample", "--config", config_file, "--out", out])
    assert (tmp_path / "run" / "train_w3_smote_provenance.csv").exists()
    assert not (tmp_path / "run" / "train_w3_smote.csv").exists()
    run_ok(["train", "--config", config_file, "--out", out])
    assert (tmp_path / "run" / "model_w3_logreg.json").exists()
    run_ok(["evaluate", "--config", config_file, "--out", out])
    report = json.loads(
        (tmp_path / "run" / "report_w3_logreg.json").read_text())
    assert report["threshold"] == 0.5
    assert sum(sum(row) for row in report["confusion"]) == 20
    sweep = (tmp_path / "run" / "sweep_w3_logreg.csv").read_text()
    sweep_lines = sweep.splitlines()
    assert len(sweep_lines) == 3  # header + two thresholds
    assert sweep_lines[1].split(",")[-1] == "0.45"
    run_ok(["pca-export", "--config", config_file, "--out", out])
    scatter = (tmp_path / "run" / "scatter_w3_smote.csv").read_text()
    assert scatter.splitlines()[0] == "pc1,pc2,label,synthetic,method"


def test_pipeline_writes_manifest_and_summary(tmp_path, config_file):
    out = tmp_path / "run"
    run_ok(["pipeline", "--config", config_file, "--out", str(out)])
    manifest = json.loads((out / "run_manifest.json").read_text())
    for name, digest in manifest["artifacts"].items():
        assert (out / name).exists()
        assert len(digest) == 64
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == ("interval,n_features,model,precision_false,"
                          "recall_false,f1_false,accuracy,auc,threshold")
    assert summary[1].startswith("3,43,logreg,")
    # [evaluate] thresholds reaches pipeline as it reaches evaluate
    assert "sweep_w3_logreg.csv" in manifest["artifacts"]


def _ingest_config(tmp_path, source, intervals="3"):
    """A config that ingests source's cohort and manifest."""
    path = tmp_path / "ingest.cfg"
    path.write_text(BASE_CONFIG.replace("intervals = 3\n",
                                        f"intervals = {intervals}\n") + f"""
[paths]
cohort = {source / 'cohort.csv'}
manifest = {source / 'manifest.csv'}
""")
    return str(path)


def _counting(reads, read):
    """read, appending the name of each file it reads to reads."""
    def reader(path, *rest):
        reads.append(Path(path).name)
        return read(path, *rest)
    return reader


def test_pipeline_reads_back_no_artifact(tmp_path, config_file,
                                         monkeypatch):
    def refuse(path, *rest):
        raise AssertionError(f"pipeline re-read {path}")

    reads = []
    monkeypatch.setattr(cli, "load_cohort", _counting(reads, cli.load_cohort))
    monkeypatch.setattr(cli, "load_model", refuse)
    monkeypatch.setattr(cli, "load_resampled", refuse)
    monkeypatch.setattr(LabeledDataset, "from_csv", refuse)
    monkeypatch.setattr(TaskManifest, "from_csv",
                        _counting(reads, TaskManifest.from_csv))
    source = tmp_path / "run"
    run_ok(["pipeline", "--config", config_file, "--out", str(source)])
    assert reads == []
    # an ingested cohort and manifest are read once for all three intervals
    run_ok(["pipeline", "--config", _ingest_config(tmp_path, source, "3,6,9"),
            "--out", str(tmp_path / "ingest")])
    assert sorted(reads) == ["cohort.csv", "manifest.csv"]


@pytest.fixture
def held(monkeypatch):
    """(name put, names held after the put), one a _Store.put."""
    put = cli._Store.put
    held = []

    def recording(store, name, *rest):
        put(store, name, *rest)
        held.append((name, {path.name for path in store._held}))

    monkeypatch.setattr(cli._Store, "put", recording)
    return held


def weeks_config(tmp_path):
    config = tmp_path / "weeks.cfg"
    config.write_text(BASE_CONFIG.replace("intervals = 3\n",
                                          "intervals = 1,2,3,4,5,6,7,8,9\n"))
    return str(config)


def test_pipeline_holds_one_interval_at_a_time(tmp_path, held):
    run_ok(["pipeline", "--config", weeks_config(tmp_path),
            "--out", str(tmp_path / "run")])

    def week(name):
        found = re.search(r"_w(\d+)[._]", name)
        return found and int(found.group(1))

    assert [week(name) for name, _ in held if week(name)] == sorted(
        week(name) for name, _ in held if week(name))
    assert {week(name) for name, _ in held} - {None} == set(range(1, 10))
    kept = {"cohort.csv", "manifest.csv"}
    assert {name for name, _ in held[:2]} == kept
    for name, names in held[2:]:
        assert kept <= names
        others = names - kept
        assert {week(other) for other in others} <= {week(name)}, name
        if week(name) is None:  # summary.csv, run_manifest.json
            assert not others, name


def test_single_stage_commands_hold_nothing(tmp_path, held, monkeypatch):
    # no later stage in a single-stage command's process reads what it
    # puts; encode holds the cohort and manifest it read for every week
    config, out = weeks_config(tmp_path), str(tmp_path / "run")
    reads = []
    monkeypatch.setattr(cli, "load_cohort", _counting(reads, cli.load_cohort))
    monkeypatch.setattr(TaskManifest, "from_csv",
                        _counting(reads, TaskManifest.from_csv))
    for stage in ("simulate", "encode", "split"):
        run_ok([stage, "--config", config, "--out", out])
    assert reads == ["manifest.csv", "cohort.csv"]
    assert [name for name, _ in held[-18:]] == [
        f"{part}_w{week}.csv" for week in range(1, 10)
        for part in ("train", "test")]
    assert [names for _, names in held] == \
        [set()] * 2 + [{"cohort.csv", "manifest.csv"}] * 9 + [set()] * 18


def test_pipeline_intervals_are_independent(tmp_path):
    config = tmp_path / "weeks.cfg"
    config.write_text(BASE_CONFIG.replace("intervals = 3\n",
                                          "intervals = 3,6,9\n"))
    full = tmp_path / "full"
    run_ok(["pipeline", "--config", str(config), "--out", str(full)])
    own = {"summary.csv", "run_manifest.json"}
    names, rows = set(), []
    for interval in (3, 6, 9):
        one = tmp_path / f"w{interval}"
        run_ok(["pipeline", "--config", str(config), "--out", str(one),
                "--interval", str(interval)])
        header, *one_rows = (one / "summary.csv").read_text().splitlines()
        rows += one_rows
        for path in one.iterdir():
            if path.name not in own:
                names.add(path.name)
                assert path.read_bytes() == (full / path.name).read_bytes(), \
                    path.name
    assert {path.name for path in full.iterdir()} - own == names
    assert (full / "summary.csv").read_text().splitlines() == [header, *rows]


def test_pipeline_rerun_is_byte_identical(tmp_path, config_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_ok(["pipeline", "--config", config_file, "--out", str(out_a)])
    run_ok(["pipeline", "--config", config_file, "--out", str(out_b)])
    manifest_a = json.loads((out_a / "run_manifest.json").read_text())
    manifest_b = json.loads((out_b / "run_manifest.json").read_text())
    assert manifest_a == manifest_b


@pytest.mark.parametrize("kind, extra, method", [
    *(pytest.param(kind, "", "smote", id=kind) for kind in MODEL_KINDS),
    pytest.param("logreg", "", "none", id="logreg-none"),
    pytest.param("logreg", "", "adasyn", id="logreg-adasyn"),
])
def test_single_stage_rerun_matches_pipeline_slice(tmp_path, kind, extra,
                                                   method):
    config = tmp_path / "stages.cfg"
    config.write_text(
        BASE_CONFIG.replace("method = smote", f"method = {method}")
        .replace("kind = logreg\nC = 1.0\n", f"kind = {kind}\n{extra}"))
    pipeline_out = tmp_path / "full"
    run_ok(["pipeline", "--config", str(config), "--out", str(pipeline_out)])
    stage_out = tmp_path / "staged"
    for stage in ("simulate", "encode", "split", "resample", "train",
                  "evaluate"):
        run_ok([stage, "--config", str(config), "--out", str(stage_out)])
    staged = {path.name for path in stage_out.iterdir()}
    full = {path.name for path in pipeline_out.iterdir()}
    summary = f"summary_w3_{kind}.csv"
    assert staged - full == {summary}
    assert full - staged == {"summary.csv", "run_manifest.json"}
    for name in staged & full:
        assert (stage_out / name).read_bytes() == \
            (pipeline_out / name).read_bytes(), name
    assert (stage_out / summary).read_bytes() == \
        (pipeline_out / "summary.csv").read_bytes()


def test_pipeline_writes_what_its_stages_write(tmp_path):
    # the default config at seed 7, stage by stage: every file both runs
    # write has the same bytes, and evaluate's summary is summary.csv
    full, staged = tmp_path / "full", tmp_path / "staged"
    run_ok(["pipeline", "--seed", "7", "--out", str(full)])
    for stage in ("simulate", "encode", "split", "resample", "train",
                  "evaluate"):
        run_ok([stage, "--seed", "7", "--out", str(staged)])
    names = {path.name for path in staged.iterdir()}
    summary = "summary_w3_w6_w9_logreg.csv"
    assert names - {path.name for path in full.iterdir()} == {summary}
    for name in names:
        assert (staged / name).read_bytes() == (full / (
            "summary.csv" if name == summary else name)).read_bytes(), name


def test_seed_flag_overrides_config(tmp_path, config_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_ok(["simulate", "--config", config_file, "--out", str(out_a)])
    run_ok(["simulate", "--config", config_file, "--out", str(out_b),
            "--seed", "99"])
    assert (out_a / "cohort.csv").read_bytes() != \
        (out_b / "cohort.csv").read_bytes()


def test_missing_upstream_artifact_names_stage(tmp_path, config_file,
                                               capsys):
    code = main(["split", "--config", config_file,
                 "--out", str(tmp_path / "empty")])
    assert code == 1
    err = capsys.readouterr().err
    assert "[split]" in err and "missing upstream artifact" in err


def test_unknown_config_key_reports_path(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[split]\ntrain_fractoin = 0.8\n")
    code = main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "split.train_fractoin" in capsys.readouterr().err


def test_unknown_model_hyperparameter_fails(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nkind = logreg\nalpha = 2\n")
    code = main(["train", "--config", str(bad),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_evaluate_refuses_synthetic_test_file(tmp_path, config_file,
                                              capsys):
    out = str(tmp_path / "run")
    for stage in ("simulate", "encode", "split", "resample", "train"):
        run_ok([stage, "--config", config_file, "--out", out])
    _set_field(2, -1, "true")(tmp_path / "run" / "test_w3.csv")
    code = main(["evaluate", "--config", config_file, "--out", out])
    assert code == 1
    assert "test purity" in capsys.readouterr().err


@pytest.mark.parametrize("flag, name", [
    ("--model-file", "model_w3_logreg.json"),
    ("--test-file", "test_w3.csv"),
])
def test_evaluate_file_flag_needs_one_interval(tmp_path, capsys, flag, name):
    config = tmp_path / "two.cfg"
    config.write_text(BASE_CONFIG.replace("intervals = 3", "intervals = 3,6"))
    common = ["--config", str(config), "--out", str(tmp_path / "run")]
    for stage in ("simulate", "encode", "split", "resample", "train"):
        run_ok([stage, *common])
    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    capsys.readouterr()
    code = main(["evaluate", *common, flag, str(tmp_path / "run" / name)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert flag in err and "--interval" in err
    after = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert after == before
    run_ok(["evaluate", *common, flag, str(tmp_path / "run" / name),
            "--interval", "3"])


def test_evaluate_dimension_mismatch_names_interval_and_files(tmp_path,
                                                              capsys):
    config = tmp_path / "two.cfg"
    config.write_text(BASE_CONFIG.replace("intervals = 3", "intervals = 3,6"))
    out = tmp_path / "run"
    common = ["--config", str(config), "--out", str(out)]
    for stage in ("simulate", "encode", "split", "resample", "train"):
        run_ok([stage, *common])
    capsys.readouterr()
    code = main(["evaluate", *common, "--interval", "6", "--model-file",
                 str(out / "model_w3_logreg.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"atrisk evaluate: error: interval 6, {out / 'model_w3_logreg.json'} "
        f"on {out / 'test_w6.csv'}: dimension mismatch: model trained on "
        f"43 features, rows have 106\n")


def test_evaluate_malformed_model_file_is_one_line_error(tmp_path,
                                                        config_file, capsys):
    out = tmp_path / "run"
    for stage in ("simulate", "encode", "split", "resample", "train"):
        run_ok([stage, "--config", config_file, "--out", str(out)])
    model_path = out / "model_w3_logreg.json"
    doc = json.loads(model_path.read_text())
    del doc["params"]
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["evaluate", "--config", config_file, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "model_w3_logreg.json: missing key 'params'" in err


def test_evaluate_model_file_names_outputs_by_its_kind(tmp_path):
    config = tmp_path / "plain.cfg"
    config.write_text(BASE_CONFIG.replace("C = 1.0\n", ""))
    out = tmp_path / "run"
    common = ["--config", str(config), "--out", str(out)]
    for stage in ("simulate", "encode", "split", "resample"):
        run_ok([stage, *common])
    run_ok(["train", *common, "--model-kind", "knn"])
    # the configured kind is logreg; the file holds a knn model
    run_ok(["evaluate", *common, "--interval", "3", "--model-file",
            str(out / "model_w3_knn.json")])
    for name in ("report_w3_knn.json", "sweep_w3_knn.csv",
                 "summary_w3_knn.csv"):
        assert (out / name).exists()
    assert not list(out.glob("*_logreg.*"))
    summary = (out / "summary_w3_knn.csv").read_text().splitlines()
    assert summary[1].startswith("3,43,knn,")


def test_real_only_scatter_leaves_union_scatter_alone(tmp_path,
                                                      config_file):
    for run in ("both", "union"):
        common = ["--config", config_file, "--out", str(tmp_path / run)]
        for stage in ("simulate", "encode", "split", "resample"):
            run_ok([stage, *common])
        run_ok(["pca-export", *common])
    run_ok(["pca-export", "--config", config_file, "--out",
            str(tmp_path / "both"), "--real-only"])
    union, real = (tmp_path / "both" / "scatter_w3_smote.csv",
                   tmp_path / "both" / "scatter_w3_smote_real.csv")
    assert union.read_bytes() == \
        (tmp_path / "union" / "scatter_w3_smote.csv").read_bytes()
    assert real.read_bytes() != union.read_bytes()


def test_tune_writes_ranked_grid(tmp_path, config_file):
    out = str(tmp_path / "run")
    for stage in ("simulate", "encode", "split"):
        run_ok([stage, "--config", config_file, "--out", out])
    run_ok(["tune", "--config", config_file, "--out", out])
    lines = (tmp_path / "run" / "tune_w3.csv").read_text().splitlines()
    assert lines[0].startswith("rank,method,k_neighbors,penalty,C")
    assert len(lines) == 3  # header + two C cells
    best = json.loads((tmp_path / "run" / "tune_w3_best.json").read_text())
    assert best["audit"]["synthetic_rows_in_validation"] == 0
    assert best["method"] == "smote"


def test_train_on_raw_input(tmp_path):
    config = tmp_path / "none.cfg"
    config.write_text(BASE_CONFIG.replace("method = smote", "method = none"))
    out = tmp_path / "run"
    for stage in ("simulate", "encode", "split", "resample", "train"):
        run_ok([stage, "--config", str(config), "--out", str(out)])
    # the model is the one fitted on the split's training rows as they are
    fit(build_config(str(config)).model,
        LabeledDataset.from_csv(out / "train_w3.csv")).save(tmp_path / "m")
    assert (out / "model_w3_logreg.json").read_bytes() == \
        (tmp_path / "m").read_bytes()


def test_resample_none_writes_the_training_rows(tmp_path, config_file):
    out = tmp_path / "run"
    for stage in ("simulate", "encode", "split"):
        run_ok([stage, "--config", config_file, "--out", str(out)])
    run_ok(["resample", "--config", config_file, "--out", str(out),
            "--method", "none"])
    # the training rows are train_w3.csv itself: no copy is written
    assert not (out / "train_w3_none.csv").exists()
    assert (out / "train_w3_none_provenance.csv").read_text() == \
        "synthetic_row,base_row,neighbor_row,lambda\n"


def test_svm_rbf_with_a_huge_gamma_trains_and_evaluates(tmp_path):
    # gamma * distance overflows to inf, and exp(-inf) = 0 is the kernel's
    # limit; an overflow warning would fail the test
    config = tmp_path / "svm.cfg"
    config.write_text(BASE_CONFIG.replace(
        "kind = logreg\nC = 1.0\n", "kind = svm_rbf\ngamma = 1e308\n"))
    out = str(tmp_path / "run")
    for stage in ("simulate", "encode", "split", "resample", "train",
                  "evaluate"):
        run_ok([stage, "--config", str(config), "--out", out])
    assert (tmp_path / "run" / "report_w3_svm_rbf.json").exists()


@pytest.mark.parametrize("model, seed", [
    ("", 5 + SEED_OFFSETS["train"]),  # BASE_CONFIG has run.seed = 5
    ("seed = 4\n", 4),
])
def test_train_seeds_a_seeded_kind_from_the_run(tmp_path, model, seed):
    config = tmp_path / "forest.cfg"
    config.write_text(BASE_CONFIG.replace(
        "kind = logreg\nC = 1.0\n",
        f"kind = random_forest\nn_trees = 5\n{model}"))
    out = str(tmp_path / "run")
    for stage in ("simulate", "encode", "split", "resample"):
        run_ok([stage, "--config", str(config), "--out", out])
    run_ok(["train", "--config", str(config), "--out", out,
            "--model-kind", "random_forest"])
    doc = json.loads(
        (tmp_path / "run" / "model_w3_random_forest.json").read_text())
    assert doc["params"]["seed"] == seed


def test_interval_flag_restricts(tmp_path):
    out = tmp_path / "run"
    run_ok(["simulate", "--out", str(out), "--seed", "3"])
    run_ok(["encode", "--out", str(out), "--interval", "6"])
    assert (out / "dataset_w6.csv").exists()
    assert not (out / "dataset_w3.csv").exists()


def test_ingest_existing_cohort(tmp_path, config_file):
    source = tmp_path / "source"
    run_ok(["simulate", "--config", config_file, "--out", str(source)])
    out = tmp_path / "run"
    run_ok(["pipeline", "--config", _ingest_config(tmp_path, source),
            "--out", str(out)])
    assert not (out / "cohort.csv").exists()  # ingested, not simulated
    assert (out / "summary.csv").exists()


def _one_line_error(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("text, where", [
    ("[run]\nseed = abc\n", "run.seed"),
    ("[split]\ntrain_fraction = x\n", "split.train_fraction"),
    ("[data]\nintervals = 3,x\n", "data.intervals"),
    ("[tune]\nc_values = 0.1,high\n", "tune.c_values"),
])
def test_bad_config_value_names_file_and_key(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    err = _one_line_error(capsys, ["simulate", "--config", str(bad),
                                   "--out", str(tmp_path / "x")])
    assert f"{bad}: {where}: " in err


def test_split_stratified_is_an_unknown_key(tmp_path, capsys):
    # every split is stratified; the key that turned that off is gone
    bad = tmp_path / "bad.cfg"
    bad.write_text("[split]\nstratified = false\n")
    err = _one_line_error(capsys, ["simulate", "--config", str(bad),
                                   "--out", str(tmp_path / "x")])
    assert err == (f"atrisk simulate: error: unknown config key "
                   f"split.stratified in {bad}\n")


@pytest.mark.parametrize("text, line", [
    ("[run]\nseed = 1\nseed = 2\n", "[line 3]"),
    ("seed = 1\n", "line: 1"),
])
def test_malformed_config_file_names_file_and_line(tmp_path, capsys, text,
                                                   line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    err = _one_line_error(capsys, ["simulate", "--config", str(bad),
                                   "--out", str(tmp_path / "x")])
    assert str(bad) in err and line in err


BAD_MODELS = (
    ("", ["--model-kind", "foo"], "unknown model kind 'foo'"),
    ("kind = foo\n", [], "unknown model kind 'foo'"),
    ("C = abc\n", [], "logreg hyperparameter 'C' must be a number"),
    ("kind = decision_tree\nmax_depth = None\n", [],
     "decision_tree hyperparameter 'max_depth' must be an integer"),
    ("kind = random_forest\nn_trees = 2.5\n", [],
     "random_forest hyperparameter 'n_trees' must be an integer"),
    ("kind = logreg\ntolerance = -1\n", [], "tolerance must be > 0, got -1"),
    ("kind = svm_linear\nmax_iterations = 0\n", [],
     "max_iterations must be >= 1, got 0"),
    ("kind = random_forest\nseed = -1\n", [], "seed must be >= 0, got -1"),
    ("kind = svm_rbf\ngamma = inf\n", [],
     "svm_rbf hyperparameter 'gamma' must be a finite number, got inf"),
    ("kind = svm_linear\nC = inf\n", [],
     "svm_linear hyperparameter 'C' must be a finite number, got inf"),
    ("kind = logreg\ntolerance = inf\n", [],
     "logreg hyperparameter 'tolerance' must be a finite number, got inf"),
    ("self = 1\n", [], "unknown hyperparameter(s) for logreg: ['self']"),
    ("a.b = 1\n", [], "unknown hyperparameter(s) for logreg: ['a.b']"),
    # refused before any tree is drawn: SeedSequence.spawn takes a C ssize_t
    ("kind = random_forest\nn_trees = 100000000000000000000\n", [],
     f"n_trees must be in [1, {sys.maxsize}], got 100000000000000000000"),
)


@pytest.mark.parametrize("command, model, flags, expected", [
    pytest.param(command, model, flags, expected,
                 id=f"{command}-{model}-flags{i}-{expected}")
    for command in cli._COMMANDS
    for i, (model, flags, expected) in enumerate(BAD_MODELS)
    # only train, evaluate and pipeline take --model-kind
    if not flags or command in ("train", "evaluate", "pipeline")])
def test_bad_model_fails_before_any_stage(tmp_path, capsys, command, model,
                                          flags, expected):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE_CONFIG.replace("[model]\nkind = logreg\nC = 1.0\n",
                                       "[model]\n" + model))
    out = tmp_path / "run"
    err = _one_line_error(capsys, [command, "--config", str(bad),
                                   "--out", str(out), *flags])
    assert expected in err
    assert not (out / "cohort.csv").exists()


@pytest.mark.parametrize("text, where, got", [
    ("[resample]\nmethod = foo\n", "[resample] method", "'foo'"),
    ("[resample]\nk_neighbors = 0\n", "[resample] k_neighbors", "0"),
    ("[tune]\nmetric = foo\n", "[tune] selection_metric", "'foo'"),
    ("[tune]\nfolds = 1\n", "[tune] folds", "1"),
    ("[tune]\nmethods = smote,foo\n", "[tune] resample_methods", "'foo'"),
    ("[tune]\nk_neighbors = 3,0\n", "[tune] k_neighbors_grid", "0"),
    ("[tune]\npenalties = l2,l1\n", "[tune] penalties", "'l1'"),
    ("[tune]\nc_values = 0.1,-1\n", "[tune] c_grid", "-1.0"),
    ("[tune]\nl1_ratios = 1.5\n", "[tune] l1_ratios", "1.5"),
    ("[tune]\nthresholds = 0.5,0.5\n", "[tune] thresholds", "0.5"),
    ("[simulate]\nlabeling = threshold\n", "[simulate] labeling",
     "'threshold'"),
    ("[split]\ntrain_fraction = 1.5\n", "[split] train_fraction", "1.5"),
    ("[pca]\nmethod = foo\n", "pca.method", "'foo'"),
    ("[run]\nseed = -1\n", "run.seed", "-1"),
    ("[evaluate]\nthresholds = 0.5,0.5\n", "evaluate.thresholds", "0.5"),
    ("[data]\nintervals = 3,3\n", "data.intervals", "3"),
    ("[tune]\nc_values = inf\n", "tune.c_values", "inf"),
    ("[simulate]\nability_spread = nan\n", "simulate.ability_spread", "nan"),
    # an outside manifest alone once encoded the simulated cohort against
    # it, and a cohort alone failed on a missing OUT/manifest.csv
    ("[paths]\nmanifest = m.csv\n", "paths.cohort and paths.manifest",
     "only paths.manifest"),
    ("[paths]\ncohort = c.csv\n", "paths.cohort and paths.manifest",
     "only paths.cohort"),
])
@pytest.mark.parametrize("command", ["pipeline", "simulate"])
def test_bad_stage_value_fails_before_any_stage(tmp_path, capsys, text,
                                                where, got, command):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    out = tmp_path / "run"
    out.mkdir()
    err = _one_line_error(capsys, [command, "--config", str(bad),
                                   "--out", str(out)])
    assert where in err and f"got {got}" in err
    assert list(out.iterdir()) == []


def _set_field(line, column, value):
    """An edit that sets one field of a CSV file; returns the line edited."""
    def edit(path):
        lines = path.read_text().splitlines()
        fields = lines[line - 1].split(",")
        fields[column] = value
        lines[line - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return line
    return edit


def _repeat_line(line):
    """An edit that appends a copy of one line; returns the copy's line."""
    def edit(path):
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[line - 1]]) + "\n")
        return len(lines) + 1
    return edit


@pytest.mark.parametrize("name, stages, command, edit, reason", [
    pytest.param("test_w3.csv", ("simulate", "encode", "split", "resample",
                                 "train"), "evaluate",
                 _set_field(3, -2, "maybe"),
                 "expected 'true' or 'false', got 'maybe'", id="label"),
    pytest.param("train_w3.csv", ("simulate", "encode", "split"), "resample",
                 _set_field(4, 0, "0.5"),
                 "real rows must contain only exact 0/1 values",
                 id="fractional-real-row"),
    pytest.param("dataset_w3.csv", ("simulate", "encode"), "split",
                 _set_field(5, 0, "nan"), "features must be finite",
                 id="nan"),
    pytest.param("manifest.csv", ("simulate",), "encode",
                 _set_field(2, 1, "0"),
                 "task 'w01_t01': week must be >= 1, got 0", id="week-0"),
    pytest.param("manifest.csv", ("simulate",), "encode", _repeat_line(2),
                 "duplicate task 'w01_t01' (first seen on line 2)",
                 id="duplicate-task"),
    pytest.param("train_w3_smote_provenance.csv",
                 ("simulate", "encode", "split", "resample"), "train",
                 _set_field(3, 3, "1.5"),
                 "lambda must be finite and in [0, 1), got '1.5'",
                 id="provenance-lambda"),
])
def test_loader_error_names_file_and_line(tmp_path, config_file, capsys,
                                          name, stages, command, edit,
                                          reason):
    out = tmp_path / "run"
    for stage in stages:
        run_ok([stage, "--config", config_file, "--out", str(out)])
    line = edit(out / name)
    err = _one_line_error(capsys, [command, "--config", config_file,
                                   "--out", str(out)])
    assert f"{out / name}:{line}: {reason}" in err


def test_evaluate_scores_once_per_interval_with_a_sweep(tmp_path,
                                                      monkeypatch):
    config = tmp_path / "sweep.cfg"
    config.write_text(BASE_CONFIG.replace("intervals = 3\n",
                                          "intervals = 3,6\n"))
    out = tmp_path / "run"
    for stage in ("simulate", "encode", "split", "resample", "train"):
        run_ok([stage, "--config", str(config), "--out", str(out)])
    scored = []
    original = TrainedModel.predict_proba

    def counting_proba(self, rows):
        scored.append(rows.shape[1])
        return original(self, rows)

    monkeypatch.setattr(TrainedModel, "predict_proba", counting_proba)
    run_ok(["evaluate", "--config", str(config), "--out", str(out)])
    assert scored == [43, 106]
    for interval in (3, 6):
        report = json.loads(
            (out / f"report_w{interval}_logreg.json").read_text())
        sweep = (out / f"sweep_w{interval}_logreg.csv").read_text()
        # the 0.5 row of the sweep is the report's own summary row
        row = sweep.splitlines()[2].split(",")
        assert row[-1] == "0.5" == str(report["threshold"])
        assert float(row[5]) == report["f1_false"]


def artifact_bytes(out, name):
    """The bytes of file name in out; for a resampled set
    train_w{N}_{method}.csv, which is stored as its provenance file, the
    dataset CSV of the set load_resampled rebuilds from train_w{N}.csv."""
    resampled = re.fullmatch(r"(.*train_w\d+)(_smote|_adasyn)\.csv", name)
    if resampled is None:
        return (out / name).read_bytes()
    stem, method = resampled.groups()
    assert not (out / name).exists()
    train = LabeledDataset.from_csv(out / f"{stem}.csv")
    return dataset_csv_oracle(
        load_resampled(out / f"{stem}{method}_provenance.csv", train))


# sha256 of the dataset CSVs that `atrisk pipeline --seed 7` writes with the
# default config, and of the SMOTE and ADASYN sets (`atrisk resample --seed
# 7 --method adasyn`) by artifact_bytes; any change to the bytes the dataset
# writer produces, or to the rows a resampled set rebuilds, changes these
GOLDEN_DATASET_SHA256 = {
    "dataset_w3.csv":
        "2979b24c5d099662568b9b551670948377a8621dcf510b87be0e7b5b62e737bb",
    "dataset_w6.csv":
        "0abdd043c41e404c5db03a4b61053e15ad851d65fb5f7a59ccb8ce79826bae5a",
    "dataset_w9.csv":
        "fbaad40208fc6b54bf2a998eb98c5015c4959631c5e7f2980817aea165055841",
    "train_w3.csv":
        "87d8fa72a772e91da46ef9c12b621975443865ac205f52154771abf5cb8fa704",
    "train_w6.csv":
        "c925a55115ccf1e32b41af104cb30f3feef497e98567bf60f49423614b34e9ac",
    "train_w9.csv":
        "f9c786506ca7739966054184652ca099a62094240bf2db0b47d6284f6713533f",
    "test_w3.csv":
        "ae49128aa40d2131d4cdc59463c040137fe8c80012d909393959fd38c0a2d940",
    "test_w6.csv":
        "f65c947b182f4dd5d2eef81ab23be266d2ff93bde97bdae359db01babac9398d",
    "test_w9.csv":
        "5312e1acba4e94ad0258528630f2de4fcb3b01e3ecdb8cdb198a454b3871de2e",
    "train_w3_smote.csv":
        "7947043cafbb8b749d0a5c80185a07ceaaee56b276e615ef1cf691ed164674c8",
    "train_w6_smote.csv":
        "0a6838272226466db08dad941e124da6b5df8ab71bf5c06cb08528e1d0e5c5ba",
    "train_w9_smote.csv":
        "836c65cf26462632ab824d6120a96d399b0ab16bb3e7f3051126cf00a1500b09",
    "train_w3_adasyn.csv":
        "75866347d49693479745bbc2ec6fef6317634a3f16a7f87c6f029f1c31bcb6b4",
    "train_w6_adasyn.csv":
        "17760695df1c48e24f4a70ffb27c698d661256f3c5ddf6354308959407ad50a7",
    "train_w9_adasyn.csv":
        "43fa12b7b7a19f2f6ac4f0a98d9593080cc790f503eef9ee7db96fd9bfad73ff",
}


def test_seed7_dataset_csvs_match_golden_hashes(tmp_path):
    out = str(tmp_path / "run")
    for stage in ("simulate", "encode", "split", "resample"):
        run_ok([stage, "--seed", "7", "--out", out])
    run_ok(["resample", "--seed", "7", "--method", "adasyn", "--out", out])
    found = {name: hashlib.sha256(artifact_bytes(tmp_path / "run", name))
             .hexdigest() for name in GOLDEN_DATASET_SHA256}
    assert found == GOLDEN_DATASET_SHA256


# sha256 of the tree and forest files that `atrisk train --seed 7` writes
# after simulate, encode, split and resample with the default config; any
# change to node numbering, tie rules, rng draws or the file format
# changes these
GOLDEN_TREE_MODEL_SHA256 = {
    "model_w3_decision_tree.json":
        "0ec20eb866fd4d305a2e81dbef3345ee44ff1bd60f5e3e8d10966ad8ac2bd06f",
    "model_w6_decision_tree.json":
        "a7b9838f1544b16d6347230057e4991a3c65fd391fdcc6b6fa1a1732f0d83f17",
    "model_w9_decision_tree.json":
        "fc22f069d35cff1a2c842ecf2d14f80cffd95c17e3449918cdf1a9da7869d178",
    "model_w3_random_forest.json":
        "5526004021481d248d8882c29787b3d6c514366fdc0c17213b6529ef834909ca",
    "model_w6_random_forest.json":
        "d3b7f2e70f112edde3aa542d376acc17e49c519c1f7c7b93b21d0ac2e8094a94",
    "model_w9_random_forest.json":
        "06669ad987a039b91a441984474dbba30476b740827f5b47726202c7c7b9c47b",
}


def test_seed7_tree_model_files_match_golden_hashes(tmp_path):
    out = str(tmp_path / "run")
    for stage in ("simulate", "encode", "split", "resample"):
        run_ok([stage, "--seed", "7", "--out", out])
    for kind in ("decision_tree", "random_forest"):
        run_ok(["train", "--seed", "7", "--model-kind", kind, "--out", out])
    found = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes())
             .hexdigest() for name in GOLDEN_TREE_MODEL_SHA256}
    assert found == GOLDEN_TREE_MODEL_SHA256


# the same for `atrisk train --seed 4242 --interval 9`, so the tree bytes
# are pinned on a second cohort
GOLDEN_TREE_MODEL_SHA256_SEED4242 = {
    "model_w9_decision_tree.json":
        "3f5d32dc769c0f020793accac84856e9ee2f76943bcc714bd1d0c092d45b998e",
    "model_w9_random_forest.json":
        "cc803b9b11c4ea277e45a44f867412db0f745c5265f1e4d09d50dbea3a8a20f6",
}


def test_seed4242_tree_model_files_match_golden_hashes(tmp_path):
    out = str(tmp_path / "run")
    run_ok(["simulate", "--seed", "4242", "--out", out])
    for stage in ("encode", "split", "resample"):
        run_ok([stage, "--seed", "4242", "--interval", "9", "--out", out])
    for kind in ("decision_tree", "random_forest"):
        run_ok(["train", "--seed", "4242", "--interval", "9",
                "--model-kind", kind, "--out", out])
    found = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes())
             .hexdigest() for name in GOLDEN_TREE_MODEL_SHA256_SEED4242}
    assert found == GOLDEN_TREE_MODEL_SHA256_SEED4242


# sha256 of files whose writer formats its own cells no more, as
# `atrisk evaluate --seed 7 --interval 9 --model-kind decision_tree` and the
# stages before it write them with the default config; none depends on the
# BLAS thread count
GOLDEN_WRITER_SHA256 = {
    "cohort.csv":
        "19c45e963249706a0642a6393f10b5810de4b41efe0de26ec464e61abca9d42e",
    "manifest.csv":
        "a34c44648b89a56e0cad73a474bb139e482edc200c06aa4323aa57dc4f8545c5",
    "train_w3_smote_provenance.csv":
        "b099090df3f80322180c06c0ba09a2436109558f878ffa3443d6ab494bdbd613",
    "train_w6_smote_provenance.csv":
        "3f964d4b2659628aa15ca0b2bbdbdca45f4906d19291ec478b3fa5a8fd166ff2",
    "train_w9_smote_provenance.csv":
        "42652680196ab8e179e6adc84dc1aeee622175b7d6fde53496ca0141771b30d1",
    "report_w9_decision_tree.json":
        "6d62fbd166d5f2532b702d2a0034808680ba66650f529e7c9fe44b8d94260ddb",
    "summary_w9_decision_tree.csv":
        "1cd1cec4901a846e0b542e731f5410714dd5b22692cf82282a1f9fb08c4555d2",
}


def test_seed7_cohort_provenance_and_report_files_match_golden_hashes(
        tmp_path):
    out = str(tmp_path / "run")
    for stage in ("simulate", "encode", "split", "resample"):
        run_ok([stage, "--seed", "7", "--out", out])
    for stage in ("train", "evaluate"):
        run_ok([stage, "--seed", "7", "--interval", "9", "--model-kind",
                "decision_tree", "--out", out])
    found = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes())
             .hexdigest() for name in GOLDEN_WRITER_SHA256}
    assert found == GOLDEN_WRITER_SHA256


# sha256 of the ADASYN files that `atrisk resample --method adasyn` writes
# after simulate, encode and split with the default config, the set by
# artifact_bytes: the seed-7 provenance (its sets are pinned above) and
# seed 4242 at interval 9; any change to the draw order or the allocation
# changes these
GOLDEN_ADASYN_SHA256 = {
    "train_w3_adasyn_provenance.csv":
        "fa8291dc9e03612ff1bdc3f024f20075e9ab98cf6dc2ac19232b75917dd25c3d",
    "train_w6_adasyn_provenance.csv":
        "de28baf85fa04e702a56fe991d51786d523d01ff93847574eff667c823d7dab9",
    "train_w9_adasyn_provenance.csv":
        "29dba3ba88f7b7ef7164173c8c61f03d916f62fcb1762efa906b379130e121e3",
    "seed4242/train_w9_adasyn.csv":
        "6446dc7e5a303dbdc4f905fede26dec1e72d0947bed08e2a089dd698319fb14c",
    "seed4242/train_w9_adasyn_provenance.csv":
        "9b175674f8a6166811ac48b2e3ebb9acd1d486446d950e716224a16828f2f9d9",
}


def test_adasyn_files_match_golden_hashes(tmp_path):
    for seed, out, interval in (("7", tmp_path, []),
                                ("4242", tmp_path / "seed4242",
                                 ["--interval", "9"])):
        run_ok(["simulate", "--seed", seed, "--out", str(out)])
        for stage in ("encode", "split"):
            run_ok([stage, "--seed", seed, *interval, "--out", str(out)])
        run_ok(["resample", "--seed", seed, *interval, "--method", "adasyn",
                "--out", str(out)])
    found = {name: hashlib.sha256(artifact_bytes(tmp_path, name))
             .hexdigest() for name in GOLDEN_ADASYN_SHA256}
    assert found == GOLDEN_ADASYN_SHA256


# sha256 of the model files that the benchmark's `suite` workload writes:
# `atrisk train --seed 7 --interval 9` with `[resample] method = adasyn`,
# for the kinds whose bytes need no BLAS call; every tree here grows on
# fractional synthetic rows
GOLDEN_ADASYN_MODEL_SHA256 = {
    "model_w9_random_forest.json":
        "c90331b61506c45858ffc6cb3b9eae5f1fa55cc3b05602f0e5d4287664a26b75",
    "model_w9_decision_tree.json":
        "11e0f80627f71b795f216b0fe81f167f7fd5d866d6706928b70b66bf67e2b065",
    "model_w9_knn.json":
        "424bdcbcec193d96ebbb31ab0e6d66c9343cc7d9649548b521dc13d8b5c58e89",
    "model_w9_naive_bayes.json":
        "a299a1665d9c21946718df0d9c77a89eab7ca1b54b773f381dc9e4a9d0e7801e",
}


def test_seed7_adasyn_model_files_match_golden_hashes(tmp_path):
    config = tmp_path / "adasyn.cfg"
    config.write_text("[resample]\nmethod = adasyn\n")
    common = ["--seed", "7", "--interval", "9", "--config", str(config),
              "--out", str(tmp_path / "run")]
    for stage in ("simulate", "encode", "split", "resample"):
        run_ok([stage, *common])
    for name in GOLDEN_ADASYN_MODEL_SHA256:
        kind = name[len("model_w9_"):-len(".json")]
        run_ok(["train", *common, "--model-kind", kind])
    found = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes())
             .hexdigest() for name in GOLDEN_ADASYN_MODEL_SHA256}
    assert found == GOLDEN_ADASYN_MODEL_SHA256


@pytest.mark.parametrize("seed, n_failing, cohort", [
    # 2 failing students: a 20% training share holds none of them
    pytest.param("13", 0, "n_students = 20\nfail_rate = 0.1\n"
                 "[split]\ntrain_fraction = 0.2\n", id="13-0"),
    # 2 failing students: an 80% training share holds one of them
    pytest.param("6", 1, "n_students = 21\nfail_rate = 0.1\n", id="6-1"),
])
def test_too_few_failing_rows_for_any_k(tmp_path, capsys, seed, n_failing,
                                        cohort):
    # 0 or 1 failing training rows are too few for k_neighbors = 1, the
    # smallest there is
    config = tmp_path / "tiny.cfg"
    config.write_text(f"[simulate]\n{cohort}[resample]\nk_neighbors = 1\n")
    err = _one_line_error(capsys, ["pipeline", "--seed", seed, "--config",
                                   str(config), "--out", str(tmp_path)])
    assert err == (f"atrisk pipeline: error: interval 3, "
                   f"{tmp_path / 'train_w3.csv'}: k_neighbors=1 needs at "
                   f"least 2 minority rows, got {n_failing}; no k_neighbors "
                   f"can work with fewer than 2 minority rows\n")


def test_fit_error_names_interval_and_training_file(tmp_path, capsys):
    # the one failing training row above without resampling: the fit
    # fails instead
    config = tmp_path / "tiny.cfg"
    config.write_text("[simulate]\nn_students = 21\nfail_rate = 0.1\n"
                      "[resample]\nmethod = none\n")
    err = _one_line_error(capsys, ["pipeline", "--seed", "6", "--config",
                                   str(config), "--out", str(tmp_path)])
    assert err == (f"atrisk pipeline: error: interval 3, "
                   f"{tmp_path / 'train_w3_none_provenance.csv'}: logreg "
                   f"requires >= 2 rows per class, got false=1, true=15\n")


def test_tune_without_feasible_cell_fails(tmp_path, config_file, capsys):
    out = tmp_path / "run"
    for stage in ("simulate", "encode", "split"):
        run_ok([stage, "--config", config_file, "--out", str(out)])
    bad = tmp_path / "k50.cfg"
    bad.write_text(BASE_CONFIG.replace("[tune]\nmethods = smote\n"
                                       "k_neighbors = 5\n",
                                       "[tune]\nmethods = smote\n"
                                       "k_neighbors = 20,50\n"))
    err = _one_line_error(capsys, ["tune", "--config", str(bad),
                                   "--out", str(out)])
    assert "no feasible grid cell" in err and "up to 50" in err
    assert not (out / "tune_w3_best.json").exists()
    # no resampling needs no minority rows: the none cells are feasible
    bad.write_text(bad.read_text().replace("methods = smote",
                                           "methods = smote,none"))
    run_ok(["tune", "--config", str(bad), "--out", str(out)])
    best = json.loads((out / "tune_w3_best.json").read_text())
    assert (best["method"], best["k_neighbors"]) == ("none", 0)
    lines = (out / "tune_w3.csv").read_text().splitlines()[1:]
    assert [line.split(",")[1:3] for line in lines] == \
        [["none", "0"]] * 2 + [["smote", "20"]] * 2 + [["smote", "50"]] * 2


def test_main_calls_freeze_nothing(tmp_path, config_file):
    # the import froze its heap once; a long-lived caller's runs stay
    # collectable.  The count may fall (a frozen object freed by its
    # reference count leaves the permanent generation), never rise.
    frozen = gc.get_freeze_count()
    for _ in range(2):
        run_ok(["simulate", "--config", config_file,
                "--out", str(tmp_path / "run")])
    assert gc.get_freeze_count() <= frozen


def _fresh_python(code, *args):
    """stdout of code run in a new interpreter that imports this atrisk."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_only_the_cli_import_freezes_the_heap():
    probe = ("import gc, atrisk; print(gc.get_freeze_count()); "
             "import atrisk.cli; print(gc.get_freeze_count())")
    library, command_line = map(int, _fresh_python(probe).split())
    assert library == 0
    assert command_line > 0


def test_a_cli_process_that_draws_numbers_loads_no_openssl():
    probe = """if True:
        import pathlib, sys, atrisk.cli, numpy
        numpy.random.default_rng(0)
        import hashlib
        print(sys.modules["_hashlib"] is None)
        maps = pathlib.Path("/proc/self/maps")  # the libraries mapped
        print(maps.read_text().count("libcrypto") if maps.exists()
              else "no-maps")
    """
    blocked, libcrypto = _fresh_python(probe).split()
    assert blocked == "True"
    if libcrypto == "no-maps":
        pytest.skip("no /proc/self/maps to read the mapped libraries from")
    assert libcrypto == "0"


def test_a_library_import_leaves_hashlib_alone():
    probe = """if True:
        import sys, atrisk, numpy
        numpy.random.default_rng(0)
        print(sys.modules.get("_hashlib", "not loaded") is not None)
        try:
            import _hashlib
        except ImportError:
            sys.exit(print("no-openssl"))
        import atrisk.cli  # a _hashlib loaded before the CLI stays
        print(sys.modules["_hashlib"] is _hashlib)
    """
    untouched, kept = _fresh_python(probe).split()
    assert untouched == "True"
    if kept == "no-openssl":
        pytest.skip("this Python was built without OpenSSL")
    assert kept == "True"


def test_a_cli_pipeline_child_writes_the_sha256_digests(tmp_path,
                                                         config_file):
    out = tmp_path / "run"
    _fresh_python("import sys; from atrisk.cli import main; "
                  "sys.exit(main(sys.argv[1:]))", "pipeline", "--config",
                  config_file, "--out", str(out))
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "summary.csv" in manifest["artifacts"]
    for name, digest in manifest["artifacts"].items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()


@pytest.mark.parametrize("stage", ["encode", "pipeline"])
def test_an_interval_past_the_last_week_fails_in_one_line(
        tmp_path, capsys, config_file, stage):
    # the default manifest ends at week 9: week 10 would be week 9's data
    out = tmp_path / "run"
    if stage == "encode":  # pipeline simulates its own cohort
        run_ok(["simulate", "--config", config_file, "--out", str(out)])
    err = _one_line_error(capsys, [stage, "--config", config_file,
                                   "--interval", "10", "--out", str(out)])
    assert err == (f"atrisk {stage}: error: interval 10 is past the "
                   f"manifest's last week 9\n")
    # pipeline checks every interval before it writes anything
    assert sorted(path.name for path in out.glob("*")) == (
        ["cohort.csv", "manifest.csv"] if stage == "encode" else [])


def test_an_ingested_manifest_refuses_a_late_interval_before_writing(
        tmp_path, capsys, config_file):
    source = tmp_path / "source"
    run_ok(["simulate", "--config", config_file, "--out", str(source)])
    out = tmp_path / "run"
    err = _one_line_error(capsys, [
        "pipeline", "--config", _ingest_config(tmp_path, source, "3,10"),
        "--out", str(out)])
    assert err == ("atrisk pipeline: error: interval 10 is past the "
                   "manifest's last week 9\n")
    assert not out.exists()
