"""CLI stages: artifact chain, config handling, determinism, guards."""

import json

import numpy as np
import pytest

from atrisk import cli
from atrisk.cli import main
from atrisk.data import LabeledDataset, TaskManifest
from atrisk.models import MODEL_KINDS

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
    assert (tmp_path / "run" / "train_w3_smote.csv").exists()
    assert (tmp_path / "run" / "train_w3_smote_provenance.csv").exists()
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


def test_pipeline_reads_back_no_artifact(tmp_path, config_file,
                                         monkeypatch):
    def refuse(path, *rest):
        raise AssertionError(f"pipeline re-read {path}")

    monkeypatch.setattr(cli, "load_cohort", refuse)
    monkeypatch.setattr(cli, "load_model", refuse)
    monkeypatch.setattr(LabeledDataset, "from_csv", refuse)
    monkeypatch.setattr(TaskManifest, "from_csv", refuse)
    run_ok(["pipeline", "--config", config_file,
            "--out", str(tmp_path / "run")])


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
    pytest.param("logreg", "train_input = raw\n", "smote", id="logreg-raw"),
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
    code = main(["evaluate", "--config", config_file, "--out", out,
                 "--test-file", str(tmp_path / "run" / "train_w3_smote.csv")])
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


def test_train_on_raw_input(tmp_path, config_file):
    out = str(tmp_path / "run")
    for stage in ("simulate", "encode", "split"):
        run_ok([stage, "--config", config_file, "--out", out])
    run_ok(["train", "--config", config_file, "--out", out,
            "--train-input", "raw"])
    assert (tmp_path / "run" / "model_w3_logreg.json").exists()


def test_interval_flag_restricts(tmp_path):
    out = tmp_path / "run"
    run_ok(["simulate", "--out", str(out), "--seed", "3"])
    run_ok(["encode", "--out", str(out), "--interval", "6"])
    assert (out / "dataset_w6.csv").exists()
    assert not (out / "dataset_w3.csv").exists()


def test_ingest_existing_cohort(tmp_path, config_file):
    source = tmp_path / "source"
    run_ok(["simulate", "--config", config_file, "--out", str(source)])
    cfg = tmp_path / "ingest.cfg"
    cfg.write_text(BASE_CONFIG + f"""
[paths]
cohort = {source / 'cohort.csv'}
manifest = {source / 'manifest.csv'}
""")
    out = tmp_path / "run"
    run_ok(["pipeline", "--config", str(cfg), "--out", str(out)])
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
    ("[split]\nstratified = yes\n", "split.stratified"),
    ("[data]\nintervals = 3,x\n", "data.intervals"),
    ("[tune]\nc_values = 0.1,high\n", "tune.c_values"),
])
def test_bad_config_value_names_file_and_key(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    err = _one_line_error(capsys, ["simulate", "--config", str(bad),
                                   "--out", str(tmp_path / "x")])
    assert f"{bad}: {where}: " in err


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


@pytest.mark.parametrize("model, flags, expected", [
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
])
@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_bad_model_fails_before_any_stage(tmp_path, capsys, model, flags,
                                          expected, command):
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
    ("[tune]\nc_values = inf\n", "tune.c_values", "inf"),
    ("[simulate]\nability_spread = nan\n", "simulate.ability_spread", "nan"),
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
