"""Config file and CLI flags: every option reaches its setting, either a
PipelineConfig field or a field of a stage's settings object."""

import argparse
from functools import reduce
from pathlib import Path

import pytest

from atrisk import cli
from atrisk.config import _OPTIONS, PCA_FIT_ON, PipelineConfig, build_config
from atrisk.data import SplitSpec
from atrisk.evaluation import GridSpec
from atrisk.models import ModelSpec
from atrisk.resampling import METHODS, ResampleConfig
from atrisk.simulate import SimConfig

# every file key, each set to a value that differs from its default
ALL_KEYS_CONFIG = """\
[run]
seed = 11

[paths]
cohort = cohorts/c.csv
manifest = cohorts/m.csv
out = runs/all

[data]
intervals = 2, 4

[simulate]
n_students = 50
fail_rate = 0.2
noise = 0.1
ability_spread = 1.5
difficulty_spread = 0.5
labeling = stochastic

[split]
train_fraction = 0.7

[resample]
method = none
k_neighbors = 3

[model]
kind = svm_rbf
C = 2
gamma = scale
tolerance = 0.01

[evaluate]
threshold = 0.4
thresholds = 0.3,0.6

[tune]
methods = none, adasyn
k_neighbors = 3,7
c_values = 0.1,1
l1_ratios = 0.5
thresholds = 0.4,0.5
folds = 3
metric = recall_false

[pca]
fit_on = real
"""


def _setting(cfg, path):
    """The value an _OPTIONS path points at, e.g. "resample.method"."""
    return reduce(getattr, path.split("."), cfg)


def test_every_file_key_reaches_its_field(tmp_path):
    path = tmp_path / "all.cfg"
    path.write_text(ALL_KEYS_CONFIG)
    cfg = build_config(str(path))
    # stage seeds are run.seed plus the stage's offset
    assert cfg == PipelineConfig(
        seed=11, cohort_path="cohorts/c.csv", manifest_path="cohorts/m.csv",
        out_dir="runs/all", intervals=(2, 4),
        simulate=SimConfig(n_students=50, fail_rate=0.2, noise=0.1,
                           ability_spread=1.5, difficulty_spread=0.5,
                           labeling="stochastic", seed=11),
        split=SplitSpec(train_fraction=0.7, seed=12),
        resample=ResampleConfig(method="none", k_neighbors=3, seed=13),
        model=ModelSpec("svm_rbf", C=2, gamma="scale", tolerance=0.01),
        threshold=0.4, sweep_thresholds=(0.3, 0.6),
        tune=GridSpec(resample_methods=("none", "adasyn"),
                      k_neighbors_grid=(3, 7), c_grid=(0.1, 1.0),
                      l1_ratios=(0.5,), thresholds=(0.4, 0.5), folds=3,
                      selection_metric="recall_false", seed=15),
        pca_fit_on="real")
    assert type(cfg.model.params["C"]) is int
    default = build_config()
    for option, _ in _OPTIONS.values():
        assert _setting(cfg, option) != _setting(default, option), option
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for section, key in _OPTIONS:
        assert f"`{section}.{key}`" in readme, (section, key)


ALL_COMMANDS = tuple(cli._COMMANDS)

# (flag argv, _OPTIONS path, value, subcommands that take the flag)
FLAG_CASES = [
    (["--seed", "9"], "seed", 9, ALL_COMMANDS),
    (["--out", "runs/x"], "out_dir", "runs/x", ALL_COMMANDS),
    (["--interval", "6"], "intervals", (6,), ALL_COMMANDS),
    (["--threshold", "0.4"], "threshold", 0.4, ("evaluate",)),
    (["--method", "none"], "resample.method", "none", ("resample",)),
    (["--method", "adasyn"], "resample.method", "adasyn", ("pca-export",)),
    (["--k-neighbors", "3"], "resample.k_neighbors", 3, ("resample",)),
    (["--model-kind", "knn"], "model.kind", "knn",
     ("evaluate", "train", "pipeline")),
    (["--metric", "recall_false"], "tune.selection_metric", "recall_false",
     ("tune",)),
    (["--real-only"], "pca_fit_on", "real", ("pca-export",)),
]


def test_each_flag_reaches_its_field(monkeypatch):
    seen = {}
    monkeypatch.setattr(cli, "_run",
                        lambda command, cfg, *rest: seen.update(cfg=cfg))
    for argv, option, value, commands in FLAG_CASES:
        expected = build_config(overrides={option: value})
        assert _setting(expected, option) == value
        for command in commands:
            seen.clear()
            assert cli.main([command, *argv]) == 0
            assert seen["cfg"] == expected, (command, argv)


def test_every_flag_dest_is_a_config_field():
    names = {option for option, _ in _OPTIONS.values()}
    names |= {"help", "config", "model_file", "test_file"}
    parser = cli._parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            assert action.dest in names, (command, action.dest)


def test_parser_builds_exactly_these_flags(capsys):
    # the flag table moves no flag to another command
    common = {"-h", "--help", "--config", "--seed", "--out", "--interval"}
    own = {
        "simulate": set(),
        "encode": set(),
        "split": set(),
        "resample": {"--method", "--k-neighbors"},
        "train": {"--model-kind"},
        "evaluate": {"--threshold", "--model-file", "--test-file",
                     "--model-kind"},
        "tune": {"--metric"},
        "pca-export": {"--method", "--real-only"},
        "pipeline": {"--model-kind"},
    }
    subparsers = next(a for a in cli._parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {(command, flag) for command, sub in subparsers.choices.items()
            for action in sub._actions for flag in action.option_strings} \
        == {(command, flag) for command, flags in own.items()
            for flag in common | flags}
    with pytest.raises(SystemExit):
        cli.main(["encode", "--interval", "x"])
    assert "argument --interval: invalid interval value: 'x'" in \
        capsys.readouterr().err


def _subcommand_action(command, dest):
    parser = cli._parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    return next(a for a in subparsers.choices[command]._actions
                if a.dest == dest)


def assert_validates_exactly(option, values):
    """build_config accepts each of values for option, and nothing else."""
    for value in values:
        assert _setting(build_config(overrides={option: value}),
                        option) == value
    rule = " or ".join(map(repr, values))
    with pytest.raises(ValueError, match=f"must be {rule}, got 'other'$"):
        build_config(overrides={option: "other"})


def test_method_flags_offer_the_validated_methods():
    assert _subcommand_action("resample", "resample.method").choices == \
        _subcommand_action("pca-export", "resample.method").choices == \
        METHODS
    assert_validates_exactly("resample.method", METHODS)
    assert build_config(overrides={"tune.resample_methods": ("none",)}) \
        .tune.resample_methods == ("none",)


def test_real_only_flag_sets_a_validated_value():
    assert _subcommand_action("pca-export", "pca_fit_on").const in PCA_FIT_ON
    assert_validates_exactly("pca_fit_on", PCA_FIT_ON)


def test_infinite_c_value_fails_on_its_config_key(tmp_path):
    # GridSpec rejects inf too, but the file's parser names the key first
    path = tmp_path / "inf.cfg"
    path.write_text("[tune]\nc_values = 0.1, inf\n")
    with pytest.raises(ValueError) as err:
        build_config(path)
    assert str(err.value) == \
        f"{path}: tune.c_values: must be a finite number, got inf"
