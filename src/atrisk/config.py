"""Pipeline configuration: INI-style key=value files with section headers.

Each file key maps to one setting through ``_OPTIONS``.  The [simulate],
[split], [resample], [model] and [tune] sections fill their stage's own
settings object (SimConfig, SplitSpec, ResampleConfig, ModelSpec, GridSpec),
checked when the config is built, so a bad value fails before any stage
runs; [model] also takes the kind's hyperparameters as open keys.  Some keys
also have a CLI flag (README lists which), and a flag wins over its file
key.  Unknown sections or keys are rejected by dotted path (e.g.
"split.train_fractoin").  All stage randomness derives from one root seed
plus fixed per-stage offsets, keeping partial reruns consistent with full
pipeline runs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .data import SplitSpec, read_text
from .evaluation import THRESHOLD_RULE, GridSpec, check_axis
from .models import ModelSpec
from .resampling import ResampleConfig
from .simulate import SimConfig

# stage seed = run.seed + offset
SEED_OFFSETS = {
    "simulate": 0,
    "split": 1,
    "resample": 2,
    "train": 3,
    "tune": 4,
}


# pca.fit_on: fit PCA on every row, or on the real rows only
PCA_UNION, PCA_REAL_ONLY = PCA_FIT_ON = ("union", "real")


def _parse_number(text):
    """int when it looks integral, float otherwise, str as fallback."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


@dataclass
class PipelineConfig:
    """Fully resolved settings for every pipeline stage."""

    seed: int = 0
    cohort_path: str = ""        # empty -> simulate instead of ingest
    manifest_path: str = ""
    out_dir: str = "runs/default"
    intervals: tuple = (3, 6, 9)
    simulate: SimConfig = SimConfig()
    split: SplitSpec = SplitSpec()
    resample: ResampleConfig = ResampleConfig()
    model: ModelSpec = field(default_factory=lambda: ModelSpec("logreg"))
    # evaluate
    threshold: float = 0.5
    sweep_thresholds: tuple = ()  # optional grid; empty disables the sweep
    tune: GridSpec = GridSpec()
    # pca, of the resample.method set
    pca_fit_on: str = PCA_UNION

    def validate(self):
        """Check the settings that no stage's settings object owns."""
        for name, value, (ok, rule) in (
                ("run.seed", self.seed, (lambda s: s >= 0, ">= 0")),
                ("pca.fit_on", self.pca_fit_on, (lambda f: f in PCA_FIT_ON,
                 " or ".join(map(repr, PCA_FIT_ON)))),
                ("evaluate.threshold", self.threshold, THRESHOLD_RULE)):
            if not ok(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")
        if bool(self.cohort_path) != bool(self.manifest_path):
            given = "cohort" if self.cohort_path else "manifest"
            raise ValueError(f"paths.cohort and paths.manifest must be set "
                             f"together, got only paths.{given}")
        check_axis("data.intervals", self.intervals,
                   (lambda i: i >= 1, ">= 1"))
        if self.sweep_thresholds:
            check_axis("evaluate.thresholds", self.sweep_thresholds,
                       THRESHOLD_RULE)
        return self


def _real(text):
    """float(text), rejecting nan and inf, which pass range checks."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value}")
    return value


def _list(item):
    """Comma-separated values, each parsed by item; blank entries skipped."""
    return lambda text: tuple(item(p.strip()) for p in text.split(",")
                              if p.strip())


# (section, key) -> (PipelineConfig field or "stage.field", parser of the
# file text); [model] also takes the kind's hyperparameters as open keys,
# each a "model.<name>" setting parsed by _parse_number
_OPTIONS = {
    ("run", "seed"): ("seed", int),
    ("paths", "cohort"): ("cohort_path", str),
    ("paths", "manifest"): ("manifest_path", str),
    ("paths", "out"): ("out_dir", str),
    ("data", "intervals"): ("intervals", _list(int)),
    ("simulate", "n_students"): ("simulate.n_students", int),
    ("simulate", "fail_rate"): ("simulate.fail_rate", _real),
    ("simulate", "noise"): ("simulate.noise", _real),
    ("simulate", "ability_spread"): ("simulate.ability_spread", _real),
    ("simulate", "difficulty_spread"): ("simulate.difficulty_spread", _real),
    ("simulate", "labeling"): ("simulate.labeling", str),
    ("split", "train_fraction"): ("split.train_fraction", _real),
    ("resample", "method"): ("resample.method", str),
    ("resample", "k_neighbors"): ("resample.k_neighbors", int),
    ("model", "kind"): ("model.kind", str),
    ("evaluate", "threshold"): ("threshold", _real),
    ("evaluate", "thresholds"): ("sweep_thresholds", _list(_real)),
    ("tune", "methods"): ("tune.resample_methods", _list(str)),
    ("tune", "k_neighbors"): ("tune.k_neighbors_grid", _list(int)),
    ("tune", "c_values"): ("tune.c_grid", _list(_real)),
    ("tune", "l1_ratios"): ("tune.l1_ratios", _list(_real)),
    ("tune", "thresholds"): ("tune.thresholds", _list(_real)),
    ("tune", "folds"): ("tune.folds", int),
    ("tune", "metric"): ("tune.selection_metric", str),
    ("pca", "fit_on"): ("pca_fit_on", str),
}


def read_config(path):
    """Parse and schema-check a config file into {section: {key: str}}."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # hyperparameter names are case-sensitive (C)
    try:
        parser.read_string(read_text(path), source=path)
    except configparser.Error as exc:  # names the file and the line
        raise ValueError(" ".join(str(exc).split())) from None
    out = {}
    for section in parser.sections():
        if section not in {s for s, _ in _OPTIONS}:
            raise ValueError(f"unknown config section [{section}] in {path}")
        for key, value in parser.items(section):
            if section != "model" and (section, key) not in _OPTIONS:
                raise ValueError(f"unknown config key {section}.{key} "
                                 f"in {path}")
            out.setdefault(section, {})[key] = value
    return out


def _model_spec(default, settings, seed):
    """The [model] settings as a ModelSpec, of default's kind unless they
    name one; a kind that takes a seed and is given none gets seed."""
    new = ModelSpec(settings.pop("kind", default.kind), **settings)
    if "seed" in new.params and "seed" not in settings:
        new.params["seed"] = seed
    return new


def build_config(config_path=None, overrides=None):
    """Defaults <- config file <- CLI overrides keyed by _OPTIONS path."""
    values = {}
    raw = read_config(config_path) if config_path else {}
    for section, items in raw.items():
        for key, text in items.items():
            if (section, key) not in _OPTIONS:  # a [model] hyperparameter
                values[f"model.{key}"] = _parse_number(text)
                continue
            path, parse = _OPTIONS[section, key]
            try:
                values[path] = parse(text)
            except ValueError as exc:
                raise ValueError(f"{config_path}: {section}.{key}: "
                                 f"{exc}") from None
    paths = [path for path, _ in _OPTIONS.values()]
    for path, value in (overrides or {}).items():
        if path not in paths:
            raise ValueError(f"unknown override {path!r}")
        if value is not None:
            values[path] = value

    # a "stage.field" path sets a field of that stage's settings object
    staged = {path.partition(".")[0]: {} for path in paths if "." in path}
    flat = {}
    for path, value in values.items():
        if "." in path:  # split at the first: a hyperparameter may hold "."
            stage, name = path.split(".", 1)
            staged[stage][name] = value
        else:
            flat[path] = value
    cfg = PipelineConfig(**flat)
    for stage, settings in staged.items():
        old = getattr(cfg, stage)
        try:  # each settings object checks its own values
            if stage == "model":  # the train stage's settings
                new = _model_spec(old, settings,
                                  cfg.seed + SEED_OFFSETS["train"])
            else:
                new = replace(old, **settings,
                              seed=cfg.seed + SEED_OFFSETS[stage])
        except ValueError as exc:
            raise ValueError(f"[{stage}] {exc}") from None
        setattr(cfg, stage, new)
    return cfg.validate()
