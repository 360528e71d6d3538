"""Pipeline configuration: INI-style key=value files with section headers.

Each file key maps to one setting through ``_OPTIONS``.  The [simulate],
[split], [resample] and [tune] sections fill their stage's own settings
object (SimConfig, SplitSpec, ResampleConfig, GridSpec), checked when the
config is built, so a bad value fails before any stage runs.  Some keys
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

from .data import SplitSpec, _parse_bool
from .evaluation import GridSpec
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


def stage_seed(root_seed, stage):
    return root_seed + SEED_OFFSETS[stage]


def _parse_number(text):
    """int when it looks integral, float otherwise, str as fallback."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
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
    # model
    model_kind: str = "logreg"
    model_params: dict = field(default_factory=dict)
    train_input: str = "resampled"
    # evaluate
    threshold: float = 0.5
    sweep_thresholds: tuple = ()  # optional grid; empty disables the sweep
    tune: GridSpec = GridSpec()
    # pca
    pca_fit_on: str = "union"    # or "real"
    pca_method: str = ""         # empty -> resample.method

    def validate(self):
        if self.seed < 0:
            raise ValueError(f"run.seed must be >= 0, got {self.seed}")
        if self.train_input not in ("raw", "resampled"):
            raise ValueError(f"model.train_input must be 'raw' or "
                             f"'resampled', got {self.train_input!r}")
        if self.pca_fit_on not in ("union", "real"):
            raise ValueError(f"pca.fit_on must be 'union' or 'real', "
                             f"got {self.pca_fit_on!r}")
        if self.pca_method not in ("", "smote", "adasyn"):
            raise ValueError(f"pca.method must be empty, 'smote' or "
                             f"'adasyn', got {self.pca_method!r}")
        if not self.intervals:
            raise ValueError("data.intervals must be non-empty")
        if any(i < 1 for i in self.intervals):
            raise ValueError("data.intervals entries must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"evaluate.threshold must be in (0,1), "
                             f"got {self.threshold}")
        if any(not 0.0 < t < 1.0 for t in self.sweep_thresholds):
            raise ValueError("evaluate.thresholds must lie inside (0,1)")
        repeats = [t for i, t in enumerate(self.sweep_thresholds)
                   if t in self.sweep_thresholds[:i]]
        if repeats:
            raise ValueError(f"evaluate.thresholds entries must be "
                             f"distinct, got {repeats[0]!r}")
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
# file text); [model] also takes the kind's hyperparameters as open keys
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
    ("split", "stratified"): ("split.stratified", _parse_bool),
    ("resample", "method"): ("resample.method", str),
    ("resample", "k_neighbors"): ("resample.k_neighbors", int),
    ("model", "kind"): ("model_kind", str),
    ("model", "train_input"): ("train_input", str),
    ("evaluate", "threshold"): ("threshold", _real),
    ("evaluate", "thresholds"): ("sweep_thresholds", _list(_real)),
    ("tune", "methods"): ("tune.resample_methods", _list(str)),
    ("tune", "k_neighbors"): ("tune.k_neighbors_grid", _list(int)),
    ("tune", "penalties"): ("tune.penalties", _list(str)),
    ("tune", "c_values"): ("tune.c_grid", _list(_real)),
    ("tune", "l1_ratios"): ("tune.l1_ratios", _list(_real)),
    ("tune", "thresholds"): ("tune.thresholds", _list(_real)),
    ("tune", "folds"): ("tune.folds", int),
    ("tune", "metric"): ("tune.selection_metric", str),
    ("pca", "fit_on"): ("pca_fit_on", str),
    ("pca", "method"): ("pca_method", str),
}


def read_config(path):
    """Parse and schema-check a config file into {section: {key: str}}."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # hyperparameter names are case-sensitive (C)
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=path)
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


def build_config(config_path=None, overrides=None):
    """Defaults <- config file <- CLI overrides keyed by _OPTIONS path."""
    values, params = {}, {}
    raw = read_config(config_path) if config_path else {}
    for section, items in raw.items():
        for key, text in items.items():
            if (section, key) not in _OPTIONS:  # a [model] hyperparameter
                params[key] = _parse_number(text)
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
        stage, _, name = path.rpartition(".")
        (staged[stage] if stage else flat)[name] = value
    cfg = PipelineConfig(model_params=params, **flat)
    for stage, settings in staged.items():
        try:  # the object's own __post_init__ checks its values
            setattr(cfg, stage, replace(getattr(cfg, stage), **settings,
                                        seed=stage_seed(cfg.seed, stage)))
        except ValueError as exc:
            raise ValueError(f"[{stage}] {exc}") from None
    return cfg.validate()
