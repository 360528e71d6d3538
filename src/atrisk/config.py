"""Pipeline configuration: INI-style key=value files with section headers.

Each file key maps to one PipelineConfig field through ``_OPTIONS``.  Some
fields also have a CLI flag (README lists which), and a flag wins over its
file key.  Unknown sections or keys are rejected by dotted path (e.g.
"split.train_fractoin") so config drift surfaces immediately.  All stage
randomness derives from one root seed plus fixed per-stage offsets, keeping
partial reruns consistent with full pipeline runs.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from .data import _parse_bool
from .evaluation import GridSpec

# stage seed = run.seed + offset
SEED_OFFSETS = {
    "simulate": 0,
    "split": 1,
    "resample": 2,
    "train": 3,
    "tune": 4,
    "pca": 5,
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
    # simulate
    n_students: int = 379
    fail_rate: float = 0.15
    noise: float = 0.15
    ability_spread: float = 1.0
    difficulty_spread: float = 1.0
    labeling: str = "quantile"
    # split
    train_fraction: float = 0.8
    stratified: bool = True
    # resample
    resample_method: str = "smote"
    k_neighbors: int = 5
    # model
    model_kind: str = "logreg"
    model_params: dict = field(default_factory=dict)
    train_input: str = "resampled"
    # evaluate
    threshold: float = 0.5
    sweep_thresholds: tuple = ()  # optional grid; empty disables the sweep
    # tune
    tune_methods: tuple = GridSpec.resample_methods
    tune_k_neighbors: tuple = GridSpec.k_neighbors_grid
    tune_penalties: tuple = GridSpec.penalties
    tune_c_values: tuple = GridSpec.c_grid
    tune_l1_ratios: tuple = GridSpec.l1_ratios
    tune_thresholds: tuple = GridSpec.thresholds
    tune_folds: int = GridSpec.folds
    tune_metric: str = GridSpec.selection_metric
    # pca
    pca_fit_on: str = "union"    # or "real"
    pca_method: str = ""         # empty -> resample_method

    def validate(self):
        if self.train_input not in ("raw", "resampled"):
            raise ValueError(f"model.train_input must be 'raw' or "
                             f"'resampled', got {self.train_input!r}")
        if self.pca_fit_on not in ("union", "real"):
            raise ValueError(f"pca.fit_on must be 'union' or 'real', "
                             f"got {self.pca_fit_on!r}")
        if not self.intervals:
            raise ValueError("data.intervals must be non-empty")
        if any(i < 1 for i in self.intervals):
            raise ValueError("data.intervals entries must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"split.train_fraction must be in (0,1), "
                             f"got {self.train_fraction}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"evaluate.threshold must be in (0,1), "
                             f"got {self.threshold}")
        if any(not 0.0 < t < 1.0 for t in self.sweep_thresholds):
            raise ValueError("evaluate.thresholds must lie inside (0,1)")
        return self


def _list(item):
    """Comma-separated values, each parsed by item; blank entries skipped."""
    return lambda text: tuple(item(p.strip()) for p in text.split(",")
                              if p.strip())


# (section, key) -> (PipelineConfig field, parser of the file text);
# [model] also takes the chosen kind's hyperparameters as open keys
_OPTIONS = {
    ("run", "seed"): ("seed", int),
    ("paths", "cohort"): ("cohort_path", str),
    ("paths", "manifest"): ("manifest_path", str),
    ("paths", "out"): ("out_dir", str),
    ("data", "intervals"): ("intervals", _list(int)),
    ("simulate", "n_students"): ("n_students", int),
    ("simulate", "fail_rate"): ("fail_rate", float),
    ("simulate", "noise"): ("noise", float),
    ("simulate", "ability_spread"): ("ability_spread", float),
    ("simulate", "difficulty_spread"): ("difficulty_spread", float),
    ("simulate", "labeling"): ("labeling", str),
    ("split", "train_fraction"): ("train_fraction", float),
    ("split", "stratified"): ("stratified", _parse_bool),
    ("resample", "method"): ("resample_method", str),
    ("resample", "k_neighbors"): ("k_neighbors", int),
    ("model", "kind"): ("model_kind", str),
    ("model", "train_input"): ("train_input", str),
    ("evaluate", "threshold"): ("threshold", float),
    ("evaluate", "thresholds"): ("sweep_thresholds", _list(float)),
    ("tune", "methods"): ("tune_methods", _list(str)),
    ("tune", "k_neighbors"): ("tune_k_neighbors", _list(int)),
    ("tune", "penalties"): ("tune_penalties", _list(str)),
    ("tune", "c_values"): ("tune_c_values", _list(float)),
    ("tune", "l1_ratios"): ("tune_l1_ratios", _list(float)),
    ("tune", "thresholds"): ("tune_thresholds", _list(float)),
    ("tune", "folds"): ("tune_folds", int),
    ("tune", "metric"): ("tune_metric", str),
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
    """Defaults <- config file <- CLI overrides; returns PipelineConfig."""
    cfg = PipelineConfig()
    raw = read_config(config_path) if config_path else {}
    for section, values in raw.items():
        for key, text in values.items():
            if (section, key) not in _OPTIONS:  # a [model] hyperparameter
                cfg.model_params[key] = _parse_number(text)
                continue
            name, parse = _OPTIONS[section, key]
            try:
                setattr(cfg, name, parse(text))
            except ValueError as exc:
                raise ValueError(f"{config_path}: {section}.{key}: "
                                 f"{exc}") from None

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if not any(f.name == key for f in fields(PipelineConfig)):
            raise ValueError(f"unknown override {key!r}")
        setattr(cfg, key, value)
    return cfg.validate()
