"""Synthetic cohort generator with the target shape: 379 students, 85:15
pass/fail, and 43/106/150 cumulative task counts at weeks 3/6/9.

Students draw a latent ability; tasks draw a difficulty that drifts upward
by +0.15 standardised units per week; correctness is a logistic function of
(ability - difficulty), optionally flipped with a small noise probability.
Ability drives both task outcomes and the pass/fail label, so oversampling
a simulated cohort has real signal to amplify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Cohort, TaskId, TaskManifest
from .models.logistic import sigmoid

# per-week difficulty drift, standardised units
WEEK_DRIFT = 0.15

# cumulative counts hit 43 / 106 / 150 at weeks 3 / 6 / 9
DEFAULT_TASKS_PER_WEEK = (14, 14, 15, 21, 21, 21, 15, 15, 14)


@dataclass(frozen=True)
class SimConfig:
    """Cohort simulation parameters; defaults reproduce the target shape."""

    n_students: int = 379
    fail_rate: float = 0.15
    tasks_per_week: tuple = DEFAULT_TASKS_PER_WEEK  # one count per week
    ability_spread: float = 1.0
    difficulty_spread: float = 1.0
    # 0.15 keeps enough class overlap that a threshold-0.5 baseline model
    # genuinely under-recalls the minority, mirroring the small-cohort regime
    noise: float = 0.15
    seed: int = 0
    # "quantile" pins the failing count to round(fail_rate * n_students);
    # "stochastic" thresholds against the theoretical ability distribution,
    # so the failing count is Binomial(n_students, fail_rate).
    labeling: str = "quantile"

    def __post_init__(self):
        if self.n_students < 10:
            raise ValueError(f"n_students must be >= 10, got {self.n_students}")
        if not 0.0 < self.fail_rate < 1.0:
            raise ValueError(f"fail_rate must be in (0,1), got {self.fail_rate}")
        if any(c < 0 for c in self.tasks_per_week):
            raise ValueError("tasks_per_week entries must be >= 0")
        if sum(self.tasks_per_week) < 1:
            raise ValueError("simulation needs at least one task")
        if self.ability_spread <= 0 or self.difficulty_spread <= 0:
            raise ValueError("ability_spread and difficulty_spread must be > 0")
        if not 0.0 <= self.noise <= 0.5:
            raise ValueError(f"noise must be in [0, 0.5], got {self.noise}")
        if self.labeling not in ("quantile", "stochastic"):
            raise ValueError(f"labeling must be 'quantile' or 'stochastic', "
                             f"got {self.labeling!r}")


def build_manifest(tasks_per_week):
    """Manifest with zero-padded names (w03_t07, ...) so lexicographic order
    groups tasks by week and interval columns are prefixes of each other."""
    return TaskManifest(TaskId(name=f"w{week:02d}_t{t:02d}", week=week)
                        for week, count in enumerate(tasks_per_week, start=1)
                        for t in range(1, count + 1))


def default_manifest():
    """The reference manifest (43/106/150 cumulative task counts)."""
    return build_manifest(DEFAULT_TASKS_PER_WEEK)


def simulate(config):
    """A cohort drawn from config.seed, and its manifest."""
    manifest = build_manifest(config.tasks_per_week)
    tasks = manifest.tasks
    rng = np.random.default_rng(config.seed)

    ability = rng.normal(0.0, config.ability_spread, size=config.n_students)
    weeks = np.array([t.week for t in tasks], dtype=np.float64)
    difficulty = rng.normal(0.0, config.difficulty_spread, size=len(tasks)) \
        + WEEK_DRIFT * (weeks - 1.0)

    p_correct = sigmoid(ability[:, None] - difficulty[None, :])
    correct = rng.random(p_correct.shape) < p_correct
    if config.noise > 0:
        flips = rng.random(p_correct.shape) < config.noise
        correct ^= flips

    if config.labeling == "quantile":
        n_fail = int(round(config.fail_rate * config.n_students))
        threshold = np.sort(ability)[n_fail - 1] if n_fail else -np.inf
    else:
        from statistics import NormalDist  # here: quantile runs never need it
        threshold = NormalDist(0.0, config.ability_spread).inv_cdf(
            config.fail_rate)
    passed = ability > threshold

    n = config.n_students
    return Cohort(manifest, tuple(f"s{i:04d}" for i in range(n)),
                  ("sim",) * n, passed, correct.astype(np.int8)), manifest
