"""Simulator shape, determinism, and label/feature coupling."""

import numpy as np
import pytest

from atrisk import SimConfig, encode, load_cohort, save_cohort, simulate


def small_config(**kw):
    defaults = dict(n_students=60, tasks_per_week=(4, 4, 4), seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


def test_default_config_shape(default_cohort):
    cohort, manifest = default_cohort
    assert len(cohort) == 379
    assert len(manifest) == 150
    assert sum(t.week <= 3 for t in manifest.tasks) == 43
    assert sum(t.week <= 6 for t in manifest.tasks) == 106


def test_default_failing_count_is_pinned_and_in_band():
    # quantile labeling pins the count to round(0.15 * 379) = 57 exactly,
    # which sits inside the looser binomial band used for stochastic mode
    for seed in range(8):
        cohort, _ = simulate(SimConfig(seed=seed))
        failing = int((~cohort.passed).sum())
        assert failing == 57
        assert 47 <= failing <= 67


def test_stochastic_failing_count_within_binomial_band():
    # three-sigma binomial band computed analytically from the config
    n, p = 379, 0.15
    sd = np.sqrt(n * p * (1 - p))
    low, high = n * p - 3 * sd, n * p + 3 * sd
    for seed in range(30):
        cohort, _ = simulate(SimConfig(seed=seed, labeling="stochastic"))
        failing = int((~cohort.passed).sum())
        assert low <= failing <= high


def test_exact_quantile_count_other_sizes():
    for n_students, fail_rate in ((60, 0.25), (101, 0.1), (379, 0.15)):
        config = small_config(n_students=n_students, fail_rate=fail_rate)
        cohort, _ = simulate(config)
        failing = int((~cohort.passed).sum())
        assert failing == int(round(fail_rate * n_students))


def test_same_seed_byte_identical_export(tmp_path):
    for variant in ("a", "b"):
        cohort, manifest = simulate(SimConfig(seed=123))
        save_cohort(cohort, tmp_path / f"cohort_{variant}.csv")
        manifest.to_csv(tmp_path / f"manifest_{variant}.csv")
    assert (tmp_path / "cohort_a.csv").read_bytes() == \
        (tmp_path / "cohort_b.csv").read_bytes()
    assert (tmp_path / "manifest_a.csv").read_bytes() == \
        (tmp_path / "manifest_b.csv").read_bytes()


def test_different_seeds_differ():
    a, _ = simulate(small_config(seed=1))
    b, _ = simulate(small_config(seed=2))
    assert not np.array_equal(a.outcomes, b.outcomes)


def test_noiseless_high_spread_is_monotone():
    # with noise 0 and saturated abilities, correctness is a pure threshold
    # on task difficulty, so task columns are nested under set inclusion
    config = small_config(noise=0.0, ability_spread=1e6, seed=5)
    cohort, _ = simulate(config)
    matrix = encode(cohort, 3).features.astype(bool)
    order = np.argsort(-matrix.sum(axis=0), kind="stable")
    for a, b in zip(order[:-1], order[1:]):
        # smaller column is a subset of the larger one
        assert not np.any(matrix[:, b] & ~matrix[:, a])


def test_passing_students_solve_more_every_seed():
    for seed in range(25):
        cohort, _ = simulate(small_config(seed=seed))
        right = (cohort.outcomes == 1).sum(axis=1)
        passing = right[cohort.passed]
        failing = right[~cohort.passed]
        assert np.mean(passing) > np.mean(failing)


def test_records_satisfy_invariants(tmp_path, default_cohort):
    cohort, manifest = default_cohort
    ids = cohort.student_ids
    assert len(set(ids)) == len(ids)
    assert cohort.manifest is manifest
    # the simulator attempts every task: each is right or wrong, not both
    assert set(np.unique(cohort.outcomes)) == {0, 1}
    # and the loader, which checks against the manifest, takes it back
    save_cohort(cohort, tmp_path / "cohort.csv")
    again = load_cohort(tmp_path / "cohort.csv", manifest)
    assert np.array_equal(again.outcomes, cohort.outcomes)


def test_config_validation():
    with pytest.raises(ValueError, match="n_students"):
        SimConfig(n_students=5)
    with pytest.raises(ValueError, match="fail_rate"):
        SimConfig(fail_rate=0.0)
    with pytest.raises(ValueError, match="at least one task"):
        SimConfig(tasks_per_week=(0, 0))
    with pytest.raises(ValueError, match="noise"):
        SimConfig(noise=0.9)
    with pytest.raises(ValueError, match="labeling"):
        SimConfig(labeling="fixed")
