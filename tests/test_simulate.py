"""Simulator shape, determinism, and label/feature coupling."""

import numpy as np
import pytest

from atrisk import SimConfig, encode, save_cohort, simulate


def small_config(**kw):
    defaults = dict(n_students=60, tasks_per_week=(4, 4, 4), seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


def test_default_config_shape(default_cohort):
    records, manifest = default_cohort
    assert len(records) == 379
    assert len(manifest) == 150
    assert len(manifest.through_week(3)) == 43
    assert len(manifest.through_week(6)) == 106


def test_default_failing_count_is_pinned_and_in_band():
    # quantile labeling pins the count to round(0.15 * 379) = 57 exactly,
    # which sits inside the looser binomial band used for stochastic mode
    for seed in range(8):
        records, _ = simulate(SimConfig(seed=seed))
        failing = sum(1 for r in records if not r.passed)
        assert failing == 57
        assert 47 <= failing <= 67


def test_stochastic_failing_count_within_binomial_band():
    # three-sigma binomial band computed analytically from the config
    n, p = 379, 0.15
    sd = np.sqrt(n * p * (1 - p))
    low, high = n * p - 3 * sd, n * p + 3 * sd
    for seed in range(30):
        records, _ = simulate(SimConfig(seed=seed, labeling="stochastic"))
        failing = sum(1 for r in records if not r.passed)
        assert low <= failing <= high


def test_exact_quantile_count_other_sizes():
    for n_students, fail_rate in ((60, 0.25), (101, 0.1), (379, 0.15)):
        config = small_config(n_students=n_students, fail_rate=fail_rate)
        records, _ = simulate(config)
        failing = sum(1 for r in records if not r.passed)
        assert failing == int(round(fail_rate * n_students))


def test_same_seed_byte_identical_export(tmp_path):
    for variant in ("a", "b"):
        records, manifest = simulate(SimConfig(seed=123))
        save_cohort(records, tmp_path / f"cohort_{variant}.csv")
        manifest.to_csv(tmp_path / f"manifest_{variant}.csv")
    assert (tmp_path / "cohort_a.csv").read_bytes() == \
        (tmp_path / "cohort_b.csv").read_bytes()
    assert (tmp_path / "manifest_a.csv").read_bytes() == \
        (tmp_path / "manifest_b.csv").read_bytes()


def test_different_seeds_differ():
    a, _ = simulate(small_config(seed=1))
    b, _ = simulate(small_config(seed=2))
    assert a != b


def test_noiseless_high_spread_is_monotone():
    # with noise 0 and saturated abilities, correctness is a pure threshold
    # on task difficulty, so task columns are nested under set inclusion
    config = small_config(noise=0.0, ability_spread=1e6, seed=5)
    records, manifest = simulate(config)
    matrix = encode(records, manifest, 3).features.astype(bool)
    order = np.argsort(-matrix.sum(axis=0), kind="stable")
    for a, b in zip(order[:-1], order[1:]):
        # smaller column is a subset of the larger one
        assert not np.any(matrix[:, b] & ~matrix[:, a])


def test_passing_students_solve_more_every_seed():
    for seed in range(25):
        records, _ = simulate(small_config(seed=seed))
        passing = [len(r.right_answers) for r in records if r.passed]
        failing = [len(r.right_answers) for r in records if not r.passed]
        assert np.mean(passing) > np.mean(failing)


def test_records_satisfy_invariants(default_cohort):
    records, manifest = default_cohort
    ids = [r.student_id for r in records]
    assert len(set(ids)) == len(ids)
    for record in records:
        record.validate_against(manifest)
        assert set(record.right_answers).isdisjoint(record.wrong_answers)


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
