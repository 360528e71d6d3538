"""Cohort loading, one-hot encoding, and split behaviour."""

import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from atrisk import (Cohort, LabeledDataset, ModelSpec, SimConfig, SplitSpec,
                    TaskId, TaskManifest, default_manifest, encode, fit,
                    load_cohort, load_model, load_resampled, save_cohort,
                    simulate, split)
from atrisk.cli import main
from atrisk.config import read_config
from atrisk.data import read_rows, write_csv, write_json
from conftest import make_dataset
from oracles import csv_file_oracle, dataset_csv_oracle, json_file_oracle


@pytest.fixture
def small_manifest():
    return TaskManifest([TaskId("w01_t01", 1), TaskId("w01_t02", 1),
                         TaskId("w02_t01", 2), TaskId("w03_t01", 3)])


def write_cohort(path, rows):
    header = "student_id,cohort,passed,right_answers,wrong_answers"
    path.write_text("\n".join([header, *rows]) + "\n")


def one_student(manifest, right=(), wrong=(), passed=True):
    """A cohort of one student, s1, with tasks right and wrong by name."""
    names = manifest.names()
    outcomes = [1 if n in right else 0 if n in wrong else -1 for n in names]
    return Cohort(manifest, ("s1",), ("c",), [passed], [outcomes])


# --- manifest ---------------------------------------------------------------

def test_manifest_orders_lexicographically():
    manifest = TaskManifest([TaskId("b", 2), TaskId("a", 1), TaskId("c", 1)])
    assert manifest.names() == ("a", "b", "c")


def test_manifest_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate task names"):
        TaskManifest([TaskId("a", 1), TaskId("a", 2)])


def test_task_id_validation():
    with pytest.raises(ValueError, match="non-empty"):
        TaskId("", 1)
    with pytest.raises(ValueError, match="week must be >= 1"):
        TaskId("a", 0)
    # '|' separates the tasks of a cohort CSV list
    with pytest.raises(ValueError, match=r"'w01_b\|c' contains '\|'"):
        TaskId("w01_b|c", 1)


def test_reference_manifest_interval_counts():
    weeks = [t.week for t in default_manifest().tasks]
    assert sum(w <= 3 for w in weeks) == 43
    assert sum(w <= 6 for w in weeks) == 106
    assert sum(w <= 9 for w in weeks) == 150


def test_interval_columns_are_prefixes():
    tasks = default_manifest().tasks
    names3, names6, names9 = ([t.name for t in tasks if t.week <= week]
                              for week in (3, 6, 9))
    assert names6[:len(names3)] == names3
    assert names9[:len(names6)] == names6


def test_manifest_csv_round_trip(tmp_path, small_manifest):
    path = tmp_path / "manifest.csv"
    small_manifest.to_csv(path)
    again = TaskManifest.from_csv(path)
    assert again.names() == small_manifest.names()
    assert [t.week for t in again.tasks] == \
        [t.week for t in small_manifest.tasks]


@pytest.mark.parametrize("text, reason", [
    ("task,week\nw01_a,1\nw01_b|c,1\n",
     "3: task name 'w01_b|c' contains '|', which separates the tasks of a "
     "cohort CSV list"),
    ('"task,week\nw01_a,1\n', "1: malformed CSV: unexpected end of data"),
])
def test_bad_manifest_file_names_line(tmp_path, text, reason):
    path = tmp_path / "manifest.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        TaskManifest.from_csv(path)
    assert str(info.value) == f"{path}:{reason}"


# --- cohort loading ---------------------------------------------------------

def test_load_cohort_happy_path(tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    write_cohort(path, [
        "s1,2023,true,w01_t01|w02_t01,w01_t02",
        "s2,2023,false,,w01_t01|w01_t02",
        "s3,2024,true,,",
    ])
    cohort = load_cohort(path, small_manifest)
    assert cohort.student_ids == ("s1", "s2", "s3")
    assert cohort.cohorts == ("2023", "2023", "2024")
    # tasks w01_t01, w01_t02, w02_t01, w03_t01: s1 has w01_t01 and w02_t01
    # right, w01_t02 wrong and w03_t01 unattempted
    assert cohort.outcomes.tolist() == [[1, 0, 1, -1], [0, 0, -1, -1],
                                        [-1, -1, -1, -1]]
    assert cohort.passed.tolist() == [True, False, True]


def test_load_cohort_379_simulated_rows(tmp_path, default_cohort):
    cohort, manifest = default_cohort
    path = tmp_path / "cohort.csv"
    save_cohort(cohort, path)
    loaded = load_cohort(path, manifest)
    assert len(loaded) == 379
    assert loaded.student_ids == cohort.student_ids
    assert loaded.cohorts == cohort.cohorts
    assert np.array_equal(loaded.passed, cohort.passed)
    assert np.array_equal(loaded.outcomes, cohort.outcomes)


def test_load_cohort_rejects_task_in_both_lists(tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    write_cohort(path, ["s1,2023,false,w01_t01|w01_t03,w01_t02"])
    with pytest.raises(ValueError, match="w01_t03"):
        load_cohort(path, small_manifest)


def test_load_cohort_rejects_overlap_naming_task(tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    write_cohort(path, ["s1,2023,false,w01_t01,w01_t01|w01_t02"])
    with pytest.raises(ValueError, match="both right and wrong.*w01_t01"):
        load_cohort(path, small_manifest)


def test_load_cohort_rejects_task_listed_twice(tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    write_cohort(path, ["s0,2023,true,,", "s1,2023,false,w01_t01|w01_t01,"])
    with pytest.raises(ValueError) as info:
        load_cohort(path, small_manifest)
    assert str(info.value) == (f"{path}:3: student 's1': task(s) listed "
                               f"twice: ['w01_t01']")


@pytest.mark.parametrize("student_id, cohort, task", [
    ("s\r1", "2023", "w01_t01"), ("s1", "20\r23", "w01_t01"),
    ("s1", "2023", "w01\rt01")], ids=["student_id", "cohort", "task"])
def test_carriage_return_is_refused_where_a_csv_cell_could_hold_it(
        student_id, cohort, task):
    # the csv module writes a lone CR unquoted, so a cohort or manifest
    # holding one would be saved as a file that does not load back
    bad = next(v for v in (student_id, cohort, task) if "\r" in v)
    with pytest.raises(ValueError, match=re.escape(
            f"{bad!r} contains a carriage return")):
        Cohort(TaskManifest([TaskId(task, 1)]), (student_id,), (cohort,),
               [True], [[1]])


def test_load_cohort_bad_boolean_wins_over_a_task_listed_twice(
        tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    write_cohort(path, ["s1,2023,yes,,w01_t02|w01_t02"])
    with pytest.raises(ValueError, match=":2: expected 'true' or 'false'"):
        load_cohort(path, small_manifest)


def test_load_cohort_rejects_duplicate_student(tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    write_cohort(path, ["s1,2023,true,,", "s1,2023,false,,"])
    with pytest.raises(ValueError, match="duplicate student_id 's1'"):
        load_cohort(path, small_manifest)


def test_load_cohort_rejects_bad_boolean_with_line(tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    write_cohort(path, ["s1,2023,yes,,"])
    with pytest.raises(ValueError, match=":2:"):
        load_cohort(path, small_manifest)


def test_load_cohort_rejects_wrong_field_count(tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    write_cohort(path, ["s1,2023,true,"])
    with pytest.raises(ValueError, match="expected 5 fields"):
        load_cohort(path, small_manifest)


def test_load_cohort_empty_file(tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    write_cohort(path, [])
    cohort = load_cohort(path, small_manifest)
    assert len(cohort) == 0
    assert cohort.outcomes.shape == (0, 4)


def test_load_cohort_rejects_wrong_header(tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    path.write_text("id,cohort,passed,right,wrong\n")
    with pytest.raises(ValueError, match="expected header"):
        load_cohort(path, small_manifest)


# --- encoding ---------------------------------------------------------------

def test_encode_interval_column_counts(default_cohort):
    cohort, _ = default_cohort
    assert encode(cohort, 3).n_features == 43
    assert encode(cohort, 6).n_features == 106
    assert encode(cohort, 9).n_features == 150
    assert encode(cohort, 3).n_rows == 379


def test_encode_all_interval_tasks_right(small_manifest):
    cohort = one_student(small_manifest, right=("w01_t01", "w01_t02"))
    dataset = encode(cohort, 1)
    assert dataset.features.tolist() == [[1.0, 1.0]]
    assert dataset.labels.tolist() == [True]


def test_encode_empty_lists_give_zero_row(small_manifest):
    cohort = one_student(small_manifest, passed=False)
    dataset = encode(cohort, 3)
    assert dataset.features.tolist() == [[0.0, 0.0, 0.0, 0.0]]


def test_encode_wrong_answers_encode_to_zero(small_manifest):
    cohort = one_student(small_manifest, right=("w02_t01",),
                         wrong=("w01_t01",))
    dataset = encode(cohort, 2)
    assert dataset.features.tolist() == [[0.0, 0.0, 1.0]]
    assert dataset.feature_names == ("w01_t01", "w01_t02", "w02_t01")


def test_encode_rejects_empty_interval():
    manifest = TaskManifest([TaskId("a", 5)])
    with pytest.raises(ValueError, match="no manifest tasks"):
        encode(one_student(manifest), 3)


def test_encode_refuses_an_interval_past_the_last_week(small_manifest):
    # week 4 would select every task, the week-3 dataset under another name
    with pytest.raises(ValueError) as caught:
        encode(one_student(small_manifest), 4)
    assert str(caught.value) == "interval 4 is past the manifest's last week 3"


def test_encode_load_round_trip_membership(tmp_path, default_cohort):
    # every cell equals right-answer membership, checked exhaustively
    cohort, manifest = default_cohort
    path = tmp_path / "cohort.csv"
    save_cohort(cohort, path)
    right_answers = [set(row[3].split("|")) for row in
                     (line.split(",") for line in
                      path.read_text().splitlines()[1:41])]
    dataset = encode(load_cohort(path, manifest), 6)
    names = dataset.feature_names
    for i, right in enumerate(right_answers):
        for j, name in enumerate(names):
            assert dataset.features[i, j] == (1.0 if name in right else 0.0)


def test_unattempted_task_loads_as_minus_one_and_encodes_to_zero(
        tmp_path, small_manifest):
    path = tmp_path / "cohort.csv"
    # lists in manifest order; s1 leaves w01_t02 and w03_t01 unattempted
    write_cohort(path, ["s1,2023,true,w01_t01,w02_t01",
                        "s2,2023,false,w01_t02|w03_t01,w01_t01|w02_t01"])
    cohort = load_cohort(path, small_manifest)
    assert cohort.outcomes.tolist() == [[1, -1, 0, -1], [0, 1, 0, 1]]
    assert encode(cohort, 3).features.tolist() == [[1.0, 0.0, 0.0, 0.0],
                                                   [0.0, 1.0, 0.0, 1.0]]
    again = tmp_path / "again.csv"
    save_cohort(cohort, again)
    assert again.read_bytes() == path.read_bytes()


def test_cohort_arrays_are_read_only(default_cohort):
    cohort, _ = default_cohort
    with pytest.raises(ValueError):
        cohort.outcomes[0, 0] = -1
    with pytest.raises(ValueError):
        cohort.passed[0] = False


# --- every week from one encode (the data module's contract) ---------------

# names in manifest order interleave the weeks, so a week's columns are
# not a prefix of the next week's
INTERLEAVED = TaskManifest([TaskId("a", 3), TaskId("b", 1), TaskId("c", 2),
                            TaskId("d", 1), TaskId("e", 3), TaskId("f", 2)])


def _random_cohort(manifest, seed):
    rng = np.random.default_rng(seed)
    n = 40
    passed = np.arange(n) % 4 != 0  # both classes, for the split
    outcomes = rng.integers(-1, 2, size=(n, len(manifest)))
    return Cohort(manifest, tuple(f"s{i}" for i in range(n)), ("c",) * n,
                  passed, outcomes)


def _week_cohorts():
    for seed in (0, 7, 4242):
        yield simulate(SimConfig(seed=seed, n_students=120))[0]
        yield _random_cohort(INTERLEAVED, seed)


@pytest.mark.parametrize("cohort", _week_cohorts())
def test_each_week_is_the_last_weeks_dataset_restricted(cohort):
    weeks = sorted({t.week for t in cohort.manifest.tasks})
    last = encode(cohort, weeks[-1])
    for week in weeks:
        dataset = encode(cohort, week)
        names = tuple(t.name for t in cohort.manifest.tasks
                      if t.week <= week)
        columns = [last.feature_names.index(n) for n in names]
        assert dataset.feature_names == names
        assert np.array_equal(dataset.features, last.features[:, columns])
        assert np.array_equal(dataset.labels, last.labels)
    if cohort.manifest is INTERLEAVED:
        assert encode(cohort, 1).feature_names == ("b", "d")


@pytest.mark.parametrize("cohort", _week_cohorts())
def test_one_split_spec_picks_the_same_rows_at_every_week(cohort):
    weeks = sorted({t.week for t in cohort.manifest.tasks})
    spec = SplitSpec(train_fraction=0.75, seed=5)
    last = encode(cohort, weeks[-1])
    last_parts = split(last, spec)
    for week in weeks:
        dataset = encode(cohort, week)
        columns = [last.feature_names.index(n)
                   for n in dataset.feature_names]
        for part, last_part in zip(split(dataset, spec), last_parts):
            assert np.array_equal(part.features,
                                  last_part.features[:, columns])
            assert np.array_equal(part.labels, last_part.labels)


# --- LabeledDataset ---------------------------------------------------------

def test_dataset_validates_real_rows_binary():
    with pytest.raises(ValueError, match="exact 0/1"):
        make_dataset([[0.5, 0.0]], [True])


def test_dataset_allows_fractional_synthetic_rows():
    ds = make_dataset([[0.0, 1.0], [0.25, 0.75]], [True, True],
                      synthetic=[False, True])
    assert ds.synthetic_flags.tolist() == [False, True]


def test_dataset_is_write_protected(dataset_w3):
    with pytest.raises(ValueError):
        dataset_w3.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        dataset_w3.labels[0] = True


def test_dataset_shape_validation():
    with pytest.raises(ValueError, match="labels length"):
        make_dataset([[0.0], [1.0]], [True])
    with pytest.raises(ValueError, match="feature names"):
        LabeledDataset(np.zeros((2, 2)), [True, False], ("a",))


def test_dataset_csv_round_trip(tmp_path, split_w3):
    train, _ = split_w3
    path = tmp_path / "dataset.csv"
    train.to_csv(path)
    again = LabeledDataset.from_csv(path)
    assert np.array_equal(again.features, train.features)
    assert np.array_equal(again.labels, train.labels)
    assert np.array_equal(again.synthetic_flags, train.synthetic_flags)
    assert again.feature_names == train.feature_names


def test_dataset_csv_refuses_a_synthetic_row(tmp_path, smote_train_w3):
    path = tmp_path / "dataset.csv"
    with pytest.raises(ValueError) as info:
        smote_train_w3.to_csv(path)
    assert str(info.value) == ("a dataset CSV holds real rows only; store a "
                               "resampled set as its provenance")
    assert not path.exists()


def test_dataset_csv_rejects_missing_trailer(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n0,1,true\n")
    with pytest.raises(ValueError, match="label,synthetic"):
        LabeledDataset.from_csv(path)


# --- dataset CSV bytes and the loader's errors ------------------------------

# synthetic cells whose text is easy to get wrong: signed zero, integral
# floats, a float above 2**53, the smallest subnormal, and a sum that is not
# 0.3; from_csv must refuse a row of them at its own line
AWKWARD_VALUES = (-0.0, 2.0, -3.0, 1e16, 5e-324, 0.1 + 0.2)


def assert_csv_contract(dataset):
    """to_csv writes the oracle's bytes for a set of real rows, and
    from_csv reads them back bitwise.  A set with a synthetic row, which
    to_csv refuses, from_csv refuses too, at its first synthetic row's
    line: for a cell other than 0 or 1, or else for the row itself."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        if dataset.synthetic_flags.any():
            path.write_bytes(dataset_csv_oracle(dataset))
            first = np.flatnonzero(dataset.synthetic_flags)[0]
            # the header may span lines; each row is one line
            line = (path.read_bytes().count(b"\n") - dataset.n_rows
                    + first + 1)
            reason = ("a dataset CSV holds real rows only"
                      if np.isin(dataset.features[first], (0, 1)).all()
                      else "expected '0' or '1', got ")
            with pytest.raises(ValueError) as info:
                LabeledDataset.from_csv(path)
            assert str(info.value).startswith(f"{path}:{line}: {reason}")
            return
        dataset.to_csv(path)
        assert path.read_bytes() == dataset_csv_oracle(dataset)
        again = LabeledDataset.from_csv(path)
    assert again.features.shape == dataset.features.shape
    assert np.array_equal(again.features.view(np.uint64),  # -0.0 reads 0.0
                          (dataset.features + 0.0).view(np.uint64))
    assert np.array_equal(again.labels, dataset.labels)
    assert np.array_equal(again.synthetic_flags, dataset.synthetic_flags)
    assert again.feature_names == dataset.feature_names


def test_dataset_csv_round_trips_awkward_header_names():
    features = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    assert_csv_contract(LabeledDataset(features, [True, False, True],
                                       ("a", "b,c", 'd"e')))


def test_dataset_csv_reader_refuses_a_synthetic_row_at_its_line(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("a,b,label,synthetic\n0,1,true,false\n\n"
                    "1,0,false,true\n0.5,1,true,true\n")
    with pytest.raises(ValueError) as info:
        LabeledDataset.from_csv(path)
    assert str(info.value) == (f"{path}:4: a dataset CSV holds real rows "
                               f"only; store a resampled set as its "
                               f"provenance")


synthetic_cells = st.one_of(st.sampled_from(AWKWARD_VALUES),
                            st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def mixed_datasets(draw):
    n_features = draw(st.integers(1, 5))
    names = draw(st.lists(st.text("ab,\" é\n", max_size=4),
                          min_size=n_features, max_size=n_features))
    rows, labels, flags = [], [], []
    for _ in range(draw(st.integers(0, 8))):
        synthetic = draw(st.booleans())
        cell = synthetic_cells if synthetic else st.sampled_from(
            (0.0, -0.0, 1.0))
        rows.append(draw(st.lists(cell, min_size=n_features,
                                  max_size=n_features)))
        labels.append(draw(st.booleans()))
        flags.append(synthetic)
    features = np.array(rows, dtype=np.float64).reshape(-1, n_features)
    return LabeledDataset(features, labels, names, flags)


@settings(max_examples=200, deadline=None)
@given(dataset=mixed_datasets())
def test_dataset_csv_bytes_match_cell_by_cell_oracle(dataset):
    assert_csv_contract(dataset)


# a feature cell is read only when it is the text 0 or 1: every other
# text fails, whether float() parses it (underscores, padding, signs,
# exponents, nan and inf) or not
@pytest.mark.parametrize("text", [
    "1_0", " 2 ", "\t3", "+1", "-0", "1.", ".5", "1E5", "0.1e-3",
    "Infinity", "inf", "-inf", "nan", "NaN", "0x1", "", "  ", "1__0", "_1",
    "1_", "1e", "abc", "1d5", "nan(1)", "0b1", "\u0661", "1.0", "0.5",
    " 1", "1e0", "2", "00", "true"])
def test_dataset_cell_parses_as_float_does(tmp_path, text):
    path = tmp_path / "one.csv"
    path.write_text(f"x,label,synthetic\n0,true,false\n{text},false,false\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as info:
        LabeledDataset.from_csv(path)
    assert str(info.value) == f"{path}:3: expected '0' or '1', got {text!r}"


FUZZ_BASE = LabeledDataset(
    np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1],
              [0, 1, 0, 0], [1, 0, 1, 0], [1, 0, 1, 1]]),
    [True, False, True, False, False, True, False], ("t1", "t2", "t3", "t4"))
FEATURES, FLAGS = range(4), (4, 5)

# (texts to write into one cell, or field counts to cut or pad a row to;
# the reason the loader gives; the columns it may hit)
CORRUPTIONS = (
    (("abc", "", "0x1", "1__0", "--1", "nan", "inf", "0.5", "2", "-1",
      "1e-9", "1.0", "-0", " 1"), "expected '0' or '1', got ", FEATURES),
    (("maybe", "True", "1", ""), "expected 'true' or 'false'", FLAGS),
    (("true",), "a dataset CSV holds real rows only", (5,)),
    ((5, 7, 1), "expected 6 fields", FEATURES),
)


@settings(max_examples=150, deadline=None)
@given(corruption=st.sampled_from(CORRUPTIONS), data=st.data(),
       blank_lines=st.integers(0, 2))
def test_corrupted_dataset_csv_names_file_and_line(corruption, data,
                                                   blank_lines):
    values, reason, columns = corruption
    value = data.draw(st.sampled_from(values))
    row = data.draw(st.integers(0, FUZZ_BASE.n_rows - 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        path.write_bytes(dataset_csv_oracle(FUZZ_BASE))
        lines = path.read_text().splitlines()
        cells = lines[row + 1].split(",")
        if isinstance(value, int):
            cells = (cells * 2)[:value]
        else:
            cells[data.draw(st.sampled_from(columns))] = value
        lines[row + 1:row + 2] = [""] * blank_lines + [",".join(cells)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            LabeledDataset.from_csv(path)
    line = row + 2 + blank_lines
    assert str(info.value).startswith(f"{path}:{line}: {reason}")


@pytest.fixture(scope="module")
def seed7_files(tmp_path_factory):
    """The cohort.csv and manifest.csv bytes `atrisk simulate --seed 7`
    writes, and the manifest they load against."""
    out = tmp_path_factory.mktemp("seed7")
    assert main(["simulate", "--seed", "7", "--out", str(out)]) == 0
    return ({name: (out / name).read_bytes()
             for name in ("cohort.csv", "manifest.csv")},
            TaskManifest.from_csv(out / "manifest.csv"))


def _drop_field(data, cells, lines, row):
    del cells[data.draw(st.integers(0, len(cells) - 1))]


def _add_field(data, cells, lines, row):
    cells.insert(data.draw(st.integers(0, len(cells))), b"x")


def _set_field(column, values):
    def edit(data, cells, lines, row):
        cells[column] = data.draw(st.sampled_from(values))
    return edit


def _repeat_key(data, cells, lines, row):
    """Give the row the key (first field) of an earlier data row; returns
    the end of the reason."""
    first = data.draw(st.integers(1, row - 1))
    cells[0] = lines[first].split(b",")[0]
    return f" {cells[0].decode()!r} (first seen on line {first + 1})"


def _repeat_task(data, cells, lines, row):
    """List a task of the row's right or wrong list there again; returns
    the end of the reason."""
    column = data.draw(st.sampled_from([c for c in (3, 4) if cells[c]]))
    names = cells[column].split(b"|")
    name = data.draw(st.sampled_from(names))
    names.insert(data.draw(st.integers(0, len(names))), name)
    cells[column] = b"|".join(names)
    return f" {cells[0].decode()!r}: task(s) listed twice: ['{name.decode()}']"


def _stray_quote(data, cells, lines, row):
    column = data.draw(st.integers(0, len(cells) - 1))
    cells[column] = b'"' + cells[column]


def _non_utf8(data, cells, lines, row):
    column = data.draw(st.integers(0, len(cells) - 1))
    at = data.draw(st.integers(0, len(cells[column])))
    cells[column] = cells[column][:at] + b"\xff" + cells[column][at:]


# (file, corruption of one data row, the start of the reason the loader
# gives); a stray quote that opens a field never closes it
INPUT_CORRUPTIONS = (
    ("cohort.csv", _drop_field, "expected 5 fields, got 4"),
    ("cohort.csv", _add_field, "expected 5 fields, got 6"),
    ("cohort.csv", _set_field(2, (b"yes", b"True", b"1", b"", b"false ")),
     "expected 'true' or 'false'"),
    ("cohort.csv", _repeat_key, "duplicate student_id"),
    ("cohort.csv", _repeat_task, "student"),
    ("cohort.csv", _set_field(0, (b'"s\r1"',)),
     "student id 's\\r1' contains a carriage return"),
    ("cohort.csv", _set_field(1, (b'"x\ry"',)),
     "cohort label 'x\\ry' contains a carriage return"),
    ("cohort.csv", _stray_quote, "malformed CSV: "),
    ("cohort.csv", _non_utf8, "not UTF-8 text"),
    ("manifest.csv", _drop_field, "expected 2 fields, got 1"),
    ("manifest.csv", _add_field, "expected 2 fields, got 3"),
    ("manifest.csv", _set_field(1, (b"1.5", b"x", b"", b"one", b"1e3")),
     "week must be an integer"),
    ("manifest.csv", _repeat_key, "duplicate task"),
    ("manifest.csv", _set_field(0, (b'"a\rb"',)),
     "task name 'a\\rb' contains a carriage return"),
    ("manifest.csv", _stray_quote, "malformed CSV: unexpected end of data"),
    ("manifest.csv", _non_utf8, "not UTF-8 text"),
)


@settings(max_examples=150, deadline=None)
@given(corruption=st.sampled_from(INPUT_CORRUPTIONS), data=st.data(),
       blank_lines=st.integers(0, 2))
def test_corrupted_cohort_and_manifest_name_file_and_line(
        seed7_files, corruption, data, blank_lines):
    (files, manifest), (name, edit, reason) = seed7_files, corruption
    load = {"cohort.csv": lambda p: load_cohort(p, manifest),
            "manifest.csv": TaskManifest.from_csv}[name]
    lines = files[name].split(b"\n")  # header, data rows, then b""
    # from the second data row on, so that _repeat_key has an earlier one
    row = data.draw(st.integers(2, len(lines) - 2))
    cells = lines[row].split(b",")
    reason += edit(data, cells, lines, row) or ""
    lines[row:row + 1] = [b""] * blank_lines + [b",".join(cells)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as info:
            load(path)
    message = str(info.value)
    assert type(info.value) is ValueError and "\n" not in message
    assert message.startswith(f"{path}:{row + 1 + blank_lines}: {reason}")


@pytest.mark.parametrize("loader", ["cohort", "manifest", "dataset",
                                    "model", "config"])
def test_loaders_name_file_and_line_of_non_utf8_byte(tmp_path, loader,
                                                      small_manifest):
    path = tmp_path / f"{loader}.txt"
    write, load = {
        "cohort": (lambda p: write_cohort(p, ["s1,2023,true,,",
                                              "s2,2023,false,w01_t01,"]),
                   lambda p: load_cohort(p, small_manifest)),
        "manifest": (small_manifest.to_csv, TaskManifest.from_csv),
        "dataset": (lambda p: p.write_bytes(dataset_csv_oracle(FUZZ_BASE)),
                    LabeledDataset.from_csv),
        "model": (fit(ModelSpec("naive_bayes"), FUZZ_BASE).save, load_model),
        "config": (lambda p: p.write_text("[run]\nseed = 1\n[tune]\n"
                                          "folds = 3\n"), read_config),
    }[loader]
    write(path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = "é".encode() + lines[2][:1] + b"\xff" + lines[2][1:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}:3: not UTF-8 text"):
        load(path)


def test_first_bad_row_wins_over_a_later_field_count(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("x,label,synthetic\n0,true,false\nabc,true,false\n"
                    "0,true\n")
    with pytest.raises(ValueError) as info:
        LabeledDataset.from_csv(path)
    assert str(info.value) == f"{path}:3: expected '0' or '1', got 'abc'"


def test_read_rows_parses_each_data_row_once_in_file_order(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text('a,b\n1,x\n\n2,"y\nz"\n\n3,w\n')
    seen = []

    def parse(row):
        seen.append(row)
        return len(seen)

    assert read_rows(path, ("a", "b"), parse,
                     lambda header, rows: (header, rows)) == (["a", "b"],
                                                               [1, 2, 3])
    assert seen == [["1", "x"], ["2", "y\nz"], ["3", "w"]]


@pytest.mark.parametrize("loader, text, reason", [
    ("cohort", "s1,c,true,w01_t01,\ns2,c,yes,,\ns3,c,true,,\ns4,c\n",
     "expected 'true' or 'false', got 'yes'"),
    ("manifest", "task,week\na,1\nb,x\nc,2\nd\n",
     "week must be an integer, got 'x'"),
    ("provenance", "synthetic_row,base_row,neighbor_row,lambda\n"
     "4,0,1,0.5\n5,0,1,1.5\n6,0,1,0.5\n7,0,1\n",
     "lambda must be finite and in [0, 1), got '1.5'"),
])
def test_first_bad_row_wins_in_every_loader(tmp_path, small_manifest, loader,
                                            text, reason):
    path = tmp_path / f"{loader}.csv"
    if loader == "cohort":
        write_cohort(path, text.splitlines())
    else:
        path.write_text(text)
    load = {"cohort": lambda p: load_cohort(p, small_manifest),
            "manifest": TaskManifest.from_csv,
            "provenance": lambda p: load_resampled(p, make_dataset(
                np.eye(4), [True, True, False, False]))}[loader]
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}:3: {reason}"


# --- split ------------------------------------------------------------------

def test_split_379_at_80_20(dataset_w9):
    train, test = split(dataset_w9, SplitSpec(train_fraction=0.8, seed=3))
    assert (train.n_rows, test.n_rows) == (303, 76)


def test_split_same_seed_identical(dataset_w3):
    spec = SplitSpec(train_fraction=0.8, seed=9)
    a_train, a_test = split(dataset_w3, spec)
    b_train, b_test = split(dataset_w3, spec)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    assert np.array_equal(a_train.labels, b_train.labels)


def test_split_balanced_ten_rows():
    rng = np.random.default_rng(0)
    features = (rng.random((10, 3)) < 0.5).astype(float)
    labels = [False] * 5 + [True] * 5
    ds = make_dataset(features, labels)
    train, test = split(ds, SplitSpec(train_fraction=0.8, seed=1))
    n_fail, n_pass = train.class_counts()
    assert (n_fail, n_pass) == (4, 4)
    assert test.n_rows == 2


def test_split_partition_property_many_seeds():
    rng = np.random.default_rng(21)
    features = (rng.random((30, 4)) < 0.5).astype(float)
    labels = rng.random(30) < 0.3
    labels[:2] = False
    labels[2:4] = True
    ds = make_dataset(features, labels)
    whole = sorted(map(tuple, np.column_stack(
        [ds.features, ds.labels]).tolist()))
    for seed in range(200):
        train, test = split(ds, SplitSpec(train_fraction=0.7, seed=seed))
        assert train.n_rows + test.n_rows == 30
        recombined = sorted(map(tuple, np.column_stack(
            [np.vstack([train.features, test.features]),
             np.concatenate([train.labels, test.labels])]).tolist()))
        assert recombined == whole


def test_split_stratified_ratio_within_one_row():
    rng = np.random.default_rng(22)
    features = (rng.random((83, 5)) < 0.5).astype(float)
    labels = np.asarray([False] * 13 + [True] * 70)
    ds = make_dataset(features, labels)
    for seed in range(50):
        for fraction in (0.5, 0.66, 0.8):
            train, _ = split(ds, SplitSpec(train_fraction=fraction,
                                           seed=seed))
            n_fail, n_pass = train.class_counts()
            assert abs(n_fail - fraction * 13) < 1.0
            assert abs(n_pass - fraction * 70) < 1.0
            assert train.n_rows == int(np.floor(fraction * 83))


def test_split_rejects_tiny_class():
    features = np.zeros((5, 2))
    features[0, 0] = 1.0
    ds = make_dataset(features, [False, True, True, True, True])
    with pytest.raises(ValueError, match="class false"):
        split(ds, SplitSpec(train_fraction=0.8, seed=0))


def test_split_spec_validation():
    with pytest.raises(ValueError, match="train_fraction"):
        SplitSpec(train_fraction=1.0, seed=0)


# --- write_csv and write_json against the writers' old cell rules ---------

@dataclass
class _Pair:
    first: object
    second: object


file_floats = st.one_of(
    st.sampled_from((-0.0, 1e16, 5e-324, float("nan"), 0.1 + 0.2)),
    st.floats())
file_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=4)
file_scalars = st.one_of(st.none(), st.booleans(), st.integers(), file_floats,
                         file_floats.map(np.float64), file_text)
file_arrays = st.one_of(
    arrays(np.float64, array_shapes(max_dims=2, max_side=3),
           elements=file_floats),
    arrays(np.int64, array_shapes(max_dims=2, max_side=3)),
    arrays(np.bool_, array_shapes(max_dims=2, max_side=3)))
json_docs = st.recursive(
    file_scalars | file_arrays,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(file_text, children, max_size=3),
        st.builds(_Pair, children, children)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(doc=json_docs)
def test_write_json_bytes_match_walked_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        write_json(path, doc)
        assert path.read_bytes() == json_file_oracle(doc)


# matrices, which write_json encodes a slice of rows a call, beside lists
# of lists that it walks: an empty row, a string holding a bracket; then
# vectors and matrices that fill more than one slice (a forest's counts,
# a kNN's training rows), and the smallest and an empty matrix; last,
# arrays that are walked item by item: of lists, of mixed objects, of
# strings, and of three dimensions
@pytest.mark.parametrize("doc", [
    np.arange(130.0).reshape(65, 2), np.zeros((129, 3)), [[1, 2]] * 64,
    [(1, 2), [3, 4]], [[1], [], [2]], [[1, "a"], [2, "],\n  ["]],
    [[0.5, None, True]] * 3, [[float("nan"), -float("inf")]] * 66,
    {"m": np.ones((70, 1)) / 3, "e": np.zeros((0, 2)), "r": [[7]]},
    np.linspace(-1.0, 1.0, 10_000) ** 3, np.arange(9_000) % 3 == 0,
    np.arange(10_000, dtype=np.int64).reshape(5000, 2),
    np.random.default_rng(11).random((300, 150)), np.ones((1, 1)),
    np.zeros((0, 3)), np.array([[1, 2], [3]], dtype=object),
    np.array([[[1, 2]], [[3]]], dtype=object),
    np.array([[1, "a"], [None, 2.5]], dtype=object),
    np.array(["],\n    [", "b"]), np.arange(24).reshape(2, 3, 4)])
def test_write_json_rows_match_walked_document(tmp_path, doc):
    write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_bytes() == json_file_oracle(doc)


@st.composite
def csv_tables(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(file_text, min_size=width, max_size=width))
    cells = st.one_of(st.booleans(), st.integers(), file_floats,
                      file_floats.map(np.float64), file_text)
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                         max_size=5))
    return header, rows


@settings(max_examples=200, deadline=None)
@given(table=csv_tables())
def test_write_csv_bytes_match_caller_formatted_cells(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == csv_file_oracle(header, rows)


# cells that make the csv module quote (a comma, a quote, a line break, a
# lone empty cell), beside rows that write_csv joins without it
@pytest.mark.parametrize("row", [
    ("a", "b,c"), ('x"y', "z"), ("line\nbreak", "2"), ("cr\rx", "y"),
    ("",), ("", ""), (), (None, "n"), (3, np.int64(4), True, 0.1),
    ("s0001", "sim", True, "w01_t01|w01_t02", ""), (" pad ", "\t", "é")])
def test_write_csv_row_bytes_match_the_csv_module(tmp_path, row):
    path = tmp_path / "table.csv"
    header = [f"c{i}" for i in range(len(row))]
    write_csv(path, header, [row])
    assert path.read_bytes() == csv_file_oracle(header, [row])


def test_write_json_rejects_a_key_that_is_no_string(tmp_path):
    with pytest.raises(TypeError, match="a JSON key must be a string, got "
                                        "int"):
        write_json(tmp_path / "doc.json", {"a": {1: 2}})


def test_write_json_rejects_values_json_has_no_type_for(tmp_path):
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        write_json(tmp_path / "doc.json", {"n": np.int64(3)})
