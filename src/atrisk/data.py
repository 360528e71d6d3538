"""Cohorts, one-hot task encoding, and seeded train/test splits.

A :class:`Cohort` is one outcome matrix over its manifest's tasks.  Every
week N's dataset, ``encode(cohort, N)``, holds the same students in the
same row order, and the manifest's tasks of week <= N in manifest order; a
:class:`SplitSpec` reads only the labels, so it picks the same rows at
every week.

File formats
------------
Cohort CSV:   header ``student_id,cohort,passed,right_answers,wrong_answers``;
              ``passed`` is a bool; the two list fields hold pipe-separated
              task names in manifest order, each task at most once a row,
              and may be empty; a task in neither was not attempted.
Manifest CSV: header ``task,week``, one row per task.
Dataset CSV:  one column per feature (named), then ``label`` and
              ``synthetic`` (``true``/``false``).  A real row holds only
              ``0`` and ``1``; the writer writes real rows only, so its
              ``synthetic`` cells read ``false``, and these bytes are a
              contract that reruns and releases keep.  The reader also
              takes a synthetic row of any finite floats.  A resampled set
              is stored as its training CSV plus its provenance CSV (see
              ``resampling``).
Other CSVs:   a bool cell is ``true``/``false``, a float cell (numpy's too)
              ``repr(float(v))``, any other as the csv module writes it.
JSON:         key-sorted, indented by two spaces, newline-terminated; an
              ndarray is its list, a dataclass the dict of its fields, and
              a key that is no string, or any other value JSON has no type
              for, a TypeError.

Dataset CSVs are written by :meth:`LabeledDataset.to_csv`, every other CSV
artifact by :func:`write_csv`, and every JSON artifact by
:func:`write_json`, from raw values; the loaders here read through
:func:`read_rows`, and every loader decodes its file with :func:`read_text`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain, compress, repeat

import numpy as np

COHORT_COLUMNS = ("student_id", "cohort", "passed", "right_answers",
                  "wrong_answers")


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)  # as the csv module does


def write_csv(path, header, rows):
    """Header, then a line per row, LF-terminated; cells by the module rule.
    A row with no comma, quote or line break in a cell is joined directly:
    the csv module's bytes, without its per-character scan."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            cells = [*map(_cell, row)]
            line = ",".join(cells)
            if line and line.count(",") == len(cells) - 1 \
                    and not any(c in line for c in '"\r\n'):
                fh.write(line + "\n")
            else:
                writer.writerow(cells)


def _json_default(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# what json writes as text of its own: a list holding only these is flat;
# a number's text holds no bracket
_NUMBERS = frozenset((int, float, bool, type(None)))
_SCALARS = _NUMBERS | {str}


def write_json(path, doc):
    """doc as JSON by the rule in the module docstring, in the bytes of
    ``json.dump(doc, indent=2, sort_keys=True)``.

    The document is walked here.  Each flat list, or list of non-empty
    flat lists of numbers, goes to calls of json's C encoder whose item
    separator carries the indent, so every scalar's text is json's own.
    """
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh.write, doc, "\n")
        fh.write("\n")


def _write_json(write, value, newline):
    """Write value as JSON; newline starts each of its lines after the
    first."""
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            write("[]")
        elif set(map(type, value)) <= _SCALARS:
            text = json.dumps(value, separators=("," + inner, ": "))
            write("[" + inner + text[1:-1] + newline + "]")
        elif set(map(type, value)) == {list} and all(value) and \
                set(map(type, chain.from_iterable(value))) <= _NUMBERS:
            # rows of numbers, 64 a call, in whose text "]" + separator +
            # "[" is a row break
            row = inner + "  "
            row_break = inner + "]," + inner + "[" + row
            write("[" + inner + "[" + row)
            for lo in range(0, len(value), 64):
                text = json.dumps(value[lo:lo + 64],
                                  separators=("," + row, ": "))
                write((row_break if lo else "")
                      + text[2:-2].replace("]," + row + "[", row_break))
            write(inner + "]" + newline + "]")
        else:
            write("[")
            for i, item in enumerate(value):
                write("," + inner if i else inner)
                _write_json(write, item, inner)
            write(newline + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        write("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"a JSON key must be a string, got "
                                f"{type(key).__name__}")
            write(("," + inner if i else inner) + json.dumps(key) + ": ")
            _write_json(write, value[key], inner)
        write(newline + "}")
    elif isinstance(value, (str, int, float)) or value is None:
        write(json.dumps(value))
    else:
        _write_json(write, _json_default(value), newline)


def read_text(path):
    """The UTF-8 text of a file; other bytes raise ValueError naming the
    file and the line they are on."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text ({exc.reason} at "
                         f"byte {exc.start})") from None


def read_rows(path, header, check, build, unique=None):
    """build(header found, raw rows) for the rows of a CSV file.

    header names the expected columns; a leading ``...`` stands for one or
    more free names.  Blank lines are skipped; every row must have as many
    fields as the header, and no value may repeat in column ``unique``.
    Quoting is strict: a quote that opens a field must close it, and only a
    delimiter or line end may follow.  build makes the result from the
    whole file at once; check(row) checks one raw row, and runs, row by
    row, only after a ValueError, to find the first bad row.  A row error,
    including any malformed CSV and a ValueError from check, is raised as a
    ValueError prefixed with ``path:line``, the line the row starts on.
    """
    free = header[0] is ...
    fixed = list(header[free:])
    reader = csv.reader(io.StringIO(read_text(path), newline=""),
                        strict=True)
    try:
        found = next(reader, [])
    except csv.Error as exc:
        raise ValueError(f"{path}:1: malformed CSV: {exc}") from None
    if found[-len(fixed):] != fixed or (len(found) > len(fixed)) != free:
        expected = ",".join("..." if h is ... else h for h in header)
        raise ValueError(f"{path}: expected header {expected!r}, "
                         f"got {found}")
    seen, rows, lines = {}, [], []
    while True:
        line = reader.line_num + 1  # a quoted field may span lines
        try:
            row = next(reader, None)
            if row is None:
                break
            if not row:
                continue
            if len(row) != len(found):
                raise ValueError(f"expected {len(found)} fields, "
                                 f"got {len(row)}")
            if unique is not None:
                first = seen.setdefault(row[unique], line)
                if first != line:
                    raise ValueError(
                        f"duplicate {found[unique]} {row[unique]!r} "
                        f"(first seen on line {first})")
            rows.append(row)
            lines.append(line)
        except (ValueError, csv.Error) as exc:
            _first_bad_row(path, lines, rows, check)  # an earlier row first
            malformed = "malformed CSV: " if isinstance(exc, csv.Error) \
                else ""
            raise ValueError(f"{path}:{line}: {malformed}{exc}") from None
    try:
        return build(found, rows)
    except ValueError as exc:
        _first_bad_row(path, lines, rows, check)
        raise ValueError(f"{path}: {exc}") from None


def _first_bad_row(path, lines, rows, check):
    for line, row in zip(lines, rows):
        try:
            check(row)
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None


def _parse_bool(text):
    if text not in ("true", "false"):
        raise ValueError(f"expected 'true' or 'false', got {text!r}")
    return text == "true"


def _check_values(features, synthetic_flags):
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    real = features[~synthetic_flags]
    if real.size and not (((real == 0.0) | (real == 1.0)).all()):
        raise ValueError("real rows must contain only exact 0/1 values")


def _refuse_cr(what, value):
    # the csv module writes a lone CR unquoted, and a reader ends the row
    # there, so a saved file would not load back
    if "\r" in value:
        raise ValueError(f"{what} {value!r} contains a carriage return")


@dataclass(frozen=True)
class TaskId:
    """A formative task: unique name plus the teaching week it belongs to."""

    name: str
    week: int

    def __post_init__(self):
        if not self.name:
            raise ValueError("task name must be non-empty")
        if "|" in self.name:
            raise ValueError(f"task name {self.name!r} contains '|', which "
                             "separates the tasks of a cohort CSV list")
        _refuse_cr("task name", self.name)
        if self.week < 1:
            raise ValueError(f"task {self.name!r}: week must be >= 1, "
                             f"got {self.week}")


class TaskManifest:
    """Ordered task collection; ordering is lexicographic by task name."""

    def __init__(self, tasks):
        ordered = tuple(sorted(tasks, key=lambda t: t.name))
        names = [t.name for t in ordered]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate task names in manifest: {dupes}")
        self.tasks = ordered

    def __len__(self):
        return len(self.tasks)

    def names(self):
        return tuple(t.name for t in self.tasks)

    def columns_through(self, max_week):
        """Which tasks fall within weeks 1..max_week, one bool per task.

        A max_week that keeps no task, or is past the last week (it would
        be that week's data under another name), is refused."""
        weeks = [t.week for t in self.tasks]
        keep = [week <= max_week for week in weeks]
        if not any(keep):
            raise ValueError(f"no manifest tasks fall within weeks "
                             f"1..{max_week}")
        if max_week > max(weeks):
            raise ValueError(f"interval {max_week} is past the manifest's "
                             f"last week {max(weeks)}")
        return keep

    @classmethod
    def from_csv(cls, path):
        def parse(row):
            try:
                week = int(row[1])
            except ValueError:
                raise ValueError(f"week must be an integer, "
                                 f"got {row[1]!r}") from None
            return TaskId(name=row[0], week=week)

        return read_rows(path, ("task", "week"), parse,
                         lambda _, rows: cls(map(parse, rows)), unique=0)

    def to_csv(self, path):
        write_csv(path, ("task", "week"),
                  ((task.name, task.week) for task in self.tasks))


@dataclass(frozen=True, eq=False)
class Cohort:
    """Students' task outcomes plus the summative pass/fail label.

    Row i is the student ``student_ids[i]`` of cohort ``cohorts[i]``;
    ``passed[i]`` is the label, and ``outcomes[i, j]`` the outcome of the
    manifest's task j: 1 right, 0 wrong, -1 not attempted.  The two arrays
    are read-only.
    """

    manifest: TaskManifest
    student_ids: tuple
    cohorts: tuple
    passed: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        for name, dtype in (("passed", bool), ("outcomes", np.int8)):
            value = np.array(getattr(self, name), dtype=dtype)
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        n, m = len(self.student_ids), len(self.manifest)
        shapes = (len(self.cohorts), *self.passed.shape, *self.outcomes.shape)
        if shapes != (n, n, n, m) or not np.isin(self.outcomes,
                                                 (-1, 0, 1)).all():
            raise ValueError(f"{n} students need {n} cohort labels, labels "
                             f"and rows of {m} outcomes of 1, 0 or -1")
        for student_id, cohort in zip(self.student_ids, self.cohorts):
            _refuse_cr("student id", student_id)
            _refuse_cr("cohort label", cohort)

    def __len__(self):
        return len(self.student_ids)


class LabeledDataset:
    """Feature matrix with labels, column names, and synthetic-row markers.

    Real (non-synthetic) rows must contain only exact 0/1 values; synthetic
    rows produced by the oversamplers may be fractional.  Arrays are
    write-protected after construction, so instances are safe to share
    across threads.
    """

    def __init__(self, features, labels, feature_names, synthetic_flags=None):
        features = np.array(features, dtype=np.float64, copy=True)
        labels = np.array(labels, dtype=bool, copy=True)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        n = features.shape[0]
        if labels.shape != (n,):
            raise ValueError(f"labels length {labels.shape} does not match "
                             f"{n} rows")
        names = tuple(feature_names)
        if len(names) != features.shape[1]:
            raise ValueError(f"{len(names)} feature names for "
                             f"{features.shape[1]} columns")
        if synthetic_flags is None:
            flags = np.zeros(n, dtype=bool)
        else:
            flags = np.array(synthetic_flags, dtype=bool, copy=True)
            if flags.shape != (n,):
                raise ValueError("synthetic_flags length does not match rows")
        _check_values(features, flags)
        features.setflags(write=False)
        labels.setflags(write=False)
        flags.setflags(write=False)
        self.features = features
        self.labels = labels
        self.feature_names = names
        self.synthetic_flags = flags

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def class_counts(self):
        """(failing, passing) row counts."""
        n_true = int(self.labels.sum())
        return self.n_rows - n_true, n_true

    def subset(self, rows):
        rows = np.asarray(rows, dtype=np.intp)
        return LabeledDataset(self.features[rows], self.labels[rows],
                              self.feature_names, self.synthetic_flags[rows])

    def to_csv(self, path):
        """Write the dataset in the dataset CSV format (module docstring).

        Real rows hold only 0/1, so the text of all of them comes from one
        byte buffer, a slice per row, streamed to the file.  A synthetic
        row is refused: a resampled set is stored as its provenance.
        """
        if self.synthetic_flags.any():
            raise ValueError("a dataset CSV holds real rows only; store a "
                             "resampled set as its provenance")
        header = io.StringIO()
        csv.writer(header, lineterminator="\n").writerow(
            (*self.feature_names, "label", "synthetic"))
        # row i of digits is row i's values as "d,d,...,d,"
        digits = np.full((self.n_rows, 2 * self.n_features), ord(","),
                         dtype=np.uint8)
        digits[:, 0::2] = ord("0")
        digits[:, 0::2] += self.features == 1.0
        with open(path, "wb") as fh:
            fh.write(header.getvalue().encode("utf-8"))
            for text, label in zip(digits, self.labels.tolist()):
                fh.write(text.tobytes()
                         + (b"true,false\n" if label else b"false,false\n"))

    @classmethod
    def from_csv(cls, path):
        def check(row):
            values = [float(v) for v in row[:-2]]
            label, synthetic = _parse_bool(row[-2]), _parse_bool(row[-1])
            _check_values(np.array([values]), np.array([synthetic]))

        def build(header, rows):
            matrix = np.array([r[:-2] for r in rows], dtype=np.float64)
            flags = np.array([r[-2:] for r in rows], dtype=str)
            if not ((flags == "true") | (flags == "false")).all():
                raise ValueError("label and synthetic must be true/false")
            true = (flags == "true").reshape(len(rows), 2)
            return cls(matrix.reshape(len(rows), len(header) - 2),
                       true[:, 0], header[:-2], true[:, 1])

        return read_rows(path, (..., "label", "synthetic"), check, build)


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split parameters; the split is stratified."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0,1), got "
                             f"{self.train_fraction}")


def load_cohort(path, manifest):
    """Read a cohort CSV over a manifest's tasks, students in file order.

    Duplicated student ids, a task listed twice or in both lists, unknown
    task names, and malformed fields are rejected with the line they are on.
    """
    column = {name: j for j, name in enumerate(manifest.names())}

    def check(row):
        student_id, cohort, passed, *lists = row
        _refuse_cr("student id", student_id)
        _refuse_cr("cohort label", cohort)
        _parse_bool(passed)
        right, wrong = ([n for n in names.split("|") if n] for names in lists)
        for problem, tasks in (
                ("task(s) listed as both right and wrong",
                 set(right) & set(wrong)),
                ("unknown task name(s)", set(right + wrong) - column.keys()),
                ("task(s) listed twice", {n for names in (right, wrong)
                                          for n in names
                                          if names.count(n) > 1})):
            if tasks:
                raise ValueError(f"student {student_id!r}: {problem}: "
                                 f"{sorted(tasks)}")

    def build(_, rows):
        # one column past the manifest's takes the unknown names
        outcomes = np.full((len(rows), len(manifest) + 1), -1, dtype=np.int8)
        listed = 0
        for field, outcome in ((3, 1), (4, 0)):
            lists = [[*filter(None, row[field].split("|"))] for row in rows]
            tasks = [*map(column.get, chain(*lists), repeat(len(manifest)))]
            students = np.repeat(np.arange(len(rows)), [*map(len, lists)])
            outcomes[students, tasks] = outcome
            listed += len(tasks)
        if listed != (outcomes[:, :-1] >= 0).sum():
            raise ValueError("a task is unknown or listed twice")
        return Cohort(manifest, tuple(r[0] for r in rows),
                      tuple(r[1] for r in rows),
                      [_parse_bool(r[2]) for r in rows], outcomes[:, :-1])

    return read_rows(path, COHORT_COLUMNS, check, build, unique=0)


def save_cohort(cohort, path):
    """Write a cohort in the cohort CSV format, lists in manifest order."""
    names = cohort.manifest.names()
    right, wrong = (["|".join(compress(names, row))
                     for row in (cohort.outcomes == outcome).tolist()]
                    for outcome in (1, 0))
    write_csv(path, COHORT_COLUMNS, zip(cohort.student_ids, cohort.cohorts,
                                        cohort.passed.tolist(), right, wrong))


def encode(cohort, max_week):
    """One-hot encode a cohort over its manifest's tasks of week <=
    max_week, in manifest order: a cell is 1 exactly when the student got
    the task right, so unattempted and wrong tasks both encode to 0.  A
    max_week that TaskManifest.columns_through refuses is not encoded."""
    keep = cohort.manifest.columns_through(max_week)
    return LabeledDataset(cohort.outcomes[:, keep] == 1, cohort.passed,
                          compress(cohort.manifest.names(), keep))


def _stratified_train_counts(class_sizes, train_fraction, n_train_total):
    """Per-class train-row counts: floors, then largest-remainder top-up."""
    base, remainders = {}, {}
    for label, size in class_sizes.items():
        exact = train_fraction * size
        base[label] = int(np.floor(exact))
        remainders[label] = exact - base[label]
    short = n_train_total - sum(base.values())
    # deterministic: biggest remainder first, then bigger class, then label
    order = sorted(class_sizes,
                   key=lambda c: (-remainders[c], -class_sizes[c], c))
    for i in range(short):
        base[order[i % len(order)]] += 1
    return base


def split(data, spec):
    """Deterministic seeded stratified train/test split of a dataset.

    Total train size is floor(train_fraction * n).  The per-class
    allocation keeps each class's train share within one row of
    train_fraction; both parts preserve the original row order.
    """
    n = data.n_rows
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    rng = np.random.default_rng(spec.seed)
    class_sizes = {}
    for label in (False, True):
        class_sizes[label] = int((data.labels == label).sum())
        if class_sizes[label] < 2:
            raise ValueError(
                f"stratified split needs >= 2 rows of class "
                f"{'true' if label else 'false'}, got {class_sizes[label]}")
    counts = _stratified_train_counts(class_sizes, spec.train_fraction,
                                      int(np.floor(spec.train_fraction * n)))
    train_mask = np.zeros(n, dtype=bool)
    for label in (False, True):
        members = np.flatnonzero(data.labels == label)
        train_mask[members[rng.permutation(len(members))
                           [:counts[label]]]] = True
    return (data.subset(np.flatnonzero(train_mask)),
            data.subset(np.flatnonzero(~train_mask)))
