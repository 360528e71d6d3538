"""Cohort records, one-hot task encoding, and seeded train/test splits.

File formats
------------
Cohort CSV:   header ``student_id,cohort,passed,right_answers,wrong_answers``;
              ``passed`` is a bool; the two list fields hold pipe-separated
              task names and may be empty.
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
              any other value JSON has no type for a TypeError.

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

import numpy as np

COHORT_COLUMNS = ("student_id", "cohort", "passed", "right_answers",
                  "wrong_answers")


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return value


def write_csv(path, header, rows):
    """Header, then a line per row, LF-terminated; cells by the module rule."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_cell, row) for row in rows)


def _json_default(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path, doc):
    """doc as JSON by the rule in the module docstring."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


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
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected 'true' or 'false', got {text!r}")


def _check_values(features, synthetic_flags):
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    real = features[~synthetic_flags]
    if real.size and not (((real == 0.0) | (real == 1.0)).all()):
        raise ValueError("real rows must contain only exact 0/1 values")


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
        self._tasks = ordered
        self._by_name = {t.name: t for t in ordered}

    @property
    def tasks(self):
        return self._tasks

    def __len__(self):
        return len(self._tasks)

    def __contains__(self, name):
        return name in self._by_name

    def names(self):
        return tuple(t.name for t in self._tasks)

    def through_week(self, max_week):
        """Tasks with week <= max_week, in manifest order."""
        return tuple(t for t in self._tasks if t.week <= max_week)

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
                  ((task.name, task.week) for task in self._tasks))


@dataclass(frozen=True)
class StudentRecord:
    """One student's task outcomes plus the summative pass/fail label."""

    student_id: str
    cohort: str
    right_answers: tuple
    wrong_answers: tuple
    passed: bool

    def validate_against(self, manifest):
        overlap = set(self.right_answers) & set(self.wrong_answers)
        if overlap:
            raise ValueError(
                f"student {self.student_id!r}: task(s) listed as both right "
                f"and wrong: {sorted(overlap)}")
        unknown = [n for n in (*self.right_answers, *self.wrong_answers)
                   if n not in manifest]
        if unknown:
            raise ValueError(
                f"student {self.student_id!r}: unknown task name(s): "
                f"{sorted(set(unknown))}")


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
    """Train/test split parameters; stratified by default."""

    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0,1), got "
                             f"{self.train_fraction}")


def load_cohort(path, manifest):
    """Read and validate a cohort CSV against a manifest.

    Order is preserved from the file.  Unknown task names, duplicated
    student ids, overlapping right/wrong lists, and malformed fields are all
    rejected with the offending line identified.
    """
    def parse(row):
        student_id, cohort, passed, right, wrong = row
        record = StudentRecord(
            student_id=student_id,
            cohort=cohort,
            right_answers=tuple(n for n in right.split("|") if n),
            wrong_answers=tuple(n for n in wrong.split("|") if n),
            passed=_parse_bool(passed),
        )
        record.validate_against(manifest)
        return record

    return read_rows(path, COHORT_COLUMNS, parse,
                     lambda _, rows: list(map(parse, rows)), unique=0)


def save_cohort(records, path):
    """Write records back out in the cohort CSV format."""
    write_csv(path, COHORT_COLUMNS,
              ((r.student_id, r.cohort, r.passed, "|".join(r.right_answers),
                "|".join(r.wrong_answers))
               for r in records))


def encode(records, manifest, max_week):
    """One-hot encode records over the manifest tasks with week <= max_week.

    A cell is 1 exactly when the task appears in the student's right_answers;
    unattempted and wrong tasks both encode to 0.
    """
    if max_week < 1:
        raise ValueError(f"max_week must be >= 1, got {max_week}")
    columns = manifest.through_week(max_week)
    if not columns:
        raise ValueError(f"no manifest tasks fall within weeks 1..{max_week}")
    column = {t.name: j for j, t in enumerate(columns)}
    matrix = np.zeros((len(records), len(columns)), dtype=np.float64)
    for i, record in enumerate(records):
        matrix[i, [column[n] for n in record.right_answers
                   if n in column]] = 1.0
    labels = np.array([r.passed for r in records], dtype=bool)
    return LabeledDataset(matrix, labels, tuple(column))


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
    i = 0
    while short > 0:
        base[order[i % len(order)]] += 1
        short -= 1
        i += 1
    return base


def split(data, spec):
    """Deterministic seeded train/test split of a dataset.

    Total train size is floor(train_fraction * n).  In stratified mode the
    per-class allocation keeps each class's train share within one row of
    train_fraction; both parts preserve the original row order.
    """
    n = data.n_rows
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    rng = np.random.default_rng(spec.seed)
    n_train = int(np.floor(spec.train_fraction * n))
    if spec.stratified:
        class_sizes = {}
        for label in (False, True):
            class_sizes[label] = int((data.labels == label).sum())
            if class_sizes[label] < 2:
                raise ValueError(
                    f"stratified split needs >= 2 rows of class "
                    f"{'true' if label else 'false'}, "
                    f"got {class_sizes[label]}")
        counts = _stratified_train_counts(class_sizes, spec.train_fraction,
                                          n_train)
        train_idx = []
        for label in (False, True):
            members = np.flatnonzero(data.labels == label)
            picked = rng.permutation(len(members))[:counts[label]]
            train_idx.append(members[picked])
        train_mask = np.zeros(n, dtype=bool)
        train_mask[np.concatenate(train_idx)] = True
    else:
        picked = rng.permutation(n)[:n_train]
        train_mask = np.zeros(n, dtype=bool)
        train_mask[picked] = True
    train_rows = np.flatnonzero(train_mask)
    test_rows = np.flatnonzero(~train_mask)
    return data.subset(train_rows), data.subset(test_rows)
