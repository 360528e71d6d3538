"""Resampling of a training set: none, SMOTE or ADASYN.

``none`` returns the training set as it is, with a provenance of no
synthetic row: it draws nothing and reads no k_neighbors.  SMOTE and ADASYN
grow the minority class to exactly the majority count ("auto" strategy) by
interpolating between a minority row and one of its k nearest minority
neighbours:  x_base + lambda * (x_neighbor - x_base), lambda uniform on
[0, 1).  Synthetic rows keep fractional values; they are not
re-binarised.  The two differ only in the base row of each synthetic row:
SMOTE cycles through the minority rows in dataset order, and ADASYN takes
each minority row, in dataset order, as often as its allocation says.

Draw order: one generator seeded with ``config.seed`` draws, for each
synthetic row in base order, the neighbour's position among the base's k
nearest minority rows (``integers(k)``) and then its lambda (``random()``).
Every resampled dataset and provenance file depends on this order, so it
stays as it is.

The provenance holds each synthetic row's base row, neighbour row and
lambda, and is the only stored form of a resampled set: ``grow`` builds
the set from the training set and those three arrays, both when it is
drawn and when ``load_resampled`` reads a provenance CSV back, so the two
agree bit for bit.  A synthetic row takes its base row's label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, read_rows, write_csv
from .neighbors import knn_among, knn_indices


METHODS = ("none", "smote", "adasyn")  # what resample() dispatches on
PROVENANCE_COLUMNS = ("synthetic_row", "base_row", "neighbor_row", "lambda")

# setting -> (check, rule); the tune grid checks its axes by the same rules
RULES = {
    "method": (lambda m: m in METHODS, " or ".join(map(repr, METHODS))),
    "k_neighbors": (lambda k: k >= 1, ">= 1"),
}


@dataclass(frozen=True)
class ResampleConfig:
    method: str = "smote"
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, (ok, rule) in RULES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Provenance:
    """Synthetic row n_real + i interpolates from base_row[i] toward
    neighbor_row[i] by lam[i] (see grow); the three arrays are
    read-only."""
    n_real: int
    base_row: np.ndarray      # original-row index interpolated from
    neighbor_row: np.ndarray  # original-row index interpolated toward
    lam: np.ndarray
    adasyn_fallback: bool = False

    def __post_init__(self):
        for arr in (self.base_row, self.neighbor_row, self.lam):
            arr.setflags(write=False)

    def to_csv(self, path):
        write_csv(path, PROVENANCE_COLUMNS,
                  zip(range(self.n_real, self.n_real + self.lam.size),
                      self.base_row.tolist(), self.neighbor_row.tolist(),
                      self.lam.tolist()))


@dataclass(frozen=True)
class ResampleResult:
    dataset: LabeledDataset
    provenance: Provenance


def grow(train, base_row, neighbor_row, lam):
    """train with synthetic row i, base + lam[i] * (neighbor - base) over
    training rows base_row[i] and neighbor_row[i], appended in order; a
    synthetic row takes its base row's label."""
    base = train.features[base_row]
    synthetic = base + lam[:, None] * (train.features[neighbor_row] - base)
    return LabeledDataset(
        np.vstack([train.features, synthetic]),
        np.concatenate([train.labels, train.labels[base_row]]),
        train.feature_names,
        np.concatenate([train.synthetic_flags, np.ones(lam.size, dtype=bool)]))


def load_resampled(path, train):
    """The resampled set that the provenance CSV at path grows from train.

    Rows must number the synthetic rows from train.n_rows up, name a base
    and a neighbour row of train with the same label, and hold a finite
    lambda in [0, 1); a row that does not fails with ``path:line``.
    """
    n = train.n_rows
    positions = itertools.count(n)  # the synthetic_row each row must hold

    def parse(row):
        found, base, neighbor = (int(v) for v in row[:3])
        lam = float(row[3])
        synthetic_row = next(positions)
        if found != synthetic_row:
            raise ValueError(f"synthetic_row must be {synthetic_row}, "
                             f"got {found}")
        for name, index in (("base_row", base), ("neighbor_row", neighbor)):
            if not 0 <= index < n:
                raise ValueError(f"{name} {index} is outside the {n} "
                                 f"training rows")
        if train.labels[base] != train.labels[neighbor]:
            raise ValueError(f"base_row {base} and neighbor_row {neighbor} "
                             f"have different labels")
        if not 0.0 <= lam < 1.0:  # false for nan too
            raise ValueError(f"lambda must be finite and in [0, 1), "
                             f"got {row[3]!r}")
        return base, neighbor, lam

    def build(_, rows):
        base, neighbor, lam = np.array(rows, dtype=np.float64).reshape(-1, 3).T
        return grow(train, base.astype(np.intp), neighbor.astype(np.intp), lam)

    return read_rows(path, PROVENANCE_COLUMNS, parse, build)


def allocate_by_share(share, gap):
    """Integer allocations round(share * gap) summing exactly to gap.

    Rounding drift is repaired one unit at a time on the largest-share
    entries (ties by index), so the result is deterministic.
    """
    share = np.asarray(share, dtype=np.float64)
    alloc = np.rint(share * gap).astype(np.int64)
    order = sorted(range(share.size), key=lambda i: (-share[i], i))
    drift = gap - int(alloc.sum())
    j = 0
    while drift > 0:
        alloc[order[j % len(order)]] += 1
        drift -= 1
        j += 1
    while drift < 0:
        pos = order[j % len(order)]
        if alloc[pos] > 0:
            alloc[pos] -= 1
            drift += 1
        j += 1
    return alloc


def _round_robin(m, gap):
    """Base positions cycling through the m minority rows in order."""
    return np.arange(gap) % m


def _oversample(train, config, base_positions):
    """Grow the minority class to the majority count.

    ``base_positions(minority_label, minority_idx, gap)`` returns the
    position among the minority rows of each synthetic row's base, and
    whether ADASYN fell back to the round robin.
    """
    n_fail, n_pass = train.class_counts()
    minority_label = n_pass < n_fail  # a tie makes failing the minority
    minority_idx = np.flatnonzero(train.labels == minority_label)
    m, k = minority_idx.size, config.k_neighbors
    if k >= m:
        advice = ("use a smaller k_neighbors" if m > 1 else
                  "no k_neighbors can work with fewer than 2 minority rows")
        raise ValueError(f"k_neighbors={k} needs at least {k + 1} minority "
                         f"rows, got {m}; {advice}")
    pools = knn_indices(train.features, k, subset=minority_idx)
    positions, fallback = base_positions(minority_label, minority_idx,
                                         max(n_fail, n_pass) - m)
    rng = np.random.default_rng(config.seed)
    neighbor_row = np.empty(positions.size, dtype=np.intp)
    lam = np.empty(positions.size)
    for t, pos in enumerate(positions.tolist()):
        neighbor_row[t] = pools[pos, rng.integers(k)]
        lam[t] = rng.random()
    base_row = minority_idx[positions]
    return ResampleResult(grow(train, base_row, neighbor_row, lam),
                          Provenance(train.n_rows, base_row, neighbor_row,
                                     lam, fallback))


def smote(train, config):
    """Oversample the minority class by uniform round-robin interpolation.

    Base rows cycle through the minority rows in dataset order so per-base
    counts stay within one of each other; the neighbour and lambda are drawn
    fresh per synthetic row.  Deterministic given (train, config).
    """
    return _oversample(train, config, lambda label, idx, gap:
                       (_round_robin(idx.size, gap), False))


def adasyn(train, config):
    """Oversample with per-row allocation weighted by local majority density.

    Each minority row i gets r_i = (majority rows among its k nearest over
    all rows) / k; allocations are round(r_i / sum(r) * gap) with rounding
    drift repaired on the largest shares.  When no minority row sees any
    majority neighbour (sum r = 0) the allocation falls back to the uniform
    SMOTE scheme and the provenance records the fallback.
    """
    k = config.k_neighbors

    def base_positions(minority_label, minority_idx, gap):
        mixed = knn_among(train.features[minority_idx], train.features, k,
                          own=minority_idx)
        r = (train.labels[mixed] != minority_label).sum(axis=1) / k
        total = r.sum()
        if total == 0.0:
            return _round_robin(minority_idx.size, gap), True
        alloc = allocate_by_share(r / total, gap)
        return np.repeat(np.arange(minority_idx.size), alloc), False

    return _oversample(train, config, base_positions)


def resample(train, config):
    """Dispatch on config.method; none adds no row."""
    if config.method == "none":
        no_rows = np.empty(0, dtype=np.intp)
        return ResampleResult(train, Provenance(train.n_rows, no_rows,
                                                no_rows, np.empty(0)))
    if config.method == "smote":
        return smote(train, config)
    return adasyn(train, config)
