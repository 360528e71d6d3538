"""SMOTE and ADASYN minority oversampling.

Both grow the minority class to exactly the majority count ("auto"
strategy) by interpolating between a minority row and one of its k nearest
minority neighbours:  x_base + lambda * (x_neighbor - x_base), lambda
uniform on [0, 1).  Synthetic rows keep fractional values; they are not
re-binarised.  Every synthetic row is recorded in a provenance table
(base row, neighbour row, lambda) so tests can audit containment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, write_csv
from .neighbors import knn_among, knn_indices


METHODS = ("smote", "adasyn")  # the names resample() dispatches on

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


@dataclass(frozen=True)
class SyntheticRow:
    synthetic_row: int   # row index in the resampled dataset
    base_row: int        # original-row index interpolated from
    neighbor_row: int    # original-row index interpolated toward
    lam: float


@dataclass(frozen=True)
class Provenance:
    rows: tuple
    adasyn_fallback: bool = False

    def to_csv(self, path):
        write_csv(path, ("synthetic_row", "base_row", "neighbor_row",
                         "lambda"),
                  ((r.synthetic_row, r.base_row, r.neighbor_row, r.lam)
                   for r in self.rows))


@dataclass(frozen=True)
class ResampleResult:
    dataset: LabeledDataset
    provenance: Provenance


def _minority_split(train):
    n_fail, n_pass = train.class_counts()
    minority_label = n_pass < n_fail  # ties count the failing class as minority
    minority_idx = np.flatnonzero(train.labels == minority_label)
    majority_count = max(n_fail, n_pass)
    return minority_label, minority_idx, majority_count


def _neighbor_pools(train, minority_idx, k):
    """k nearest minority-only neighbours of each minority row."""
    if k >= minority_idx.size:
        raise ValueError(
            f"k_neighbors={k} needs at least {k + 1} minority rows, got "
            f"{minority_idx.size}; use a smaller k_neighbors")
    return knn_indices(train.features, k, subset=minority_idx)


def _interpolate(base_row, neighbor_row, lam):
    return base_row + lam * (neighbor_row - base_row)


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


def _assemble(train, minority_label, synthetic, provenance_rows, fallback):
    flags = np.concatenate([train.synthetic_flags,
                            np.ones(len(synthetic), dtype=bool)])
    features = np.vstack([train.features, synthetic])
    labels = np.concatenate([train.labels,
                             np.full(len(synthetic), minority_label)])
    dataset = LabeledDataset(features, labels, train.feature_names, flags)
    return ResampleResult(dataset=dataset,
                          provenance=Provenance(rows=tuple(provenance_rows),
                                                adasyn_fallback=fallback))


def _draw_rows(train, minority_idx, pools, base_positions, rng):
    """Interpolated rows for the given base positions, in draw order."""
    n_orig = train.n_rows
    synthetic = np.empty((len(base_positions), train.n_features),
                         dtype=np.float64)
    records = []
    for t, pos in enumerate(base_positions):
        base_row = int(minority_idx[pos])
        neighbor_row = int(pools[pos][rng.integers(pools.shape[1])])
        lam = float(rng.random())
        synthetic[t] = _interpolate(train.features[base_row],
                                    train.features[neighbor_row], lam)
        records.append(SyntheticRow(synthetic_row=n_orig + t,
                                    base_row=base_row,
                                    neighbor_row=neighbor_row,
                                    lam=lam))
    return synthetic, records


def smote(train, config):
    """Oversample the minority class by uniform round-robin interpolation.

    Base rows cycle through the minority rows in dataset order so per-base
    counts stay within one of each other; the neighbour and lambda are drawn
    fresh per synthetic row.  Deterministic given (train, config).
    """
    minority_label, minority_idx, majority_count = _minority_split(train)
    gap = majority_count - minority_idx.size
    pools = _neighbor_pools(train, minority_idx, config.k_neighbors)
    rng = np.random.default_rng(config.seed)
    base_positions = [t % minority_idx.size for t in range(gap)]
    synthetic, records = _draw_rows(train, minority_idx, pools,
                                    base_positions, rng)
    return _assemble(train, minority_label, synthetic, records,
                     fallback=False)


def adasyn(train, config):
    """Oversample with per-row allocation weighted by local majority density.

    Each minority row i gets r_i = (majority rows among its k nearest over
    all rows) / k; allocations are round(r_i / sum(r) * gap) with rounding
    drift repaired on the largest shares.  When no minority row sees any
    majority neighbour (sum r = 0) the allocation falls back to the uniform
    SMOTE scheme and the provenance records the fallback.
    """
    minority_label, minority_idx, majority_count = _minority_split(train)
    gap = majority_count - minority_idx.size
    pools = _neighbor_pools(train, minority_idx, config.k_neighbors)
    rng = np.random.default_rng(config.seed)

    mixed = knn_among(train.features[minority_idx], train.features,
                      config.k_neighbors, own=minority_idx)
    neighbor_labels = train.labels[mixed]
    r = (neighbor_labels != minority_label).sum(axis=1) / config.k_neighbors

    total = r.sum()
    fallback = bool(total == 0.0)
    if fallback:
        base_positions = [t % minority_idx.size for t in range(gap)]
    else:
        alloc = allocate_by_share(r / total, gap)
        base_positions = [pos for pos in range(minority_idx.size)
                          for _ in range(alloc[pos])]
    synthetic, records = _draw_rows(train, minority_idx, pools,
                                    base_positions, rng)
    return _assemble(train, minority_label, synthetic, records, fallback)


def resample(train, config):
    """Dispatch on config.method."""
    if config.method == "smote":
        return smote(train, config)
    return adasyn(train, config)
