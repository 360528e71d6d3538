"""The numeric hot kernels: pairwise squared distances and Gini split scans.

Both are plain numpy; a split scan reads a group of tree nodes at once,
each value as an integer key of its rank in its feature.  Every candidate
value comes from elementwise double-precision operations (no BLAS call and
no reduction whose order depends on the thread count), so results are
exact on 0/1 inputs and reproducible bit for bit on fractional ones.
"""

from __future__ import annotations

import numpy as np


def active_backend():
    """Name of the kernel implementation; there is only the numpy one."""
    return "numpy"


def pairwise_sqdist(x, y):
    """Squared Euclidean distances between rows of x (n, d) and y (m, d).

    Returns an (n, m) float64 array.  Given one array twice, it computes
    each unordered pair once and mirrors it: ``a - b`` is exactly ``-(b -
    a)``, so the square and each row's sum are bit-identical either way.
    """
    same = y is x
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = x if same else np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("pairwise_sqdist expects 2-D matrices")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"column mismatch: {x.shape[1]} vs {y.shape[1]}")
    out = np.empty((x.shape[0], y.shape[0]), dtype=np.float64)
    diff = np.empty_like(y)  # one buffer, not two fresh ones a row
    for i in range(x.shape[0]):
        first = i if same else 0  # same: row i's columns below i are done
        part = diff[first:]
        np.subtract(y[first:], x[i], out=part)
        np.multiply(part, part, out=part)
        part.sum(axis=1, out=out[i, first:])
        if same:
            out[first:, i] = out[i, first:]
    return out


def split_scan(keys, ends):
    """Best Gini split of each segment of a group of tree nodes' cells.

    A segment is one node's rows in one candidate feature, and a cell one
    row of it, packed in an integer key as ``(segment * n_ranks + rank) * 2
    + label``: ``rank`` is the dense rank of the cell's value among its
    feature's distinct values, and ``label`` is 1 for the positive class.
    ``keys`` is sorted in place, so that each segment's cells follow in
    ascending rank; segment s then holds the cells from ``ends[s - 1]`` (0
    for the first) to ``ends[s]``, at least one, and ``ends[-1]`` is
    ``len(keys)``.

    A boundary is a place inside a segment where the rank changes; a split
    there has the midpoint of the two values as its threshold.  Only at a
    boundary is the weighted child Gini evaluated, from exact integer
    counts by the operations, in order, of the textbook expression
    ``(nl - (cl0*cl0 + cl1*cl1)/nl + nr - (cr0*cr0 + cr1*cr1)/nr) / n``,
    so every score is bit-identical to it.

    Returns ``(score, at)``, one entry a segment: the lowest score and the
    sorted position of the last cell left of its boundary, the first
    minimum (the lowest threshold) winning; ``inf`` and -1 where a segment
    has fewer than two distinct values.
    """
    ends = np.asarray(ends, dtype=np.intp)
    if keys.ndim != 1 or ends.ndim != 1 or not ends.size or \
            ends[0] < 1 or (ends[1:] <= ends[:-1]).any() or \
            ends[-1] != keys.size:
        raise ValueError(f"ends must rise from 1 to the {keys.size} keys, "
                         f"got {ends.tolist()}")
    keys.sort()
    score = np.full(ends.size, np.inf)
    at = np.full(ends.size, -1, dtype=np.intp)
    ranks = keys >> 1
    boundary = ranks[1:] != ranks[:-1]  # between cells i and i + 1
    del ranks
    boundary[ends[:-1] - 1] = False  # not between two segments
    cut = np.flatnonzero(boundary)
    if not cut.size:
        return score, at
    begins = np.concatenate(([0], ends[:-1]))
    seg = np.repeat(np.arange(ends.size), ends - begins)[cut]
    begin = begins[seg]
    # positives[i]: the positive cells before cell i, counted exactly
    positives = np.zeros(keys.size + 1)
    np.cumsum(keys & 1, out=positives[1:])
    ntot = (ends[seg] - begin).astype(np.float64)
    nl = (cut + 1 - begin).astype(np.float64)
    nr = ntot - nl
    cl1 = positives[cut + 1] - positives[begin]
    total = positives[ends[seg]] - positives[begin]
    del positives
    cl0 = nl - cl1
    cr1 = total - cl1
    cr0 = nr - cr1
    wg = (nl - (cl0 * cl0 + cl1 * cl1) / nl
          + nr - (cr0 * cr0 + cr1 * cr1) / nr) / ntot
    # each segment's lowest score, and its first boundary that has it
    first = _run_starts(seg)
    score[seg[first]] = np.minimum.reduceat(wg, first)
    hit = np.flatnonzero(wg == score[seg])
    hit = hit[_run_starts(seg[hit])]
    at[seg[hit]] = cut[hit]
    return score, at


def _run_starts(ids):
    """The positions where a sorted array of ids takes a new value."""
    new = np.empty(ids.size, dtype=bool)
    new[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    return np.flatnonzero(new)
