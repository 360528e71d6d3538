"""The numeric hot kernels: pairwise squared distances and Gini split scans.

Both are plain numpy.  Every candidate value comes from elementwise
double-precision operations (no BLAS call and no reduction whose order
depends on the thread count), so results are exact on 0/1 inputs and
reproducible bit for bit on fractional ones.
"""

from __future__ import annotations

import numpy as np


def active_backend():
    """Name of the kernel implementation; there is only the numpy one."""
    return "numpy"


def pairwise_sqdist(x, y):
    """Squared Euclidean distances between rows of x (n, d) and y (m, d).

    Returns an (n, m) float64 array.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("pairwise_sqdist expects 2-D matrices")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"column mismatch: {x.shape[1]} vs {y.shape[1]}")
    out = np.empty((x.shape[0], y.shape[0]), dtype=np.float64)
    for i in range(x.shape[0]):
        diff = y - x[i]
        out[i] = (diff * diff).sum(axis=1)
    return out


def split_scan(values, labels):
    """Best binary split over the columns of a node's feature block.

    ``values`` is an (n, m) block whose columns are each sorted ascending;
    ``labels`` (1 = positive class) is aligned to it column by column.
    Candidate thresholds are midpoints between distinct consecutive values
    of a column, scored by weighted child Gini.  The first strict minimum
    wins: the lowest column, then the lowest threshold within it.

    The scores are built in three (n - 1, m) buffers reused in place, each
    value by the same operations in the same order as the textbook
    expression, so they are bit-identical to it.

    Returns ``(column, weighted_gini, threshold)``; column is -1 when no
    column has two distinct values.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim != 2 or values.shape != labels.shape:
        raise ValueError("values and labels must be aligned 2-D blocks, "
                         f"got {values.shape} and {labels.shape}")
    n = values.shape[0]
    if n < 2 or values.shape[1] == 0:
        return -1, np.inf, 0.0
    ntot = float(n)
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = ntot - nl
    total = labels.sum(axis=0, dtype=np.float64)
    # wg = (nl - (cl0*cl0 + cl1*cl1)/nl + nr - (cr0*cr0 + cr1*cr1)/nr) / ntot
    cl1 = np.cumsum(labels[:-1], axis=0, dtype=np.float64)
    wg = np.subtract(nl, cl1)                      # cl0
    cr1 = np.subtract(total, cl1)
    np.multiply(cl1, cl1, out=cl1)
    np.multiply(wg, wg, out=wg)
    np.add(wg, cl1, out=wg)                        # cl0*cl0 + cl1*cl1
    cr0 = np.subtract(nr, cr1, out=cl1)            # cl1 is no longer needed
    np.divide(wg, nl, out=wg)
    np.subtract(nl, wg, out=wg)
    np.add(wg, nr, out=wg)
    np.multiply(cr0, cr0, out=cr0)
    np.multiply(cr1, cr1, out=cr1)
    np.add(cr0, cr1, out=cr0)                      # cr0*cr0 + cr1*cr1
    np.divide(cr0, nr, out=cr0)
    np.subtract(wg, cr0, out=wg)
    np.divide(wg, ntot, out=wg)
    wg[values[1:] == values[:-1]] = np.inf
    split_at = np.argmin(wg, axis=0)
    best = wg[split_at, np.arange(wg.shape[1])]
    column = int(np.argmin(best))
    if best[column] == np.inf:
        return -1, np.inf, 0.0
    k = split_at[column]
    threshold = (values[k, column] + values[k + 1, column]) / 2.0
    return column, float(best[column]), float(threshold)
