"""Logistic regression with l2 or elasticnet penalty.

Minimises

    sum_i log(1 + exp(-y_i (w.x_i + b)))
        + (1/C) * (l1_ratio * |w|_1 + (1 - l1_ratio)/2 * |w|_2^2)

with y in {-1, +1} and the intercept unpenalised, by Newton's method on
theta = [w, b].  Under the l1 part the step is orthant-wise (in the spirit
of OWL-QN, Andrew & Gao 2007, and newGLMNET, Yuan, Ho & Lin 2012): the
Newton system is solved on the free set with the pseudo-gradient as
right-hand side, and every trial point is projected onto the orthant of
the current iterate, so a weight that would change sign becomes exactly 0.
Projection alone clips many weights at once and costs halvings, so the
step is first corrected in the spirit of Bertsekas's (1982) projected
Newton method: the weights the full step takes across zero are pinned at
exactly 0 and the rest of the free set is solved again with the same
Hessian, at most three times.  The corrected step is taken whole when it
is a descent direction and passes the Armijo test at step length 1;
otherwise the plain step is backtracked.  The Armijo test is on the full
objective, so the objective never increases; with l1 = 0 no weight is
pinned and the step is the plain Newton step.  When no halving of the
plain step decreases the objective enough (a wide, weakly regularised
problem whose free-set Hessian is singular but for the ridge), the step
is solved once more with ``max |pg|`` added to the Hessian's diagonal
(Levenberg-Marquardt damping) and backtracked in the same way.

A fit starts at w = 0 and b = 0 unless it is given a ``start`` vector
[w, b]; a start near the optimum (a neighbouring objective's solution, as
the grid search passes along its regularization path) saves Newton steps.
The solution does not depend on the start, as the objective is convex; its
last bits may.

The fit stops on a KKT certificate: the largest pseudo-gradient entry is
at most ``tolerance * max(1, |objective|)``.  ``fit_logistic_raw`` returns
that relative residual at the point it returns, and the model is flagged
non-converged unless it is at most ``tolerance``, so a NaN residual is
flagged; ``max_iterations`` counts Newton steps.  A fit also stops,
unconverged, when an accepted step changes neither the objective nor the
residual in floating point, which happens once the tolerance lies below
the gradient's rounding floor.
"""

from __future__ import annotations

import numpy as np

from .base import TrainedModel, fitted_array

_RIDGE = 1e-10         # keeps the Newton system nonsingular without l2
_ARMIJO = 1e-4         # sufficient-decrease fraction
_MAX_HALVINGS = 60     # backtracking halvings before a step is given up
_MAX_PINS = 3          # re-solves of a step with crossing weights pinned


def sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def smooth_objective(X, y, w, b, C, l1_ratio):
    """Differentiable part of the objective: logistic loss plus l2 term."""
    l2 = (1.0 - l1_ratio) / C
    margins = y * (X @ w + b)
    return np.logaddexp(0.0, -margins).sum() + 0.5 * l2 * (w @ w)


def smooth_gradient(X, y, w, b, C, l1_ratio):
    """Analytic gradient of smooth_objective; returns (grad_w, grad_b)."""
    l2 = (1.0 - l1_ratio) / C
    margins = y * (X @ w + b)
    coef = y * sigmoid(-margins)
    return -(X.T @ coef) + l2 * w, -coef.sum()


def _objective(X, y, w, b, C, l1_ratio):
    return smooth_objective(X, y, w, b, C, l1_ratio) \
        + l1_ratio / C * np.abs(w).sum()


def _pseudo_gradient(X, y, w, b, C, l1_ratio):
    """Minimum-norm subgradient of the objective over [w, b].

    A nonzero weight gets grad + l1*sign(w); a zero weight gets grad + l1
    if that is negative, grad - l1 if that is positive, and 0 otherwise;
    the intercept gets its plain gradient.
    """
    l1 = l1_ratio / C
    grad_w, grad_b = smooth_gradient(X, y, w, b, C, l1_ratio)
    pg_w = np.where(w != 0.0, grad_w + l1 * np.sign(w),
                    _soft_threshold(grad_w, l1))
    return np.append(pg_w, grad_b)


def _relative(pg, objective):
    return float(np.abs(pg).max() / max(1.0, abs(objective)))


def _line_search(objective, theta, step, pg, current, orthant, tries):
    """Armijo backtracking from theta along step, halving up to tries - 1
    times; returns (trial, value), or None when no trial decreases enough.

    With an orthant every trial is projected onto it: a weight that would
    leave its orthant becomes exactly 0.
    """
    alpha = 1.0
    for _ in range(tries):
        trial = theta + alpha * step
        if orthant is not None:
            weights = trial[:-1]
            weights[np.sign(weights) != orthant] = 0.0
        value = objective(trial)
        if value <= current + _ARMIJO * (pg @ (trial - theta)):
            return trial, value
        alpha *= 0.5
    return None


def _pinned_step(hessian, pg, theta, step, free, orthant):
    """The free-set Newton step re-solved with zero-crossing weights pinned.

    Every weight the full step would take out of its orthant is pinned at
    exactly 0 (its step is -w) and the rest of the free set F is solved
    again with the same Hessian, H_FF s_F = -pg_F - H_FK s_K over the
    pinned set K; this repeats at most _MAX_PINS times.  Returns None when
    the plain step crosses no zero.
    """
    d = len(orthant)
    index = np.flatnonzero(free)         # theta position of Hessian row
    start = theta[index]
    signs = np.append(orthant, 0.0)[index]
    weight = index < d                   # the intercept is never pinned
    local = step[index]
    pinned = np.zeros(len(index), dtype=bool)
    for _ in range(_MAX_PINS):
        crossing = weight & ~pinned & (np.sign(start + local) != signs)
        if not crossing.any():
            break
        pinned |= crossing
        rest = ~pinned
        local[pinned] = -start[pinned]
        local[rest] = np.linalg.solve(
            hessian[np.ix_(rest, rest)],
            -pg[index[rest]] - hessian[np.ix_(rest, pinned)] @ local[pinned])
    if not pinned.any():
        return None
    out = np.zeros_like(step)
    out[index] = local
    return out


def fit_logistic_raw(X, y, C, l1_ratio, tolerance, max_iterations,
                     start=None):
    """Core solver on y in {-1,+1}; returns (w, b, history, residual).

    start is the [w, b] vector to iterate from (None: all zeros).
    history[k] is the objective after k accepted Newton steps (history[0]
    is the objective at the start).  residual is the relative KKT residual
    at the returned point; the fit converged exactly when it is within
    tolerance.
    """
    n, d = X.shape
    l1 = l1_ratio / C
    Z = np.hstack([X, np.ones((n, 1))])  # theta = [w, b] scores Z @ theta
    # diagonal of the penalty's Hessian plus the ridge, intercept last
    penalty_diag = np.append(np.full(d, (1.0 - l1_ratio) / C), 0.0) + _RIDGE

    def objective(t):
        return _objective(X, y, t[:d], t[d], C, l1_ratio)

    theta = np.zeros(d + 1) if start is None \
        else np.array(start, dtype=np.float64)
    current = objective(theta)
    history = [current]
    residual = None
    while True:
        pg = _pseudo_gradient(X, y, theta[:d], theta[d], C, l1_ratio)
        previous, residual = residual, _relative(pg, current)
        if residual <= tolerance or len(history) > max_iterations:
            break
        if residual == previous and history[-1] == history[-2]:
            break  # the last step changed nothing at fp precision
        free = (theta != 0.0) | (pg != 0.0)
        free[d] = True
        # Z_F' D Z_F with D = p(1 - p), as one symmetric product
        p = sigmoid(Z @ theta)
        scaled = Z[:, free]  # a copy: boolean indexing
        scaled *= np.sqrt(p * (1.0 - p))[:, None]
        hessian = scaled.T @ scaled
        hessian[np.diag_indices_from(hessian)] += penalty_diag[free]
        step = np.zeros(d + 1)
        step[free] = np.linalg.solve(hessian, -pg[free])
        accepted = orthant = None
        if l1 > 0.0:
            # orthant of the iterate: a zero weight may only move against pg
            orthant = np.where(theta[:d] != 0.0, np.sign(theta[:d]),
                               -np.sign(pg[:d]))
            pinned = _pinned_step(hessian, pg, theta, step, free, orthant)
            # the pinned step is taken whole or not at all; only the plain
            # step backtracks
            if pinned is not None and pg @ pinned < 0.0:
                accepted = _line_search(objective, theta, pinned, pg,
                                        current, orthant, 1)
        if accepted is None:
            accepted = _line_search(objective, theta, step, pg, current,
                                    orthant, _MAX_HALVINGS)
        if accepted is None:
            # the free-set Hessian is singular but for the ridge (more free
            # weights than rows), so the plain step is mostly ridge-scaled
            # pseudo-gradient; retry with Levenberg-Marquardt damping
            hessian[np.diag_indices_from(hessian)] += np.abs(pg).max()
            step[free] = np.linalg.solve(hessian, -pg[free])
            accepted = _line_search(objective, theta, step, pg, current,
                                    orthant, _MAX_HALVINGS)
        if accepted is None:
            break  # no sufficient decrease at fp precision
        theta, current = accepted
        history.append(current)
    return theta[:d].copy(), float(theta[d]), np.asarray(history), residual


class LogisticModel(TrainedModel):
    state = ("weights", "intercept")

    def __init__(self, spec, n_features, non_converged=False, *, weights,
                 intercept, objective_history=None, kkt_residual=None):
        super().__init__(spec, n_features, non_converged)
        self.weights = fitted_array(weights, n_features)
        self.intercept = float(fitted_array(intercept))
        # fit diagnostics, kept in memory only (not serialised)
        self.objective_history = objective_history
        self.kkt_residual = kkt_residual

    def _proba(self, rows):
        p_true = sigmoid(rows @ self.weights + self.intercept)
        return np.column_stack([1.0 - p_true, p_true])


def fit_logistic(spec, train, start=None):
    p = spec.params
    l1_ratio = p["l1_ratio"] if p["penalty"] == "elasticnet" else 0.0
    y = np.where(train.labels, 1.0, -1.0)
    w, b, history, residual = fit_logistic_raw(
        train.features, y, C=p["C"], l1_ratio=l1_ratio,
        tolerance=p["tolerance"], max_iterations=p["max_iterations"],
        start=start)
    return LogisticModel(spec, train.n_features,
                         non_converged=not residual <= p["tolerance"],
                         weights=w, intercept=b, objective_history=history,
                         kkt_residual=residual)
