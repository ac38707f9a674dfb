"""Damped least-squares engine shared by all estimators.

A small, deterministic Levenberg-Marquardt implementation that runs a stack
of independent fits in lockstep: one model evaluation per trial step gives
the (weighted) residuals and analytic Jacobians of every fit still
iterating, and one stacked solve gives their steps. A single fit is a batch
of one. Lower bounds are enforced by projection (clamping), with
per-parameter at-bound flags reported on the result. The rows evaluate is
asked for only ever lose entries and keep stack order. Arrays hold what the
stacked linear algebra and evaluate read; each fit's stop tests run on
Python floats, one fit at a time, with the same IEEE operations.

Schedule and stopping rule:
  - damping factor starts at 1e-3, multiplied by 10 on a rejected step and
    divided by 10 on an accepted one, never below 1e-15;
  - a step is accepted when it lowers rss, or when it is tiny (no parameter
    moves by more than 1e-8 of its value) and its residuals are finite with
    rss within 64 ulps of the current cost, rss * (1 + 64 eps); a zero step
    is never taken;
  - convergence when the (projected) gradient norm |J^T r| drops below
    1e-10 * (1 + rss), within at most 200 iterations;
  - convergence, too, when the next step is negligible: before its trial is
    evaluated, a fit with damping at most 1e-3 and n > p residuals stops
    at its current state if the decrease its damped step predicts,
    -g^T p = p^T (J^T J + lambda S) p, is at most tau^2 * rss / (n - p)
    with tau = 1e-4: that step would move the fit by less than about 1e-4
    of a standard error (the Gauss-Newton decrement test);
  - a fit whose damping passes 1e15 stops, unconverged.

FitResult.stop names the test that ended a fit: "gradient", "decrement",
"damping" or "iterations" (the 200-iteration cap).

Standard errors come from the curvature of the weighted sum of squares at
the optimum, scaled by the residual variance: cov = inv(J^T J) * rss / (n - p).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

_GTOL = 1e-10
_DECREMENT_TOL = 1e-4
_MAX_ITER = 200
_DAMPING_INIT = 1e-3
_DAMPING_GROW = 10.0
_DAMPING_SHRINK = 10.0
_DAMPING_MAX = 1e15
_COST_SLACK = 1.0 + 64.0 * float(np.finfo(float).eps)  # a tiny step's rss may pass the cost by 64 ulps
_STOPS = ("gradient", "decrement", "damping", "iterations")
_GRADIENT, _DECREMENT, _DAMPING, _ITERATIONS = range(len(_STOPS))


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares fit.

    values/stderr/covariance are ordered like names. stderr entries are NaN
    when the covariance is unavailable (rank-deficient curvature or zero
    degrees of freedom). at_bound marks the parameters that finished on
    their lower bound; notes carries the flags the estimators add, such as
    degeneracy markers. stop names the test that ended the fit: "gradient"
    or "decrement" when it converged, "damping" or "iterations" when not; a
    fit made without iterating (a linear solve, constant data) reports "gradient".
    """

    names: tuple[str, ...]
    values: np.ndarray
    stderr: np.ndarray
    covariance: np.ndarray | None
    rss: float
    iterations: int
    at_bound: tuple[bool, ...] = ()
    gradient_norm: float = float("nan")
    notes: tuple[str, ...] = field(default_factory=tuple)
    stop: str = "gradient"

    def __post_init__(self) -> None:
        if len(self.names) != len(self.values) or len(self.names) != len(self.stderr):
            raise ValueError("names, values, and stderr must have equal length")

    @property
    def converged(self) -> bool:
        return self.stop in ("gradient", "decrement")

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown parameter {name!r}") from exc

    def value(self, name: str) -> float:
        return float(self.values[self._index(name)])

    def error(self, name: str) -> float:
        return float(self.stderr[self._index(name)])

    def with_notes(self, *extra: str) -> "FitResult":
        return replace(self, notes=self.notes + extra)


def _covariances(jac: np.ndarray, rss: np.ndarray) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """cov = inv(J^T J) * rss / dof and its stderr for each fit of a (k, n, p)
    stack, or (None, NaN vector) where it is undefined."""
    k, n, p = jac.shape
    dof = n - p
    if dof <= 0:
        return [(None, np.full(p, np.nan)) for _ in range(k)]
    system = jac.transpose(0, 2, 1) @ jac
    defined = np.ones(k, dtype=bool)
    try:
        inverse = np.linalg.inv(system)
    except np.linalg.LinAlgError:
        # a singular matrix leaves only its own fit without a covariance
        inverse = np.zeros_like(system)
        for i in range(k):
            try:
                inverse[i] = np.linalg.inv(system[i])
            except np.linalg.LinAlgError:
                defined[i] = False
    cov = inverse * (rss / dof)[:, None, None]
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    diag = np.diagonal(cov, axis1=1, axis2=2)
    stderr = np.sqrt(np.where(diag >= 0.0, diag, np.nan))
    return [(cov[i], stderr[i]) if defined[i] else (None, np.full(p, np.nan)) for i in range(k)]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, n) stacks, bit-equal to a[i] @ b[i]."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _gradients(jac: np.ndarray, r: np.ndarray, x: np.ndarray, lower: np.ndarray):
    """J^T r per fit, and the norm of its projection as a list of floats: the
    components that push a bound-clamped parameter outward are left out."""
    grad = (r[:, None, :] @ jac)[:, 0, :]
    clamped = x <= lower
    projected = np.where(clamped & (grad > 0.0), 0.0, grad) if np.count_nonzero(clamped) else grad
    return grad, np.sqrt(_dots(projected, projected)).tolist()


def _steps(jac: np.ndarray, grad: np.ndarray, damping: Sequence[float]) -> np.ndarray:
    """Damped Gauss-Newton steps of a stack of fits; a fit whose system is
    singular or whose step is not finite gets a zero step."""
    system = jac.transpose(0, 2, 1) @ jac
    p = system.shape[1]
    diagonal = system.reshape(len(system), p * p)[:, ::p + 1]
    # keep the damping matrix nonsingular for parameters with no local effect
    diagonal += np.array(damping)[:, None] * np.where(diagonal <= 0.0, 1.0, diagonal)
    rhs = -grad[:, :, None]
    try:
        steps = np.linalg.solve(system, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        # a singular system rejects only its own fit's step
        steps = np.full(grad.shape, np.nan)
        for i in range(len(system)):
            try:
                steps[i] = np.linalg.solve(system[i:i + 1], rhs[i:i + 1])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
    finite = np.isfinite(steps)
    if np.count_nonzero(finite) == finite.size:
        return steps
    return np.where(finite.all(axis=1, keepdims=True), steps, 0.0)


def levenberg_marquardt_stack(
    evaluate: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    *,
    names: Sequence[str],
    lower: Sequence[float],
) -> list[FitResult | ValueError]:
    """Minimize |r_i(x_i)|^2 for a stack of k independent fits in lockstep.

    x0 holds one starting point per row, shape (k, p). evaluate(theta, rows)
    returns the residuals (m, n) and Jacobians (m, n, p) of the fits whose
    stack indices are in rows, at the m points in theta; it is called once
    per trial step and must give each fit the same values whichever other
    fits share the call, in new arrays each time (the engine keeps them).
    Every fit keeps its own damping, acceptance, bound projection, gradient
    and decrement tests and damping-overflow stop, and freezes once it
    finishes, so each result is bit-equal to the fit run as a batch of one.
    names and lower are shared by all fits: names labels the p parameters,
    and lower holds their lower bounds (-inf for free parameters); iterates
    are projected onto them and at_bound marks parameters that finished
    clamped. A fit whose residuals or rss are not finite at its start gets a
    ValueError in place of its result.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError("x0 must hold one starting point per fit, shape (k, p)")
    k, p = x.shape
    param_names = tuple(names)
    if len(param_names) != p:
        raise ValueError("names length must match parameter count")
    bound = np.asarray(lower, dtype=float)
    if bound.shape != (p,):
        raise ValueError("lower bounds must match parameter count")
    x = np.maximum(x, bound)

    r, jac = (np.array(a, dtype=float) for a in evaluate(x, np.arange(k)))
    with np.errstate(over="ignore"):  # an overflowing rss fails the start like a non-finite residual
        rss_start = _dots(r, r)
    started = np.isfinite(r).all(axis=1) & np.isfinite(rss_start)
    # a fit that does not start never iterates; its result is a ValueError
    live = np.flatnonzero(started)
    dof = r.shape[1] - p
    # the decrement test's bound on g^T step, per unit of rss; with n <= p
    # it is 0, which no step passes
    decrement_floor = -_DECREMENT_TOL**2 / dof if dof > 0 else 0.0
    # each fit's scalars, by stack index once it finishes
    rss, gnorm, iterations, stop = [0.0] * k, [0.0] * k, [0] * k, [0] * k

    # the state of the fits still iterating, compacted: a fit leaves it once
    # it finishes. Each fit's rss, gradient norm and damping are Python
    # floats (its stop cause None while it iterates), tested with the IEEE
    # operations numpy would make. A Python float does not raise on overflow
    # under a run's error state, as numpy does, but none occurs: damping stays
    # at or below 1e16 and rss is finite (only rss * (1 + 64 eps) could pass
    # the largest double, for an rss within a relative 64 eps of it).
    x_live, r_live, jac_live = (a.take(live, axis=0) for a in (x, r, jac))
    rss_live = rss_start.take(live).tolist()
    grad_live, gnorm_live = _gradients(jac_live, r_live, x_live, bound)
    damping = [_DAMPING_INIT] * live.size
    cause = [_GRADIENT if g < _GTOL * (1.0 + s) else None for g, s in zip(gnorm_live, rss_live)]
    for iteration in range(_MAX_ITER + 1 if live.size else 0):
        # cause holds the gradient and damping tests on the state the last
        # trial left; the decrement test needs this iteration's step. A fit
        # that passes one, or reaches the cap, finishes after this many
        # iterations
        stepping = iteration < _MAX_ITER and None in cause
        if stepping:
            step = _steps(jac_live, grad_live, damping)
            # g^T step is minus the decrease the damped model predicts; a
            # zero step (singular system) predicts none and never stops
            cause = [_DECREMENT if c is None and d <= _DAMPING_INIT and 0.0 > g >= decrement_floor * s else c
                     for c, d, g, s in zip(cause, damping, _dots(grad_live, step).tolist(), rss_live)]
        ended = [i for i, c in enumerate(cause) if c is not None or not stepping]
        if ended:
            index = np.array(ended)
            rows = live.take(index)
            x[rows], jac[rows] = x_live.take(index, axis=0), jac_live.take(index, axis=0)
            for i, row in zip(ended, rows.tolist()):
                rss[row], gnorm[row], iterations[row] = rss_live[i], gnorm_live[i], iteration
                stop[row] = _ITERATIONS if cause[i] is None else cause[i]
            if len(ended) == len(cause):
                break
            keep = [i for i, c in enumerate(cause) if c is None]
            rss_live, gnorm_live, damping = ([a[i] for i in keep] for a in (rss_live, gnorm_live, damping))
            keep = np.array(keep)
            live, x_live, r_live, jac_live, grad_live, step = (
                a.take(keep, axis=0) for a in (live, x_live, r_live, jac_live, grad_live, step))
            cause = [None] * keep.size
        x_trial = np.maximum(x_live + step, bound)
        r_trial, jac_trial = (np.ascontiguousarray(a, dtype=float) for a in evaluate(x_trial, live))
        rss_trial = _dots(r_trial, r_trial).tolist()
        # rss_live is finite, so a smaller rss_trial is finite, and so is
        # every residual it sums
        take = [t < s for t, s in zip(rss_trial, rss_live)]
        if not all(take):
            # near the optimum the exact cost decrease of a polish step falls
            # below the rounding granularity of rss itself; such a step still
            # moves the gradient to its floating-point floor, so accept it
            # when it is negligibly small and within a few ulps of the cost.
            # A zero step (singular system) moves nowhere, so it is never accepted
            steps, xs, trials = step.tolist(), x_live.tolist(), x_trial.tolist()
            for i in [i for i, t in enumerate(take) if not t]:
                take[i] = (rss_trial[i] <= rss_live[i] * _COST_SLACK and xs[i] != trials[i]
                           and all(abs(s) <= 1e-8 * max(abs(v), 1e-300) for s, v in zip(steps[i], xs[i]))
                           and bool(np.isfinite(r_trial[i]).all()))
        if any(take):
            if not all(take):
                # a fit that rejects its trial keeps its state
                mask = np.array(take)[:, None]
                x_trial, r_trial = np.where(mask, x_trial, x_live), np.where(mask, r_trial, r_live)
                jac_trial = np.where(mask[:, :, None], jac_trial, jac_live)
                rss_trial = [t if taken else s for taken, t, s in zip(take, rss_trial, rss_live)]
            x_live, r_live, rss_live, jac_live = x_trial, r_trial, rss_trial, jac_trial
            grad_live, gnorm_live = _gradients(jac_live, r_live, x_live, bound)
        # a fit that took its step cannot pass the damping stop, and one that
        # kept its state still fails the gradient test it failed before
        damping = [max(d / _DAMPING_SHRINK, 1e-15) if taken else d * _DAMPING_GROW
                   for taken, d in zip(take, damping)]
        cause = [_GRADIENT if g < _GTOL * (1.0 + s) else _DAMPING if d > _DAMPING_MAX else None
                 for g, s, d in zip(gnorm_live, rss_live, damping)]

    covariances = iter(_covariances(jac[started], np.array(rss)[started]))
    bounds = bound.tolist()
    results: list[FitResult | ValueError] = []
    for i, (start, point) in enumerate(zip(started.tolist(), x.tolist())):
        if not start:
            results.append(ValueError("residuals are not finite at the initial guess"))
            continue
        covariance, stderr = next(covariances)
        results.append(FitResult(
            names=param_names, values=x[i].copy(), stderr=stderr, covariance=covariance, rss=rss[i],
            iterations=iterations[i], at_bound=tuple(v <= b for v, b in zip(point, bounds)),
            gradient_norm=gnorm[i], stop=_STOPS[stop[i]]))
    return results

