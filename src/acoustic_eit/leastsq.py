"""Damped least-squares engine shared by all estimators.

A small, deterministic Levenberg-Marquardt implementation that runs a stack
of independent fits in lockstep: one model evaluation per trial step gives
the (weighted) residuals and analytic Jacobians of every fit still
iterating, and one stacked solve gives their steps. A single fit is a batch
of one. Lower bounds are enforced by projection (clamping), with
per-parameter at-bound flags reported on the result.

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
_STOPS = ("gradient", "decrement", "damping", "iterations")
_GRADIENT, _DECREMENT, _DAMPING, _ITERATIONS = range(len(_STOPS))


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares fit.

    values/stderr/covariance are ordered like names. stderr entries are NaN
    when the covariance is unavailable (rank-deficient curvature or zero
    degrees of freedom). at_bound marks the parameters that finished on
    their lower bound; notes carries the flags the estimators add, such as
    degeneracy markers. stop names the test that ended the fit: "gradient",
    "decrement", "damping" or "iterations"; a fit made without iterating (a
    linear solve, constant data) reports "gradient".
    """

    names: tuple[str, ...]
    values: np.ndarray
    stderr: np.ndarray
    covariance: np.ndarray | None
    rss: float
    iterations: int
    converged: bool
    at_bound: tuple[bool, ...] = ()
    gradient_norm: float = float("nan")
    notes: tuple[str, ...] = field(default_factory=tuple)
    stop: str = "gradient"

    def __post_init__(self) -> None:
        if len(self.names) != len(self.values) or len(self.names) != len(self.stderr):
            raise ValueError("names, values, and stderr must have equal length")

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


def _all(mask: np.ndarray) -> bool:
    """mask.all(), at a third of its cost on the engine's small arrays."""
    return np.count_nonzero(mask) == mask.size


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, n) stacks, bit-equal to a[i] @ b[i]."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _gradients(jac: np.ndarray, r: np.ndarray, x: np.ndarray, lower: np.ndarray):
    """J^T r per fit, and the norm of its projection: the components that push
    a bound-clamped parameter outward are left out."""
    grad = (r[:, None, :] @ jac)[:, 0, :]
    clamped = x <= lower
    projected = np.where(clamped & (grad > 0.0), 0.0, grad) if np.count_nonzero(clamped) else grad
    return grad, np.sqrt(_dots(projected, projected))


def _steps(jac: np.ndarray, grad: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """Damped Gauss-Newton steps of a stack of fits; a fit whose system is
    singular or whose step is not finite gets a zero step."""
    system = jac.transpose(0, 2, 1) @ jac
    p = system.shape[1]
    diagonal = system.reshape(len(system), p * p)[:, ::p + 1]
    # keep the damping matrix nonsingular for parameters with no local effect
    diagonal += damping[:, None] * np.where(diagonal <= 0.0, 1.0, diagonal)
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
    if _all(finite):
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
        rss = _dots(r, r)
    started = np.isfinite(r).all(axis=1) & np.isfinite(rss)
    # such a fit never iterates; its result is a ValueError
    r[~started], rss[~started] = 0.0, 0.0
    grad, gnorm = _gradients(jac, r, x, bound)
    dof = r.shape[1] - p
    # the decrement test's bound on g^T step, per unit of rss; with n <= p
    # it is 0, which no step passes
    decrement_floor = -_DECREMENT_TOL**2 / dof if dof > 0 else 0.0
    iterations = np.zeros(k, dtype=int)
    stop = np.zeros(k, dtype=int)

    # the state of the fits still iterating, compacted: a fit leaves it once
    # it finishes
    live = np.flatnonzero(started)
    x_live, r_live, rss_live, jac_live, grad_live, gnorm_live = (a[live] for a in (x, r, rss, jac, grad, gnorm))
    damping = np.full(live.size, _DAMPING_INIT)
    done = gnorm_live < _GTOL * (1.0 + rss_live)
    for iteration in range(_MAX_ITER + 1):
        # done holds the gradient and damping tests on the state the last
        # trial left; the decrement test needs this iteration's step. A fit
        # that passes one, or reaches the cap, finishes after this many
        # iterations
        at_cap = iteration == _MAX_ITER
        stepping = not (at_cap or _all(done))
        if stepping:
            step = _steps(jac_live, grad_live, damping)
            # g^T step is minus the decrease the damped model predicts; a
            # zero step (singular system) predicts none and never stops
            decrement = _dots(grad_live, step)
            done |= ((damping <= _DAMPING_INIT) & (decrement < 0.0)
                     & (decrement >= decrement_floor * rss_live))
        if not stepping or np.count_nonzero(done):
            ended = done | at_cap
            rows = live[ended]
            x[rows], rss[rows], jac[rows], gnorm[rows] = (
                x_live[ended], rss_live[ended], jac_live[ended], gnorm_live[ended])
            iterations[rows] = iteration
            # done past the gradient and damping tests is the decrement test
            stop[rows] = np.where(gnorm_live[ended] < _GTOL * (1.0 + rss_live[ended]), _GRADIENT,
                                  np.where(damping[ended] > _DAMPING_MAX, _DAMPING,
                                           np.where(done[ended], _DECREMENT, _ITERATIONS)))
            if _all(ended):
                break
            keep = ~ended
            live, x_live, r_live, rss_live, jac_live, grad_live, gnorm_live, damping, step = (
                a[keep] for a in (live, x_live, r_live, rss_live, jac_live, grad_live, gnorm_live, damping, step))
        x_trial = np.maximum(x_live + step, bound)
        r_trial, jac_trial = (np.ascontiguousarray(a, dtype=float) for a in evaluate(x_trial, live))
        rss_trial = _dots(r_trial, r_trial)
        # rss_live is finite, so a smaller rss_trial is finite, and so is
        # every residual it sums
        take = rss_trial < rss_live
        every = _all(take)
        if not every:
            # near the optimum the exact cost decrease of a polish step falls
            # below the rounding granularity of rss itself; such a step still
            # moves the gradient to its floating-point floor, so accept it
            # when it is negligibly small and within a few ulps of the cost
            tiny_step = ((np.abs(step) <= 1e-8 * np.maximum(np.abs(x_live), 1e-300)).all(axis=1)
                         & (x_trial != x_live).any(axis=1))
            # a zero step (singular system) moves nowhere, so it is never accepted
            take |= (tiny_step & (rss_trial <= rss_live * (1.0 + 64.0 * np.finfo(float).eps))
                     & np.isfinite(r_trial).all(axis=1))
            every = _all(take)
        if every:
            x_live, r_live, rss_live, jac_live = x_trial, r_trial, rss_trial, jac_trial
            grad_live, gnorm_live = _gradients(jac_live, r_live, x_live, bound)
            # shrinking damping cannot pass the damping stop
            damping = np.maximum(damping / _DAMPING_SHRINK, 1e-15)
            done = gnorm_live < _GTOL * (1.0 + rss_live)
        elif np.count_nonzero(take):
            x_live = np.where(take[:, None], x_trial, x_live)
            r_live = np.where(take[:, None], r_trial, r_live)
            rss_live = np.where(take, rss_trial, rss_live)
            jac_live = np.where(take[:, None, None], jac_trial, jac_live)
            grad_live, gnorm_live = _gradients(jac_live, r_live, x_live, bound)
            damping = np.where(take, np.maximum(damping / _DAMPING_SHRINK, 1e-15), damping * _DAMPING_GROW)
            done = (gnorm_live < _GTOL * (1.0 + rss_live)) | (damping > _DAMPING_MAX)
        else:
            # with no step taken the state, its gradients and the gradient
            # test stay as they are
            damping = damping * _DAMPING_GROW
            done = damping > _DAMPING_MAX

    covariances = iter(_covariances(jac[started], rss[started]))
    results: list[FitResult | ValueError] = []
    for i in range(k):
        if not started[i]:
            results.append(ValueError("residuals are not finite at the initial guess"))
            continue
        covariance, stderr = next(covariances)
        at_bound = tuple(bool(x[i, j] <= bound[j]) for j in range(p))
        results.append(FitResult(
            names=param_names,
            values=x[i].copy(),
            stderr=stderr,
            covariance=covariance,
            rss=float(rss[i]),
            iterations=int(iterations[i]),
            converged=stop[i] in (_GRADIENT, _DECREMENT),
            at_bound=at_bound,
            gradient_norm=float(gnorm[i]),
            stop=_STOPS[stop[i]],
        ))
    return results

