"""Damped least-squares engine shared by all estimators.

A small, deterministic Levenberg-Marquardt implementation. The estimators in
``estimation`` supply (weighted) residual functions and their analytic
Jacobians. Lower bounds are enforced by projection (clamping), with
per-parameter at-bound flags reported on the result.

Schedule and stopping rule:
  - damping factor starts at 1e-3, multiplied by 10 on a rejected step and
    divided by 10 on an accepted one;
  - convergence when the (projected) gradient norm |J^T r| drops below
    1e-10 * (1 + rss), within at most 200 iterations.

Standard errors come from the curvature of the weighted sum of squares at
the optimum, scaled by the residual variance: cov = inv(J^T J) * rss / (n - p).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

_GTOL = 1e-10
_MAX_ITER = 200
_DAMPING_INIT = 1e-3
_DAMPING_GROW = 10.0
_DAMPING_SHRINK = 10.0
_DAMPING_MAX = 1e15


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares fit.

    values/stderr/covariance are ordered like names. stderr entries are NaN
    when the covariance is unavailable (rank-deficient curvature or zero
    degrees of freedom). notes carries qualitative flags such as
    "at-bound:<name>" or degeneracy markers added by the estimators.
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

    def as_dict(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.names, self.values)}

    def with_notes(self, *extra: str) -> "FitResult":
        return replace(self, notes=self.notes + extra)


def _covariance(jac: np.ndarray, rss: float) -> tuple[np.ndarray | None, np.ndarray]:
    """cov = inv(J^T J) * rss / dof, or (None, NaN vector) when undefined."""
    n, p = jac.shape
    dof = n - p
    nan = np.full(p, np.nan)
    if dof <= 0:
        return None, nan
    jtj = jac.T @ jac
    try:
        inv = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        return None, nan
    cov = inv * (rss / dof)
    cov = 0.5 * (cov + cov.T)
    diag = np.diag(cov).copy()
    stderr = np.sqrt(np.where(diag >= 0.0, diag, np.nan))
    return cov, stderr


def _projected_gradient(grad: np.ndarray, x: np.ndarray, lower: np.ndarray | None) -> np.ndarray:
    """Zero the gradient components that push a bound-clamped parameter outward."""
    if lower is None:
        return grad
    out = grad.copy()
    blocked = (x <= lower) & (grad > 0.0)
    out[blocked] = 0.0
    return out


def levenberg_marquardt(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    *,
    names: Sequence[str] | None = None,
    lower: Sequence[float] | None = None,
) -> FitResult:
    """Minimize |residual_fn(x)|^2 with the Levenberg-Marquardt schedule.

    jacobian_fn(x) returns the derivative of the residual vector, one column
    per parameter.
    lower, when given, holds per-parameter lower bounds (use -inf for free
    parameters); iterates are projected onto the feasible set. The result's
    at_bound tuple marks parameters that finished clamped at their bound.
    """
    x = np.array(x0, dtype=float)
    p = x.size
    param_names = tuple(names) if names is not None else tuple(f"p{i}" for i in range(p))
    if len(param_names) != p:
        raise ValueError("names length must match parameter count")
    bound = None
    if lower is not None:
        bound = np.asarray(lower, dtype=float)
        if bound.shape != x.shape:
            raise ValueError("lower bounds must match parameter count")
        x = np.maximum(x, bound)

    r = np.asarray(residual_fn(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals are not finite at the initial guess")
    rss = float(r @ r)
    jac = np.asarray(jacobian_fn(x), dtype=float)
    grad = jac.T @ r
    gnorm = float(np.linalg.norm(_projected_gradient(grad, x, bound)))

    damping = _DAMPING_INIT
    iterations = 0
    converged = gnorm < _GTOL * (1.0 + rss)

    while not converged and iterations < _MAX_ITER:
        iterations += 1
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        # keep the damping matrix nonsingular for parameters with no local effect
        diag[diag <= 0.0] = 1.0
        try:
            step = np.linalg.solve(jtj + damping * np.diag(diag), -grad)
        except np.linalg.LinAlgError:
            step = None
        accepted = False
        if step is not None and np.all(np.isfinite(step)):
            x_trial = x + step
            if bound is not None:
                x_trial = np.maximum(x_trial, bound)
            r_trial = np.asarray(residual_fn(x_trial), dtype=float)
            if np.all(np.isfinite(r_trial)):
                rss_trial = float(r_trial @ r_trial)
                # near the optimum the exact cost decrease of a polish step falls
                # below the rounding granularity of rss itself; such a step still
                # moves the gradient to its floating-point floor, so accept it
                # when it is negligibly small and within a few ulps of the cost
                tiny_step = bool(
                    np.all(np.abs(step) <= 1e-8 * np.maximum(np.abs(x), 1e-300))
                ) and not np.array_equal(x_trial, x)
                slack_ok = rss_trial <= rss * (1.0 + 64.0 * np.finfo(float).eps)
                if rss_trial < rss or (tiny_step and slack_ok):
                    x = x_trial
                    r = r_trial
                    rss = rss_trial
                    jac = np.asarray(jacobian_fn(x), dtype=float)
                    grad = jac.T @ r
                    gnorm = float(np.linalg.norm(_projected_gradient(grad, x, bound)))
                    damping = max(damping / _DAMPING_SHRINK, 1e-15)
                    accepted = True
        if not accepted:
            damping *= _DAMPING_GROW
            if damping > _DAMPING_MAX:
                break
        converged = gnorm < _GTOL * (1.0 + rss)

    covariance, stderr = _covariance(jac, rss)
    at_bound = tuple(bool(bound is not None and x[i] <= bound[i]) for i in range(p))
    notes = tuple(f"at-bound:{param_names[i]}" for i in range(p) if at_bound[i])
    return FitResult(
        names=param_names,
        values=x,
        stderr=stderr,
        covariance=covariance,
        rss=rss,
        iterations=iterations,
        converged=bool(converged),
        at_bound=at_bound,
        gradient_norm=gnorm,
        notes=notes,
    )


def weighted_linear_fit(
    x: Sequence[float],
    y: Sequence[float],
    sigma: Sequence[float] | None = None,
    *,
    names: tuple[str, str] = ("intercept", "slope"),
) -> FitResult:
    """Weighted straight-line fit y = intercept + slope * x via normal equations.

    Weights are 1/sigma^2 when sigma is given, else uniform. Standard errors
    follow the same residual-variance scaling as the nonlinear engine, which
    makes noiseless data report zero uncertainty.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != x.shape:
            raise ValueError("sigma must match x in length")
        if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
            raise ValueError("sigma values must be positive and finite")
        w = 1.0 / sigma
    else:
        w = np.ones_like(x)
    design = np.column_stack([np.ones_like(x), x])
    jac = design * w[:, None]
    rhs = y * w
    try:
        beta = np.linalg.solve(jac.T @ jac, jac.T @ rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("normal equations are singular: degenerate abscissae") from exc
    resid = jac @ beta - rhs
    rss = float(resid @ resid)
    covariance, stderr = _covariance(jac, rss)
    return FitResult(
        names=names,
        values=beta,
        stderr=stderr,
        covariance=covariance,
        rss=rss,
        iterations=1,
        converged=True,
        at_bound=(False, False),
        gradient_norm=float(np.linalg.norm(jac.T @ resid)),
    )
