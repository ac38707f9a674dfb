"""Parameter extraction from swept scattering data.

Five estimators mirror the measurement analysis chain:

- ``fit_dip_stack``: Lorentzian dips in |r|^2 versus control detuning, one
  per control power, fitted in lockstep; a dip's half width at half maximum
  is the transparency-window linewidth.
- ``fit_linewidth_line``: weighted straight line of linewidth versus control
  power, returning the intrinsic coherence rate (intercept) and the
  power-to-Rabi-squared calibration constant (slope times 4*gamma10).
- ``rabi_per_point``: per-power control Rabi frequency columns with
  first-order error bars, inverting the linewidth relation.
- ``fit_two_level``: probe-only lineshape giving the probe-transition
  coherence rate and an amplitude scale.
- ``fit_transmission``: full transmission model fit to complex data (both
  quadratures) with a constant electrical-crosstalk background.

The fits run on the in-package damped least-squares engine and return
its FitResult. Inputs are angular frequencies (rad/s) and watts; unit
conversion happens at the program boundary, not here.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, RankError
from .leastsq import FitResult, _covariances, levenberg_marquardt_stack
from .model import _kernel, _probe_factor


class Samples(NamedTuple):
    """Measured sweep as parallel arrays: abscissa, values (real or complex),
    and optional per-point sigma."""

    x: np.ndarray
    values: np.ndarray
    sigma: np.ndarray | None = None


def samples_from_arrays(x, values, sigma=None) -> Samples:
    """Bundle parallel arrays into validated Samples.

    Every abscissa and value must be finite and every sigma, when given,
    positive and finite; the first offending point names the failed check.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=complex)
    checks = [
        (~np.isfinite(x), "sample abscissa must be finite"),
        (~np.isfinite(values), "sample value must be finite"),
    ]
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        checks.append((~((sigma > 0.0) & np.isfinite(sigma)),
                       "sample sigma must be positive and finite when present"))
    if any(bad.shape != x.shape for bad, _ in checks) or x.ndim != 1:
        raise ValueError("samples must be 1-d arrays of equal length")
    failed = np.logical_or.reduce([bad for bad, _ in checks])
    if failed.any():
        first = int(np.argmax(failed))
        raise ValueError(next(message for bad, message in checks if bad[first]))
    return Samples(x, values, sigma)


def _require_rate(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")


def _convergence_error(result: FitResult, what: str) -> ConvergenceError:
    return ConvergenceError(
        f"{what} did not converge after {result.iterations} iterations "
        f"(gradient norm {result.gradient_norm:.3e}, rss {result.rss:.3e})"
    )


def _only(outcomes: list, what: str) -> FitResult:
    """The result of a batch of one, raising its error or non-convergence."""
    fit, = outcomes
    if isinstance(fit, Exception):
        raise fit
    if not fit.converged:
        raise _convergence_error(fit, what)
    return fit


# ---------------------------------------------------------------------------
# Lorentzian dip in |r|^2 versus control detuning
# ---------------------------------------------------------------------------


_DIP_NAMES = ("center", "hwhm", "depth", "baseline")


def _dip_start(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Initial (center, hwhm, depth, baseline) per row of ys from lightly
    smoothed curves, so shallow dips under noise do not seed a zero-width
    spike through a single outlier."""
    order = np.argsort(x)
    window = max(3, x.size // 25)
    if window % 2 == 0:
        window += 1
    kernel = np.ones(window) / window
    # each sorted curve padded with copies of its edge values
    sorted_ys = ys[:, order]
    edges = window // 2
    padded = np.concatenate([sorted_ys[:, :1]] * edges + [sorted_ys] + [sorted_ys[:, -1:]] * edges, axis=1)
    smooth = np.empty_like(ys)
    smooth[:, order] = [np.convolve(row, kernel, mode="valid") for row in padded]
    baseline = np.max(smooth, axis=1)
    i_min = np.argmin(smooth, axis=1)
    depth = baseline - smooth[np.arange(len(smooth)), i_min]
    below = smooth < (baseline - 0.5 * depth)[:, None]
    spread = np.max(np.where(below, x, -np.inf), axis=1) - np.min(np.where(below, x, np.inf), axis=1)
    hwhm = np.where(np.count_nonzero(below, axis=1) >= 2, 0.5 * spread, 0.125 * np.ptp(x))
    return np.column_stack([x[i_min], np.maximum(hwhm, 1e-3 * np.ptp(x)), depth, baseline])


def fit_dip_stack(x, y, sigma=None) -> list[FitResult | Exception]:
    """Fit baseline - depth * hwhm^2 / ((x - center)^2 + hwhm^2) to each of
    the real curves y (k, n) over one abscissa x (n,), in lockstep.

    Weighted least squares when sigma (k, n) is given. Returns one entry per
    row: its FitResult, or the error fitting that row alone raises
    (ValueError for a value that is not finite, else for a sigma that is not
    positive and finite; ConvergenceError for a fit that does not converge).
    Each entry equals the fit of that row as a batch of one. Constant data
    leaves the width and center unidentifiable: the baseline is then
    reported exactly and the result is flagged instead of iterated. Shapes
    that do not match, fewer than 5 samples, complex curves or a non-finite
    abscissa raise ValueError for the whole stack.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if y.ndim != 2 or y.shape[1:] != x.shape or (sigma is not None and np.shape(sigma) != y.shape):
        raise ValueError("dip curves must be (k, n) over the n abscissae, and sigma the same shape")
    if x.size < 5:
        raise ValueError("need at least 5 samples spanning the dip")
    if np.iscomplexobj(y):
        raise ValueError("dip curves must be real (|r|^2 values)")
    if not np.isfinite(x).all():
        raise ValueError("sample abscissa must be finite")
    y = y.astype(float, copy=False)
    outcomes: list[FitResult | Exception | None] = [None] * len(y)
    valid = np.isfinite(y).all(axis=1)
    for i in np.flatnonzero(~valid):
        outcomes[i] = ValueError("sample value must be finite")
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        weighted = ((sigma > 0.0) & np.isfinite(sigma)).all(axis=1)
        for i in np.flatnonzero(valid & ~weighted):
            outcomes[i] = ValueError("sample sigma must be positive and finite when present")
        valid &= weighted
    rows = np.flatnonzero(valid)
    ws = np.ones((rows.size, x.size)) if sigma is None else 1.0 / sigma[rows]
    ys = y[rows]

    # constant data leaves width and center unidentifiable: report the
    # baseline exactly and flag the result instead of iterating
    constant = np.ptp(ys, axis=1) <= 1e-14 * np.maximum(np.max(np.abs(ys), axis=1), 1.0)
    for i, yi, wi in zip(rows[constant], ys[constant], ws[constant]):
        baseline = float(np.mean(yi))
        resid = (yi - baseline) * wi
        outcomes[i] = FitResult(
            names=_DIP_NAMES,
            values=np.array([float(np.mean(x)), np.nan, 0.0, baseline]),
            stderr=np.array([np.nan, np.nan, np.nan, 0.0]),
            covariance=None,
            rss=float(resid @ resid),
            iterations=0,
            converged=True,
            at_bound=(False, False, False, False),
            gradient_norm=0.0,
            notes=("degenerate:constant-data", "hwhm-unidentifiable"),
        )
    rows, ys, ws = rows[~constant], ys[~constant], ws[~constant]
    if not rows.size:
        return outcomes

    def evaluate(theta: np.ndarray, active: np.ndarray):
        center, hwhm, depth, baseline = theta.T[:, :, None]
        # every row stays live until the first fit finishes
        w, y_rows = (ws, ys) if active.size == len(ys) else (ws[active], ys[active])
        dx = x - center
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the per-fit factors -2*depth*hwhm and hwhm^2
            slope, hwhm2 = -depth * 2.0 * hwhm, hwhm * hwhm
            denom = dx * dx + hwhm2
            lor = np.where(denom > 0.0, hwhm2 / denom, 1.0)
            f = baseline - depth * lor
            denom2 = denom * denom
            # d/dcenter and d/dhwhm
            d_shape = np.empty((2,) + dx.shape)
            np.divide(slope * hwhm * dx, denom2, out=d_shape[0])
            np.divide(slope * dx * dx, denom2, out=d_shape[1])
        finite = np.isfinite(d_shape)
        if not finite.all():
            d_shape[~finite] = 0.0
        jac = np.empty(dx.shape + (4,))
        np.multiply(d_shape, w, out=jac[:, :, :2].transpose(2, 0, 1))
        np.multiply(-lor, w, out=jac[:, :, 2])
        jac[:, :, 3] = w
        return (f - y_rows) * w, jac

    fits = levenberg_marquardt_stack(
        evaluate, _dip_start(x, ys), names=_DIP_NAMES, lower=np.array([-np.inf, 0.0, -np.inf, -np.inf]))
    for i, fit in zip(rows, fits):
        if isinstance(fit, Exception):
            outcomes[i] = fit
        elif not fit.converged:
            outcomes[i] = _convergence_error(fit, "dip fit")
        elif fit.value("hwhm") <= 0.0:
            # collapse onto the width bound means the optimum is a zero-width
            # spike, not a resolved dip; mark the width unidentifiable for
            # downstream filters
            outcomes[i] = fit.with_notes("hwhm-unidentifiable")
        else:
            outcomes[i] = fit
    return outcomes


# ---------------------------------------------------------------------------
# Linewidth versus power line and per-point control Rabi frequency
# ---------------------------------------------------------------------------


def fit_linewidth_line(
    powers_watts: Sequence[float],
    gamma_eit: Sequence[float],
    sigma: Sequence[float] | None = None,
    *,
    gamma10: float,
) -> FitResult:
    """Weighted fit of gamma_eit = gamma20 + (k / (4 * gamma10)) * P.

    Returns gamma20 (intercept, rad/s) and the calibration constant k
    ((rad/s)^2 per watt) with standard errors. Weights are 1/sigma^2 when
    sigma is given, else uniform; the errors carry the residual-variance
    scaling of the nonlinear fits, so noiseless data report zero
    uncertainty. gamma10 is treated as exact; the linewidth pipeline passes
    the configured atom's own gamma10.
    """
    powers = np.asarray(powers_watts, dtype=float)
    widths = np.asarray(gamma_eit, dtype=float)
    if powers.ndim != 1 or powers.shape != widths.shape:
        raise ValueError("powers and linewidths must be 1-d arrays of equal length")
    if powers.size < 3:
        raise ValueError("need at least 3 points")
    if not (np.isfinite(powers).all() and np.isfinite(widths).all()):
        raise ValueError("powers and linewidths must be finite")
    if np.unique(powers).size < 2:
        raise RankError("need at least 2 distinct powers to fit a line")
    _require_rate("gamma10", gamma10)
    if sigma is None:
        w = np.ones_like(powers)
    else:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != powers.shape:
            raise ValueError("sigma must match the linewidths in length")
        if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
            raise ValueError("sigma values must be positive and finite")
        w = 1.0 / sigma
    # the normal equations of intercept and slope in watts, then k = 4*gamma10*slope
    jac = np.column_stack([np.ones_like(powers), powers]) * w[:, None]
    rhs = widths * w
    beta = np.linalg.solve(jac.T @ jac, jac.T @ rhs)
    resid = jac @ beta - rhs
    rss = float(resid @ resid)
    (covariance, stderr), = _covariances(jac[None], np.array([rss]))
    scale = np.array([1.0, 4.0 * gamma10])
    return FitResult(
        names=("gamma20", "k"),
        values=beta * scale,
        stderr=stderr * scale,
        covariance=None if covariance is None else covariance * scale[:, None] * scale,
        rss=rss,
        iterations=1,
        converged=True,
        at_bound=(False, False),
        gradient_norm=float(np.linalg.norm(jac.T @ resid)),
    )


def rabi_per_point(
    gamma20: float,
    gamma_eit: Sequence[float],
    sigma_gamma: Sequence[float] | None = None,
    *,
    gamma10: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the linewidth relation per point: Omega_c = sqrt(4*gamma10*(gamma_eit - gamma20)).

    Returns the columns (omega_c, sigma, one_sided). Error bars use
    first-order propagation sigma = 2*gamma10*sigma_gamma/Omega_c. one_sided
    marks points whose linewidth does not exceed the intrinsic rate: there
    the inversion floors at zero and sigma is the one-standard-deviation
    upper bound sqrt(4 * gamma10 * sigma_gamma) instead of the (divergent)
    first-order propagation.
    """
    _require_rate("gamma10", gamma10)
    if not (gamma20 >= 0.0 and math.isfinite(gamma20)):
        raise ValueError("gamma20 must be finite and nonnegative")
    widths = np.asarray(gamma_eit, dtype=float)
    if sigma_gamma is None:
        sigmas = np.zeros_like(widths)
    else:
        sigmas = np.asarray(sigma_gamma, dtype=float)
        if sigmas.shape != widths.shape:
            raise ValueError("sigma_gamma must match gamma_eit in length")
    if not (np.isfinite(widths).all() and np.isfinite(sigmas).all() and (sigmas >= 0.0).all()):
        raise ValueError("gamma_eit must be finite and sigma_gamma finite and nonnegative")
    excess = widths - gamma20
    one_sided = excess <= 0.0
    omega_c = np.sqrt(4.0 * gamma10 * np.where(one_sided, 0.0, excess))
    with np.errstate(divide="ignore", invalid="ignore"):  # the one-sided rows' 0/0, discarded
        first_order = 2.0 * gamma10 * sigmas / omega_c
    sigma = np.where(one_sided, np.sqrt(4.0 * gamma10 * sigmas), first_order)
    return omega_c, sigma, one_sided


# ---------------------------------------------------------------------------
# Probe-only two-level lineshape
# ---------------------------------------------------------------------------


def fit_two_level(samples: Samples, *, Gamma10: float) -> FitResult:
    """Fit |r| = scale * (Gamma10/2) / sqrt(gamma10^2 + Delta_p^2).

    Gamma10 multiplies the same factor as scale, so it is supplied from an
    independent calibration; the result holds the fitted gamma10 and scale.
    """
    x, values, sigma = samples
    if x.size < 5:
        raise ValueError("need at least 5 samples")
    _require_rate("Gamma10", Gamma10)
    y = values.real
    if np.any(np.abs(values.imag) > 0.0):
        raise ValueError("two-level samples must be real (|r| values)")
    w = np.ones_like(y) if sigma is None else 1.0 / sigma

    amp0 = float(np.max(y))
    if amp0 <= 0.0:
        raise ValueError("samples must contain positive magnitudes")
    # |r| falls to half its peak at |Delta_p| = sqrt(3) * gamma10; a line
    # narrower than the sampling has one sample above half, so the floor starts it
    half = y >= 0.5 * amp0
    gamma0 = max(0.5 * float(np.ptp(x[half])) / math.sqrt(3.0), 1e-3 * float(np.ptp(x)))
    scale0 = amp0 * 2.0 * gamma0 / Gamma10

    def evaluate(theta: np.ndarray, rows: np.ndarray):
        gamma, scale = theta[0]
        # a step clamped onto gamma = 0 divides by 0 at Delta_p = 0; its residuals reject it
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(gamma * gamma + x * x)
            f = scale * (0.5 * Gamma10) / root
            d_gamma = -scale * (0.5 * Gamma10) * gamma / root**3
            d_scale = (0.5 * Gamma10) / root
        return ((f - y) * w)[None], (np.column_stack([d_gamma, d_scale]) * w[:, None])[None]

    return _only(levenberg_marquardt_stack(
        evaluate,
        np.array([[gamma0, scale0]]),
        names=("gamma10", "scale"),
        lower=np.array([0.0, -np.inf]),
    ), "two-level fit")


# ---------------------------------------------------------------------------
# Transmission model with crosstalk background
# ---------------------------------------------------------------------------

_TRANSMISSION_NAMES = ("gamma20", "delta", "Omega_c", "scale", "crosstalk_re", "crosstalk_im")


def transmission_initial_guess(samples: Samples, *, gamma10: float) -> dict[str, float]:
    """Starting point for fit_transmission from a smoothed magnitude curve.

    Two resolved minima (split lineshape) give the control Rabi frequency
    from their separation and the two-photon offset from their midpoint; a
    single minimum gives the offset alone and the Rabi guess falls back to
    half the probe linewidth.
    """
    x, values, _ = samples
    order = np.argsort(x)
    x = x[order]
    mag = np.abs(values)[order]
    win = max(3, len(mag) // 25)
    if win % 2 == 0:
        win += 1
    kernel = np.ones(win) / win
    smooth = np.convolve(mag, kernel, mode="same")
    edge = max(1, len(mag) // 10)
    baseline = float(np.median(np.concatenate([smooth[:edge], smooth[-edge:]])))

    interior = slice(1, len(smooth) - 1)
    is_min = (smooth[interior] < smooth[:-2]) & (smooth[interior] <= smooth[2:])
    min_idx = np.nonzero(is_min)[0] + 1
    if min_idx.size == 0:
        min_idx = np.array([int(np.argmin(smooth))])
    min_idx = min_idx[np.argsort(smooth[min_idx])]
    picks = [int(min_idx[0])]
    for idx in min_idx[1:]:
        if abs(int(idx) - picks[0]) > win:
            picks.append(int(idx))
            break

    if len(picks) == 2:
        xa, xb = float(x[picks[0]]), float(x[picks[1]])
        omega_c0 = abs(xa - xb)
        # split minima sit at -delta/2 +- Omega_c/2
        delta0 = -(xa + xb)
    else:
        delta0 = -2.0 * float(x[picks[0]])
        omega_c0 = 0.5 * gamma10
    omega_c0 = max(float(omega_c0), 0.05 * gamma10)

    return {
        "gamma20": 0.25 * gamma10,
        "delta": float(delta0),
        "Omega_c": omega_c0,
        "scale": max(baseline, 1e-6),
        "crosstalk_re": 0.0,
        "crosstalk_im": 0.0,
    }


def fit_transmission(
    samples: Samples,
    *,
    gamma10: float,
    Gamma10: float,
) -> FitResult:
    """Fit t = scale * (t_model(Delta_p) + c) to complex data.

    t_model is the flux-sweep transmission with fixed probe rates (gamma10,
    Gamma10) and free gamma20, two-photon offset delta, and control Rabi
    frequency Omega_c; c = crosstalk_re + i*crosstalk_im is a constant
    electrical background and scale a real normalization. The samples are
    fitted in both quadratures; values with no imaginary part raise
    ValueError.

    The six-parameter landscape has secondary minima at large background, so
    the fit starts from the data-driven transmission_initial_guess.
    """
    x, values, sigma = samples
    if x.size < 8:
        raise ValueError("need at least 8 samples")
    _require_rate("gamma10", gamma10)
    _require_rate("Gamma10", Gamma10)
    if not np.any(values.imag != 0.0):
        raise ValueError("transmission values must be complex (both quadratures)")
    w = np.ones(x.size) if sigma is None else 1.0 / sigma

    guess = transmission_initial_guess(samples, gamma10=gamma10)
    # the model's parts that no parameter moves
    probe, two_x = _probe_factor(gamma10, x), 2.0 * x

    def evaluate(theta: np.ndarray, rows: np.ndarray):
        gamma20, delta, omega_c, scale, c_re, c_im = theta[0]
        c = complex(c_re, c_im)
        r, two_photon, denominator, transparent = _kernel(Gamma10, probe, gamma20, omega_c, two_x + delta)
        # t / scale, which is also dt/dscale
        unscaled = 1.0 + r + c
        t = scale * unscaled
        # chain rule through D: dt/dD = scale*Gamma10/D**2 with
        # dD/dgamma20 = -Omega_c**2/(2T**2), dD/ddelta = i*Omega_c**2/(2T**2)
        # and dD/dOmega_c = Omega_c/T
        dt_dD = scale * Gamma10 / denominator**2
        d_gamma20 = -dt_dD * omega_c**2 / (2.0 * two_photon**2)
        d_omega_c = dt_dD * omega_c / two_photon
        if transparent.any():
            # D diverges like 1/T at perfect transparency; D*T -> Omega_c**2/2
            # leaves these finite limits
            d_gamma20 = np.where(transparent, -2.0 * scale * Gamma10 / omega_c**2, d_gamma20)
            d_omega_c = np.where(transparent, 0.0, d_omega_c)
        # the real parts, then the imaginary parts, weighted
        n = x.size
        res = t - values
        resid = np.empty((1, 2 * n))
        np.multiply(res.real, w, out=resid[0, :n])
        np.multiply(res.imag, w, out=resid[0, n:])
        jac = np.zeros((1, 2 * n, 6))
        for j, column in enumerate((d_gamma20, -1j * d_gamma20, d_omega_c, unscaled)):
            np.multiply(column.real, w, out=jac[0, :n, j])
            np.multiply(column.imag, w, out=jac[0, n:, j])
        # dt/dc_re = scale and dt/dc_im = i*scale
        np.multiply(scale, w, out=jac[0, :n, 4])
        np.multiply(scale, w, out=jac[0, n:, 5])
        return resid, jac

    x0 = np.array([guess[name] for name in _TRANSMISSION_NAMES])
    lower = np.full(len(_TRANSMISSION_NAMES), -np.inf)
    lower[0] = 0.0  # gamma20
    lower[2] = 0.0  # Omega_c
    return _only(levenberg_marquardt_stack(evaluate, x0[None], names=_TRANSMISSION_NAMES, lower=lower),
                 "transmission fit")
