"""Parameter extraction from swept scattering data.

Five estimators mirror the measurement analysis chain:

- ``fit_dip_lorentzian``: Lorentzian dip in |r|^2 versus control detuning;
  its half width at half maximum is the transparency-window linewidth.
  ``fit_dip_stack`` fits many such dips in lockstep, one per control power.
- ``fit_linewidth_line``: weighted straight line of linewidth versus control
  power, returning the intrinsic coherence rate (intercept) and the
  power-to-Rabi-squared calibration constant (slope times 4*gamma10).
- ``rabi_per_point``: per-power control Rabi frequency columns with
  propagated error bars, inverting the linewidth relation.
- ``fit_two_level``: probe-only lineshape giving the probe-transition
  coherence rate.
- ``fit_transmission``: full transmission model fit (complex or magnitude)
  with a constant electrical-crosstalk background.

The fits run on the in-package damped least-squares engine and return
its FitResult. Inputs are angular frequencies (rad/s) and watts; unit
conversion happens at the program boundary, not here.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, RankError
from .leastsq import FitResult, levenberg_marquardt_stack, weighted_linear_fit
from .model import _kernel


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


def _convergence_error(result: FitResult, what: str) -> ConvergenceError:
    return ConvergenceError(
        f"{what} did not converge after {result.iterations} iterations "
        f"(gradient norm {result.gradient_norm:.3e}, rss {result.rss:.3e})"
    )


def _with_fixed(fit: FitResult, names: tuple[str, ...], fixed: dict[str, float], note: str) -> FitResult:
    """A fit of some of names reported over all of them: each fixed parameter
    holds its given value with stderr 0, zero covariance rows and columns
    and at_bound False, and note is added."""
    free = [names.index(name) for name in fit.names]
    values = np.array([fixed.get(name, 0.0) for name in names])
    stderr = np.zeros(len(names))
    values[free], stderr[free] = fit.values, fit.stderr
    covariance = None
    if fit.covariance is not None:
        covariance = np.zeros((len(names), len(names)))
        covariance[np.ix_(free, free)] = fit.covariance
    at_bound = tuple(name not in fixed and fit.at_bound[fit.names.index(name)] for name in names)
    return replace(fit, names=names, values=values, stderr=stderr, covariance=covariance,
                   at_bound=at_bound, notes=fit.notes + (note,))


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
    padded = np.pad(ys[:, order], ((0, 0), (window // 2, window // 2)), mode="edge")
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
    """fit_dip_lorentzian on the real curves y (k, n) over one abscissa x (n,),
    fitted in lockstep; sigma, when given, is (k, n).

    Returns one entry per row: its FitResult, or the error fitting that row
    alone raises (ValueError for a sigma that is not positive and finite,
    ConvergenceError for a fit that does not converge). Each entry equals the
    single fit's. Fewer than 5 samples, or shapes that do not match, raise
    ValueError for the whole stack.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1:] != x.shape or (sigma is not None and np.shape(sigma) != y.shape):
        raise ValueError("dip curves must be (k, n) over the n abscissae, and sigma the same shape")
    if x.size < 5:
        raise ValueError("need at least 5 samples spanning the dip")
    outcomes: list[FitResult | Exception | None] = [None] * len(y)
    if sigma is None:
        rows = np.arange(len(y))
        ws = np.ones_like(y)
    else:
        sigma = np.asarray(sigma, dtype=float)
        valid = ((sigma > 0.0) & np.isfinite(sigma)).all(axis=1)
        for i in np.flatnonzero(~valid):
            outcomes[i] = ValueError("sample sigma must be positive and finite when present")
        rows = np.flatnonzero(valid)
        ws = 1.0 / sigma[rows]
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
        w = ws[active]
        dx = x - center
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denom = dx * dx + hwhm * hwhm
            lor = np.where(denom > 0.0, hwhm * hwhm / denom, 1.0)
            f = baseline - depth * lor
            denom2 = denom * denom
            d_center = -depth * 2.0 * hwhm * hwhm * dx / denom2
            d_hwhm = -depth * 2.0 * hwhm * dx * dx / denom2
        d_center = np.where(np.isfinite(d_center), d_center, 0.0)
        d_hwhm = np.where(np.isfinite(d_hwhm), d_hwhm, 0.0)
        jac = np.stack([d_center, d_hwhm, -lor, np.ones_like(dx)], axis=-1)
        return (f - ys[active]) * w, jac * w[:, :, None]

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


def fit_dip_lorentzian(samples: Samples) -> FitResult:
    """Fit baseline - depth * hwhm^2 / ((x - center)^2 + hwhm^2).

    Weighted least squares when samples carry sigma. Constant data leaves the
    width and center unidentifiable: the baseline is then reported exactly
    and the result is flagged instead of iterated. This is fit_dip_stack on
    a batch of one.
    """
    x, values, sigma = samples
    # fit_dip_stack raises the sample-count error, which comes first
    if x.size >= 5 and np.any(np.abs(values.imag) > 0.0):
        raise ValueError("dip samples must be real (|r|^2 values)")
    return _only(fit_dip_stack(x, values.real[None], None if sigma is None else sigma[None]), "dip fit")


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
    ((rad/s)^2 per watt) with standard errors. gamma10 comes from an
    independent probe-only measurement and is treated as exact.
    """
    powers = np.asarray(powers_watts, dtype=float)
    widths = np.asarray(gamma_eit, dtype=float)
    if powers.ndim != 1 or powers.shape != widths.shape:
        raise ValueError("powers and linewidths must be 1-d arrays of equal length")
    if powers.size < 3:
        raise ValueError("need at least 3 points")
    if np.unique(powers).size < 2:
        raise RankError("need at least 2 distinct powers to fit a line")
    if gamma10 <= 0.0:
        raise ValueError("gamma10 must be positive")
    line = weighted_linear_fit(powers, widths, sigma, names=("gamma20", "k"))
    scale = np.array([1.0, 4.0 * gamma10])
    return replace(
        line,
        values=line.values * scale,
        stderr=line.stderr * scale,
        covariance=None if line.covariance is None else line.covariance * scale[:, None] * scale,
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
    if gamma10 <= 0.0:
        raise ValueError("gamma10 must be positive")
    if gamma20 < 0.0:
        raise ValueError("gamma20 must be nonnegative")
    widths = np.asarray(gamma_eit, dtype=float)
    if sigma_gamma is None:
        sigmas = np.zeros_like(widths)
    else:
        sigmas = np.asarray(sigma_gamma, dtype=float)
        if sigmas.shape != widths.shape:
            raise ValueError("sigma_gamma must match gamma_eit in length")
    excess = widths - gamma20
    one_sided = excess <= 0.0
    omega_c = np.sqrt(4.0 * gamma10 * np.where(one_sided, 0.0, excess))
    with np.errstate(divide="ignore", invalid="ignore"):  # the one-sided rows' 0/0, discarded
        propagated = 2.0 * gamma10 * sigmas / omega_c
    sigma = np.where(one_sided, np.sqrt(4.0 * gamma10 * sigmas), propagated)
    return omega_c, sigma, one_sided


# ---------------------------------------------------------------------------
# Probe-only two-level lineshape
# ---------------------------------------------------------------------------


def fit_two_level(samples: Samples, *, Gamma10: float) -> FitResult:
    """Fit |r| = scale * (Gamma10/2) / sqrt(gamma10^2 + Delta_p^2).

    Gamma10 multiplies the same factor as scale, so it is supplied from an
    independent calibration and reported as a fixed parameter with zero
    uncertainty; gamma10 and scale are fitted.
    """
    x, values, sigma = samples
    if x.size < 5:
        raise ValueError("need at least 5 samples")
    if Gamma10 <= 0.0:
        raise ValueError("Gamma10 must be positive")
    y = values.real
    if np.any(np.abs(values.imag) > 0.0):
        raise ValueError("two-level samples must be real (|r| values)")
    w = np.ones_like(y) if sigma is None else 1.0 / sigma

    amp0 = float(np.max(y))
    if amp0 <= 0.0:
        raise ValueError("samples must contain positive magnitudes")
    half = y >= 0.5 * amp0
    if np.count_nonzero(half) >= 2:
        # |r| falls to half its peak at |Delta_p| = sqrt(3) * gamma10
        gamma0 = 0.5 * float(np.ptp(x[half])) / math.sqrt(3.0)
    else:
        gamma0 = 0.125 * float(np.ptp(x))
    gamma0 = max(gamma0, 1e-3 * float(np.ptp(x)))
    scale0 = amp0 * 2.0 * gamma0 / Gamma10

    def evaluate(theta: np.ndarray, rows: np.ndarray):
        gamma, scale = theta[0]
        root = np.sqrt(gamma * gamma + x * x)
        f = scale * (0.5 * Gamma10) / root
        d_gamma = -scale * (0.5 * Gamma10) * gamma / root**3
        d_scale = (0.5 * Gamma10) / root
        return ((f - y) * w)[None], (np.column_stack([d_gamma, d_scale]) * w[:, None])[None]

    fit = _only(levenberg_marquardt_stack(
        evaluate,
        np.array([[gamma0, scale0]]),
        names=("gamma10", "scale"),
        lower=np.array([0.0, -np.inf]),
    ), "two-level fit")
    return _with_fixed(fit, ("gamma10", "Gamma10", "scale"), {"Gamma10": Gamma10}, "fixed:Gamma10")


# ---------------------------------------------------------------------------
# Transmission model with crosstalk background
# ---------------------------------------------------------------------------

_TRANSMISSION_NAMES = ("gamma20", "delta", "Omega_c", "scale", "crosstalk_re", "crosstalk_im")


def transmission_initial_guess(
    samples: Samples,
    *,
    gamma10: float,
    omega_c_hint: float | None = None,
) -> dict[str, float]:
    """Starting point for fit_transmission from a smoothed magnitude curve.

    Two resolved minima (split lineshape) give the control Rabi frequency
    from their separation and the two-photon offset from their midpoint; a
    single minimum gives the offset alone and the Rabi guess falls back to
    the supplied hint or half the probe linewidth.
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
        omega_c0 = omega_c_hint if omega_c_hint is not None else 0.5 * gamma10
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
    init: dict[str, float] | None = None,
    fit_crosstalk: bool = True,
    omega_c_hint: float | None = None,
) -> FitResult:
    """Fit t = scale * (t_model(Delta_p) + c) to complex or magnitude data.

    t_model is the flux-sweep transmission with fixed probe rates (gamma10,
    Gamma10) and free gamma20, two-photon offset delta, and control Rabi
    frequency Omega_c; c = crosstalk_re + i*crosstalk_im is a constant
    electrical background and scale a real normalization. Complex samples are
    fitted in both quadratures; real samples are fitted in magnitude. With
    fit_crosstalk=False the background stays pinned at its initial value.

    The six-parameter landscape has secondary minima at large background, so
    a data-driven initial guess is used unless init overrides it.
    """
    x, values, sigma = samples
    if x.size < 8:
        raise ValueError("need at least 8 samples")
    if gamma10 <= 0.0 or Gamma10 <= 0.0:
        raise ValueError("probe rates must be positive")
    complex_data = bool(np.any(np.abs(values.imag) > 0.0))
    w = np.ones(x.size) if sigma is None else 1.0 / sigma

    guess = transmission_initial_guess(samples, gamma10=gamma10, omega_c_hint=omega_c_hint)
    if init:
        unknown = set(init) - set(_TRANSMISSION_NAMES)
        if unknown:
            raise ValueError(f"unknown initial-guess parameters: {sorted(unknown)}")
        guess.update({k: float(v) for k, v in init.items()})

    if fit_crosstalk:
        names = _TRANSMISSION_NAMES
        fixed_c = None
    else:
        names = _TRANSMISSION_NAMES[:4]
        fixed_c = complex(guess["crosstalk_re"], guess["crosstalk_im"])

    def evaluate(theta: np.ndarray, rows: np.ndarray):
        gamma20, delta, omega_c, scale = theta[0, :4]
        c = complex(theta[0, 4], theta[0, 5]) if fit_crosstalk else fixed_c
        r, two_photon, denominator, transparent = _kernel(
            Gamma10, gamma10, gamma20, omega_c, x, 2.0 * x + delta)
        t = scale * (1.0 + r + c)
        # chain rule through D: dt/dD = scale*Gamma10/D**2 with
        # dD/dgamma20 = -Omega_c**2/(2T**2), dD/ddelta = i*Omega_c**2/(2T**2)
        # and dD/dOmega_c = Omega_c/T
        dt_dD = scale * Gamma10 / denominator**2
        d_gamma20 = -dt_dD * omega_c**2 / (2.0 * two_photon**2)
        d_omega_c = dt_dD * omega_c / two_photon
        if np.any(transparent):
            # D diverges like 1/T at perfect transparency; D*T -> Omega_c**2/2
            # leaves these finite limits
            d_gamma20 = np.where(transparent, -2.0 * scale * Gamma10 / omega_c**2, d_gamma20)
            d_omega_c = np.where(transparent, 0.0, d_omega_c)
        columns = [d_gamma20, -1j * d_gamma20, d_omega_c, 1.0 + r + c]
        if fit_crosstalk:
            columns += [np.full(x.size, scale + 0j), np.full(x.size, 1j * scale)]
        jac = np.column_stack(columns)
        if complex_data:
            res = t - values
            return (np.concatenate([res.real * w, res.imag * w])[None],
                    np.concatenate([jac.real * w[:, None], jac.imag * w[:, None]])[None])
        magnitude = np.abs(t)
        return (((magnitude - values.real) * w)[None],
                ((t.conj()[:, None] * jac).real / magnitude[:, None] * w[:, None])[None])

    x0 = np.array([guess[name] for name in names])
    lower = np.full(len(names), -np.inf)
    lower[0] = 0.0  # gamma20
    lower[2] = 0.0  # Omega_c
    fit = _only(levenberg_marquardt_stack(evaluate, x0[None], names=names, lower=lower), "transmission fit")
    if fit_crosstalk:
        return fit
    fixed = {"crosstalk_re": fixed_c.real, "crosstalk_im": fixed_c.imag}
    return _with_fixed(fit, _TRANSMISSION_NAMES, fixed, "fixed:crosstalk")
