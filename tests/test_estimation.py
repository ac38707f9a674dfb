from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from acoustic_eit import estimation, experiments, leastsq
from acoustic_eit import (
    ConvergenceError,
    RankError,
    dbm_to_watts,
    dip_shape,
    eit_linewidth,
    fit_linewidth_line,
    fit_transmission,
    fit_two_level,
    rabi_per_point,
    reflection_coefficient,
    samples_from_arrays,
    transmission_flux_coefficient,
)
from acoustic_eit.estimation import Samples, fit_dip_stack, transmission_initial_guess
from numdiff import central_difference

MHZ = 2.0 * math.pi * 1e6

GAMMA10_EMIT = 20.1 * MHZ
G10 = 21.0 * MHZ
G20 = 4.94 * MHZ
OMEGA_C = 6.1 * MHZ
K_CAL = 3.21996253493979e23  # anchored so -45 dBm gives Omega_c/2pi = 16.06 MHz


def _dip_curve(n: int = 201, half_span: float = 25.0 * MHZ):
    x = np.linspace(-half_span, half_span, n)
    r = reflection_coefficient(Gamma10=GAMMA10_EMIT, gamma10=G10, gamma20=G20,
                               Omega_c=OMEGA_C, Delta_p=0.0, Delta_c=x)
    return x, np.abs(r) ** 2


def _two_level_curve(n: int = 201, half_span: float = 80.0 * MHZ):
    x = np.linspace(-half_span, half_span, n)
    r = reflection_coefficient(Gamma10=GAMMA10_EMIT, gamma10=G10, gamma20=G20,
                               Omega_c=0.0, Delta_p=x, Delta_c=0.0)
    return x, np.abs(r)


# ---------------------------------------------------------------------------
# Sample plumbing
# ---------------------------------------------------------------------------


def test_sweep_sample_validation():
    samples_from_arrays([1.0], [0.5 + 0.1j], [0.01])
    with pytest.raises(ValueError):
        samples_from_arrays([float("nan")], [0.5])
    with pytest.raises(ValueError):
        samples_from_arrays([1.0], [float("inf")])
    with pytest.raises(ValueError):
        samples_from_arrays([1.0], [0.5], [0.0])
    with pytest.raises(ValueError):
        samples_from_arrays([1.0], [0.5], [float("nan")])


def test_samples_from_arrays():
    samples = samples_from_arrays([1.0, 2.0], [0.1, 0.2], [0.01, 0.02])
    assert samples.x.size == 2
    assert samples.x[1] == 2.0
    assert samples.values[1] == 0.2
    assert samples.sigma[1] == 0.02
    bare = samples_from_arrays([1.0], [0.1])
    assert bare.sigma is None


def test_mixed_sigma_rejected():
    fit, = fit_dip_stack([0.0, 1.0, 2.0, 3.0, 4.0], [[0.1, 0.2, 0.3, 0.2, 0.1]],
                         [[0.01, None, 0.01, 0.01, 0.01]])
    assert isinstance(fit, ValueError) and "sigma must be positive and finite" in str(fit)


def test_samples_report_the_first_bad_point():
    with pytest.raises(ValueError, match="^sample sigma must be positive and finite when present$"):
        samples_from_arrays([0.0, float("nan")], [0.1, 0.2], [0.0, 0.01])
    with pytest.raises(ValueError, match="^sample abscissa must be finite$"):
        samples_from_arrays([0.0, float("nan")], [0.1, float("nan")], [0.01, 0.0])
    with pytest.raises(ValueError, match="^sample value must be finite$"):
        samples_from_arrays([0.0, float("inf")], [complex(0.1, float("nan")), 0.2])
    with pytest.raises(ValueError, match="^samples must be 1-d arrays of equal length$"):
        samples_from_arrays([0.0, 1.0], [0.1, 0.2], [0.01])


# ---------------------------------------------------------------------------
# Dip fit
# ---------------------------------------------------------------------------


def test_dip_needs_five_samples():
    x, y = _dip_curve(n=4)
    # the sample count is checked before the values, complex ones included
    for values in (y, y + 0.01j):
        with pytest.raises(ValueError, match="need at least 5 samples"):
            fit_dip_stack(x, values[None])


@pytest.mark.parametrize("imag", [0.01j, 0.3j])
def test_dip_rejects_complex_values(imag):
    # the real part alone would fit and converge: the imaginary part must
    # not be dropped silently
    x, y = _dip_curve(n=11)
    with pytest.raises(ValueError, match=r"^dip curves must be real \(\|r\|\^2 values\)$"):
        fit_dip_stack(x, (y + imag)[None])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dip_rejects_a_non_finite_abscissa(bad):
    x, y = _dip_curve(n=11)
    x[4] = bad
    with pytest.raises(ValueError, match="^sample abscissa must be finite$"):
        fit_dip_stack(x, y[None])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dip_row_with_a_non_finite_value_fails_alone(bad):
    # a non-finite value fails its own row, with no numpy warning, and no other row
    x, y = _dip_curve(n=11)
    y_bad = y.copy()
    y_bad[5] = bad
    sigma = np.full((3, y.size), 0.01)
    sigma[2, 0] = 0.0  # a bad value is reported before a bad sigma
    bad_row, good, both = fit_dip_stack(x, np.stack([y_bad, y, y_bad]), sigma)
    for fit in (bad_row, both):
        assert isinstance(fit, ValueError) and str(fit) == "sample value must be finite"
    alone, = fit_dip_stack(x, y[None], sigma[1:2])
    assert good.converged and np.array_equal(good.values, alone.values)
    unweighted, = fit_dip_stack(x, y_bad[None])
    assert isinstance(unweighted, ValueError) and str(unweighted) == "sample value must be finite"


def test_dip_constant_data_flagged():
    x = np.linspace(-1.0, 1.0, 11)
    res, = fit_dip_stack(x, np.full((1, 11), 0.3))
    assert res.converged
    assert res.value("baseline") == pytest.approx(0.3, rel=1e-15)
    assert res.value("depth") == 0.0
    assert math.isnan(res.value("hwhm"))
    assert "degenerate:constant-data" in res.notes
    assert "hwhm-unidentifiable" in res.notes


def test_dip_noiseless_recovery():
    x, y = _dip_curve()
    res, = fit_dip_stack(x, y[None])
    assert res.converged
    truth = dip_shape(GAMMA10_EMIT, G10, G20, OMEGA_C)
    width = eit_linewidth(G10, G20, OMEGA_C)
    assert res.value("hwhm") == pytest.approx(width, rel=1e-8)
    assert res.value("hwhm") / MHZ == pytest.approx(5.38297619047619, rel=1e-8)
    assert res.value("center") == pytest.approx(0.0, abs=1e-3 * width)
    assert res.value("baseline") == pytest.approx(truth.baseline, rel=1e-6)
    assert res.value("depth") == pytest.approx(truth.depth, rel=1e-6)


def test_dip_weighted_fit_uses_sigma():
    x, y = _dip_curve(n=101)
    sigma = np.full_like(y, 0.01)
    res, = fit_dip_stack(x, y[None], sigma[None])
    width = eit_linewidth(G10, G20, OMEGA_C)
    assert res.value("hwhm") == pytest.approx(width, rel=1e-8)
    # noiseless weighted data still reports (near) zero uncertainty
    assert res.error("hwhm") < 1e-6 * width


def test_dip_monte_carlo_coverage():
    x, y = _dip_curve()
    width = eit_linewidth(G10, G20, OMEGA_C)
    sigma = 0.02 * y
    hits_3s = 0
    hits_1s = 0
    noisy = [y + sigma * np.random.Generator(np.random.Philox(seed)).standard_normal(y.size)
             for seed in range(100)]
    for res in fit_dip_stack(x, np.array(noisy), np.tile(sigma, (100, 1))):
        err = res.error("hwhm")
        assert np.isfinite(err) and err > 0.0
        miss = abs(res.value("hwhm") - width)
        hits_3s += miss <= 3.0 * err
        hits_1s += miss <= 1.0 * err
    assert hits_3s >= 95
    assert 60 <= hits_1s <= 75


# ---------------------------------------------------------------------------
# Linewidth line fit
# ---------------------------------------------------------------------------


def _line_dataset():
    powers_dbm = np.linspace(-60.0, -45.0, 10)
    powers = np.array([dbm_to_watts(p) for p in powers_dbm])
    widths = G20 + (K_CAL / (4.0 * G10)) * powers
    return powers, widths


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_line_fit_noiseless_exact(weighted):
    powers, widths = _line_dataset()
    sigma = np.linspace(0.01, 0.1, powers.size) * MHZ if weighted else None
    res = fit_linewidth_line(powers, widths, sigma, gamma10=G10)
    assert res.value("gamma20") == pytest.approx(G20, rel=1e-10)
    assert res.value("k") == pytest.approx(K_CAL, rel=1e-10)
    assert res.value("gamma20") / MHZ == pytest.approx(4.94, rel=1e-10)
    # residual-variance scaling makes noiseless data report zero uncertainty
    assert res.error("gamma20") <= 1e-10 * G20
    assert res.error("k") <= 1e-10 * K_CAL


def test_line_fit_weights_pull_toward_trusted_points():
    powers, widths = _line_dataset()
    widths = widths.copy()
    widths[-1] += 0.5 * MHZ
    sigma = np.full(powers.size, 0.1 * MHZ)
    sigma[-1] = 1e-4 * MHZ
    uniform = fit_linewidth_line(powers, widths, gamma10=G10)
    tight_last = fit_linewidth_line(powers, widths, sigma, gamma10=G10)

    def miss(fit):
        return abs(fit.value("gamma20") + fit.value("k") / (4.0 * G10) * powers[-1] - widths[-1])

    assert miss(tight_last) < 0.01 * miss(uniform)


def test_line_fit_sigma_scale_invariance():
    powers, widths = _line_dataset()
    rng = np.random.Generator(np.random.Philox(4))
    noisy = widths + 0.05 * MHZ * rng.standard_normal(widths.size)
    sigma = np.linspace(0.02, 0.08, powers.size) * MHZ
    a = fit_linewidth_line(powers, noisy, 0.1 * sigma, gamma10=G10)
    b = fit_linewidth_line(powers, noisy, 10.0 * sigma, gamma10=G10)
    assert a.values == pytest.approx(b.values, rel=1e-12)
    # residual-variance scaling also makes the reported errors scale-free
    assert a.stderr == pytest.approx(b.stderr, rel=1e-10)


def test_line_fit_validation():
    powers, widths = _line_dataset()
    with pytest.raises(ValueError):
        fit_linewidth_line(powers[:2], widths[:2], gamma10=G10)
    with pytest.raises(ValueError):
        fit_linewidth_line(powers, widths[:-1], gamma10=G10)
    with pytest.raises(ValueError):
        fit_linewidth_line(powers, widths, gamma10=0.0)
    sigma = np.full(powers.size, 0.1 * MHZ)
    with pytest.raises(ValueError, match="sigma must match"):
        fit_linewidth_line(powers, widths, sigma[:-1], gamma10=G10)
    for bad in (0.0, -1.0, math.inf, math.nan):
        sigma[3] = bad
        with pytest.raises(ValueError, match="sigma values must be positive and finite"):
            fit_linewidth_line(powers, widths, sigma, gamma10=G10)


@pytest.mark.parametrize("column, bad", [("power", math.nan), ("width", math.inf)])
def test_line_fit_rejects_non_finite_points(column, bad):
    powers, widths = _line_dataset()
    (powers if column == "power" else widths)[2] = bad
    with pytest.raises(ValueError, match="^powers and linewidths must be finite$"):
        fit_linewidth_line(powers, widths, gamma10=G10)


def test_line_fit_single_power_is_rank_error():
    p = dbm_to_watts(-50.0)
    with pytest.raises(RankError):
        fit_linewidth_line([p, p, p], [G20, G20, G20], gamma10=G10)


def test_line_fit_power_rescaling_invariance():
    powers, widths = _line_dataset()
    base = fit_linewidth_line(powers, widths, gamma10=G10)
    a = 7.3
    scaled = fit_linewidth_line(a * powers, widths, gamma10=G10)
    assert scaled.value("gamma20") == pytest.approx(base.value("gamma20"), rel=1e-12)
    assert scaled.value("k") == pytest.approx(base.value("k") / a, rel=1e-12)


# ---------------------------------------------------------------------------
# Per-point control Rabi frequency
# ---------------------------------------------------------------------------


def test_rabi_inversion_recovers_operating_point():
    width = eit_linewidth(G10, G20, OMEGA_C)
    omega_c, sigma, one_sided = rabi_per_point(G20, [width], [0.05 * MHZ], gamma10=G10)
    assert omega_c.shape == sigma.shape == one_sided.shape == (1,)
    assert omega_c[0] == pytest.approx(OMEGA_C, rel=1e-12)
    assert omega_c[0] / MHZ == pytest.approx(6.1, rel=1e-12)
    assert not one_sided[0]
    assert sigma[0] == pytest.approx(2.0 * G10 * 0.05 * MHZ / OMEGA_C, rel=1e-12)


def test_rabi_accepts_fit_result():
    powers, widths = _line_dataset()
    line = fit_linewidth_line(powers, widths, gamma10=G10)
    omega_c, _, _ = rabi_per_point(line.value("gamma20"), widths, gamma10=G10)
    expected = np.sqrt(4.0 * G10 * (widths - G20))
    for value, target in zip(omega_c, expected):
        assert value == pytest.approx(target, rel=1e-6)


def test_rabi_one_sided_at_intrinsic_floor():
    sig = 0.2 * MHZ
    omega_c, sigma, one_sided = rabi_per_point(G20, [G20, 0.5 * G20], [sig, sig], gamma10=G10)
    for i in range(2):
        assert one_sided[i]
        assert omega_c[i] == 0.0
        assert sigma[i] == pytest.approx(math.sqrt(4.0 * G10 * sig), rel=1e-12)


def test_rabi_error_bars_shrink_inversely():
    sig = 0.1 * MHZ
    widths = [G20 + delta for delta in np.array([0.2, 1.0, 5.0, 20.0]) * MHZ]
    omega_c, sigma, _ = rabi_per_point(G20, widths, [sig] * 4, gamma10=G10)
    products = list(omega_c * sigma)
    for product in products:
        assert product == pytest.approx(products[0], rel=1e-12)
    sigmas = list(sigma)
    assert sigmas == sorted(sigmas, reverse=True)


def _reference_rabi(gamma20, widths, sigmas, gamma10):
    """rabi_per_point as one math.sqrt and one division per point."""
    out = []
    for width, sig in zip(widths, sigmas):
        excess = width - gamma20
        if excess <= 0.0:
            out.append((0.0, math.sqrt(4.0 * gamma10 * sig), True))
        else:
            omega_c = math.sqrt(4.0 * gamma10 * excess)
            out.append((omega_c, 2.0 * gamma10 * sig / omega_c, False))
    return out


def test_rabi_columns_equal_the_per_point_loop():
    rng = np.random.default_rng(14)
    widths = G20 + rng.normal(0.0, 10.0 * MHZ, size=200)
    widths[:3] = G20, np.nextafter(G20, np.inf), np.nextafter(G20, -np.inf)
    sigmas = rng.uniform(0.0, 0.5 * MHZ, size=200)
    sigmas[0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns = rabi_per_point(G20, widths, sigmas, gamma10=G10)
    assert [column.dtype for column in columns] == [np.float64, np.float64, np.bool_]
    assert list(zip(*(column.tolist() for column in columns))) == _reference_rabi(G20, widths, sigmas, G10)


@pytest.mark.parametrize("gamma20, widths, sigmas, message", [
    (math.nan, [G10], None, "gamma20 must be finite and nonnegative"),
    (math.inf, [G10], None, "gamma20 must be finite and nonnegative"),
    (G20, [G10, math.nan], None, "gamma_eit must be finite"),
    (G20, [G10, G10], [0.1, math.inf], "gamma_eit must be finite and sigma_gamma finite and nonnegative"),
    (G20, [G10, G10], [0.1, -0.1], "gamma_eit must be finite and sigma_gamma finite and nonnegative"),
], ids=["gamma20-nan", "gamma20-inf", "width-nan", "sigma-inf", "sigma-negative"])
def test_rabi_rejects_non_finite_input(gamma20, widths, sigmas, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        rabi_per_point(gamma20, widths, sigmas, gamma10=G10)


def test_rabi_validation():
    with pytest.raises(ValueError):
        rabi_per_point(G20, [G10], [0.1], gamma10=0.0)
    with pytest.raises(ValueError):
        rabi_per_point(-1.0, [G10], gamma10=G10)
    with pytest.raises(ValueError):
        rabi_per_point(G20, [G10, G10], [0.1], gamma10=G10)


# ---------------------------------------------------------------------------
# Two-level probe fit
# ---------------------------------------------------------------------------


def test_two_level_noiseless_recovery():
    x, y = _two_level_curve()
    res = fit_two_level(samples_from_arrays(x, y), Gamma10=GAMMA10_EMIT)
    assert res.converged
    assert res.value("gamma10") == pytest.approx(G10, rel=1e-8)
    assert res.value("gamma10") / MHZ == pytest.approx(21.0, rel=1e-8)
    assert res.value("scale") == pytest.approx(1.0, rel=1e-8)
    # Gamma10 is an input, not a fitted parameter
    assert res.names == ("gamma10", "scale")


@pytest.mark.parametrize("estimator", ["two-level", "transmission"])
def test_single_fit_that_stops_unconverged_raises(monkeypatch, estimator):
    # one iteration cannot reach the optimum from the data-driven start
    monkeypatch.setattr(leastsq, "_MAX_ITER", 1)
    x2, y2 = _two_level_curve()
    xt, t = _transmission_curve()
    calls = {
        "two-level": lambda: fit_two_level(samples_from_arrays(x2, y2), Gamma10=GAMMA10_EMIT),
        "transmission": lambda: fit_transmission(samples_from_arrays(xt, t), gamma10=G10,
                                                 Gamma10=GAMMA10_EMIT),
    }
    with pytest.raises(ConvergenceError, match=f"^{estimator} fit did not converge after 1 iterations "):
        calls[estimator]()


def test_two_level_radiatively_limited_peak():
    # Gamma10 = 2*gamma10 concentrates all decoherence in emission: |r(0)| = 1
    gamma = 10.0 * MHZ
    x = np.linspace(-60.0, 60.0, 121) * MHZ
    y = np.abs(reflection_coefficient(Gamma10=2.0 * gamma, gamma10=gamma,
                                      gamma20=0.0, Omega_c=0.0, Delta_p=x,
                                      Delta_c=0.0))
    res = fit_two_level(samples_from_arrays(x, y), Gamma10=2.0 * gamma)
    peak = res.value("scale") * gamma / res.value("gamma10")
    assert peak == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("count", [21, 101])
@pytest.mark.parametrize("gamma_mhz", [0.2, 0.5, 0.8, 2.0])
def test_two_level_line_narrower_than_its_sampling(count, gamma_mhz):
    # the grid samples Delta_p = 0 and at most one point sits above half the
    # peak: the fit starts from its floor and recovers the line with no
    # warning (a test failure here), also under the float-overflow policy
    gamma = gamma_mhz * MHZ
    x = np.linspace(-50.0, 50.0, count) * MHZ
    y = 0.5 * GAMMA10_EMIT / np.sqrt(gamma * gamma + x * x)
    with experiments._float_overflow_is_config_error():
        res = fit_two_level(samples_from_arrays(x, y), Gamma10=GAMMA10_EMIT)
    assert res.converged
    assert res.value("gamma10") == pytest.approx(gamma, rel=1e-9)
    assert res.value("scale") == pytest.approx(1.0, rel=1e-9)


def test_two_level_validation():
    x, y = _two_level_curve(n=4)
    with pytest.raises(ValueError):
        fit_two_level(samples_from_arrays(x, y), Gamma10=GAMMA10_EMIT)
    x, y = _two_level_curve(n=9)
    with pytest.raises(ValueError, match="positive magnitudes"):
        fit_two_level(samples_from_arrays(x, -y), Gamma10=GAMMA10_EMIT)
    with pytest.raises(ValueError):
        fit_two_level(samples_from_arrays(x, y), Gamma10=0.0)
    with pytest.raises(ValueError):
        fit_two_level(samples_from_arrays(x, y + 0.1j), Gamma10=GAMMA10_EMIT)


def test_two_level_monte_carlo_coverage():
    x, y = _two_level_curve()
    sigma = 0.02 * y
    hits_3s = 0
    hits_1s = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(1000 + seed))
        noisy = y + sigma * rng.standard_normal(y.size)
        res = fit_two_level(samples_from_arrays(x, noisy, sigma),
                            Gamma10=GAMMA10_EMIT)
        err = res.error("gamma10")
        assert np.isfinite(err) and err > 0.0
        miss = abs(res.value("gamma10") - G10)
        hits_3s += miss <= 3.0 * err
        hits_1s += miss <= 1.0 * err
    assert hits_3s >= 95
    assert 60 <= hits_1s <= 75


# ---------------------------------------------------------------------------
# Transmission fit
# ---------------------------------------------------------------------------

T_G20 = 4.5 * MHZ
T_DELTA = 4.0 * MHZ
T_OMEGA_C = 16.0 * MHZ


def _transmission_curve(crosstalk: complex = 0.0, scale: float = 1.0,
                        omega_c: float = T_OMEGA_C, n: int = 201):
    x = np.linspace(-50.0, 50.0, n) * MHZ
    t = transmission_flux_coefficient(Gamma10=GAMMA10_EMIT, gamma10=G10,
                                      gamma20=T_G20, Omega_c=omega_c,
                                      Delta_p=x, delta=T_DELTA)
    return x, scale * (t + crosstalk)


def test_transmission_validation():
    x, t = _transmission_curve(n=7)
    with pytest.raises(ValueError):
        fit_transmission(samples_from_arrays(x, t), gamma10=G10, Gamma10=GAMMA10_EMIT)
    x, t = _transmission_curve(n=21)
    with pytest.raises(ValueError):
        fit_transmission(samples_from_arrays(x, t), gamma10=0.0, Gamma10=GAMMA10_EMIT)


HAND_BUILT_ERRORS = {
    "nan-value": "sample value must be finite",
    "zero-sigma": "sample sigma must be positive and finite when present",
    "short-sigma": "samples must be 1-d arrays of equal length",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(HAND_BUILT_ERRORS))
@pytest.mark.parametrize("estimator", ["two-level", "transmission", "transmission-guess"])
def test_hand_built_samples_raise_the_validation_errors(estimator, case):
    """Samples is a public NamedTuple, so it can be built without
    samples_from_arrays; both estimators and the transmission start validate
    it through that function and raise its message, with no numpy error and
    no warning."""
    if estimator == "two-level":
        x, values = _two_level_curve(n=101)
        fit = lambda samples: fit_two_level(samples, Gamma10=GAMMA10_EMIT)
    elif estimator == "transmission":
        x, values = _transmission_curve(n=101)
        fit = lambda samples: fit_transmission(samples, gamma10=G10, Gamma10=GAMMA10_EMIT)
    else:
        x, values = _transmission_curve(n=101)
        fit = lambda samples: transmission_initial_guess(samples, gamma10=G10)
    seventh = np.arange(x.size) == 7
    samples = {
        "nan-value": Samples(x, np.where(seventh, np.nan, values)),
        "zero-sigma": Samples(x, values, np.where(seventh, 0.0, 0.01)),
        "short-sigma": Samples(x, values, np.full(5, 0.01)),
    }[case]
    with pytest.raises(ValueError, match=f"^{HAND_BUILT_ERRORS[case]}$"):
        fit(samples)

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("estimator", ["line:gamma10", "rabi:gamma10", "two-level:Gamma10",
                                       "transmission:gamma10", "transmission:Gamma10"])
def test_estimators_reject_rates_that_are_not_positive_and_finite(estimator, rate):
    powers, widths = _line_dataset()
    x2, y2 = _two_level_curve(n=21)
    xt, t = _transmission_curve(n=21)
    calls = {
        "line:gamma10": lambda: fit_linewidth_line(powers, widths, gamma10=rate),
        "rabi:gamma10": lambda: rabi_per_point(G20, widths, gamma10=rate),
        "two-level:Gamma10": lambda: fit_two_level(samples_from_arrays(x2, y2), Gamma10=rate),
        "transmission:gamma10": lambda: fit_transmission(samples_from_arrays(xt, t), gamma10=rate,
                                                         Gamma10=GAMMA10_EMIT),
        "transmission:Gamma10": lambda: fit_transmission(samples_from_arrays(xt, t), gamma10=G10,
                                                         Gamma10=rate),
    }
    name = estimator.split(":")[1]
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        calls[estimator]()


@pytest.mark.filterwarnings("error")
def test_transmission_fit_with_overflowing_rss_does_not_start():
    # every residual is finite, but their sum of squares overflows
    x = np.linspace(-50.0, 50.0, 41) * MHZ
    with pytest.raises(ValueError, match="^residuals are not finite at the initial guess$"):
        fit_transmission(samples_from_arrays(x, np.full(x.size, 1e300 + 1j)),
                         gamma10=G10, Gamma10=GAMMA10_EMIT)


def test_transmission_noiseless_complex_recovery():
    x, t = _transmission_curve()
    res = fit_transmission(samples_from_arrays(x, t), gamma10=G10,
                           Gamma10=GAMMA10_EMIT)
    assert res.converged
    assert res.value("gamma20") == pytest.approx(T_G20, rel=1e-6)
    assert res.value("gamma20") / MHZ == pytest.approx(4.5, rel=1e-6)
    assert res.value("delta") == pytest.approx(T_DELTA, rel=1e-6)
    assert res.value("Omega_c") == pytest.approx(T_OMEGA_C, rel=1e-6)
    assert res.value("scale") == pytest.approx(1.0, rel=1e-6)
    assert abs(res.value("crosstalk_re")) < 1e-6
    assert abs(res.value("crosstalk_im")) < 1e-6


@pytest.mark.parametrize("part", [np.abs, np.real], ids=["magnitude", "real-part"])
def test_transmission_rejects_real_values(monkeypatch, part):
    x, t = _transmission_curve()
    monkeypatch.setattr(estimation, "levenberg_marquardt_stack",
                        lambda *args, **kwargs: pytest.fail("a real-valued curve was iterated"))
    with pytest.raises(ValueError, match=r"^transmission values must be complex \(both quadratures\)$"):
        fit_transmission(samples_from_arrays(x, part(t)), gamma10=G10, Gamma10=GAMMA10_EMIT)


def test_transmission_crosstalk_floats():
    c = 0.05 * complex(math.cos(1.0), math.sin(1.0))
    x, t = _transmission_curve(crosstalk=c)
    floated = fit_transmission(samples_from_arrays(x, t), gamma10=G10,
                               Gamma10=GAMMA10_EMIT)
    assert floated.value("crosstalk_re") == pytest.approx(c.real, rel=1e-6)
    assert floated.value("crosstalk_im") == pytest.approx(c.imag, rel=1e-6)
    assert floated.value("gamma20") == pytest.approx(T_G20, rel=1e-6)


def test_transmission_initial_guess_split_minima():
    x, t = _transmission_curve(omega_c=30.0 * MHZ)
    guess = transmission_initial_guess(samples_from_arrays(x, t), gamma10=G10)
    assert guess["Omega_c"] == pytest.approx(30.0 * MHZ, rel=0.25)
    assert guess["delta"] == pytest.approx(T_DELTA, abs=3.0 * MHZ)


def test_transmission_initial_guess_single_minimum_uses_half_gamma10():
    x = np.linspace(-50.0, 50.0, 201) * MHZ
    t = transmission_flux_coefficient(Gamma10=GAMMA10_EMIT, gamma10=G10,
                                      gamma20=T_G20, Omega_c=0.0,
                                      Delta_p=x, delta=0.0)
    guess = transmission_initial_guess(samples_from_arrays(x, t), gamma10=G10)
    assert guess["Omega_c"] == 0.5 * G10


def test_transmission_noisy_within_three_sigma():
    x, t = _transmission_curve(crosstalk=0.03 + 0.02j)
    rng = np.random.Generator(np.random.Philox(3))
    sig = 0.01 * float(np.max(np.abs(t)))
    noisy = t + sig * (rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size))
    res = fit_transmission(samples_from_arrays(x, noisy, np.full(t.size, sig)),
                           gamma10=G10, Gamma10=GAMMA10_EMIT)
    assert res.converged
    for name, truth in (("gamma20", T_G20), ("delta", T_DELTA),
                        ("Omega_c", T_OMEGA_C)):
        assert abs(res.value(name) - truth) <= 3.0 * res.error(name)


# ---------------------------------------------------------------------------
# Analytic Jacobians against central differences
# ---------------------------------------------------------------------------

RATE_STEP = 1e-5 * G10  # step for parameters in rad/s
UNIT_STEP = 1e-6        # step for dimensionless parameters


@pytest.fixture()
def problems(monkeypatch):
    """(residual, jacobian, start, optimum) of every fit the estimators hand the
    engine, split out of the one shared evaluation the engine calls."""
    captured = []
    engine = estimation.levenberg_marquardt_stack

    def spy(evaluate, x0, **kwargs):
        fits = engine(evaluate, x0, **kwargs)
        for i, (start, fit) in enumerate(zip(np.array(x0, dtype=float), fits)):
            rows = np.array([i])
            captured.append((lambda theta, rows=rows: evaluate(np.asarray(theta)[None], rows)[0][0],
                             lambda theta, rows=rows: evaluate(np.asarray(theta)[None], rows)[1][0],
                             start, fit.values))
        return fits

    monkeypatch.setattr(estimation, "levenberg_marquardt_stack", spy)
    return captured


def _assert_jacobian_matches(residual, jacobian, theta, step):
    numeric = central_difference(residual, theta, step)
    analytic = jacobian(np.asarray(theta, dtype=float))
    # each column to 1e-6 of its largest entry
    error = np.max(np.abs(analytic - numeric), axis=0) / np.max(np.abs(numeric), axis=0)
    assert np.all(error <= 1e-6), error


def _assert_problems_match(problems, step):
    assert problems
    for residual, jacobian, start, optimum in problems:
        for theta in (start, optimum):
            _assert_jacobian_matches(residual, jacobian, theta, step)


def test_dip_jacobian_matches_central_difference(problems):
    x, y = _dip_curve()
    rng = np.random.Generator(np.random.Philox(21))
    fit_dip_stack(x, (y + 0.002 * rng.standard_normal(y.size))[None], np.full((1, y.size), 0.002))
    _assert_problems_match(problems, [RATE_STEP, RATE_STEP, UNIT_STEP, UNIT_STEP])


def test_two_level_jacobian_matches_central_difference(problems):
    x, y = _two_level_curve()
    fit_two_level(samples_from_arrays(x, y), Gamma10=GAMMA10_EMIT)
    _assert_problems_match(problems, [RATE_STEP, UNIT_STEP])


def test_transmission_jacobian_matches_central_difference(problems):
    x, t = _transmission_curve(crosstalk=0.03 + 0.02j)
    rng = np.random.Generator(np.random.Philox(22))
    t = t + 0.01 * (rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size))
    fit_transmission(samples_from_arrays(x, t, np.full(t.size, 0.01)),
                     gamma10=G10, Gamma10=GAMMA10_EMIT)
    step = [RATE_STEP] * 3 + [UNIT_STEP] * 3
    _assert_problems_match(problems, step)
    # gamma20 at its bound 0 and delta = 0 make the sample at Delta_p = 0
    # perfectly transparent, where the Jacobian takes its finite limit
    assert x[t.size // 2] == 0.0
    residual, jacobian, _, _ = problems[0]
    transparent = np.array([0.0, 0.0, T_OMEGA_C, 1.0, 0.03, 0.02])
    _assert_jacobian_matches(residual, jacobian, transparent, step)
