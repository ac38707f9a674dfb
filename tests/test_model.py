from __future__ import annotations

import math

import numpy as np
import pytest

from acoustic_eit import (
    SingularModelError,
    ThreeLevelAtom,
    UndefinedPhaseError,
    dbm_to_watts,
    dip_shape,
    eit_linewidth,
    group_delay,
    hz_to_angular,
    reflection_coefficient,
    transmission_flux_coefficient,
)
from acoustic_eit.experiments import paper_profile, run_experiment
from acoustic_eit.model import _kernel
from numdiff import numeric_group_delay

MHZ = 2.0 * math.pi * 1e6


# ---------------------------------------------------------------------------
# Coherence rates and atom construction
# ---------------------------------------------------------------------------


def _rates(Gamma10, Gamma21, gphi1, gphi2):
    atom = ThreeLevelAtom(omega10=1.0, anharmonicity=1.0, Gamma10=Gamma10, Gamma21=Gamma21,
                          gphi1=gphi1, gphi2=gphi2)
    return atom.gamma10, atom.gamma20, atom.gamma21


def test_atom_coherence_rates_all_zero():
    assert _rates(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_atom_coherence_rates_radiatively_limited():
    gamma = 7.0
    g10, g20, g21 = _rates(2.0 * gamma, 0.0, 0.0, 0.0)
    assert g10 == gamma
    assert g20 == 0.0
    assert g21 == gamma


def test_atom_coherence_rates_device_values():
    g10, g20, g21 = _rates(20.1 * MHZ, 0.0, 10.95 * MHZ, 4.94 * MHZ)
    assert g10 == pytest.approx(21.0 * MHZ, rel=1e-15)
    assert g20 == pytest.approx(4.94 * MHZ, rel=1e-15)
    assert g21 == pytest.approx((10.05 + 10.95 + 4.94) * MHZ, rel=1e-15)


def test_atom_rejects_negative_or_nan_rates():
    with pytest.raises(ValueError, match="^Gamma10 must be a finite nonnegative rate, got -1.0$"):
        _rates(-1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="^gphi1 must be a finite nonnegative rate, got nan$"):
        _rates(1.0, 0.0, float("nan"), 0.0)


def test_atom_properties(reflection_atom):
    assert reflection_atom.gamma10 == pytest.approx(21.0 * MHZ, rel=1e-15)
    assert reflection_atom.gamma20 == pytest.approx(4.94 * MHZ, rel=1e-15)
    assert reflection_atom.omega21 == pytest.approx(hz_to_angular(2.15e9), rel=1e-12)


def test_atom_validation():
    with pytest.raises(ValueError):
        ThreeLevelAtom(omega10=0.0, anharmonicity=1.0, Gamma10=1.0)
    with pytest.raises(ValueError):
        ThreeLevelAtom(omega10=1.0, anharmonicity=-1.0, Gamma10=1.0)
    with pytest.raises(ValueError):
        ThreeLevelAtom(omega10=1.0, anharmonicity=1.0, Gamma10=-1.0)


# ---------------------------------------------------------------------------
# Reflection
# ---------------------------------------------------------------------------


def test_reflection_radiatively_limited_full():
    # Gamma10 = 2*gamma10 with the control off gives r = -1 exactly
    r = reflection_coefficient(Gamma10=2.0, gamma10=1.0, gamma20=0.0,
                               Omega_c=0.0, Delta_p=0.0, Delta_c=0.0)
    assert r == -1.0 + 0.0j


def test_reflection_far_detuned_vanishes(reflection_atom):
    dp = 1e6 * reflection_atom.gamma10
    for sign in (1.0, -1.0):
        r = reflection_coefficient(
            Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
            gamma20=reflection_atom.gamma20, Omega_c=0.0,
            Delta_p=sign * dp, Delta_c=0.0)
        assert abs(r) < 1e-5


def test_reflection_operating_point(reflection_atom):
    # frozen against the density-matrix solver at Omega_p/2pi = 10 kHz
    r_on = reflection_coefficient(
        Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
        gamma20=reflection_atom.gamma20, Omega_c=6.1 * MHZ, Delta_p=0.0, Delta_c=0.0)
    r_off = reflection_coefficient(
        Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
        gamma20=reflection_atom.gamma20, Omega_c=0.0, Delta_p=0.0, Delta_c=0.0)
    assert r_on.real == pytest.approx(-0.4391888006723136, rel=1e-12)
    assert r_on.imag == pytest.approx(0.0, abs=1e-15)
    assert r_off.real == pytest.approx(-0.4785714285714286, rel=1e-12)
    # switching the control on reduces resonant reflection
    assert abs(r_on) < abs(r_off)


def test_reflection_perfect_transparency_is_exact_zero():
    # gamma20 = 0 on two-photon resonance with the control on
    r = reflection_coefficient(Gamma10=2.0, gamma10=1.5, gamma20=0.0,
                               Omega_c=3.0, Delta_p=0.0, Delta_c=0.0)
    assert r == 0.0 + 0.0j


def test_reflection_singular_raises():
    with pytest.raises(SingularModelError):
        reflection_coefficient(Gamma10=1.0, gamma10=0.0, gamma20=1.0,
                               Omega_c=0.0, Delta_p=0.0, Delta_c=0.0)


def test_reflection_vector_matches_scalar(reflection_atom):
    dp = np.linspace(-40.0, 40.0, 17) * MHZ
    dc = -0.25 * dp
    grid = reflection_coefficient(
        Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
        gamma20=reflection_atom.gamma20, Omega_c=6.1 * MHZ, Delta_p=dp, Delta_c=dc)
    for i in range(dp.size):
        one = reflection_coefficient(
            Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
            gamma20=reflection_atom.gamma20, Omega_c=6.1 * MHZ,
            Delta_p=float(dp[i]), Delta_c=float(dc[i]))
        assert grid[i] == pytest.approx(one, rel=1e-14)


# ---------------------------------------------------------------------------
# Transmission
# ---------------------------------------------------------------------------


def test_transmission_full_extinction():
    t = 1.0 + reflection_coefficient(Gamma10=2.0, gamma10=1.0, gamma20=0.0,
                                     Omega_c=0.0, Delta_p=0.0, Delta_c=0.0)
    assert t == 0.0 + 0.0j


def _transmission(atom, Omega_c, Delta_p, Delta_c):
    return 1.0 + reflection_coefficient(atom.Gamma10, atom.gamma10, atom.gamma20, Omega_c, Delta_p, Delta_c)


def test_transmission_far_detuned_approaches_one(reflection_atom):
    t = _transmission(reflection_atom, 0.0, 1e6 * reflection_atom.gamma10, 0.0)
    assert abs(t - 1.0) < 1e-5


def test_transmission_operating_point(reflection_atom):
    t = _transmission(reflection_atom, 6.1 * MHZ, 0.0, 0.0)
    assert t.real == pytest.approx(0.5608111993276864, rel=1e-12)
    assert t.imag == pytest.approx(0.0, abs=1e-15)


def test_flux_sweep_matches_transmission_at_zero_offset(reflection_atom):
    t_flux = transmission_flux_coefficient(reflection_atom.Gamma10, reflection_atom.gamma10,
                                           reflection_atom.gamma20, 6.1 * MHZ, Delta_p=0.0, delta=0.0)
    t_plain = _transmission(reflection_atom, 6.1 * MHZ, 0.0, 0.0)
    assert t_flux == t_plain


def test_flux_sweep_control_off_is_two_level(reflection_atom):
    # with the control off the offset delta cannot matter
    dp = np.linspace(-30.0, 30.0, 11) * MHZ
    for delta in (0.0, 4.0 * MHZ, -11.0 * MHZ):
        t = transmission_flux_coefficient(
            Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
            gamma20=reflection_atom.gamma20, Omega_c=0.0, Delta_p=dp, delta=delta)
        expected = 1.0 - reflection_atom.Gamma10 / (
            2.0 * (reflection_atom.gamma10 - 1j * dp))
        assert np.allclose(t, expected, rtol=1e-14, atol=0.0)


def test_flux_sweep_asymmetry_with_control_offset(reflection_atom):
    # nonzero delta makes |t(Delta_p)| asymmetric around zero
    dp = 3.0 * MHZ
    kw = dict(Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
              gamma20=reflection_atom.gamma20, Omega_c=6.1 * MHZ, delta=4.0 * MHZ)
    left = abs(transmission_flux_coefficient(Delta_p=-dp, **kw))
    right = abs(transmission_flux_coefficient(Delta_p=dp, **kw))
    assert abs(left - right) > 1e-3


def test_flux_sweep_vector_matches_scalar(reflection_atom):
    dp = np.linspace(-20.0, 20.0, 9) * MHZ
    grid = transmission_flux_coefficient(
        Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
        gamma20=reflection_atom.gamma20, Omega_c=16.0 * MHZ, Delta_p=dp,
        delta=4.0 * MHZ)
    for i in range(dp.size):
        one = transmission_flux_coefficient(
            Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
            gamma20=reflection_atom.gamma20, Omega_c=16.0 * MHZ,
            Delta_p=float(dp[i]), delta=4.0 * MHZ)
        assert grid[i] == pytest.approx(one, rel=1e-14)


# ---------------------------------------------------------------------------
# Transparency linewidth and dip decomposition
# ---------------------------------------------------------------------------


def test_eit_linewidth_trivial_limits():
    assert eit_linewidth(2.0, 0.7, 0.0) == 0.7
    # pure power broadening: gamma20 = 0, Omega_c**2 = 4*gamma10*x
    x = 0.31
    gamma10 = 2.4
    assert eit_linewidth(gamma10, 0.0, math.sqrt(4.0 * gamma10 * x)) == pytest.approx(x, rel=1e-15)


def test_eit_linewidth_device_value(reflection_atom):
    width = eit_linewidth(reflection_atom.gamma10, reflection_atom.gamma20, 6.1 * MHZ)
    assert width / MHZ == pytest.approx(5.38297619047619, rel=1e-12)


def test_eit_linewidth_validation():
    with pytest.raises(ValueError):
        eit_linewidth(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        eit_linewidth(1.0, -1.0, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, argument", [("linewidth", i) for i in range(3)] + [("dip", i) for i in range(4)])
def test_linewidth_and_dip_reject_rates_that_are_not_finite(call, argument, value):
    # eit_linewidth(gamma10, gamma20, Omega_c) and dip_shape(Gamma10, gamma10, gamma20, Omega_c)
    function, rates = {"linewidth": (eit_linewidth, [21.0, 5.0, 6.0]),
                       "dip": (dip_shape, [20.0, 21.0, 5.0, 6.0])}[call]
    rates[argument] = value
    with pytest.raises(ValueError, match="finite"):
        function(*rates)


def test_dip_shape_reproduces_squared_reflection(reflection_atom):
    # |r(Delta_c)|^2 at probe resonance is exactly baseline minus a Lorentzian
    shape = dip_shape(reflection_atom.Gamma10, reflection_atom.gamma10,
                      reflection_atom.gamma20, 6.1 * MHZ)
    assert shape.hwhm == eit_linewidth(reflection_atom.gamma10,
                                       reflection_atom.gamma20, 6.1 * MHZ)
    for dc in np.array([0.0, 0.3, -1.7, 4.0, 25.0]) * MHZ:
        r = reflection_coefficient(
            Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
            gamma20=reflection_atom.gamma20, Omega_c=6.1 * MHZ,
            Delta_p=0.0, Delta_c=float(dc))
        predicted = shape.baseline - shape.depth * shape.hwhm**2 / (dc**2 + shape.hwhm**2)
        assert abs(r) ** 2 == pytest.approx(predicted, rel=1e-12)


def test_dip_shape_pole_form_matches_reflection(reflection_atom):
    # r(Delta_c) = -amplitude + window / (hwhm - i*Delta_c)
    shape = dip_shape(reflection_atom.Gamma10, reflection_atom.gamma10,
                      reflection_atom.gamma20, 6.1 * MHZ)
    for dc in np.array([0.0, -2.2, 7.9]) * MHZ:
        r = reflection_coefficient(
            Gamma10=reflection_atom.Gamma10, gamma10=reflection_atom.gamma10,
            gamma20=reflection_atom.gamma20, Omega_c=6.1 * MHZ,
            Delta_p=0.0, Delta_c=float(dc))
        pole_form = -shape.amplitude + shape.window / (shape.hwhm - 1j * dc)
        assert r == pytest.approx(pole_form, rel=1e-12)


# ---------------------------------------------------------------------------
# Group delay
# ---------------------------------------------------------------------------


def _closed_form_rates(atom):
    return atom.Gamma10, atom.gamma10, atom.gamma20


def test_group_delay_undefined_at_extinction():
    atom = ThreeLevelAtom(omega10=1e9, anharmonicity=1e8, Gamma10=2.0e6, gphi1=0.0)
    with pytest.raises(UndefinedPhaseError):
        group_delay(*_closed_form_rates(atom), 0.0, 0.0, 0.0)


def test_group_delay_frozen_values(reflection_atom):
    tau_61 = group_delay(*_closed_form_rates(reflection_atom), 6.1 * MHZ, 0.0, 0.0)
    tau_12 = group_delay(*_closed_form_rates(reflection_atom), 12.0 * MHZ, 0.0, 0.0)
    assert tau_61 == pytest.approx(-3.3705020203230713e-09, rel=1e-12)
    assert tau_12 == pytest.approx(1.473321725733695e-09, rel=1e-12)
    # a weak control leaves fast (negative) delay, a developed window slows the probe
    assert tau_61 < 0.0 < tau_12


def test_group_delay_finite_difference_matches_analytic(reflection_atom):
    h = 1e-4 * reflection_atom.gamma10
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(25):
        Delta_p = float(rng.uniform(-20, 20)) * MHZ
        Delta_c = float(rng.uniform(-20, 20)) * MHZ
        Omega_c = float(rng.uniform(1.0, 30.0)) * MHZ
        drive = (*_closed_form_rates(reflection_atom), Omega_c, Delta_p, Delta_c)
        analytic = group_delay(*drive)
        numeric = numeric_group_delay(*drive, h)
        assert numeric == pytest.approx(analytic, rel=1e-6)


def test_group_delay_ideal_transparency_limit(reflection_atom):
    # gamma20 = 0 at the two-photon point: exact limit 2*Gamma10/Omega_c**2
    atom = ThreeLevelAtom(
        omega10=reflection_atom.omega10, anharmonicity=reflection_atom.anharmonicity,
        Gamma10=reflection_atom.Gamma10, Gamma21=0.0,
        gphi1=reflection_atom.gphi1, gphi2=0.0)
    Omega_c = 10.0 * MHZ
    assert group_delay(*_closed_form_rates(atom), Omega_c, 0.0, 0.0) == 2.0 * atom.Gamma10 / Omega_c**2
    assert group_delay(*_closed_form_rates(atom), Omega_c, 0.0, 0.0) > 0.0


@pytest.mark.parametrize("Omega_c, Delta_p, Delta_c, message", [
    (-1.0, 0.0, 0.0, "nonnegative"),
    (math.inf, 0.0, 0.0, "finite"),
    (6.1 * MHZ, math.inf, 0.0, "finite"),
    (6.1 * MHZ, 0.0, math.nan, "finite"),
    (-5e-324, 0.0, 0.0, "nonnegative"),
], ids=["negative-control", "control-inf", "probe-detuning-inf", "control-detuning-nan", "control-tiniest-negative"])
def test_group_delay_rejects_bad_drive(reflection_atom, Omega_c, Delta_p, Delta_c, message):
    with pytest.raises(ValueError, match=message):
        group_delay(*_closed_form_rates(reflection_atom), Omega_c, Delta_p, Delta_c)


@pytest.mark.parametrize("rates", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -1.0)],
                         ids=["Gamma10-nan", "gamma10-inf", "gamma20-negative"])
def test_group_delay_rejects_bad_rates(rates):
    # the rates a ThreeLevelAtom could not hold
    with pytest.raises(ValueError, match="finite nonnegative rates"):
        group_delay(*rates, 1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# One kernel for scalars and arrays
# ---------------------------------------------------------------------------


def _former_scalar_reflection(Gamma10, gamma10, gamma20, Omega_c, Delta_p, two_photon_detuning):
    """The scalar kernel the array kernel replaced, in CPython complex arithmetic."""
    two_photon = complex(gamma20, -two_photon_detuning)
    control_term = 0.0 + 0.0j if Omega_c == 0.0 else Omega_c**2 / (2.0 * two_photon)
    return -Gamma10 / (2.0 * complex(gamma10, -Delta_p) + control_term)


def test_kernel_matches_former_scalar_formula():
    # the 41 power-sweep profile points, then seeded random atoms, each on
    # resonance (a real denominator, where the two divisions differ most
    # often in the last bit) and at random detunings
    cfg = paper_profile("power-sweep")
    atom = cfg.atom.build()
    k = cfg.calibration.build()
    delta_c = hz_to_angular(cfg.control_frequency_hz) - atom.omega21
    omega_c = [math.sqrt(k * dbm_to_watts(power)) for power in cfg.power_grid.values().tolist()]
    cases = [(atom, w, 0.0, delta_c) for w in omega_c]
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(500):
        rates = rng.uniform(0.0, 40.0, 4) * MHZ
        drawn = ThreeLevelAtom(omega10=2.0e9, anharmonicity=1e8, Gamma10=rates[0] + 1.0 * MHZ,
                               Gamma21=rates[1], gphi1=rates[2], gphi2=rates[3])
        drive = rng.uniform(-50.0, 50.0, 3) * MHZ
        cases += [(drawn, abs(drive[0]), 0.0, 0.0), (drawn, abs(drive[0]), drive[1], drive[2])]
    for a, w, dp, dc in cases:
        args = (a.Gamma10, a.gamma10, a.gamma20, w, dp)
        r = reflection_coefficient(*args, dc)
        t = transmission_flux_coefficient(*args, dc)
        assert type(r) is complex and type(t) is complex
        r_old = _former_scalar_reflection(*args, dp + dc)
        t_old = 1.0 + _former_scalar_reflection(*args, 2.0 * dp + dc)
        assert abs(r - r_old) <= 1e-15 * abs(r_old)
        assert abs(t - t_old) <= 1e-15 * abs(t_old)
    # the run makes one array kernel call over all powers
    data = run_experiment(cfg).data
    r_old = np.array([_former_scalar_reflection(atom.Gamma10, atom.gamma10, atom.gamma20, w, 0.0, delta_c)
                      for w in omega_c])
    assert np.all(np.abs(data["re"] + 1j * data["im"] - r_old) <= 1e-15 * np.abs(r_old))


def test_kernel_broadcasts_control_amplitude(reflection_atom):
    omega_c = np.array([[0.0], [6.1 * MHZ], [30.0 * MHZ]])
    dp = np.linspace(-20.0, 20.0, 5) * MHZ
    rates = (reflection_atom.Gamma10, reflection_atom.gamma10, reflection_atom.gamma20)
    grid = reflection_coefficient(*rates, omega_c, dp, 0.0)
    assert grid.shape == (3, 5)
    for i, w in enumerate(omega_c[:, 0]):
        assert np.array_equal(grid[i], reflection_coefficient(*rates, float(w), dp, 0.0))


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


def test_kernel_unmasked_path_matches_masked_path():
    # a broadcast grid mixing perfectly transparent points (gamma20 = 0 on
    # two-photon resonance, control on), zero-control points, zero two-photon
    # points with the control off and ordinary points takes every mask; a
    # per-point call on an ordinary point takes none
    Gamma10, gamma10 = 20.1 * MHZ, 21.0 * MHZ
    gamma20 = np.array([[0.0], [0.0], [4.94 * MHZ]])
    omega_c = np.array([0.0, 6.1 * MHZ, 30.0 * MHZ])[:, None, None]
    delta_p = np.array([-7.0, 0.0, 3.0]) * MHZ
    two_photon = np.array([0.0, 0.0, 5.0]) * MHZ
    grid = _kernel(Gamma10, gamma10, gamma20, omega_c, delta_p, two_photon)
    transparent = grid[3]
    assert transparent.shape == (3, 3, 3)
    assert transparent.any() and not transparent.all()
    for index in np.ndindex(transparent.shape):
        i, j, k = index
        one = _kernel(Gamma10, gamma10, float(gamma20[j, 0]), float(omega_c[i, 0, 0]),
                      float(delta_p[k]), float(two_photon[k]))
        for whole, single in zip(grid, one):
            assert _bits(np.broadcast_to(whole, transparent.shape)[index]) == _bits(single), index
    # a vanishing denominator still raises, on its own and among ordinary points
    for delta in (0.0, np.array([1.0, 0.0]) * MHZ):
        with pytest.raises(SingularModelError):
            _kernel(1.0, 0.0, 1.0, 0.0, delta, delta)
