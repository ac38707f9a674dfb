from __future__ import annotations

import math

import numpy as np
import pytest

from acoustic_eit import (
    IdtTransducer,
    acoustic_conductance,
    angular_to_hz,
    coupling_rate,
    detuning_parameter,
    hz_to_angular,
    idt_bandwidth,
)
from acoustic_eit.idt import _SINC_TAYLOR_CUTOFF, _sinc


@pytest.fixture
def device_idt() -> IdtTransducer:
    # 25-period transducer centered at 2.26 GHz; k2 chosen so the peak decay
    # rate lands at the device's measured 20.1 MHz emission rate
    return IdtTransducer(pairs=25, omega_center=hz_to_angular(2.26e9),
                         k2=7.11e-4, capacitance=85e-15)


def test_constructor_validation():
    good = dict(pairs=25, omega_center=1e9, k2=0.01, capacitance=1e-13)
    with pytest.raises(ValueError):
        IdtTransducer(**{**good, "pairs": 0})
    with pytest.raises(ValueError):
        IdtTransducer(**{**good, "pairs": 2.5})
    with pytest.raises(ValueError):
        IdtTransducer(**{**good, "omega_center": 0.0})
    with pytest.raises(ValueError):
        IdtTransducer(**{**good, "k2": 0.0})
    with pytest.raises(ValueError):
        IdtTransducer(**{**good, "k2": 1.0})
    with pytest.raises(ValueError):
        IdtTransducer(**{**good, "capacitance": -1e-13})


def test_peak_decay_rate(device_idt):
    assert angular_to_hz(device_idt.decay_peak) == pytest.approx(
        20085750.000000004, rel=1e-12)
    # on resonance the sinc factor is exactly one
    assert coupling_rate(device_idt, device_idt.omega_center) == device_idt.decay_peak


def test_peak_conductance(device_idt):
    expected = device_idt.k2 * device_idt.pairs * device_idt.omega_center * device_idt.capacitance
    assert device_idt.conductance_peak == expected
    assert acoustic_conductance(device_idt, device_idt.omega_center) == expected


def test_first_null(device_idt):
    for sign in (1.0, -1.0):
        omega = device_idt.omega_center * (1.0 + sign / device_idt.pairs)
        x = detuning_parameter(device_idt, omega)
        assert x == pytest.approx(sign * math.pi, rel=1e-12)
        assert coupling_rate(device_idt, omega) < 1e-28 * device_idt.decay_peak
        assert acoustic_conductance(device_idt, omega) < 1e-28 * device_idt.conductance_peak


def test_second_null(device_idt):
    omega = device_idt.omega_center * (1.0 + 2.0 / device_idt.pairs)
    assert coupling_rate(device_idt, omega) < 1e-28 * device_idt.decay_peak


def test_second_transition_suppression(device_idt):
    # the 2.15 GHz transition sits outside the main lobe (first null at 2.1696 GHz)
    omega = hz_to_angular(2.15e9)
    assert 2.15e9 < 2.26e9 * (1.0 - 1.0 / device_idt.pairs)
    x = detuning_parameter(device_idt, omega)
    assert x == pytest.approx(-3.822734423615901, rel=1e-12)
    ratio = coupling_rate(device_idt, omega) / device_idt.decay_peak
    assert ratio == pytest.approx(0.027132644698060263, rel=1e-12)
    assert angular_to_hz(coupling_rate(device_idt, omega)) == pytest.approx(
        544979.5182440641, rel=1e-12)
    # suppression by well over an order of magnitude
    assert 1.0 / ratio > 10.0


def test_bandwidth(device_idt):
    assert angular_to_hz(idt_bandwidth(device_idt)) == pytest.approx(81360000.0, rel=1e-12)
    doubled = IdtTransducer(pairs=2 * device_idt.pairs,
                            omega_center=device_idt.omega_center,
                            k2=device_idt.k2, capacitance=device_idt.capacitance)
    assert idt_bandwidth(doubled) == pytest.approx(0.5 * idt_bandwidth(device_idt), rel=1e-15)
    launcher = IdtTransducer(pairs=150, omega_center=device_idt.omega_center,
                             k2=device_idt.k2, capacitance=device_idt.capacitance)
    assert angular_to_hz(idt_bandwidth(launcher)) == pytest.approx(13.56e6, rel=1e-12)


def test_symmetry(device_idt):
    for x in np.array([0.1e9, 0.37e9, 1.11e9]) * 2.0 * math.pi:
        up = coupling_rate(device_idt, device_idt.omega_center + x)
        down = coupling_rate(device_idt, device_idt.omega_center - x)
        assert up == pytest.approx(down, rel=1e-12)


def test_bounded_by_peak(device_idt):
    omegas = np.linspace(0.5, 1.5, 401) * device_idt.omega_center
    rates = coupling_rate(device_idt, omegas)
    assert np.all(rates >= 0.0)
    assert np.all(rates <= device_idt.decay_peak)
    # the peak itself is attained only on resonance
    off = omegas[omegas != device_idt.omega_center]
    assert np.all(coupling_rate(device_idt, off) < device_idt.decay_peak)


def test_conductance_decay_consistency(device_idt):
    omegas = np.linspace(0.8, 1.2, 101) * device_idt.omega_center
    # Gamma_a = G_a / (2 * C_t)
    via_conductance = acoustic_conductance(device_idt, omegas) / (2.0 * device_idt.capacitance)
    direct = coupling_rate(device_idt, omegas)
    assert np.allclose(via_conductance, direct, rtol=1e-12, atol=0.0)


def test_removable_singularity_continuity(device_idt):
    peak = device_idt.decay_peak
    for eps in (1e-12, -1e-12):
        near = coupling_rate(device_idt, device_idt.omega_center * (1.0 + eps))
        assert near == pytest.approx(peak, rel=1e-15)


def test_taylor_branch_continuity(device_idt):
    # the series and direct quotient must agree where the branch switches
    cutoff = 1e-4
    n = device_idt.pairs * math.pi
    for x_target in (cutoff * (1.0 - 1e-10), cutoff * (1.0 + 1e-10)):
        omega = device_idt.omega_center * (1.0 + x_target / n)
        expected = device_idt.decay_peak * (math.sin(x_target) / x_target) ** 2
        got = coupling_rate(device_idt, omega)
        assert got == pytest.approx(expected, rel=1e-10)


def test_sinc_scalar_matches_array_path():
    # points at 0, on both sides of the Taylor cutoff and well past it, signed
    cutoff = _SINC_TAYLOR_CUTOFF
    magnitudes = [0.0, 1e-12, 0.5 * cutoff, cutoff * (1.0 - 1e-10), cutoff,
                  cutoff * (1.0 + 1e-10), 2.0 * cutoff, 0.3, 1.0, math.pi, 7.5, 1e3]
    xs = np.array(magnitudes + [-m for m in magnitudes[1:]])
    array = _sinc(xs)
    for x, expected in zip(xs.tolist(), array.tolist()):
        got = _sinc(x)
        assert type(got) is float
        assert got == expected
    assert _sinc(0.0) == 1.0


def test_rejects_nonpositive_frequency(device_idt):
    with pytest.raises(ValueError):
        coupling_rate(device_idt, 0.0)
    with pytest.raises(ValueError):
        acoustic_conductance(device_idt, -1.0)
