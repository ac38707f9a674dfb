"""Seeded property tests over random physical atoms and drives.

Rates and detunings span the ranges of the benchmark's oracle-grid workload:
Gamma10 5-40 MHz, Gamma21 0.2-5 MHz, gphi1 0.5-20 MHz, gphi2 0.5-10 MHz,
detunings within +-50 MHz, control amplitudes up to 40 MHz. ``derandomize``
fixes the examples, so every run checks the same draws.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acoustic_eit import (
    ThreeLevelAtom,
    dip_shape,
    eit_linewidth,
    poles_and_decomposition,
    reflection_coefficient,
    weak_probe_deviation,
)

MHZ = 2.0 * math.pi * 1e6
WEAK_PROBE = 2.0 * math.pi * 1.0e4

SEEDED = settings(derandomize=True, deadline=None, database=None)


def _mhz(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda v: v * MHZ)


atoms = st.builds(
    ThreeLevelAtom,
    omega10=_mhz(2.0e3, 2.5e3),
    anharmonicity=_mhz(80.0, 200.0),
    Gamma10=_mhz(5.0, 40.0),
    Gamma21=_mhz(0.2, 5.0),
    gphi1=_mhz(0.5, 20.0),
    gphi2=_mhz(0.5, 10.0),
)
detunings = _mhz(-50.0, 50.0)
controls = _mhz(0.0, 40.0)


@SEEDED
@given(atom=atoms,
       delta_p=st.lists(detunings, min_size=1, max_size=4),
       delta_c=st.lists(detunings, min_size=1, max_size=3),
       omega_c=st.lists(controls, min_size=1, max_size=3))
def test_closed_form_matches_steady_state(atom, delta_p, delta_c, omega_c):
    report = weak_probe_deviation(atom, delta_p, delta_c, omega_c, Omega_p=WEAK_PROBE)
    assert report.points == len(delta_p) * len(delta_c) * len(omega_c)
    assert report.max_rel <= 1e-3


@SEEDED
@given(atom=atoms, omega_c=_mhz(0.5, 40.0), delta_c=detunings)
def test_linewidth_identity(atom, omega_c, delta_c):
    # the probe-resonant dip of |r|^2 versus control detuning is a Lorentzian
    # whose half width is the transparency linewidth
    shape = dip_shape(atom.Gamma10, atom.gamma10, atom.gamma20, omega_c)
    hwhm = eit_linewidth(atom.gamma10, atom.gamma20, omega_c)
    assert shape.hwhm == hwhm

    def power(dc):
        return abs(reflection_coefficient(atom.Gamma10, atom.gamma10, atom.gamma20, omega_c, 0.0, dc)) ** 2

    floor = power(0.0)
    assert floor == pytest.approx(shape.baseline - shape.depth, rel=1e-9, abs=1e-12)
    assert power(hwhm) == pytest.approx(0.5 * (shape.baseline + floor), rel=1e-9)
    assert power(delta_c) == pytest.approx(
        shape.baseline - shape.depth * hwhm**2 / (delta_c**2 + hwhm**2), rel=1e-9, abs=1e-12)


@SEEDED
@given(atom=atoms, omega_c=controls, delta_p=detunings)
def test_pole_decomposition_matches_roots(atom, omega_c, delta_p):
    g10, g20 = atom.gamma10, atom.gamma20
    dec = poles_and_decomposition(g10, g20, omega_c, atom.Gamma10)
    scale = g10 + g20 + omega_c
    # near the crossover both the double root and np.roots are ill-conditioned
    assume(abs(dec.poles[0] - dec.poles[1]) >= 1e-3 * scale)
    expected = [complex(z) for z in np.roots([-4.0, -4.0j * (g10 + g20), 4.0 * g10 * g20 + omega_c**2])]
    for pole in dec.poles:
        nearest = min(expected, key=lambda z: abs(z - pole))
        expected.remove(nearest)
        assert abs(pole - nearest) <= 1e-9 * scale
    direct = reflection_coefficient(atom.Gamma10, g10, g20, omega_c, delta_p, 0.0)
    assert dec.evaluate(delta_p) == pytest.approx(direct, rel=1e-9)
