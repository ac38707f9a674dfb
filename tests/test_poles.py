from __future__ import annotations

import math

import numpy as np
import pytest

from acoustic_eit import (
    Regime,
    SingularModelError,
    classify_regime,
    poles_and_decomposition,
    reflection_coefficient,
)
from acoustic_eit.poles import THRESHOLD_BAND_RTOL

MHZ = 2.0 * math.pi * 1e6

G10 = 21.0 * MHZ
G20 = 4.94 * MHZ
GAMMA10 = 20.1 * MHZ
THRESHOLD = G10 - G20  # 16.06 * MHZ


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------


def test_classify_control_off_is_eit():
    decision = classify_regime(G10, G20, 0.0)
    assert decision.regime is Regime.EIT
    assert decision.threshold == pytest.approx(THRESHOLD, rel=1e-15)


def test_classify_below_and_above():
    assert classify_regime(G10, G20, 6.1 * MHZ).regime is Regime.EIT
    assert classify_regime(G10, G20, 30.0 * MHZ).regime is Regime.AUTLER_TOWNES


def test_classify_threshold_band_edges():
    band = THRESHOLD_BAND_RTOL * G10
    assert classify_regime(G10, G20, THRESHOLD).regime is Regime.THRESHOLD
    assert classify_regime(G10, G20, THRESHOLD + 0.5 * band).regime is Regime.THRESHOLD
    assert classify_regime(G10, G20, THRESHOLD - 0.5 * band).regime is Regime.THRESHOLD
    assert classify_regime(G10, G20, THRESHOLD + 2.0 * band).regime is Regime.AUTLER_TOWNES
    assert classify_regime(G10, G20, THRESHOLD - 2.0 * band).regime is Regime.EIT


def test_classify_zero_threshold_splits_immediately():
    decision = classify_regime(1.0, 2.5, 1e-12)
    assert decision.threshold == 0.0
    assert decision.regime is Regime.AUTLER_TOWNES


def test_classify_validation():
    with pytest.raises(ValueError):
        classify_regime(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        classify_regime(1.0, 0.0, float("nan"))
    with pytest.raises(ValueError):
        classify_regime(1.0, float("inf"), 1.0)


# ---------------------------------------------------------------------------
# Pole locations
# ---------------------------------------------------------------------------


def test_poles_match_quadratic_roots():
    # independent oracle: roots of the quadratic denominator
    for omega_c in (3.0 * MHZ, 6.1 * MHZ, 16.0 * MHZ, 30.0 * MHZ):
        dec = poles_and_decomposition(G10, G20, omega_c, GAMMA10)
        expected = [complex(z) for z in
                    np.roots([-4.0, -4.0j * (G10 + G20), 4.0 * G10 * G20 + omega_c**2])]
        for pole in dec.poles:
            nearest = min(expected, key=lambda z: abs(z - pole))
            expected.remove(nearest)
            assert pole == pytest.approx(nearest, rel=1e-12, abs=1e-3)


def test_eit_poles_purely_imaginary():
    dec = poles_and_decomposition(G10, G20, 6.1 * MHZ, GAMMA10)
    assert dec.regime is Regime.EIT
    assert dec.poles[0].real == 0.0
    assert dec.poles[1].real == 0.0
    assert dec.splitting == 0.0
    assert not dec.degenerate


def test_autler_townes_frozen_poles():
    dec = poles_and_decomposition(G10, G20, 30.0 * MHZ, GAMMA10)
    assert dec.regime is Regime.AUTLER_TOWNES
    p_sorted = sorted(dec.poles, key=lambda p: p.real)
    assert p_sorted[0].real / MHZ == pytest.approx(-12.669613253765878, rel=1e-12)
    assert p_sorted[1].real / MHZ == pytest.approx(12.669613253765878, rel=1e-12)
    assert p_sorted[0].imag / MHZ == pytest.approx(-12.969999999999999, rel=1e-12)
    assert p_sorted[1].imag / MHZ == pytest.approx(-12.969999999999999, rel=1e-12)
    assert dec.splitting / MHZ == pytest.approx(25.339226507531755, rel=1e-12)


def test_splitting_formula_above_threshold():
    for omega_c in (17.0 * MHZ, 20.0 * MHZ, 30.0 * MHZ, 80.0 * MHZ):
        dec = poles_and_decomposition(G10, G20, omega_c, GAMMA10)
        assert dec.splitting == pytest.approx(
            math.sqrt(omega_c**2 - THRESHOLD**2), rel=1e-12)


def test_threshold_double_pole():
    dec = poles_and_decomposition(G10, G20, THRESHOLD, GAMMA10)
    assert dec.regime is Regime.THRESHOLD
    assert dec.degenerate
    assert dec.poles[0] == dec.poles[1]
    assert dec.poles[0] == -0.5j * (G10 + G20)
    assert dec.splitting == 0.0


def test_all_zero_atom_is_singular():
    with pytest.raises(SingularModelError):
        poles_and_decomposition(0.0, 0.0, 0.0, GAMMA10)


def test_negative_emission_rate_rejected():
    with pytest.raises(ValueError):
        poles_and_decomposition(G10, G20, 6.1 * MHZ, -1.0)


@pytest.mark.parametrize("Gamma10", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_emission_rate_rejected(Gamma10):
    with pytest.raises(ValueError, match="^Gamma10 must be finite and nonnegative$"):
        poles_and_decomposition(G10, G20, 6.1 * MHZ, Gamma10)


# ---------------------------------------------------------------------------
# Partial-fraction reconstruction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("omega_c", [3.0 * MHZ, 6.1 * MHZ, 30.0 * MHZ])
def test_reconstruction_matches_reflection(omega_c):
    dec = poles_and_decomposition(G10, G20, omega_c, GAMMA10)
    for dp in np.linspace(-40.0, 40.0, 21) * MHZ:
        direct = reflection_coefficient(Gamma10=GAMMA10, gamma10=G10, gamma20=G20,
                                        Omega_c=omega_c, Delta_p=float(dp),
                                        Delta_c=0.0)
        assert dec.evaluate(float(dp)) == pytest.approx(direct, rel=1e-12)


def test_degenerate_reconstruction_matches_reflection():
    dec = poles_and_decomposition(G10, G20, THRESHOLD, GAMMA10)
    for dp in np.linspace(-40.0, 40.0, 21) * MHZ:
        direct = reflection_coefficient(Gamma10=GAMMA10, gamma10=G10, gamma20=G20,
                                        Omega_c=THRESHOLD, Delta_p=float(dp),
                                        Delta_c=0.0)
        assert dec.evaluate(float(dp)) == pytest.approx(direct, rel=1e-10)


def test_residues_sum_rule():
    # r ~ -Gamma10/(2*(-i*Dp)) far from resonance, so residues sum to -i*Gamma10/2
    for omega_c in (6.1 * MHZ, 30.0 * MHZ):
        dec = poles_and_decomposition(G10, G20, omega_c, GAMMA10)
        total = dec.residues[0] + dec.residues[1]
        assert total == pytest.approx(-0.5j * GAMMA10, rel=1e-12)
