from __future__ import annotations

import math

import numpy as np
import pytest

from acoustic_eit import (
    ConfigError,
    angular_to_hz,
    dbm_to_watts,
    hz_to_angular,
    watts_to_dbm,
)
from acoustic_eit.experiments import CalibrationParams

MHZ = 2.0 * math.pi * 1e6


def test_dbm_definitional_points():
    assert dbm_to_watts(0.0) == 1e-3
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(-45.0) == pytest.approx(3.1622776601683795e-08, rel=1e-12)


def test_dbm_watts_round_trip():
    for dbm in (-120.0, -45.0, -7.3, 0.0, 12.5):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-12)


def test_watts_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):
        watts_to_dbm(-1e-6)


@pytest.mark.parametrize("power_w", [math.nan, math.inf], ids=["nan", "inf"])
def test_watts_to_dbm_rejects_non_finite(power_w):
    with pytest.raises(ValueError, match="power must be positive and finite"):
        watts_to_dbm(power_w)


def test_angular_conversions_scalar_and_array():
    assert hz_to_angular(1.0) == 2.0 * math.pi
    assert angular_to_hz(hz_to_angular(2.26e9)) == pytest.approx(2.26e9, rel=1e-15)
    freqs = np.array([1e6, 2e6, 3e6])
    back = angular_to_hz(hz_to_angular(freqs))
    assert np.allclose(back, freqs, rtol=1e-15)


def test_unit_calibration_definitional():
    # k_hz2_per_watt = 1/(2pi)^2 is an angular k of 1: P = 0 dBm gives
    # Omega_c = sqrt(1e-3) rad/s
    k = CalibrationParams(k_hz2_per_watt=1.0 / (2.0 * math.pi) ** 2).build()
    assert k == pytest.approx(1.0, rel=1e-15)
    assert math.sqrt(k * dbm_to_watts(0.0)) == pytest.approx(math.sqrt(1e-3), rel=1e-15)


def test_threshold_anchor_calibration():
    k = CalibrationParams(anchor_power_dbm=-45.0, anchor_rabi_hz=16.06e6).build()
    # hand value: k = Omega^2 / P with Omega = 2pi 16.06e6 rad/s, P = 10^-7.5 W
    assert k == pytest.approx(3.21996253493979e23, rel=1e-12)
    assert math.sqrt(k * dbm_to_watts(-45.0)) == pytest.approx(16.06 * MHZ, rel=1e-12)
    # power ratio maps -53.4 dBm near the weak-drive operating point
    assert angular_to_hz(math.sqrt(k * dbm_to_watts(-53.4))) == pytest.approx(6105841.7049082145, rel=1e-12)


def test_calibration_rejects_bad_inputs():
    for bad in (CalibrationParams(k_hz2_per_watt=0.0), CalibrationParams(k_hz2_per_watt=-1.0),
                CalibrationParams(anchor_power_dbm=-45.0, anchor_rabi_hz=0.0)):
        with pytest.raises(ConfigError, match="^invalid calibration: "):
            bad.build()
