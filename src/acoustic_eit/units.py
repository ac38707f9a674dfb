"""Unit handling at the package boundary.

Internally every rate, detuning and Rabi amplitude is an angular frequency in
rad/s and every power is in watts. External surfaces (CLI flags, config files,
exported tables) use ordinary frequencies in Hz and powers in dBm. These
helpers are the single place where the conversion happens, so a factor of 2*pi
can only be right or wrong here. The power-to-Rabi calibration is a device
property and lives with its config, `experiments.CalibrationParams`.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def hz_to_angular(frequency_hz):
    """Ordinary frequency (Hz) to angular frequency (rad/s). Array-safe; an
    array that overflows follows numpy's error state."""
    return TWO_PI * frequency_hz


def angular_to_hz(omega):
    """Angular frequency (rad/s) to ordinary frequency (Hz). Array-safe."""
    return omega / TWO_PI


def dbm_to_watts(power_dbm: float) -> float:
    """0 dBm is 1 mW; +10 dB is a factor of 10."""
    return 10.0 ** (power_dbm / 10.0) * 1e-3


def watts_to_dbm(power_w: float) -> float:
    if not (power_w > 0.0 and math.isfinite(power_w)):
        raise ValueError("power must be positive and finite to express in dBm")
    return 10.0 * math.log10(power_w / 1e-3)
