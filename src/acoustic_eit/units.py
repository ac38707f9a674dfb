"""Unit handling at the package boundary.

Internally every rate, detuning and Rabi amplitude is an angular frequency in
rad/s and every power is in watts. External surfaces (CLI flags, config files,
exported tables) use ordinary frequencies in Hz and powers in dBm. These
helpers are the single place where the conversion happens, so a factor of 2*pi
can only be right or wrong here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@np.errstate(over="ignore")  # an overflow is inf, which the callers' finiteness checks reject
def hz_to_angular(frequency_hz):
    """Ordinary frequency (Hz) to angular frequency (rad/s). Array-safe."""
    return TWO_PI * frequency_hz


def angular_to_hz(omega):
    """Angular frequency (rad/s) to ordinary frequency (Hz). Array-safe."""
    return omega / TWO_PI


def dbm_to_watts(power_dbm: float) -> float:
    """0 dBm is 1 mW; +10 dB is a factor of 10."""
    return 10.0 ** (power_dbm / 10.0) * 1e-3


def watts_to_dbm(power_w: float) -> float:
    if power_w <= 0.0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(power_w / 1e-3)


@dataclass(frozen=True)
class PowerCalibration:
    """Linear power-to-drive calibration Omega_c**2 = k * P.

    k has units rad^2 s^-2 W^-1: it converts applied control power in watts
    into the square of the control Rabi amplitude in angular units.
    """

    k: float

    def __post_init__(self) -> None:
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise ValueError("calibration constant k must be positive and finite")

    @classmethod
    def from_threshold_anchor(cls, power_dbm: float, omega_c: float) -> "PowerCalibration":
        """Build the calibration from one known (power, Rabi amplitude) pair.

        Typically the pair is the regime-crossover point: the power at which
        the extracted Rabi amplitude equals gamma10 - gamma20.
        """
        if omega_c <= 0.0:
            raise ValueError("anchor Rabi amplitude must be positive")
        return cls(k=omega_c**2 / dbm_to_watts(power_dbm))

    def omega_c(self, power_dbm: float) -> float:
        """Control Rabi amplitude (rad/s) for an applied power in dBm."""
        return math.sqrt(self.k * dbm_to_watts(power_dbm))

    def power_dbm(self, omega_c: float) -> float:
        """Inverse map: power (dBm) that produces the given Rabi amplitude."""
        if omega_c <= 0.0:
            raise ValueError("Rabi amplitude must be positive")
        return watts_to_dbm(omega_c**2 / self.k)
