"""Interdigital transducer coupling envelope.

The transducer radiates into the surface with an acoustic conductance that
follows the classic sinc-squared array factor of its finger pattern,

    G_a(omega) = G_a0 * (sin X / X)**2,   X = pairs * pi * (omega - omega_center) / omega_center,

with the on-resonance value G_a0 = k2 * pairs * omega_center * capacitance.
The matching energy decay rate of a transmon shunted by the transducer is
Gamma_a = G_a / (2 * capacitance), so the peak decay rate
Gamma_a0 = 0.5 * k2 * pairs * omega_center needs no capacitance at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# below this |X| the direct quotient loses digits to cancellation; the Taylor
# polynomial is exact to double precision there
_SINC_TAYLOR_CUTOFF = 1e-4


@dataclass(frozen=True)
class IdtTransducer:
    """Transducer geometry and material coupling.

    pairs          number of finger periods (>= 1)
    omega_center   synchronous angular frequency (rad/s)
    k2             electromechanical coupling coefficient K^2 (dimensionless)
    capacitance    total electrode capacitance (F)
    """

    pairs: int
    omega_center: float
    k2: float
    capacitance: float

    def __post_init__(self) -> None:
        if not (isinstance(self.pairs, int) and self.pairs >= 1):
            raise ValueError("pairs must be an integer >= 1")
        if not (self.omega_center > 0.0 and math.isfinite(self.omega_center)):
            raise ValueError("omega_center must be positive and finite")
        if not (0.0 < self.k2 < 1.0):
            raise ValueError("k2 must lie in (0, 1)")
        if not (self.capacitance > 0.0 and math.isfinite(self.capacitance)):
            raise ValueError("capacitance must be positive and finite")

    @property
    def conductance_peak(self) -> float:
        """G_a0 = k2 * pairs * omega_center * capacitance (siemens)."""
        return self.k2 * self.pairs * self.omega_center * self.capacitance

    @property
    def decay_peak(self) -> float:
        """Gamma_a0 = 0.5 * k2 * pairs * omega_center (rad/s)."""
        return 0.5 * self.k2 * self.pairs * self.omega_center


def _sinc(x):
    """sin(x)/x with a Taylor branch near zero; a scalar gives a float."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_TAYLOR_CUTOFF
    x2 = x * x
    taylor = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    # avoid 0/0 warnings on the branch not taken
    safe = np.where(small, 1.0, x)
    out = np.where(small, taylor, np.sin(safe) / safe)
    return float(out) if out.ndim == 0 else out


def detuning_parameter(idt: IdtTransducer, omega):
    """Array factor argument X = pairs * pi * (omega - omega_center) / omega_center."""
    return idt.pairs * math.pi * (omega - idt.omega_center) / idt.omega_center


def acoustic_conductance(idt: IdtTransducer, omega):
    """Radiation conductance G_a(omega) in siemens. Array-safe in omega."""
    if np.any(np.asarray(omega) <= 0.0):
        raise ValueError("omega must be positive")
    return idt.conductance_peak * _sinc(detuning_parameter(idt, omega)) ** 2


def coupling_rate(idt: IdtTransducer, omega):
    """Acoustic energy decay rate Gamma_a(omega) = Gamma_a0 * sinc(X)**2 (rad/s)."""
    if np.any(np.asarray(omega) <= 0.0):
        raise ValueError("omega must be positive")
    return idt.decay_peak * _sinc(detuning_parameter(idt, omega)) ** 2


def idt_bandwidth(idt: IdtTransducer) -> float:
    """Fractional main-lobe bandwidth 0.9 * omega_center / pairs (rad/s)."""
    return 0.9 * idt.omega_center / idt.pairs
