"""Pole structure of the weak-probe reflection and regime classification.

As a function of complex probe detuning the reflection has two simple poles,
the roots of 4*(gamma10 - i*Dp)*(gamma20 - i*Dp) + Omega_c**2 = 0. Below the
crossover drive Omega_c = gamma10 - gamma20 both poles are purely imaginary
(one transparency window: EIT); above it they acquire opposite real parts
separated by sqrt(Omega_c**2 - (gamma10-gamma20)**2) (two split lines:
Autler-Townes). The crossover itself is a degenerate double pole.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import SingularModelError

# relative half-width (in units of gamma10) of the band treated as "at threshold"
THRESHOLD_BAND_RTOL = 1e-9


class Regime(str, Enum):
    EIT = "eit"
    THRESHOLD = "threshold"
    AUTLER_TOWNES = "autler-townes"


class RegimeDecision(NamedTuple):
    regime: Regime
    threshold: float  # crossover Rabi amplitude, max(gamma10 - gamma20, 0)


def classify_regime(gamma10: float, gamma20: float, Omega_c: float) -> RegimeDecision:
    """Classify the drive against the crossover Omega_c,t = gamma10 - gamma20.

    Omega_c = 0 is reported as EIT (no splitting is possible). A drive within
    THRESHOLD_BAND_RTOL * gamma10 of the crossover is reported as THRESHOLD.
    If gamma10 <= gamma20 the threshold clamps to 0 and any positive drive
    splits the line.
    """
    for name, value in (("gamma10", gamma10), ("gamma20", gamma20), ("Omega_c", Omega_c)):
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(f"{name} must be finite and nonnegative")
    threshold = max(gamma10 - gamma20, 0.0)
    if Omega_c == 0.0:
        return RegimeDecision(Regime.EIT, threshold)
    if threshold > 0.0 and abs(Omega_c - threshold) <= THRESHOLD_BAND_RTOL * gamma10:
        return RegimeDecision(Regime.THRESHOLD, threshold)
    if Omega_c < threshold:
        return RegimeDecision(Regime.EIT, threshold)
    return RegimeDecision(Regime.AUTLER_TOWNES, threshold)


@dataclass(frozen=True)
class PoleDecomposition:
    """Reflection written as a sum over its probe-detuning poles.

    Nondegenerate: r(Dp) = residues[0]/(Dp - poles[0]) + residues[1]/(Dp - poles[1]).
    Degenerate (at threshold, flagged): both poles coincide at p and
    r(Dp) = residues[0]/(Dp - p) + residues[1]/(Dp - p)**2.
    """

    poles: tuple[complex, complex]
    residues: tuple[complex, complex]
    regime: Regime
    threshold: float
    degenerate: bool = False

    @property
    def splitting(self) -> float:
        """Separation of the pole real parts (0 below threshold)."""
        return abs(self.poles[0].real - self.poles[1].real)

    def evaluate(self, Delta_p: float) -> complex:
        """Reconstruct r(Delta_p) from the decomposition."""
        if self.degenerate:
            x = Delta_p - self.poles[0]
            return self.residues[0] / x + self.residues[1] / x**2
        return (self.residues[0] / (Delta_p - self.poles[0])
                + self.residues[1] / (Delta_p - self.poles[1]))


def poles_and_decomposition(gamma10: float, gamma20: float, Omega_c: float,
                            Gamma10: float) -> PoleDecomposition:
    """Pole locations, residues and regime of r(Delta_p) at two-photon resonance.

    Within the threshold band the exact-crossover degenerate form is returned,
    flagged via `degenerate`.
    """
    if not (Gamma10 >= 0.0 and math.isfinite(Gamma10)):
        raise ValueError("Gamma10 must be finite and nonnegative")
    decision = classify_regime(gamma10, gamma20, Omega_c)
    if gamma10 == 0.0 and gamma20 == 0.0 and Omega_c == 0.0:
        raise SingularModelError("undamped undriven atom has no pole decomposition")

    rate_sum = gamma10 + gamma20
    if decision.regime is Regime.THRESHOLD:
        pole = -0.5j * rate_sum
        # limit of the partial fractions as the two poles merge
        residues = (-0.5j * Gamma10, -0.25 * Gamma10 * (gamma10 - gamma20))
        return PoleDecomposition(poles=(pole, pole), residues=residues,
                                 regime=decision.regime, threshold=decision.threshold,
                                 degenerate=True)

    discriminant = (gamma10 - gamma20)**2 - Omega_c**2
    # real sqrt below threshold (imaginary poles), imaginary sqrt above (split poles)
    root = cmath.sqrt(complex(discriminant, 0.0))
    p1 = -0.5j * (rate_sum - root)
    p2 = -0.5j * (rate_sum + root)
    r1 = Gamma10 * (gamma20 - 1j * p1) / (2.0 * (p1 - p2))
    r2 = Gamma10 * (gamma20 - 1j * p2) / (2.0 * (p2 - p1))
    return PoleDecomposition(poles=(p1, p2), residues=(r1, r2),
                             regime=decision.regime, threshold=decision.threshold)
