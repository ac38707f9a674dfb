"""Weak-probe scattering model for a three-level ladder artificial atom.

A transmon-style atom with states |0>, |1>, |2> scatters a weak acoustic probe
on the 0-1 transition while a control tone dresses the 1-2 transition. In the
weak-probe limit the reflection coefficient is

    r = -Gamma10 / [ 2*(gamma10 - i*Delta_p)
                     + Omega_c**2 / (2*(gamma20 - i*(Delta_p + Delta_c))) ]

and the transmission is t = 1 + r. All quantities in this module are angular
frequencies (rad/s); converting from Hz happens at the package boundary
(see units.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularModelError, UndefinedPhaseError


@dataclass(frozen=True)
class ThreeLevelAtom:
    """Ladder atom parameters, all in angular units (rad/s).

    omega10        0-1 transition frequency
    anharmonicity  omega10 - omega21 (positive for a transmon)
    Gamma10        energy decay rate 1 -> 0
    Gamma21        energy decay rate 2 -> 1
    gphi1, gphi2   pure dephasing rates of |1> and |2>
    """

    omega10: float
    anharmonicity: float
    Gamma10: float
    Gamma21: float = 0.0
    gphi1: float = 0.0
    gphi2: float = 0.0

    def __post_init__(self) -> None:
        if not (self.omega10 > 0.0 and math.isfinite(self.omega10)):
            raise ValueError("omega10 must be positive and finite")
        if not (self.anharmonicity > 0.0 and math.isfinite(self.anharmonicity)):
            raise ValueError("anharmonicity must be positive and finite")
        for name in ("Gamma10", "Gamma21", "gphi1", "gphi2"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite nonnegative rate, got {value!r}")

    @property
    def omega21(self) -> float:
        return self.omega10 - self.anharmonicity

    @property
    def gamma10(self) -> float:
        return 0.5 * self.Gamma10 + self.gphi1

    @property
    def gamma20(self) -> float:
        return 0.5 * self.Gamma21 + self.gphi2

    @property
    def gamma21(self) -> float:
        return 0.5 * (self.Gamma10 + self.Gamma21) + self.gphi1 + self.gphi2


def _check_drive(terms: np.ndarray, amplitudes: int) -> None:
    """ValueError unless the drive terms along terms' last axis are finite and the last ``amplitudes``
    of them, the Rabi amplitudes, nonnegative."""
    if not np.isfinite(terms).all():
        raise ValueError("drive detunings and amplitudes must be finite")
    if (terms[..., -amplitudes:] < 0.0).any():
        raise ValueError("Rabi amplitudes must be nonnegative")


# overflowing inputs come back as non-finite values for the callers to reject
@np.errstate(over="ignore", invalid="ignore")
def _kernel(Gamma10: float, gamma10: float, gamma20, Omega_c, Delta_p, two_photon_detuning):
    """The closed form on broadcast arrays: (r, two_photon, denominator, transparent).

    two_photon = gamma20 - i*two_photon_detuning and denominator =
    2*(gamma10 - i*Delta_p) + Omega_c**2 / (2*two_photon), so r = -Gamma10 /
    denominator. transparent marks perfect transparency (two-photon factor
    exactly zero with the control on): r is exactly 0 there, and the returned
    two_photon and denominator hold 1 so that derivatives built from them stay
    finite. A zero two-photon factor with the control off also reads 1, which
    makes its control terms vanish. Any other vanishing denominator raises
    SingularModelError.
    """
    Omega_c = np.asarray(Omega_c, dtype=float)
    two_photon = gamma20 - 1j * np.asarray(two_photon_detuning, dtype=float)
    zero = two_photon == 0.0
    transparent = zero & (Omega_c != 0.0)
    # each mask is applied only where it selects a point
    if zero.any():
        two_photon = np.where(zero, 1.0, two_photon)
    control_term = Omega_c**2 / (2.0 * two_photon)
    control_off = Omega_c == 0.0
    if control_off.any():
        control_term = np.where(control_off, 0.0, control_term)
    denominator = 2.0 * (gamma10 - 1j * np.asarray(Delta_p, dtype=float)) + control_term
    singular = denominator == 0.0
    if singular.any() and (singular & ~transparent).any():
        raise SingularModelError(
            "reflection denominator vanished; need gamma10 > 0 or Delta_p != 0")
    if not transparent.any():
        return -Gamma10 / denominator, two_photon, denominator, transparent
    denominator = np.where(transparent, 1.0, denominator)
    r = np.where(transparent, 0.0 + 0.0j, -Gamma10 / denominator)
    return r, two_photon, denominator, transparent


def _scalar_or_array(value):
    """A 0-d kernel result as a Python complex, anything else unchanged."""
    return complex(value) if np.ndim(value) == 0 else value


def reflection_coefficient(Gamma10: float, gamma10: float, gamma20: float,
                           Omega_c, Delta_p, Delta_c):
    """Weak-probe reflection from bare rates.

    Omega_c, Delta_p and Delta_c may be scalars or broadcastable arrays;
    scalars alone give a Python complex. Returns exactly 0 in the
    perfect-transparency limit (gamma20 = 0 on two-photon resonance with the
    control on); raises SingularModelError if the denominator vanishes (e.g.
    all rates and detunings zero).
    """
    dp = np.asarray(Delta_p, dtype=float)
    r = _kernel(Gamma10, gamma10, gamma20, Omega_c, dp, dp + np.asarray(Delta_c, dtype=float))[0]
    return _scalar_or_array(r)


def transmission_flux_coefficient(Gamma10: float, gamma10: float, gamma20: float,
                                  Omega_c, Delta_p, delta: float):
    """Transmission when probe and control detunings are swept together.

    Tuning the atom with both tone frequencies fixed moves Delta_p and Delta_c
    in lockstep: Delta_c = Delta_p + delta, with delta the fixed control offset
    from the two-photon point. The two-photon denominator then carries
    gamma20 - i*(2*Delta_p + delta). Omega_c and Delta_p may be scalars or
    broadcastable arrays; scalars alone give a Python complex.
    """
    dp = np.asarray(Delta_p, dtype=float)
    r = _kernel(Gamma10, gamma10, gamma20, Omega_c, dp, 2.0 * dp + delta)[0]
    return _scalar_or_array(1.0 + r)


def eit_linewidth(gamma10: float, gamma20: float, Omega_c: float) -> float:
    """Half width of the transparency dip: gamma20 + Omega_c**2 / (4*gamma10)."""
    if not (gamma10 > 0.0 and math.isfinite(gamma10)):
        raise ValueError("gamma10 must be positive and finite")
    if not (gamma20 >= 0.0 and Omega_c >= 0.0 and math.isfinite(gamma20) and math.isfinite(Omega_c)):
        raise ValueError("gamma20 and Omega_c must be nonnegative and finite")
    return gamma20 + Omega_c**2 / (4.0 * gamma10)


class DipShape(NamedTuple):
    """Exact control-detuning dip of |r|^2 at probe resonance.

    |r(Delta_c)|^2 = baseline - depth * hwhm^2 / (Delta_c^2 + hwhm^2),
    with hwhm equal to the transparency linewidth. Follows from
    r(Delta_c) = -amplitude + window / (hwhm - i*Delta_c).
    """

    baseline: float
    depth: float
    hwhm: float
    amplitude: float  # Gamma10 / (2*gamma10), the flat background of -r
    window: float     # Gamma10 * Omega_c**2 / (8*gamma10**2)


def dip_shape(Gamma10: float, gamma10: float, gamma20: float, Omega_c: float) -> DipShape:
    """Decompose the probe-resonant dip of |r|^2 versus control detuning."""
    if not (Gamma10 >= 0.0 and math.isfinite(Gamma10)):
        raise ValueError("Gamma10 must be nonnegative and finite")
    hwhm = eit_linewidth(gamma10, gamma20, Omega_c)
    amplitude = Gamma10 / (2.0 * gamma10)
    window = Gamma10 * Omega_c**2 / (8.0 * gamma10**2)
    baseline = amplitude**2
    depth = (2.0 * amplitude * window * hwhm - window**2) / hwhm**2 if hwhm > 0.0 else 0.0
    return DipShape(baseline=baseline, depth=depth, hwhm=hwhm,
                    amplitude=amplitude, window=window)


def group_delay(Gamma10: float, gamma10: float, gamma20: float,
                Omega_c: float, Delta_p: float, Delta_c: float) -> float:
    """Group delay tau_g = d arg(t) / d Delta_p in seconds, at one drive point.

    Takes reflection_coefficient's arguments as scalars. Uses the analytic
    derivative dr/dDelta_p = Gamma10 * dD/dDelta_p / D**2 of the kernel's
    denominator D. Raises ValueError on a rate that is negative or not
    finite, a non-finite drive value or a negative Omega_c, and
    UndefinedPhaseError when t = 0 at the evaluation point (perfect
    extinction), where the phase carries no information.
    """
    if not all(rate >= 0.0 and math.isfinite(rate) for rate in (Gamma10, gamma10, gamma20)):
        raise ValueError("Gamma10, gamma10 and gamma20 must be finite nonnegative rates")
    _check_drive(np.array([Delta_p, Delta_c, Omega_c], dtype=float), 1)
    r, two_photon, denominator, transparent = _kernel(
        Gamma10, gamma10, gamma20, Omega_c, Delta_p, Delta_p + Delta_c)
    t0 = 1.0 + r
    if t0 == 0.0:
        raise UndefinedPhaseError("transmission is zero; phase undefined")
    if transparent:
        # ideal transparency point: t = 1 there and the exact limit of the
        # phase slope is 2*Gamma10/Omega_c**2
        return 2.0 * Gamma10 / Omega_c**2
    d_denominator = -2j + 1j * Omega_c**2 / (2.0 * two_photon**2)
    return float((Gamma10 * d_denominator / denominator**2 / t0).imag)
