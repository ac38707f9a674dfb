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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import SingularModelError, UndefinedPhaseError


def coherence_rates(Gamma10: float, Gamma21: float, gphi1: float, gphi2: float):
    """Coherence decay rates (gamma10, gamma20, gamma21) from energy decay and dephasing.

    gamma10 = Gamma10/2 + gphi1
    gamma20 = Gamma21/2 + gphi2          (|0> does not decay)
    gamma21 = (Gamma10 + Gamma21)/2 + gphi1 + gphi2
    """
    for name, value in (("Gamma10", Gamma10), ("Gamma21", Gamma21),
                        ("gphi1", gphi1), ("gphi2", gphi2)):
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite nonnegative rate, got {value!r}")
    gamma10 = 0.5 * Gamma10 + gphi1
    gamma20 = 0.5 * Gamma21 + gphi2
    gamma21 = 0.5 * (Gamma10 + Gamma21) + gphi1 + gphi2
    return gamma10, gamma20, gamma21


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
        # also validates nonnegativity of the four rates
        coherence_rates(self.Gamma10, self.Gamma21, self.gphi1, self.gphi2)

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

    @classmethod
    def from_coherence(cls, omega10: float, anharmonicity: float, Gamma10: float,
                       gamma10: float, gamma20: float, Gamma21: float = 0.0) -> "ThreeLevelAtom":
        """Construct from measured coherence rates, backing out the dephasing split."""
        gphi1 = gamma10 - 0.5 * Gamma10
        gphi2 = gamma20 - 0.5 * Gamma21
        if gphi1 < 0.0:
            raise ValueError("gamma10 < Gamma10/2: dephasing would be negative")
        if gphi2 < 0.0:
            raise ValueError("gamma20 < Gamma21/2: dephasing would be negative")
        return cls(omega10=omega10, anharmonicity=anharmonicity, Gamma10=Gamma10,
                   Gamma21=Gamma21, gphi1=gphi1, gphi2=gphi2)


@dataclass(frozen=True)
class DriveCondition:
    """Probe and control tone amplitudes and detunings (rad/s).

    Delta_p = omega_probe - omega10, Delta_c = omega_control - omega21.
    Omega_p is ignored by the analytic weak-probe formulas but is required by
    the density-matrix oracle.
    """

    Delta_p: float = 0.0
    Delta_c: float = 0.0
    Omega_p: float = 0.0
    Omega_c: float = 0.0

    def __post_init__(self) -> None:
        if self.Omega_p < 0.0 or self.Omega_c < 0.0:
            raise ValueError("Rabi amplitudes must be nonnegative")
        for name in ("Delta_p", "Delta_c", "Omega_p", "Omega_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _reflection_grid(Gamma10: float, gamma10: float, gamma20: float, Omega_c: float,
                     two_photon_imag, Delta_p):
    """Vectorized reflection with the given two-photon imaginary part.

    Perfect-transparency points (two-photon denominator exactly zero with the
    control on) return exactly 0; any other vanishing denominator raises.
    """
    dp, tp_im = np.broadcast_arrays(np.asarray(Delta_p, dtype=float),
                                    np.asarray(two_photon_imag, dtype=float))
    if Omega_c == 0.0:
        control_term = np.zeros(dp.shape, dtype=complex)
        transparent = np.zeros(dp.shape, dtype=bool)
    else:
        two_photon = gamma20 - 1j * tp_im
        transparent = two_photon == 0.0
        safe = np.where(transparent, 1.0, two_photon)
        control_term = Omega_c**2 / (2.0 * safe)
    denominator = 2.0 * (gamma10 - 1j * dp) + control_term
    singular = (denominator == 0.0) & ~transparent
    if np.any(singular):
        raise SingularModelError(
            "reflection denominator vanished; need gamma10 > 0 or Delta_p != 0")
    safe_denom = np.where(transparent, 1.0, denominator)
    r = -Gamma10 / safe_denom
    return np.where(transparent, 0.0 + 0.0j, r)


def _scalar_terms(gamma10: float, gamma20: float, Omega_c: float,
                  Delta_p: float, two_photon_detuning: float):
    """Scalar two-photon factor and scattering denominator.

    Returns (two_photon, denominator) with two_photon = gamma20 - i*two_photon_detuning
    and denominator = 2*(gamma10 - i*Delta_p) + Omega_c**2 / (2*two_photon).
    The denominator is None at perfect transparency (two-photon factor exactly
    zero with the control on, where r = 0); any other vanishing denominator
    raises SingularModelError.
    """
    two_photon = complex(gamma20, -two_photon_detuning)
    if Omega_c == 0.0:
        control_term = 0.0 + 0.0j
    elif two_photon == 0.0:
        return two_photon, None
    else:
        control_term = Omega_c**2 / (2.0 * two_photon)
    denominator = 2.0 * complex(gamma10, -Delta_p) + control_term
    if denominator == 0.0:
        raise SingularModelError(
            "reflection denominator vanished; need gamma10 > 0 or Delta_p != 0")
    return two_photon, denominator


def reflection_coefficient(Gamma10: float, gamma10: float, gamma20: float,
                           Omega_c: float, Delta_p, Delta_c):
    """Weak-probe reflection from bare rates.

    Delta_p and Delta_c may be scalars or broadcastable arrays. Returns
    exactly 0 in the perfect-transparency limit (gamma20 = 0 on two-photon
    resonance with the control on); raises SingularModelError if the
    denominator vanishes (e.g. all rates and detunings zero).
    """
    if np.ndim(Delta_p) == 0 and np.ndim(Delta_c) == 0:
        dp = float(Delta_p)
        _, denominator = _scalar_terms(gamma10, gamma20, Omega_c, dp, dp + float(Delta_c))
        return 0.0 + 0.0j if denominator is None else -Gamma10 / denominator
    dp = np.asarray(Delta_p, dtype=float)
    dc = np.asarray(Delta_c, dtype=float)
    return _reflection_grid(Gamma10, gamma10, gamma20, Omega_c, dp + dc, dp)


def transmission_flux_coefficient(Gamma10: float, gamma10: float, gamma20: float,
                                  Omega_c: float, Delta_p, delta: float):
    """Transmission when probe and control detunings are swept together.

    Tuning the atom with both tone frequencies fixed moves Delta_p and Delta_c
    in lockstep: Delta_c = Delta_p + delta, with delta the fixed control offset
    from the two-photon point. The two-photon denominator then carries
    gamma20 - i*(2*Delta_p + delta). Delta_p may be a scalar or an array.
    """
    if np.ndim(Delta_p) == 0:
        dp = float(Delta_p)
        _, denominator = _scalar_terms(gamma10, gamma20, Omega_c, dp, 2.0 * dp + delta)
        return 1.0 + 0.0j if denominator is None else 1.0 - Gamma10 / denominator
    dp = np.asarray(Delta_p, dtype=float)
    return 1.0 + _reflection_grid(Gamma10, gamma10, gamma20, Omega_c, 2.0 * dp + delta, dp)


def reflection(atom: ThreeLevelAtom, drive: DriveCondition) -> complex:
    """Weak-probe reflection coefficient r(Delta_p, Delta_c)."""
    return reflection_coefficient(atom.Gamma10, atom.gamma10, atom.gamma20,
                                  drive.Omega_c, drive.Delta_p, drive.Delta_c)


def transmission(atom: ThreeLevelAtom, drive: DriveCondition) -> complex:
    """Weak-probe transmission t = 1 + r."""
    return 1.0 + reflection(atom, drive)


def transmission_flux_sweep(atom: ThreeLevelAtom, Delta_p: float, delta: float,
                            Omega_c: float) -> complex:
    """Transmission along a flux sweep of the atom at fixed tone frequencies."""
    return transmission_flux_coefficient(atom.Gamma10, atom.gamma10, atom.gamma20,
                                         Omega_c, Delta_p, delta)


def eit_linewidth(gamma10: float, gamma20: float, Omega_c: float) -> float:
    """Half width of the transparency dip: gamma20 + Omega_c**2 / (4*gamma10)."""
    if gamma10 <= 0.0:
        raise ValueError("gamma10 must be positive")
    if gamma20 < 0.0 or Omega_c < 0.0:
        raise ValueError("gamma20 and Omega_c must be nonnegative")
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
    if gamma10 <= 0.0:
        raise ValueError("gamma10 must be positive")
    hwhm = eit_linewidth(gamma10, gamma20, Omega_c)
    amplitude = Gamma10 / (2.0 * gamma10)
    window = Gamma10 * Omega_c**2 / (8.0 * gamma10**2)
    baseline = amplitude**2
    depth = (2.0 * amplitude * window * hwhm - window**2) / hwhm**2 if hwhm > 0.0 else 0.0
    return DipShape(baseline=baseline, depth=depth, hwhm=hwhm,
                    amplitude=amplitude, window=window)


def group_delay(atom: ThreeLevelAtom, drive: DriveCondition, h: float | None = None) -> float:
    """Group delay tau_g = d arg(t) / d Delta_p in seconds.

    With h omitted the analytic derivative of the transmission phase is used.
    With h given (rad/s), a central difference of the phase with unwrapping is
    computed instead; it exists as a cross-check of the analytic path.

    Raises UndefinedPhaseError when t = 0 at the evaluation point (perfect
    extinction), where the phase carries no information.
    """
    t0 = transmission(atom, drive)
    if t0 == 0.0:
        raise UndefinedPhaseError("transmission is zero; phase undefined")

    if h is not None:
        if not h > 0.0:
            raise ValueError("finite-difference step h must be positive")
        t_plus = transmission(atom, replace(drive, Delta_p=drive.Delta_p + h))
        t_minus = transmission(atom, replace(drive, Delta_p=drive.Delta_p - h))
        if t_plus == 0.0 or t_minus == 0.0:
            raise UndefinedPhaseError("transmission is zero at a stencil point")
        # phase of the ratio unwraps the difference as long as |dphi| < pi
        return math.atan2((t_plus / t_minus).imag, (t_plus / t_minus).real) / (2.0 * h)

    Omega_c = drive.Omega_c
    two_photon, denominator = _scalar_terms(atom.gamma10, atom.gamma20, Omega_c,
                                            drive.Delta_p, drive.Delta_p + drive.Delta_c)
    if denominator is None:
        # ideal transparency point: t = 1 there and the exact limit of the
        # phase slope is 2*Gamma10/Omega_c**2
        return 2.0 * atom.Gamma10 / Omega_c**2
    control_slope = 0.0 + 0.0j if Omega_c == 0.0 else 1j * Omega_c**2 / (2.0 * two_photon**2)
    d_reflection = atom.Gamma10 * (-2j + control_slope) / denominator**2
    return (d_reflection / t0).imag
