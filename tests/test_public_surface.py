"""The package's public surface: every exported name resolves, once, and the
names and keywords cut because nothing in the reproduction used them stay out."""

from __future__ import annotations

import inspect
import math

import numpy as np

import acoustic_eit
from acoustic_eit import estimation, experiments, idt, leastsq, lindblad, model, units
from acoustic_eit.model import reflection_coefficient, transmission_flux_coefficient

DELETED = {
    lindblad: ("propagate", "_expm", "_PADE_13", "_THETA_13", "validate_density_matrix",
               "steady_state_density_matrix", "hamiltonian", "jump_operators", "reflection_from_state",
               # the Bloch-basis tables are built from _BASIS, not through a column-stacked Liouvillian
               "_kron", "_TO_VEC", "_COLUMN_STACKED", "_FROM_VEC", "_to_bloch", "_COMMUTATORS", "_EYE",
               "_RHO_REAL", "_RHO_IMAG", "_RHO_SIGN", "_JDJ", "_UNITS"),
    model: ("transmission_flux_sweep", "coherence_rates", "DriveCondition", "reflection", "transmission"),
    idt: ("decay_from_conductance",),
    experiments: ("import_json", "run_control_sweep", "run_power_sweep", "run_flux_sweep",
                  "run_linewidth_pipeline", "_control_amplitudes"),
    estimation: ("fit_dip_lorentzian", "_with_fixed"),
    leastsq: ("weighted_linear_fit",),
    units: ("PowerCalibration",),
}
# still in its module, where fit_transmission calls it, but not exported
UNEXPORTED = ("transmission_initial_guess",)
MHZ = 2.0 * math.pi * 1e6


def test_every_exported_name_resolves():
    missing = [name for name in acoustic_eit.__all__ if not hasattr(acoustic_eit, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(acoustic_eit.__all__)) == len(acoustic_eit.__all__)


def test_deleted_names_are_gone_and_not_exported():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in acoustic_eit.__all__ and not hasattr(acoustic_eit, name), name
    for name in UNEXPORTED:
        assert name not in acoustic_eit.__all__ and not hasattr(acoustic_eit, name), name
    assert not hasattr(model.ThreeLevelAtom, "from_coherence")
    assert not hasattr(leastsq.FitResult, "as_dict")
    # a sweep point is its axes, value and annotation; abs and phase are columns
    assert experiments.SweepPoint._fields == ("axes", "value", "annotation")
    assert not hasattr(experiments.SweepPoint, "magnitude") and not hasattr(experiments.SweepPoint, "phase")


def test_deleted_keywords_are_gone():
    for fn in (estimation.fit_transmission, estimation.transmission_initial_guess):
        parameters = inspect.signature(fn).parameters
        assert "omega_c_hint" not in parameters and "init" not in parameters, fn.__name__
    # a drive is passed as bare values, never as an object
    for fn in (model.group_delay, lindblad.master_equation_reflection):
        assert "drive" not in inspect.signature(fn).parameters, fn.__name__
    # the decay channels come from the atom, never as operators
    assert "jumps" not in inspect.signature(lindblad.build_liouvillian).parameters
    # the transmission fit always fits its background
    assert "fit_crosstalk" not in inspect.signature(estimation.fit_transmission).parameters
    # every estimator names its parameters and bounds them
    parameters = inspect.signature(leastsq.levenberg_marquardt_stack).parameters
    assert parameters["names"].default is inspect.Parameter.empty
    assert parameters["lower"].default is inspect.Parameter.empty


def _estimator_results() -> dict[str, leastsq.FitResult]:
    """One clean fit from every estimator that returns a FitResult."""
    Gamma10, gamma10 = 20.1 * MHZ, 21.0 * MHZ
    probe = np.linspace(-80.0, 80.0, 81) * MHZ
    control = np.linspace(-25.0, 25.0, 81) * MHZ
    two_level = np.abs(reflection_coefficient(Gamma10, gamma10, 4.94 * MHZ, 0.0, probe, 0.0))
    dip = np.abs(reflection_coefficient(Gamma10, gamma10, 4.94 * MHZ, 6.1 * MHZ, 0.0, control)) ** 2
    t = transmission_flux_coefficient(Gamma10, gamma10, 4.5 * MHZ, 16.0 * MHZ, probe, 4.0 * MHZ) + 0.03
    # a control too weak to open a window: under noise the dip collapses
    weak = np.abs(reflection_coefficient(Gamma10, gamma10, 4.94 * MHZ, 0.3 * MHZ, 0.0, control)) ** 2
    weak += 0.005 * np.random.Generator(np.random.Philox(0)).standard_normal(control.size)
    powers = np.array([1e-9, 2e-9, 3e-9, 4e-9])
    return {
        "dip": estimation.fit_dip_stack(control, dip[None])[0],
        "line": estimation.fit_linewidth_line(powers, 5.0 * MHZ + 1e15 * powers, gamma10=gamma10),
        "two-level": estimation.fit_two_level(estimation.samples_from_arrays(probe, two_level),
                                              Gamma10=Gamma10),
        "transmission": estimation.fit_transmission(estimation.samples_from_arrays(probe, t),
                                                    gamma10=gamma10, Gamma10=Gamma10),
        # the collapsed dip ends on its hwhm >= 0 bound
        "dip-at-bound": estimation.fit_dip_stack(control, weak[None])[0],
    }


def test_estimators_report_only_what_they_fitted():
    results = _estimator_results()
    assert results["two-level"].names == ("gamma10", "scale")
    assert results["transmission"].names == (
        "gamma20", "delta", "Omega_c", "scale", "crosstalk_re", "crosstalk_im")
    assert results["dip-at-bound"].at_bound == (False, True, False, False)
    for name, fit in results.items():
        assert fit.converged, name
        # at_bound states each bound flag once; no note repeats it
        assert not any(note.startswith(("fixed:", "at-bound:")) for note in fit.notes), (name, fit.notes)
        assert fit.values.shape == fit.stderr.shape == (len(fit.names),), name
