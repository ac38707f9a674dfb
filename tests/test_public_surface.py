"""The package's public surface: every exported name resolves, once, and the
names and keywords cut because nothing in the reproduction used them stay out."""

from __future__ import annotations

import inspect

import acoustic_eit
from acoustic_eit import estimation, experiments, idt, leastsq, lindblad, model

DELETED = {
    lindblad: ("propagate", "_expm", "_PADE_13", "_THETA_13", "validate_density_matrix"),
    model: ("transmission_flux_sweep",),
    idt: ("decay_from_conductance",),
    experiments: ("import_json",),
}
# still in its module, where fit_transmission calls it, but not exported
UNEXPORTED = ("transmission_initial_guess",)


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


def test_deleted_keywords_are_gone():
    for fn in (estimation.fit_transmission, estimation.transmission_initial_guess):
        parameters = inspect.signature(fn).parameters
        assert "omega_c_hint" not in parameters and "init" not in parameters, fn.__name__
    # every estimator names its parameters and bounds them
    parameters = inspect.signature(leastsq.levenberg_marquardt_stack).parameters
    assert parameters["names"].default is inspect.Parameter.empty
    assert parameters["lower"].default is inspect.Parameter.empty
