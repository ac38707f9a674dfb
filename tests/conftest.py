"""Shared fixtures: the two measured device parameter sets used across tests,
and the fit engine on a single problem."""

from __future__ import annotations

import math

import numpy as np
import pytest

from acoustic_eit import ThreeLevelAtom, hz_to_angular
from acoustic_eit.leastsq import levenberg_marquardt_stack

MHZ = 2.0 * math.pi * 1e6


@pytest.fixture()
def reflection_atom() -> ThreeLevelAtom:
    # device rates from the reflection-geometry profile:
    # gamma10/2pi = 21 MHz, gamma20/2pi = 4.94 MHz
    return ThreeLevelAtom(
        omega10=hz_to_angular(2.2684e9),
        anharmonicity=hz_to_angular(118.4e6),
        Gamma10=hz_to_angular(20.1e6),
        Gamma21=hz_to_angular(1.09e6),
        gphi1=hz_to_angular(10.95e6),
        gphi2=hz_to_angular(4.395e6),
    )


@pytest.fixture()
def transmission_atom() -> ThreeLevelAtom:
    # transmission-geometry profile: same probe decay, gamma20/2pi = 4.5 MHz
    return ThreeLevelAtom(
        omega10=hz_to_angular(2.2644e9),
        anharmonicity=hz_to_angular(114.4e6),
        Gamma10=hz_to_angular(20.1e6),
        Gamma21=hz_to_angular(1.09e6),
        gphi1=hz_to_angular(10.95e6),
        gphi2=hz_to_angular(3.955e6),
    )


@pytest.fixture()
def fit_one():
    """levenberg_marquardt_stack on a batch of one: fit_one(residual_fn, x0,
    jacobian_fn, names=..., lower=...) returns the FitResult, and raises the
    ValueError the engine returns for a non-finite start."""
    def fit(residual_fn, x0, jacobian_fn, *, names=None, lower=None):
        def evaluate(theta, rows):
            return np.asarray(residual_fn(theta[0]))[None], np.asarray(jacobian_fn(theta[0]))[None]

        result, = levenberg_marquardt_stack(evaluate, np.array(x0, dtype=float)[None], names=names, lower=lower)
        if isinstance(result, ValueError):
            raise result
        return result

    return fit
