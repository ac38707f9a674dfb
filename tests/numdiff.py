"""Central differences, the numeric reference for the analytic derivatives."""

from __future__ import annotations

import numpy as np

from acoustic_eit.model import reflection_coefficient


def central_difference(fn, x, step):
    """Derivative of fn at x by central differences, one column per parameter.

    Column j is (fn(x + h_j e_j) - fn(x - h_j e_j)) / (2 h_j); step gives h
    per parameter or one h for all. fn may return a scalar or an array.
    """
    x = np.asarray(x, dtype=float)
    steps = np.broadcast_to(np.asarray(step, dtype=float), x.shape)
    columns = []
    for j, h in enumerate(steps):
        e = np.zeros_like(x)
        e[j] = h
        columns.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * h))
    return np.stack(columns, axis=-1)


def numeric_group_delay(Gamma10, gamma10, gamma20, Omega_c, Delta_p, Delta_c, h):
    """Group delay as the central difference of arg(t) in Delta_p with step h.

    Takes group_delay's arguments and the step. The phase is taken relative
    to t at the point, so it does not wrap.
    """
    def transmission_at(delta_p):
        return 1.0 + reflection_coefficient(Gamma10, gamma10, gamma20, Omega_c, delta_p, Delta_c)

    t0 = transmission_at(Delta_p)

    def phase(delta_p):
        return np.angle(transmission_at(float(delta_p[0])) / t0)

    return float(central_difference(phase, [Delta_p], h)[0])
