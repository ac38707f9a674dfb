"""Central differences, the numeric reference for the analytic derivatives."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from acoustic_eit.model import transmission


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


def numeric_group_delay(atom, drive, h):
    """Group delay as the central difference of arg(t) in Delta_p with step h.

    The phase is taken relative to t at the point, so it does not wrap.
    """
    t0 = transmission(atom, drive)

    def phase(delta_p):
        return np.angle(transmission(atom, replace(drive, Delta_p=float(delta_p[0]))) / t0)

    return float(central_difference(phase, [drive.Delta_p], h)[0])
