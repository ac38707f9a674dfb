"""Machine-speed references for the benchmark's end-to-end times.

On a shared machine the speed of one core drifts by tens of percent within
seconds, as other tenants load it. A drift slows a fixed piece of work of
the same kind as the package's work about as much as it slows the package,
so the benchmark runs such a reference next to every timed operation and
reports times at a fixed reference speed:

    normalised = measured * NOMINAL_LOOP_S[kind] / (reference loop time measured next to it)

Each workload uses the kind of reference that resembles its own hot code:

- ``objects``: building small dicts of formatted floats (per-point records
  and per-cell export; also the interpreter start-up of ``setup_s``);
- ``vectors``: arithmetic on a few hundred complex points and a 6 x 6 solve
  (residuals of the fit engine);
- ``dense``: assembling and solving one 9 x 9 complex system from Kronecker
  products (the master-equation oracle).

The references use only numpy and the standard library, never the package,
so a change to the package cannot move them.
"""

from __future__ import annotations

import math
import time

import numpy as np

# best time of one loop of each kind on the 2-core machine the benchmark was
# written on (Python 3.11, numpy 2.4); they only set the unit of the
# normalised times, so they are constants
NOMINAL_LOOP_S = {"objects": 8.9e-6, "vectors": 2.0e-5, "dense": 5.1e-5}
# loops per sample: about 3 ms at the nominal speed
LOOPS = {"objects": 300, "vectors": 150, "dense": 60}

_M3 = np.arange(9.0).reshape(3, 3) + 1j
_EYE3 = np.eye(3)
_X = np.linspace(-1.0, 1.0, 401)
_A6 = 4.0 * np.eye(6) + 0.1 * np.add.outer(np.arange(6.0), np.arange(6.0))


def _objects() -> float:
    row = {"c%d" % j: "%.17g" % (j * 1.1 + 0.3) for j in range(12)}
    return float(len(row["c3"]))


def _vectors() -> float:
    t = 1.0 / (2.0 * (0.3 - 1j * _X) + 0.5 / (0.1 - 1j * (2.0 * _X + 0.05)))
    r = np.concatenate([t.real, t.imag])
    step = np.linalg.solve(_A6, np.full(6, float(r @ r)))
    return float(step[0])


def _dense() -> float:
    lv = -1j * (np.kron(_EYE3, _M3) - np.kron(_M3.T, _EYE3)) + 5.0 * np.eye(9)
    lv[0, :] = 0.0
    lv[0, 0] = lv[0, 4] = lv[0, 8] = 1.0
    return float(abs(np.linalg.solve(lv, np.eye(9)[0])[1]))


_KERNELS = {"objects": _objects, "vectors": _vectors, "dense": _dense}


def reference(kind: str) -> float:
    """Seconds per loop of one sample of the given kind of reference work."""
    kernel = _KERNELS[kind]
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(LOOPS[kind]):
        acc += kernel()
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference computation is not finite")
    return elapsed / LOOPS[kind]


def normalise(seconds: float, loop_s: float, kind: str) -> float:
    """Seconds at the reference speed, given the reference loop time measured alongside."""
    return seconds * NOMINAL_LOOP_S[kind] / loop_s
