"""Lindblad master equation for the driven three-level ladder.

This module is the in-package oracle for the scattering formulas in
``model``: it builds the Liouvillian of an atom under a drive from the
rotating-frame Hamiltonian and jump operators below, solves the steady
state exactly (dense linear algebra, no perturbation in the probe), and
reads the reflection coefficient off the steady-state coherence. In the
weak-probe limit the result must agree with the closed-form kernel to high
accuracy; ``weak_probe_deviation`` measures that agreement on a grid.

The Liouvillian builder broadcasts its drive arguments and the steady-state
solver takes one matrix or a stack of them with any leading batch dims, so a
grid is solved by one batched ``np.linalg.solve`` per chunk rather than
point by point.

Conventions
-----------
Basis ordering |0>, |1>, |2>. The frame rotates at the probe frequency on
the 0-1 transition and at probe+control on the 0-2 transition, so

    H = -Delta_p |1><1| - (Delta_p + Delta_c) |2><2|
        + (Omega_p/2)(|0><1| + |1><0|) + (Omega_c/2)(|1><2| + |2><1|).

Jump operators: sqrt(Gamma10)|0><1|, sqrt(Gamma21)|1><2|,
sqrt(2*gphi1)|1><1|, sqrt(2*gphi2)|2><2|.

Superoperators act on column-stacked density matrices:
vec(A rho B) = (B^T kron A) vec(rho).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SteadyStateError
from .model import ThreeLevelAtom, _check_drive, reflection_coefficient

_DIM = 3
_VEC = _DIM * _DIM
# column-stacked positions of the diagonal entries of rho
_DIAGONAL = [0, 4, 8]
# steady-state residual acceptance relative to the Liouvillian scale
_RESIDUAL_RTOL = 1e-10
# grid points per batched solve in weak_probe_deviation; a chunk's (n, 9, 9)
# stack and its temporaries stay at a few MB whatever the grid size
_CHUNK = 1024
# weak_probe_deviation's default probe over the atom's smallest positive coherence
# rate: the weak-probe term (~1e-13 on the paper atom) then stays above rounding
_WEAK_PROBE_FRACTION = 1e-6


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of trailing 3x3 blocks, broadcast over leading dims."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (_VEC, _VEC))


# read-only tables of build_liouvillian: _COMMUTATOR (9, 81) takes the row-major
# H (..., 9) to kron(I, H) - kron(H^T, I); _DISSIPATORS (4, 9, 9) holds each
# channel's dissipator at unit rate, in the order of the module docstring
_EYE = np.eye(_DIM)
_UNITS = np.eye(_VEC).reshape(_VEC, _DIM, _DIM)  # |k><l| at index 3k + l
_JUMPS = _UNITS[[1, 5, 4, 8]]  # |0><1|, |1><2|, |1><1|, |2><2|
_JDJ = _UNITS[[4, 8, 4, 8]]  # J^dag J = |c><c| for J = |r><c|
_COMMUTATOR = (_kron(_EYE, _UNITS) - _kron(np.swapaxes(_UNITS, -1, -2), _EYE)).reshape(_VEC, -1)
_DISSIPATORS = _kron(_JUMPS, _JUMPS) - 0.5 * _kron(_EYE, _JDJ) - 0.5 * _kron(np.swapaxes(_JDJ, -1, -2), _EYE)
_COMMUTATOR.setflags(write=False)
_DISSIPATORS.setflags(write=False)


def build_liouvillian(atom: ThreeLevelAtom, Delta_p, Delta_c, Omega_p, Omega_c) -> np.ndarray:
    """Column-stacked Liouvillian L with d vec(rho)/dt = L vec(rho) for an atom under a drive.

    The drive arguments broadcast: scalars give (9, 9), arrays (..., 9, 9)
    over their broadcast shape. A non-finite drive value or a negative
    amplitude raises ValueError. H and the four decay channels are those of
    the module docstring. No Kronecker product is taken per call: L's
    imaginary part is minus the row-major H times _COMMUTATOR, its real part,
    shared by the stack, the sum of (sqrt rate)**2 times _DISSIPATORS over the
    channels of nonzero rate. Every table entry is 0, +-1 or +-1/2, so L is
    the textbook kron construction bit for bit, up to the sign of a zero.
    """
    _check_drive((Delta_p, Delta_c), (Omega_p, Omega_c))
    dp, dc, op, oc = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                           for x in (Delta_p, Delta_c, Omega_p, Omega_c)))
    h = np.zeros(dp.shape + (_VEC,))
    h[..., 4] = -dp
    h[..., 8] = -(dp + dc)
    h[..., 1] = h[..., 3] = 0.5 * op
    h[..., 5] = h[..., 7] = 0.5 * oc
    dissipator = np.zeros((_VEC, _VEC))
    for table, rate in zip(_DISSIPATORS, (atom.Gamma10, atom.Gamma21, 2.0 * atom.gphi1, 2.0 * atom.gphi2)):
        if rate > 0.0:
            root = math.sqrt(rate)
            dissipator += root * root * table
    liouvillian = np.empty(dp.shape + (_VEC, _VEC), dtype=complex)
    liouvillian.real = dissipator
    liouvillian.imag = -(h @ _COMMUTATOR).reshape(liouvillian.shape)
    return liouvillian


def _unvec(v: np.ndarray) -> np.ndarray:
    """Column-stacked vectors (..., 9) back to density matrices (..., 3, 3)."""
    return np.swapaxes(v.reshape(v.shape[:-1] + (_DIM, _DIM)), -1, -2)


def _first_failure(failed: np.ndarray) -> tuple[tuple, str]:
    """Index of the first True entry of a per-matrix mask and a message suffix naming it.

    The suffix is empty for a single matrix (a 0-d mask) and when nothing failed.
    """
    index = np.unravel_index(np.argmax(failed), failed.shape)
    if failed.ndim == 0 or not failed.any():
        return index, ""
    position = tuple(int(i) for i in index)
    return index, f" at stack index {position[0] if len(position) == 1 else position}"


def steady_state(liouvillian: np.ndarray) -> np.ndarray:
    """Unique steady-state density matrix of a 9x9 Liouvillian, or of each in a stack.

    The singular system L v = 0 is closed by replacing the first row with
    the trace constraint tr(rho) = 1. If the replaced system is singular or
    the solution does not satisfy L v ~ 0 (non-unique steady state, e.g. a
    level decoupled by vanishing drive and decay), SteadyStateError is
    raised rather than returning one arbitrary kernel vector. So it is when
    the Liouvillian norm or the residual is not finite (a Liouvillian too
    large for float64), since the residual test cannot then be made.

    A stack (..., 9, 9) is closed and solved by one batched solve and gives
    (..., 3, 3); every matrix passes the residual test on its own, and the
    error names the stack index of the first one that fails.
    """
    lv = np.asarray(liouvillian, dtype=complex)
    if lv.shape[-2:] != (_VEC, _VEC):
        raise ValueError("liouvillian must be 9x9 or a stack of 9x9")
    mat = lv.copy()
    mat[..., 0, :] = 0.0
    mat[..., 0, _DIAGONAL] = 1.0
    rhs = np.zeros(lv.shape[:-1] + (1,), dtype=complex)
    rhs[..., 0, 0] = 1.0
    try:
        v = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        # the determinant comes from the same LU factorisation, so it is
        # exactly zero where the solve met a zero pivot
        _, where = _first_failure(np.linalg.det(mat) == 0.0)
        raise SteadyStateError(
            f"steady state is not unique: trace-closed system is singular{where}") from exc
    # a Liouvillian too large for float64 overflows its norm or lv @ v; the
    # residual test cannot then be made, which fails the matrix
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.linalg.norm(lv, axis=(-2, -1))
        residual = np.linalg.norm(lv @ v, axis=(-2, -1))
    finite = np.isfinite(scale) & np.isfinite(residual)
    failed = ~finite | (residual > _RESIDUAL_RTOL * np.maximum(scale, 1.0))
    if np.any(failed):
        index, where = _first_failure(failed)
        if not finite[index]:
            raise SteadyStateError(
                f"steady-state residual cannot be checked: liouvillian norm or residual is not finite{where}")
        raise SteadyStateError(
            f"steady-state residual {residual[index]:.3e} exceeds {_RESIDUAL_RTOL:.1e} * liouvillian norm{where}"
        )
    rho = _unvec(v[..., 0])
    # enforce exact hermiticity; the solve leaves rounding-level asymmetry
    return 0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))


def master_equation_reflection(atom: ThreeLevelAtom, Delta_p, Delta_c, Omega_p, Omega_c):
    """Nonperturbative reflection coefficient from the steady state.

    The drive arguments broadcast like build_liouvillian's: scalars give a
    complex, arrays an array over their broadcast shape, solved as one stack.
    A non-finite drive value, a negative amplitude or an Omega_p that is not
    positive raises ValueError before any solve.

    The scattered field is proportional to the lowering-operator expectation;
    normalizing by the probe amplitude gives r = -i (Gamma10 / Omega_p) rho_10.
    """
    liouvillian = build_liouvillian(atom, Delta_p, Delta_c, Omega_p, Omega_c)
    if not (np.asarray(Omega_p) > 0.0).all():
        raise ValueError("Omega_p must be positive to define a reflection")
    coherence = steady_state(liouvillian)[..., 1, 0]
    return -1j * (atom.Gamma10 / Omega_p) * (complex(coherence) if coherence.ndim == 0 else coherence)


class DeviationReport(NamedTuple):
    """Worst-case disagreement between master equation and closed form.

    worst_Delta_p, worst_Delta_c and worst_Omega_c (rad/s) locate the first
    grid point with the largest relative deviation.
    """

    max_abs: float
    max_rel: float
    points: int
    worst_Delta_p: float = math.nan
    worst_Delta_c: float = math.nan
    worst_Omega_c: float = math.nan


def weak_probe_deviation(
    atom: ThreeLevelAtom,
    Delta_p_values: Sequence[float],
    Delta_c_values: Sequence[float],
    Omega_c_values: Sequence[float],
    Omega_p: float | None = None,
) -> DeviationReport:
    """Compare the steady-state reflection to the weak-probe formula.

    Evaluates both on the Cartesian product of the supplied detuning and
    control-amplitude grids and returns the largest absolute and relative
    deviations and the location of the largest relative one. Relative
    deviation at a point is |r_me - r_wp| / max(|r_wp|, 1e-30). A deviation
    that is not finite makes both maxima NaN and locates the first such point.

    Omega_p unset is ``_WEAK_PROBE_FRACTION`` times gamma_min, the smaller
    positive of atom.gamma10 and atom.gamma20 (ValueError if neither is); a
    correct closed form then deviates by the weak-probe term alone: about 0.08
    (paper atom) and at most about 6 (random atoms) times (Omega_p / gamma_min)**2.

    The grid is walked with Omega_c outermost and Delta_p innermost, in
    chunks of at most ``_CHUNK`` points, each solved as one stack by
    master_equation_reflection (which rejects a non-finite grid value or a
    negative Omega_c before the chunk's solve) and compared with one
    closed-form call.
    """
    if Omega_p is None:
        Omega_p = _WEAK_PROBE_FRACTION * min((rate for rate in (atom.gamma10, atom.gamma20) if rate > 0.0),
                                             default=math.nan)
    if not (Omega_p > 0.0 and math.isfinite(Omega_p)):
        raise ValueError("Omega_p must be positive and finite; unset, it needs a positive gamma10 or gamma20")
    axes = [np.asarray(values, dtype=float) for values in (Omega_c_values, Delta_c_values, Delta_p_values)]
    if any(axis.ndim != 1 or axis.size == 0 for axis in axes):
        raise ValueError("deviation grid must be a nonempty sequence in every axis")
    omega_c, delta_c, delta_p = axes
    shape = (omega_c.size, delta_c.size, delta_p.size)
    points = math.prod(shape)
    max_abs = 0.0
    max_rel = 0.0
    worst = 0
    for start in range(0, points, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, points))
        i_o, i_c, i_p = np.unravel_index(flat, shape)
        dp, dc, oc = delta_p[i_p], delta_c[i_c], omega_c[i_o]
        r_me = master_equation_reflection(atom, dp, dc, Omega_p, oc)
        r_wp = reflection_coefficient(atom.Gamma10, atom.gamma10, atom.gamma20, oc, dp, dc)
        dev = np.abs(r_me - r_wp)
        max_abs = max(float(dev.max()), max_abs)  # a NaN goes first, or max() drops it
        if not math.isfinite(max_abs):  # a NaN left out of the maxima would read as agreement
            max_abs = max_rel = math.nan
            worst = start + int(np.flatnonzero(~np.isfinite(dev))[0])
            break
        rel = dev / np.maximum(np.abs(r_wp), 1e-30)
        top = int(np.argmax(rel))
        if rel[top] > max_rel:
            max_rel = float(rel[top])
            worst = start + top
    i_o, i_c, i_p = np.unravel_index(worst, shape)
    return DeviationReport(max_abs=max_abs, max_rel=max_rel, points=points,
                           worst_Delta_p=float(delta_p[i_p]), worst_Delta_c=float(delta_c[i_c]),
                           worst_Omega_c=float(omega_c[i_o]))
