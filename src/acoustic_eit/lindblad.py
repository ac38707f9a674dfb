"""Lindblad master equation for the driven three-level ladder.

This module is the in-package oracle for the scattering formulas in
``model``: it builds the rotating-frame Hamiltonian and jump operators,
solves the steady state exactly (dense linear algebra, no perturbation in
the probe), and reads the reflection coefficient off the steady-state
coherence. In the weak-probe limit the result must agree with the
closed-form kernel to high accuracy; ``weak_probe_deviation`` measures that
agreement on a grid.

The Liouvillian builder, the steady-state solver and the readout take one
matrix or a stack of them with any leading batch dims, so a grid is solved
by one batched ``np.linalg.solve`` per chunk rather than point by point.

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
from .model import DriveCondition, ThreeLevelAtom, reflection_coefficient

_DIM = 3
_VEC = _DIM * _DIM
# column-stacked positions of the diagonal entries of rho
_DIAGONAL = [0, 4, 8]
# steady-state residual acceptance relative to the Liouvillian scale
_RESIDUAL_RTOL = 1e-10
# grid points per batched solve in weak_probe_deviation; a chunk's (n, 9, 9)
# stack and its temporaries stay at a few MB whatever the grid size
_CHUNK = 1024
# degree-13 Pade coefficients b_k = (26 - k)! / (k! (13 - k)!), all exact in float64, and the
# 1-norm up to which r_13 meets unit roundoff (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005)
_PADE_13 = [float(math.factorial(26 - k) // (math.factorial(k) * math.factorial(13 - k))) for k in range(14)]
_THETA_13 = 5.371920351148152


def hamiltonian(Delta_p, Delta_c, Omega_p, Omega_c) -> np.ndarray:
    """Rotating-frame Hamiltonian (rad/s), 3x3 or a stack (..., 3, 3) over broadcast drive arguments."""
    dp, dc, op, oc = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                           for x in (Delta_p, Delta_c, Omega_p, Omega_c)))
    h = np.zeros(dp.shape + (_DIM, _DIM), dtype=complex)
    h[..., 1, 1] = -dp
    h[..., 2, 2] = -(dp + dc)
    h[..., 0, 1] = h[..., 1, 0] = 0.5 * op
    h[..., 1, 2] = h[..., 2, 1] = 0.5 * oc
    return h


def jump_operators(atom: ThreeLevelAtom) -> list[np.ndarray]:
    """Collapse operators for energy relaxation and pure dephasing.

    Zero-rate channels are omitted so the Liouvillian stays minimal.
    """
    channels = ((0, 1, atom.Gamma10), (1, 2, atom.Gamma21),
                (1, 1, 2.0 * atom.gphi1), (2, 2, 2.0 * atom.gphi2))
    ops: list[np.ndarray] = []
    for row, col, rate in channels:
        if rate > 0.0:
            op = np.zeros((_DIM, _DIM), dtype=complex)
            op[row, col] = np.sqrt(rate)
            ops.append(op)
    return ops


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of trailing 3x3 blocks, broadcast over leading dims."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (_VEC, _VEC))


def build_liouvillian(h: np.ndarray, jumps: Sequence[np.ndarray]) -> np.ndarray:
    """Column-stacked Liouvillian L with d vec(rho)/dt = L vec(rho).

    h is one Hamiltonian (3, 3) or a stack (..., 3, 3); the result is
    (9, 9) or (..., 9, 9). The dissipator is built once from the jump
    operators and shared by every matrix of the stack.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[-2:] != (_DIM, _DIM):
        raise ValueError("hamiltonian must be 3x3 or a stack of 3x3")
    eye = np.eye(_DIM)
    dissipator = np.zeros((_VEC, _VEC), dtype=complex)
    for op in jumps:
        op = np.asarray(op, dtype=complex)
        if op.shape != (_DIM, _DIM):
            raise ValueError("jump operators must be 3x3")
        opdag_op = op.conj().T @ op
        dissipator += (
            _kron(op.conj(), op)
            - 0.5 * _kron(eye, opdag_op)
            - 0.5 * _kron(opdag_op.T, eye)
        )
    return -1j * (_kron(eye, h) - _kron(np.swapaxes(h, -1, -2), eye)) + dissipator


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
    raised rather than returning one arbitrary kernel vector.

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
    scale = np.linalg.norm(lv, axis=(-2, -1))
    residual = np.linalg.norm(lv @ v, axis=(-2, -1))
    failed = ~np.isfinite(residual) | (residual > _RESIDUAL_RTOL * np.maximum(scale, 1.0))
    if np.any(failed):
        index, where = _first_failure(failed)
        raise SteadyStateError(
            f"steady-state residual {residual[index]:.3e} exceeds {_RESIDUAL_RTOL:.1e} * liouvillian norm{where}"
        )
    rho = _unvec(v[..., 0])
    # enforce exact hermiticity; the solve leaves rounding-level asymmetry
    return 0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))


def steady_state_density_matrix(atom: ThreeLevelAtom, drive: DriveCondition) -> np.ndarray:
    """Steady state straight from physical parameters."""
    h = hamiltonian(drive.Delta_p, drive.Delta_c, drive.Omega_p, drive.Omega_c)
    return steady_state(build_liouvillian(h, jump_operators(atom)))


def validate_density_matrix(rho: np.ndarray, atol: float = 1e-10) -> None:
    """Raise ValueError unless rho is hermitian, unit-trace, and PSD."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (_DIM, _DIM):
        raise ValueError("density matrix must be 3x3")
    if np.linalg.norm(rho - rho.conj().T) > atol:
        raise ValueError("density matrix is not hermitian")
    if abs(np.trace(rho) - 1.0) > atol:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -atol:
        raise ValueError("density matrix has a negative eigenvalue")


def reflection_from_state(rho: np.ndarray, Gamma10: float, Omega_p: float):
    """Reflection coefficient read off the steady-state 1-0 coherence.

    The scattered field is proportional to the lowering-operator expectation;
    normalizing by the probe amplitude gives r = -i (Gamma10 / Omega_p) rho_10.
    A single state gives a complex number, a stack (..., 3, 3) an array.
    """
    if Omega_p <= 0.0:
        raise ValueError("Omega_p must be positive to define a reflection")
    coherence = np.asarray(rho)[..., 1, 0]
    if coherence.ndim == 0:
        coherence = complex(coherence)
    return -1j * (Gamma10 / Omega_p) * coherence


def master_equation_reflection(atom: ThreeLevelAtom, drive: DriveCondition) -> complex:
    """Nonperturbative reflection coefficient from the steady state."""
    rho = steady_state_density_matrix(atom, drive)
    return reflection_from_state(rho, atom.Gamma10, drive.Omega_p)


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
    Omega_p: float = 2.0 * np.pi * 1.0e4,
) -> DeviationReport:
    """Compare the steady-state reflection to the weak-probe formula.

    Evaluates both on the Cartesian product of the supplied detuning and
    control-amplitude grids at a fixed small probe amplitude, and returns
    the largest absolute and relative deviations and the location of the
    largest relative one. Relative deviation at a point is
    |r_me - r_wp| / max(|r_wp|, 1e-30).

    The grid is walked with Omega_c outermost and Delta_p innermost, in
    chunks of at most ``_CHUNK`` points, each solved as one stack and
    compared with one closed-form call.
    """
    if not (Omega_p > 0.0 and math.isfinite(Omega_p)):
        raise ValueError("Omega_p must be positive and finite")
    axes = [np.asarray(values, dtype=float) for values in (Omega_c_values, Delta_c_values, Delta_p_values)]
    if any(axis.ndim != 1 or axis.size == 0 for axis in axes):
        raise ValueError("deviation grid must be a nonempty sequence in every axis")
    if not all(np.all(np.isfinite(axis)) for axis in axes):
        raise ValueError("deviation grid values must be finite")
    omega_c, delta_c, delta_p = axes
    if np.any(omega_c < 0.0):
        raise ValueError("Rabi amplitudes must be nonnegative")
    shape = (omega_c.size, delta_c.size, delta_p.size)
    points = math.prod(shape)
    jumps = jump_operators(atom)
    max_abs = 0.0
    max_rel = 0.0
    worst = 0
    for start in range(0, points, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, points))
        i_o, i_c, i_p = np.unravel_index(flat, shape)
        dp, dc = delta_p[i_p], delta_c[i_c]
        rho = steady_state(build_liouvillian(hamiltonian(dp, dc, Omega_p, omega_c[i_o]), jumps))
        r_me = reflection_from_state(rho, atom.Gamma10, Omega_p)
        r_wp = reflection_coefficient(atom.Gamma10, atom.gamma10, atom.gamma20, omega_c[i_o], dp, dc)
        dev = np.abs(r_me - r_wp)
        rel = dev / np.maximum(np.abs(r_wp), 1e-30)
        max_abs = max(max_abs, float(dev.max()))
        top = int(np.argmax(rel))
        if rel[top] > max_rel:
            max_rel = float(rel[top])
            worst = start + top
    i_o, i_c, i_p = np.unravel_index(worst, shape)
    return DeviationReport(max_abs=max_abs, max_rel=max_rel, points=points,
                           worst_Delta_p=float(delta_p[i_p]), worst_Delta_c=float(delta_c[i_c]),
                           worst_Omega_c=float(omega_c[i_o]))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a): scale to 1-norm <= theta_13, take r_13 = (V - U)^-1 (V + U), square back.

    No eigendecomposition, so the defective generator at the EIT / Autler-Townes threshold is no special case.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    a = a / 2.0**squarings
    b = _PADE_13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def propagate(
    liouvillian: np.ndarray,
    rho0: np.ndarray,
    times: Sequence[float],
) -> np.ndarray:
    """Evolve rho0 under the master equation; returns (len(times), 3, 3).

    Uses the dense matrix exponential per requested time, which is exact for
    this 9-dimensional generator and fast enough for diagnostics and tests.
    """
    lv = np.asarray(liouvillian, dtype=complex)
    v0 = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    out = np.empty((len(times), _DIM, _DIM), dtype=complex)
    for i, t in enumerate(times):
        if not 0.0 <= t < math.inf:
            raise ValueError("times must be nonnegative and finite")
        out[i] = _unvec(_expm(lv * float(t)) @ v0)
    return out
