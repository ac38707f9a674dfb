"""Lindblad master equation for the driven three-level ladder.

This module is the in-package oracle for the scattering formulas in
``model``: it builds the Liouvillian of an atom under a drive from the
rotating-frame Hamiltonian and jump operators below, as the real generator
G of the Bloch vector, solves the steady state exactly (dense linear
algebra, no perturbation in the probe), and reads the reflection
coefficient off the steady-state coherence. In the
weak-probe limit the result must agree with the closed-form kernel to high
accuracy; ``weak_probe_deviation`` measures that agreement on a grid.

The Liouvillian builder broadcasts its drive arguments and the steady-state
solver takes one matrix or a stack of them with any leading batch dims, so a
grid is solved by one batched real ``np.linalg.solve`` per chunk rather
than point by point.

Conventions
-----------
Basis ordering |0>, |1>, |2>. The frame rotates at the probe frequency on
the 0-1 transition and at probe+control on the 0-2 transition, so

    H = -Delta_p |1><1| - (Delta_p + Delta_c) |2><2|
        + (Omega_p/2)(|0><1| + |1><0|) + (Omega_c/2)(|1><2| + |2><1|).

Jump operators: sqrt(Gamma10)|0><1|, sqrt(Gamma21)|1><2|,
sqrt(2*gphi1)|1><1|, sqrt(2*gphi2)|2><2|.

The generator acts on the real Bloch vector

    u = (rho00, rho11, rho22, Re rho10, Im rho10, Re rho20, Im rho20, Re rho21, Im rho21),

with du/dt = G u. rho is Hermitian, so these nine real numbers fix it, and
the Lindblad equation maps Hermitian matrices to Hermitian matrices, so G
is real: these are the optical Bloch equations, and the steady state is one
real solve. G is the column-stacked Liouvillian L, vec(A rho B) = (B^T kron
A) vec(rho), in that basis: G = T^-1 L T with vec(rho) = T u. T's entries
are 0, +-1 and +-i, and T^-1's 0, 1, +-1/2 and +-i/2, so the change is exact.
The trace tr(rho) = u0 + u1 + u2 is conserved: the trace row (1, 1, 1, 0,
..., 0) annihilates G, so G u = 0 is singular, and steady_state closes it by
putting that row, with tr(rho) = 1, in place of G's first row.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SteadyStateError
from .model import ThreeLevelAtom, _check_drive, reflection_coefficient

_DIM = 3
_VEC = _DIM * _DIM
# steady-state residual acceptance relative to the generator's scale
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


# rho from the Bloch vector u: rho[r, c] = u[_RHO_REAL[r, c]] + i _RHO_SIGN[r, c] u[_RHO_IMAG[r, c]]
_RHO_REAL = np.array([[0, 3, 5], [3, 1, 7], [5, 7, 2]])
_RHO_IMAG = np.array([[0, 4, 6], [4, 0, 8], [6, 8, 0]])
_RHO_SIGN = np.array([[0.0, -1.0, -1.0], [1.0, 0.0, -1.0], [1.0, 1.0, 0.0]])
# the same map as a matrix, vec(rho) = _TO_VEC u; its inverse is its conjugate
# transpose with the coherence rows halved
_TO_VEC = np.zeros((_VEC, _VEC), dtype=complex)
_COLUMN_STACKED = np.arange(_VEC).reshape(_DIM, _DIM).T  # vec position of rho[r, c]
_TO_VEC[_COLUMN_STACKED, _RHO_IMAG] = 1j * _RHO_SIGN
_TO_VEC[_COLUMN_STACKED, _RHO_REAL] += 1.0
_FROM_VEC = _TO_VEC.conj().T / np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])[:, None]
# tr(rho) = u0 + u1 + u2
_TRACE_ROW = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def _to_bloch(superoperator: np.ndarray) -> np.ndarray:
    """Column-stacked superoperators (..., 9, 9) in the Bloch basis; exact, and real for a Lindblad generator.

    einsum, not a matmul: the package import then makes no BLAS call, whose
    first use in a process adds about 0.4 MB of resident memory.
    """
    return np.einsum("ij,...jk,kl->...il", _FROM_VEC, superoperator, _TO_VEC).real


# read-only tables of build_liouvillian: _DRIVE (4, 81) takes the drive terms
# (-Delta_p, -(Delta_p + Delta_c), Omega_p/2, Omega_c/2) to G's row-major
# entries, each the Bloch form of -i[H_k, .] for its unit Hamiltonian H_k;
# _DISSIPATORS (4, 9, 9) holds each channel's dissipator at unit rate, in the
# order of the module docstring
_EYE = np.eye(_DIM)
_UNITS = np.eye(_VEC).reshape(_VEC, _DIM, _DIM)  # |k><l| at index 3k + l
_HAMILTONIANS = np.array([_UNITS[4], _UNITS[8], _UNITS[1] + _UNITS[3], _UNITS[5] + _UNITS[7]])
_JUMPS = _UNITS[[1, 5, 4, 8]]  # |0><1|, |1><2|, |1><1|, |2><2|
_JDJ = _UNITS[[4, 8, 4, 8]]  # J^dag J = |c><c| for J = |r><c|
_COMMUTATORS = -1j * (_kron(_EYE, _HAMILTONIANS) - _kron(np.swapaxes(_HAMILTONIANS, -1, -2), _EYE))
_DRIVE = _to_bloch(_COMMUTATORS).reshape(len(_HAMILTONIANS), _VEC * _VEC)
_DISSIPATORS = _to_bloch(_kron(_JUMPS, _JUMPS) - 0.5 * _kron(_EYE, _JDJ) - 0.5 * _kron(np.swapaxes(_JDJ, -1, -2), _EYE))
_DRIVE.setflags(write=False)
_DISSIPATORS.setflags(write=False)


def build_liouvillian(atom: ThreeLevelAtom, Delta_p, Delta_c, Omega_p, Omega_c) -> np.ndarray:
    """Real Bloch-basis generator G with du/dt = G u for an atom under a drive.

    u is the Bloch vector of the module docstring. The drive arguments
    broadcast: scalars give (9, 9), arrays (..., 9, 9) over their broadcast
    shape. A non-finite drive value or a negative amplitude raises ValueError.
    H and the four decay channels are those of the module docstring. No
    Kronecker product is taken per call: G is the drive terms times _DRIVE
    plus, shared by the stack, the sum of (sqrt rate)**2 times _DISSIPATORS
    over the channels of nonzero rate. Every table entry is 0, +-1, +-2 or
    +-1/2, so G is the textbook kron construction carried into the Bloch
    basis, bit for bit up to the sign of a zero.
    """
    _check_drive((Delta_p, Delta_c), (Omega_p, Omega_c))
    dp, dc, op, oc = (np.asarray(x, dtype=float) for x in (Delta_p, Delta_c, Omega_p, Omega_c))
    shape = np.broadcast(dp, dc, op, oc).shape
    terms = np.empty(shape + (len(_HAMILTONIANS),))
    terms[..., 0] = -dp
    terms[..., 1] = -(dp + dc)
    terms[..., 2] = 0.5 * op
    terms[..., 3] = 0.5 * oc
    dissipator = np.zeros((_VEC, _VEC))
    for table, rate in zip(_DISSIPATORS, (atom.Gamma10, atom.Gamma21, 2.0 * atom.gphi1, 2.0 * atom.gphi2)):
        if rate > 0.0:
            root = math.sqrt(rate)
            dissipator += root * root * table
    return (terms @ _DRIVE).reshape(shape + (_VEC, _VEC)) + dissipator


def _first_failure(failed: np.ndarray) -> tuple[tuple, str]:
    """Index of the first True entry of a per-matrix mask and a message suffix naming it.

    The suffix is empty for a single matrix (a 0-d mask) and when nothing failed.
    """
    index = np.unravel_index(np.argmax(failed), failed.shape)
    if failed.ndim == 0 or not failed.any():
        return index, ""
    position = tuple(int(i) for i in index)
    return index, f" at stack index {position[0] if len(position) == 1 else position}"


def _bloch_steady_state(liouvillian) -> np.ndarray:
    """Steady-state Bloch vectors (..., 9) of a generator or a stack of them; see steady_state."""
    g = np.asarray(liouvillian)
    if g.shape[-2:] != (_VEC, _VEC):
        raise ValueError("liouvillian must be 9x9 or a stack of 9x9")
    if np.iscomplexobj(g):
        raise ValueError("liouvillian must be real: the Bloch-basis generator of build_liouvillian")
    mat = g.astype(float)
    mat[..., 0, :] = _TRACE_ROW
    rhs = np.zeros(g.shape[:-1] + (1,))
    rhs[..., 0, 0] = 1.0
    try:
        v = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        # the determinant comes from the same LU factorisation, so it is
        # exactly zero where the solve met a zero pivot
        _, where = _first_failure(np.linalg.det(mat) == 0.0)
        raise SteadyStateError(
            f"steady state is not unique: trace-closed system is singular{where}") from exc
    # a generator too large for float64 overflows its norm or g @ v; the
    # residual test cannot then be made, which fails the matrix
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.linalg.norm(g, axis=(-2, -1))
        residual = np.linalg.norm(g @ v, axis=(-2, -1))
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
    return v[..., 0]


def steady_state(liouvillian: np.ndarray) -> np.ndarray:
    """Unique steady-state density matrix of a Bloch-basis generator, or of each in a stack.

    The singular system G u = 0 is closed by replacing the first row with
    the trace row (1, 1, 1, 0, ..., 0), so tr(rho) = 1. If the replaced
    system is singular or the solution does not satisfy G u ~ 0 (non-unique
    steady state, e.g. a level decoupled by vanishing drive and decay),
    SteadyStateError is raised rather than returning one arbitrary kernel
    vector. So it is when the generator's norm or the residual is not finite
    (a generator too large for float64), since the residual test cannot then
    be made. A complex or wrongly shaped input raises ValueError.

    A stack (..., 9, 9) is closed and solved by one batched real solve and
    gives (..., 3, 3); every matrix passes the residual test on its own, and
    the error names the stack index of the first one that fails. rho is
    built from u, so it is Hermitian exactly.
    """
    u = _bloch_steady_state(liouvillian)
    rho = np.empty(u.shape[:-1] + (_DIM, _DIM), dtype=complex)
    rho.real = u[..., _RHO_REAL]
    rho.imag = _RHO_SIGN * u[..., _RHO_IMAG]
    return rho


def master_equation_reflection(atom: ThreeLevelAtom, Delta_p, Delta_c, Omega_p, Omega_c):
    """Nonperturbative reflection coefficient from the steady state.

    The drive arguments broadcast like build_liouvillian's: scalars give a
    complex, arrays an array over their broadcast shape, solved as one stack.
    A non-finite drive value, a negative amplitude or an Omega_p that is not
    positive raises ValueError before any solve.

    The scattered field is proportional to the lowering-operator expectation;
    normalizing by the probe amplitude gives r = -i (Gamma10 / Omega_p) rho_10,
    with rho_10 = u3 + i u4 read off the solved Bloch vectors.
    """
    liouvillian = build_liouvillian(atom, Delta_p, Delta_c, Omega_p, Omega_c)
    if not (np.asarray(Omega_p) > 0.0).all():
        raise ValueError("Omega_p must be positive to define a reflection")
    u = _bloch_steady_state(liouvillian)
    r = -1j * (atom.Gamma10 / Omega_p) * (u[..., 3] + 1j * u[..., 4])
    return complex(r) if r.ndim == 0 else r


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
    deviation at a point is |r_me - r_wp| / max(|r_wp|, 1e-30), where at a
    dark point, one where the closed form is exactly 0, the atom's two-level
    peak |r| = Gamma10 / (2 gamma10) stands in for |r_wp|: a zero deviation
    then scores 0 and a rounding-level one stays at rounding level. A
    deviation that is not finite makes both maxima NaN and locates the first
    such point.

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
    # scores the dark points; an atom with Gamma10 = 0 reflects nothing and keeps the 1e-30 floor
    peak = atom.Gamma10 / (2.0 * atom.gamma10) if atom.Gamma10 > 0.0 else 0.0
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
        scale = np.abs(r_wp)
        scale[r_wp == 0.0] = peak
        rel = dev / np.maximum(scale, 1e-30)
        top = int(np.argmax(rel))
        if rel[top] > max_rel:
            max_rel = float(rel[top])
            worst = start + top
    i_o, i_c, i_p = np.unravel_index(worst, shape)
    return DeviationReport(max_abs=max_abs, max_rel=max_rel, points=points,
                           worst_Delta_p=float(delta_p[i_p]), worst_Delta_c=float(delta_c[i_c]),
                           worst_Omega_c=float(omega_c[i_o]))
