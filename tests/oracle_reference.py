"""The master-equation oracle's complex column-stacked path, the reference for the real Bloch-basis one.

``textbook_liouvillian`` assembles the column-stacked Liouvillian L of the
``lindblad`` module docstring's H and jump operators with np.kron, and
``reference_reflection`` solves it the way the package did before it moved
to the real Bloch basis: one complex trace-closed solve, a Hermitian
symmetrisation, and r = -i (Gamma10 / Omega_p) rho_10. ``golden_atom_drives``
yields the seeded random atoms and drive arrays whose reflections
``tests/test_golden.py`` pins.
"""

from __future__ import annotations

import math

import numpy as np

from acoustic_eit import ThreeLevelAtom

MHZ = 2.0 * math.pi * 1e6


def textbook_liouvillian(atom, Delta_p, Delta_c, Omega_p, Omega_c):
    """The module docstring's H and jump operators, assembled with np.kron.

    The drive arguments broadcast: scalars give (9, 9), arrays a (..., 9, 9)
    stack, one np.kron over the stack of H.
    """
    dp, dc, op, oc = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (Delta_p, Delta_c, Omega_p, Omega_c)))
    h = np.zeros(dp.shape + (3, 3), dtype=complex)
    h[..., 0, 1] = h[..., 1, 0] = 0.5 * op
    h[..., 1, 1] = -dp
    h[..., 1, 2] = h[..., 2, 1] = 0.5 * oc
    h[..., 2, 2] = -(dp + dc)
    h = h.reshape(-1, 3, 3)
    eye = np.eye(3)
    dissipator = 0
    for row, col, rate in ((0, 1, atom.Gamma10), (1, 2, atom.Gamma21),
                           (1, 1, 2.0 * atom.gphi1), (2, 2, 2.0 * atom.gphi2)):
        if rate > 0.0:
            jump = np.zeros((3, 3), dtype=complex)
            jump[row, col] = np.sqrt(rate)
            jdj = jump.conj().T @ jump
            dissipator = dissipator + (np.kron(jump.conj(), jump)
                                       - 0.5 * np.kron(eye, jdj) - 0.5 * np.kron(jdj.T, eye))
    liouvillian = -1j * (np.kron(eye, h) - np.kron(np.swapaxes(h, -1, -2), eye)) + dissipator
    return liouvillian.reshape(dp.shape + (9, 9))


def reference_steady_state(liouvillians):
    """Steady-state rho (..., 3, 3) of column-stacked Liouvillians (..., 9, 9) by a complex solve.

    The first row is replaced by the trace over the column-stacked diagonal
    (positions 0, 4 and 8), and rho is symmetrised to make it Hermitian.
    """
    mat = np.array(liouvillians, dtype=complex)
    mat[..., 0, :] = 0.0
    mat[..., 0, [0, 4, 8]] = 1.0
    rhs = np.zeros(mat.shape[:-1] + (1,), dtype=complex)
    rhs[..., 0, 0] = 1.0
    v = np.linalg.solve(mat, rhs)[..., 0]
    rho = np.swapaxes(v.reshape(v.shape[:-1] + (3, 3)), -1, -2)
    return 0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))


def reference_reflection(atom, Delta_p, Delta_c, Omega_p, Omega_c):
    """r = -i (Gamma10 / Omega_p) rho_10 over broadcast drive arrays, from the textbook L."""
    coherence = reference_steady_state(textbook_liouvillian(atom, Delta_p, Delta_c, Omega_p, Omega_c))[..., 1, 0]
    return -1j * (atom.Gamma10 / np.asarray(Omega_p, dtype=float)) * coherence


def golden_atom_drives():
    """200 seeded random atoms, some with a zero-rate dephasing channel, each with a (2, 3, 7) drive grid."""
    rng = np.random.Generator(np.random.Philox(23))
    delta_p = np.linspace(-40.0, 40.0, 7) * MHZ
    for i in range(200):
        atom = ThreeLevelAtom(
            omega10=1e9, anharmonicity=1e8,
            Gamma10=float(rng.uniform(0.5, 30.0)) * MHZ,
            Gamma21=float(rng.uniform(0.1, 5.0)) * MHZ,
            gphi1=0.0 if i % 4 == 0 else float(rng.uniform(0.0, 10.0)) * MHZ,
            gphi2=0.0 if i % 3 == 0 else float(rng.uniform(0.0, 10.0)) * MHZ,
        )
        delta_c = float(rng.uniform(-30.0, 30.0)) * MHZ
        omega_p = rng.uniform(0.01, 20.0, (2, 1, 1)) * MHZ
        omega_c = rng.uniform(0.0, 30.0, (3, 1)) * MHZ
        yield atom, (delta_p, delta_c, omega_p, omega_c)
