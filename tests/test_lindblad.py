from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from acoustic_eit import (
    DeviationReport,
    SteadyStateError,
    ThreeLevelAtom,
    build_liouvillian,
    master_equation_reflection,
    reflection_coefficient,
    steady_state,
    weak_probe_deviation,
)
from acoustic_eit import lindblad
from acoustic_eit.lindblad import _CHUNK
from oracle_reference import golden_atom_drives, reference_reflection, textbook_liouvillian

MHZ = 2.0 * math.pi * 1e6
WEAK_PROBE = 2.0 * math.pi * 1.0e4
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _random_atom_drive(rng):
    """A random atom and a drive (Delta_p, Delta_c, Omega_p, Omega_c)."""
    atom = ThreeLevelAtom(
        omega10=1e9, anharmonicity=1e8,
        Gamma10=float(rng.uniform(0.5, 30.0)) * MHZ,
        Gamma21=float(rng.uniform(0.1, 5.0)) * MHZ,
        gphi1=float(rng.uniform(0.0, 10.0)) * MHZ,
        gphi2=float(rng.uniform(0.0, 10.0)) * MHZ,
    )
    drive = (
        float(rng.uniform(-30.0, 30.0)) * MHZ,
        float(rng.uniform(-30.0, 30.0)) * MHZ,
        float(rng.uniform(0.01, 20.0)) * MHZ,
        float(rng.uniform(0.01, 30.0)) * MHZ,
    )
    return atom, drive


def _steady_state(atom, Delta_p=0.0, Delta_c=0.0, Omega_p=0.0, Omega_c=0.0):
    return steady_state(build_liouvillian(atom, Delta_p, Delta_c, Omega_p, Omega_c))


def _closed_form(atom, Delta_p, Delta_c, Omega_c):
    return reflection_coefficient(atom.Gamma10, atom.gamma10, atom.gamma20, Omega_c, Delta_p, Delta_c)


# ---------------------------------------------------------------------------
# Generator structure
# ---------------------------------------------------------------------------


# no decay channel: the Liouvillian is the Hamiltonian commutator alone
BARE_ATOM = ThreeLevelAtom(omega10=1e9, anharmonicity=1e8, Gamma10=0.0)


def test_zero_spec_is_zero_map():
    lv = build_liouvillian(BARE_ATOM, 0.0, 0.0, 0.0, 0.0)
    assert lv.shape == (9, 9)
    assert np.all(lv == 0.0)


def test_trace_preservation_random_specs():
    # d tr(rho)/dt = 0: the trace row (1, 1, 1, 0, ..., 0) annihilates G
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(50):
        atom, drive = _random_atom_drive(rng)
        lv = build_liouvillian(atom, *drive)
        trace_row = lv[0] + lv[1] + lv[2]
        assert np.max(np.abs(trace_row)) < 1e-10 * max(np.linalg.norm(lv), 1.0)


# the Bloch basis, written out independently of the module's tables:
# vec(rho) = TO_VEC u for u = (rho00, rho11, rho22, Re rho10, Im rho10,
# Re rho20, Im rho20, Re rho21, Im rho21) and the column-stacked vec(rho),
# which holds rho[r, c] at r + 3c; FROM_VEC takes vec(rho) back to u
TO_VEC = np.zeros((9, 9), dtype=complex)
FROM_VEC = np.zeros((9, 9), dtype=complex)
for _level in range(3):
    TO_VEC[4 * _level, _level] = FROM_VEC[_level, 4 * _level] = 1.0
for _k, (_r, _c) in zip((3, 5, 7), ((1, 0), (2, 0), (2, 1))):
    _lower, _upper = _r + 3 * _c, _c + 3 * _r  # rho_rc = Re + i Im, rho_cr = Re - i Im
    TO_VEC[[_lower, _upper], _k] = 1.0
    TO_VEC[[_lower, _upper], _k + 1] = 1j, -1j
    FROM_VEC[_k, [_lower, _upper]] = 0.5
    FROM_VEC[_k + 1, [_lower, _upper]] = -0.5j, 0.5j


def _bloch(superoperator):
    """T^-1 S T: a column-stacked superoperator in the Bloch basis."""
    return FROM_VEC @ superoperator @ TO_VEC


def test_zero_rate_liouvillian_is_the_hamiltonian_commutator():
    Delta_p, Delta_c, Omega_p, Omega_c = 2.0 * MHZ, -3.0 * MHZ, 0.5 * MHZ, 6.1 * MHZ
    h = np.array([[0.0, 0.5 * Omega_p, 0.0],
                  [0.5 * Omega_p, -Delta_p, 0.5 * Omega_c],
                  [0.0, 0.5 * Omega_c, -(Delta_p + Delta_c)]], dtype=complex)
    eye = np.eye(3)
    lv = build_liouvillian(BARE_ATOM, Delta_p, Delta_c, Omega_p, Omega_c)
    assert lv.dtype == np.float64
    assert np.array_equal(lv, _bloch(-1j * (np.kron(eye, h) - np.kron(h.T, eye))))


def test_liouvillian_equals_the_textbook_construction():
    # G = T^-1 L T bit for bit, with L the textbook kron construction, over
    # random atoms with some channels switched off and over scalar and
    # stacked drives
    pairs = _random_atom_drives(17, 40)
    drives = np.array([drive for _, drive in pairs[:7]]).T
    for k, (atom, drive) in enumerate(pairs):
        atom = replace(atom, **{name: 0.0 for bit, name in enumerate(("Gamma21", "gphi1", "gphi2"))
                                if k >> bit & 1})
        one = build_liouvillian(atom, *drive)
        assert one.dtype == np.float64
        assert np.array_equal(one, _bloch(textbook_liouvillian(atom, *drive)))
        stack = build_liouvillian(atom, *drives)
        assert stack.shape == (7, 9, 9)
        for lv, one in zip(stack, drives.T):
            assert np.array_equal(lv, _bloch(textbook_liouvillian(atom, *one)))


def test_liouvillian_tables_are_read_only():
    for table in (lindblad._DRIVE, lindblad._DISSIPATORS):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


def test_liouvillian_broadcasts_over_drive_arrays(reflection_atom):
    delta_p = np.array([-1.0, 0.5, 2.0]) * MHZ
    omega_c = np.array([[0.0], [6.1 * MHZ]])
    stack = build_liouvillian(reflection_atom, delta_p, 3.0 * MHZ, 0.5 * MHZ, omega_c)
    assert stack.shape == (2, 3, 9, 9)
    for i, j in np.ndindex(2, 3):
        one = build_liouvillian(reflection_atom, delta_p[j], 3.0 * MHZ, 0.5 * MHZ, omega_c[i, 0])
        assert np.array_equal(stack[i, j], one)


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------


def test_ground_state_without_drive(reflection_atom):
    rho = _steady_state(reflection_atom)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(rho, expected, atol=1e-12)


def test_two_level_saturation(reflection_atom):
    rho = _steady_state(reflection_atom, Omega_p=2000.0 * reflection_atom.Gamma10)
    assert rho[0, 0].real == pytest.approx(0.5, abs=1e-3)
    assert rho[1, 1].real == pytest.approx(0.5, abs=1e-3)


def test_two_level_bloch_closed_form():
    # with the control off and |2> draining into |1>, the 0-1 block is the
    # textbook driven two-level atom
    atom = ThreeLevelAtom(omega10=1e9, anharmonicity=1e8, Gamma10=8.0 * MHZ,
                          Gamma21=1.0 * MHZ, gphi1=2.5 * MHZ, gphi2=0.7 * MHZ)
    for dp, op in ((0.0, 2.0 * MHZ), (5.0 * MHZ, 7.0 * MHZ), (-12.0 * MHZ, 0.3 * MHZ)):
        rho = _steady_state(atom, Delta_p=dp, Omega_p=op)
        g10 = atom.gamma10
        expected = (op**2 * g10 / (2.0 * atom.Gamma10)) / (
            dp**2 + g10**2 + op**2 * g10 / atom.Gamma10)
        assert rho[1, 1].real == pytest.approx(expected, rel=1e-12)
        assert abs(rho[2, 2]) < 1e-14


def test_decoupled_level_has_no_unique_steady_state():
    # |2> neither driven nor decaying: its population is conserved
    atom = ThreeLevelAtom(omega10=1e9, anharmonicity=1e8, Gamma10=8.0 * MHZ,
                          Gamma21=0.0, gphi1=2.5 * MHZ, gphi2=0.0)
    with pytest.raises(SteadyStateError):
        _steady_state(atom, Omega_p=1.0 * MHZ)


def test_steady_state_shape_validation(reflection_atom):
    with pytest.raises(ValueError, match="9x9"):
        steady_state(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="9x9"):
        steady_state(np.zeros(9))
    # a complex matrix is not a Bloch-basis generator, however it is shaped
    lv = build_liouvillian(reflection_atom, 0.0, 0.0, WEAK_PROBE, 6.1 * MHZ)
    for bad in (lv.astype(complex), np.zeros((4, 9, 9), dtype=complex)):
        with pytest.raises(ValueError, match="real"):
            steady_state(bad)


def test_random_steady_states_are_physical():
    rng = np.random.Generator(np.random.Philox(42))
    for _ in range(1000):
        atom, drive = _random_atom_drive(rng)
        rho = steady_state(build_liouvillian(atom, *drive))
        assert np.linalg.norm(rho - rho.conj().T) <= 1e-10
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_real_solve_agrees_with_the_complex_kron_path():
    # the move from a complex solve of the column-stacked L to a real solve
    # of G is rounding-level: on the golden digest's seeded atoms and drive
    # grids the reflections agree to 1e-13 relative, and every steady state
    # is Hermitian exactly, with trace 1 to rounding
    for atom, drive in golden_atom_drives():
        r = master_equation_reflection(atom, *drive)
        reference = reference_reflection(atom, *drive)
        assert np.all(np.abs(r - reference) <= 1e-13 * np.abs(reference))
        rho = steady_state(build_liouvillian(atom, *drive))
        assert np.array_equal(rho, np.swapaxes(rho.conj(), -1, -2))
        assert np.all(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0) <= 1e-14)


# ---------------------------------------------------------------------------
# Reflection
# ---------------------------------------------------------------------------


def test_weak_probe_two_level_reflection(reflection_atom):
    # weak resonant probe with the control off: r -> -Gamma10/(2*gamma10)
    r = master_equation_reflection(reflection_atom, 0.0, 0.0, 1e-4 * reflection_atom.gamma10, 0.0)
    expected = -reflection_atom.Gamma10 / (2.0 * reflection_atom.gamma10)
    assert r == pytest.approx(expected, rel=1e-3)


def test_weak_probe_operating_point(reflection_atom):
    r_me = master_equation_reflection(reflection_atom, 0.0, 0.0, WEAK_PROBE, 6.1 * MHZ)
    r_wp = _closed_form(reflection_atom, 0.0, 0.0, 6.1 * MHZ)
    assert abs(r_me - r_wp) / abs(r_wp) < 1e-3
    assert r_me.real == pytest.approx(-0.4391888006723136, rel=1e-3)


def test_saturated_probe_kills_reflection(reflection_atom):
    r = master_equation_reflection(reflection_atom, 0.0, 0.0, 2000.0 * reflection_atom.Gamma10, 0.0)
    assert abs(r) < 1e-3


def test_master_equation_reflection_broadcasts_its_drive(reflection_atom):
    delta_p = np.array([-4.0, 0.0, 7.5]) * MHZ
    omega_c = np.array([[0.0], [6.1 * MHZ]])
    grid = master_equation_reflection(reflection_atom, delta_p, -2.0 * MHZ, WEAK_PROBE, omega_c)
    assert grid.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        one = master_equation_reflection(reflection_atom, delta_p[j], -2.0 * MHZ, WEAK_PROBE, omega_c[i, 0])
        assert isinstance(one, complex)
        assert grid[i, j] == pytest.approx(one, rel=1e-12, abs=1e-15)
    probes = np.array([1.0, 2.0]) * WEAK_PROBE
    both = master_equation_reflection(reflection_atom, 0.0, 0.0, probes, 6.1 * MHZ)
    assert both == pytest.approx([master_equation_reflection(reflection_atom, 0.0, 0.0, p, 6.1 * MHZ)
                                  for p in probes], rel=1e-12)


@pytest.mark.parametrize("drive, message", [
    ((math.inf, 0.0, WEAK_PROBE, 0.0), "finite"),
    ((0.0, math.nan, WEAK_PROBE, 0.0), "finite"),
    ((0.0, 0.0, math.inf, 0.0), "finite"),
    ((np.array([0.0, math.inf]), 0.0, WEAK_PROBE, 6.1 * MHZ), "finite"),
    ((0.0, 0.0, -WEAK_PROBE, 0.0), "nonnegative"),
    ((0.0, 0.0, WEAK_PROBE, np.array([6.1 * MHZ, -1.0])), "nonnegative"),
    ((0.0, 0.0, 0.0, 6.1 * MHZ), "positive"),
    # the sign is checked before the amplitudes are halved: 0.5 * -5e-324 is -0.0
    ((0.0, 0.0, -5e-324, 0.0), "nonnegative"),
    ((0.0, 0.0, WEAK_PROBE, -5e-324), "nonnegative"),
    # each detuning is finite, but the two-photon term -(Delta_p + Delta_c) overflows
    ((1e308, 1e308, WEAK_PROBE, 0.0), "finite"),
], ids=["probe-detuning-inf", "control-detuning-nan", "probe-rabi-inf", "probe-detuning-array-inf",
        "probe-rabi-negative", "control-rabi-array-negative", "probe-rabi-zero",
        "probe-rabi-tiniest-negative", "control-rabi-tiniest-negative", "detuning-sum-overflows"])
def test_master_equation_reflection_rejects_bad_drive_before_solving(reflection_atom, monkeypatch, drive, message):
    def no_solve(liouvillian):
        raise AssertionError("a bad drive reached the steady-state solve")

    monkeypatch.setattr(lindblad, "_bloch_steady_state", no_solve)
    with pytest.raises(ValueError, match=message), np.errstate(over="ignore"):
        master_equation_reflection(reflection_atom, *drive)


# ---------------------------------------------------------------------------
# Weak-probe deviation harness
# ---------------------------------------------------------------------------


def test_weak_probe_deviation_small_probe(reflection_atom):
    dp = np.linspace(-30.0, 30.0, 5) * MHZ
    dc = [0.0]
    oc = [0.0, 6.1 * MHZ, 30.0 * MHZ]
    report = weak_probe_deviation(reflection_atom, dp, dc, oc,
                                  Omega_p=1e-4 * reflection_atom.gamma10)
    assert report.points == 15
    assert report.max_rel <= 1e-3


def test_weak_probe_deviation_strong_probe_breaks(reflection_atom):
    dp = [0.0]
    dc = [0.0]
    oc = [6.1 * MHZ]
    strong = weak_probe_deviation(reflection_atom, dp, dc, oc,
                                  Omega_p=reflection_atom.gamma10)
    assert strong.max_rel >= 1e-2
    weaker = weak_probe_deviation(reflection_atom, dp, dc, oc,
                                  Omega_p=0.1 * reflection_atom.gamma10)
    assert weaker.max_rel < strong.max_rel


@pytest.mark.parametrize("rates", [{}, {"Gamma21": 0.0, "gphi2": 0.0}, {"gphi1": 0.0, "gphi2": 30.0 * MHZ}],
                         ids=["gamma20-smaller", "gamma20-zero", "gamma10-smaller"])
def test_weak_probe_deviation_derives_its_probe_from_the_atom(reflection_atom, monkeypatch, rates):
    atom = replace(reflection_atom, **rates)
    positive = [rate for rate in (atom.gamma10, atom.gamma20) if rate > 0.0]
    dp = np.linspace(-30.0, 30.0, 5) * MHZ
    dc = [-10.0 * MHZ, 0.0]
    oc = [6.1 * MHZ, 30.0 * MHZ]  # a control couples |2> in, also where it does not decay
    report = weak_probe_deviation(atom, dp, dc, oc)
    assert report == weak_probe_deviation(atom, dp, dc, oc, Omega_p=1e-6 * min(positive))
    assert report.max_rel <= 1e-10
    if atom.gamma20 == 0.0:
        # Delta_p = Delta_c = 0 is the exact dark state: the closed form is 0
        # there, so a deviation is scored against the two-level peak
        # |r| = Gamma10 / (2 gamma10), and no deviation scores 0
        assert reflection_coefficient(atom.Gamma10, atom.gamma10, 0.0, 6.1 * MHZ, 0.0, 0.0) == 0.0
        solve = lindblad.master_equation_reflection
        for offset in (0.0, 1e-13):
            with monkeypatch.context() as patch:
                patch.setattr(lindblad, "master_equation_reflection", lambda *args: solve(*args) + offset)
                dark = weak_probe_deviation(atom, [0.0], [0.0], [6.1 * MHZ])
            assert dark.max_rel == pytest.approx(offset * 2.0 * atom.gamma10 / atom.Gamma10, rel=1e-2, abs=1e-15)


def test_weak_probe_deviation_needs_a_positive_coherence_rate(monkeypatch):
    atom = ThreeLevelAtom(omega10=1e9, anharmonicity=1e8, Gamma10=0.0)
    monkeypatch.setattr(lindblad, "master_equation_reflection", lambda *args: pytest.fail("solved"))
    with pytest.raises(ValueError, match="positive gamma10 or gamma20"):
        weak_probe_deviation(atom, [0.0], [0.0], [6.1 * MHZ])


def test_weak_probe_deviation_rejects_empty_grid(reflection_atom):
    with pytest.raises(ValueError):
        weak_probe_deviation(reflection_atom, [], [0.0], [0.0])
    with pytest.raises(ValueError):
        weak_probe_deviation(reflection_atom, [0.0], [0.0], [])
    with pytest.raises(ValueError):
        weak_probe_deviation(reflection_atom, [0.0], [0.0], [6.1 * MHZ], Omega_p=0.0)


def _reference_deviation(atom, dp_values, dc_values, oc_values, Omega_p):
    """Point-by-point oracle, Omega_c outer and Delta_p inner: the loop the
    batched weak_probe_deviation replaces."""
    max_abs = max_rel = 0.0
    worst = (dp_values[0], dc_values[0], oc_values[0])
    for oc in oc_values:
        for dc in dc_values:
            for dp in dp_values:
                r_wp = _closed_form(atom, float(dp), float(dc), float(oc))
                dev = abs(master_equation_reflection(atom, float(dp), float(dc), Omega_p, float(oc)) - r_wp)
                rel = dev / max(abs(r_wp), 1e-30)
                max_abs = max(max_abs, dev)
                if rel > max_rel:
                    max_rel, worst = rel, (float(dp), float(dc), float(oc))
    return max_abs, max_rel, worst


def test_batched_deviation_matches_point_loop():
    rng = np.random.Generator(np.random.Philox(7))
    # the last grid (11 x 10 x 10 = 1100 points) spans two chunks
    for shape in ((7, 4, 3), (5, 3, 2), (1, 1, 1), (6, 5, 4), (10, 10, 11)):
        atom, _ = _random_atom_drive(rng)
        n_p, n_c, n_o = shape
        dp = rng.uniform(-50.0, 50.0, n_p) * MHZ
        dc = rng.uniform(-50.0, 50.0, n_c) * MHZ
        oc = rng.uniform(0.0, 40.0, n_o) * MHZ
        report = weak_probe_deviation(atom, dp, dc, oc, Omega_p=WEAK_PROBE)
        max_abs, max_rel, worst = _reference_deviation(atom, dp, dc, oc, WEAK_PROBE)
        assert report.points == n_p * n_c * n_o
        assert (report.worst_Delta_p, report.worst_Delta_c, report.worst_Omega_c) == worst
        assert report.max_abs == pytest.approx(max_abs, rel=1e-8)
        assert report.max_rel == pytest.approx(max_rel, rel=1e-8)


def test_deviation_grid_with_decoupled_point_raises():
    # Omega_c = 0 with Gamma21 = gphi2 = 0 leaves |2> decoupled (see
    # test_decoupled_level_has_no_unique_steady_state); Omega_c outermost puts
    # its first point at stack index 3 * 2 = 6
    atom = ThreeLevelAtom(omega10=1e9, anharmonicity=1e8, Gamma10=8.0 * MHZ,
                          Gamma21=0.0, gphi1=2.5 * MHZ, gphi2=0.0)
    dp = [-5.0 * MHZ, 0.0, 5.0 * MHZ]
    dc = [0.0, 2.0 * MHZ]
    with pytest.raises(SteadyStateError, match=r"stack index 6$"):
        weak_probe_deviation(atom, dp, dc, [6.1 * MHZ, 0.0], Omega_p=1.0 * MHZ)


def test_multi_chunk_grid_is_max_over_control_slices(reflection_atom):
    grid = np.linspace(-50.0, 50.0, 21) * MHZ
    controls = np.array([0.0, 6.1, 30.0]) * MHZ
    full = weak_probe_deviation(reflection_atom, grid, grid, controls)
    parts = [weak_probe_deviation(reflection_atom, grid, grid, [oc]) for oc in controls]
    assert full.points == 1323 > _CHUNK
    assert full.max_abs == max(p.max_abs for p in parts)
    assert full.max_rel == max(p.max_rel for p in parts)
    worst = max(parts, key=lambda p: p.max_rel)
    assert full[3:] == worst[3:]


def test_deviation_that_is_not_finite_is_nan(reflection_atom):
    # Omega_p = 2 pi 1e-320 rad/s: Gamma10 / Omega_p overflows, so every
    # master-equation value is NaN, which max() and > would drop as agreement
    grid = np.array([-5.0, 0.0, 5.0]) * MHZ
    with np.errstate(invalid="ignore"):
        report = weak_probe_deviation(reflection_atom, grid, grid, [0.0, 6.1 * MHZ],
                                      Omega_p=2.0 * math.pi * 1e-320)
    assert math.isnan(report.max_abs) and math.isnan(report.max_rel)
    assert report[3:] == (grid[0], grid[0], 0.0)


def test_deviation_locates_the_first_point_that_is_not_finite(reflection_atom, monkeypatch):
    # an inf and then a NaN in the second chunk, after the finite deviations
    # of the first: both maxima are NaN, and the worst point is the inf
    grid = np.linspace(-50.0, 50.0, 21) * MHZ
    controls = np.array([0.0, 6.1, 30.0]) * MHZ
    solve = lindblad.master_equation_reflection
    chunks = []

    def spoiled(*args):
        r = solve(*args)
        if chunks:
            r[[1100 - _CHUNK, 1200 - _CHUNK]] = [math.inf, math.nan]
        chunks.append(r)
        return r

    monkeypatch.setattr(lindblad, "master_equation_reflection", spoiled)
    report = weak_probe_deviation(reflection_atom, grid, grid, controls)
    assert math.isnan(report.max_abs) and math.isnan(report.max_rel)
    i_o, i_c, i_p = np.unravel_index(1100, (3, 21, 21))
    assert report[3:] == (grid[i_p], grid[i_c], controls[i_o])


def test_deviation_memory_is_bounded_by_the_chunk(reflection_atom):
    axis = np.linspace(-40.0, 40.0, 20) * MHZ
    controls = np.linspace(0.0, 30.0, 20) * MHZ
    full_stack_bytes = 8000 * 81 * 16
    weak_probe_deviation(reflection_atom, axis[:2], axis[:2], controls[:2])
    tracemalloc.start()
    try:
        report = weak_probe_deviation(reflection_atom, axis, axis, controls)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.points == 8000
    assert peak < full_stack_bytes


def test_deviation_report_positional_construction():
    report = DeviationReport(1e-7, 2e-7, 15)
    assert (report.max_abs, report.max_rel, report.points) == (1e-7, 2e-7, 15)
    assert all(math.isnan(v) for v in report[3:])


def test_weak_probe_deviation_rejects_bad_axes(reflection_atom):
    with pytest.raises(ValueError, match="nonnegative"):
        weak_probe_deviation(reflection_atom, [0.0], [0.0], [-1.0])
    with pytest.raises(ValueError, match="finite"):
        weak_probe_deviation(reflection_atom, [math.nan], [0.0], [0.0])
    with pytest.raises(ValueError, match="finite"):
        weak_probe_deviation(reflection_atom, [0.0], [0.0], [0.0], Omega_p=math.inf)


# ---------------------------------------------------------------------------
# Batched generator and solver
# ---------------------------------------------------------------------------


def _random_atom_drives(seed, count):
    rng = np.random.Generator(np.random.Philox(seed))
    return [_random_atom_drive(rng) for _ in range(count)]


def _random_liouvillians(seed, count):
    return np.stack([build_liouvillian(atom, *drive) for atom, drive in _random_atom_drives(seed, count)])


def test_stacked_steady_states_match_single_solves():
    lvs = _random_liouvillians(5, 60)
    singles = np.stack([steady_state(lv) for lv in lvs])
    stacked = steady_state(lvs)
    assert stacked.shape == (60, 3, 3)
    np.testing.assert_allclose(stacked, singles, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(steady_state(lvs.reshape(6, 10, 9, 9)),
                               singles.reshape(6, 10, 3, 3), rtol=0.0, atol=1e-14)


def test_stacked_liouvillian_matches_single_builds():
    pairs = _random_atom_drives(9, 20)
    atom = pairs[0][0]
    drives = np.array([drive for _, drive in pairs]).T
    singles = np.stack([build_liouvillian(atom, *drive) for _, drive in pairs])
    assert np.array_equal(build_liouvillian(atom, *drives), singles)
    assert build_liouvillian(atom, *drives.reshape(4, 4, 5)).shape == (4, 5, 9, 9)
    with pytest.raises(ValueError):
        build_liouvillian(atom, np.zeros(4), np.zeros(3), 0.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        build_liouvillian(atom, math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        build_liouvillian(atom, 0.0, 0.0, 0.0, -1.0)


def test_steady_state_names_failing_stack_index():
    lvs = _random_liouvillians(3, 5)
    lvs[3, 0, 0] += 1e3 * np.linalg.norm(lvs[3])
    lvs[4, 0, 0] += 1e3 * np.linalg.norm(lvs[4])
    with pytest.raises(SteadyStateError, match=r"liouvillian norm at stack index 3$"):
        steady_state(lvs)
    with pytest.raises(SteadyStateError, match=r"liouvillian norm$"):
        steady_state(lvs[3])
    with pytest.raises(SteadyStateError, match=r"at stack index \(1, 0\)$"):
        steady_state(lvs[1:].reshape(2, 2, 9, 9))


def test_steady_state_of_an_overflowing_liouvillian_raises_without_warning(reflection_atom):
    # entries near float64's limit: the norm and lv @ v overflow, so the
    # residual test cannot be made and must not pass by comparing with inf
    huge = 6e307
    lvs = np.stack([build_liouvillian(reflection_atom, *drive)
                    for drive in ((0.0, 0.0, WEAK_PROBE, MHZ), (huge, huge, WEAK_PROBE, MHZ), (huge, 0.0, huge, huge))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lv, where in ((lvs[1], ""), (lvs[2], ""), (lvs, " at stack index 1")):
            with pytest.raises(SteadyStateError, match=rf"liouvillian norm or residual is not finite{where}$"):
                steady_state(lv)
        assert steady_state(lvs[0]).shape == (3, 3)


_NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from acoustic_eit import cli

assert cli.main(["oracle", "check"]) == 0
assert cli.main(["simulate", "power-sweep", "--profile", "paper", "--out", sys.argv[1]]) == 0
"""


def test_runtime_runs_without_scipy(tmp_path):
    # the package and the CLI need numpy alone; scipy is a test extra
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path / "power.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "oracle check passed" in out.stdout
    assert "wrote 41 rows" in out.stdout


# ---------------------------------------------------------------------------
# Decay rates of the jump operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("decay", ["all-channels", "probe-decay-only"])
def test_coherence_decay_rates(reflection_atom, decay):
    # without drive the real and the imaginary part of each coherence rho_ij
    # are eigenvectors of G: each decays on its own, at the coherence rate,
    # which is zero where every channel feeding it has zero rate
    atom = reflection_atom if decay == "all-channels" else replace(
        reflection_atom, Gamma21=0.0, gphi1=0.0, gphi2=0.0)
    lv = build_liouvillian(atom, 0.0, 0.0, 0.0, 0.0)
    for first, rate in ((3, atom.gamma10), (5, atom.gamma20), (7, atom.gamma21)):
        for k in (first, first + 1):  # Re rho_ij, Im rho_ij
            coherence = np.zeros(9)
            coherence[k] = 1.0
            np.testing.assert_allclose(lv @ coherence, -rate * coherence, rtol=1e-14, atol=0.0)
