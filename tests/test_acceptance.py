"""End-to-end acceptance checks.

Each test exercises one headline capability of the package at its stated
tolerance and prints a single pass/fail line so the whole gate can be read
off a plain pytest run. Every criterion is expected to pass.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from acoustic_eit.cli import main
from acoustic_eit.estimation import fit_transmission, samples_from_arrays
from acoustic_eit.experiments import NoiseParams, paper_profile, run_experiment
from acoustic_eit.idt import IdtTransducer, coupling_rate, idt_bandwidth
from acoustic_eit.lindblad import weak_probe_deviation
from acoustic_eit.model import (
    ThreeLevelAtom,
    eit_linewidth,
    group_delay,
    reflection_coefficient,
    transmission_flux_coefficient,
)
from acoustic_eit.poles import Regime, classify_regime, poles_and_decomposition
from acoustic_eit.units import TWO_PI, hz_to_angular
from numdiff import numeric_group_delay

MHZ = hz_to_angular(1.0e6)


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_regime_threshold(capsys):
    decision = classify_regime(21.0 * MHZ, 4.94 * MHZ, 0.0)
    threshold_hz = decision.threshold / TWO_PI
    ok = abs(threshold_hz - 16.06e6) <= 1.0 and abs(threshold_hz - 16.1e6) <= 0.1e6
    _report(capsys, 1, ok,
            f"threshold rabi {threshold_hz / 1e6:.3f} MHz (target 16.06, "
            "published rounding 16.1 +/- 0.1)")
    assert abs(threshold_hz - 16.06e6) <= 1.0
    assert abs(threshold_hz - 16.1e6) <= 0.1e6


def test_criterion_02_idt_bandwidth(capsys):
    device = IdtTransducer(pairs=25, omega_center=hz_to_angular(2.26e9),
                           k2=7.11e-4, capacitance=85e-15)
    bandwidth_hz = idt_bandwidth(device) / TWO_PI
    ok = (bandwidth_hz == pytest.approx(81.36e6, rel=1e-12)
          and abs(bandwidth_hz - 81.0e6) <= 0.5e6)
    _report(capsys, 2, ok,
            f"25-pair transducer bandwidth {bandwidth_hz / 1e6:.2f} MHz "
            "(target 81.36, coarse value 81 +/- 0.5)")
    assert bandwidth_hz == pytest.approx(81.36e6, rel=1e-12)
    assert abs(bandwidth_hz - 81.0e6) <= 0.5e6


def test_criterion_03_coupling_suppression(capsys):
    device = IdtTransducer(pairs=25, omega_center=hz_to_angular(2.26e9),
                           k2=7.11e-4, capacitance=85e-15)
    ratio = (coupling_rate(device, hz_to_angular(2.15e9))
             / coupling_rate(device, hz_to_angular(2.26e9)))
    ok = ratio == pytest.approx(0.027, abs=1e-3) and ratio < 0.1
    _report(capsys, 3, ok,
            f"control-band to probe-band coupling ratio {ratio:.4f} "
            "(target 0.027, suppression > 10x)")
    assert ratio == pytest.approx(0.027, abs=1e-3)
    assert ratio < 0.1


def test_criterion_04_master_equation_oracle(capsys, reflection_atom):
    grid = np.linspace(-50.0, 50.0, 21) * MHZ
    controls = np.array([0.0, 6.1, 30.0]) * MHZ
    start = time.perf_counter()
    report = weak_probe_deviation(reflection_atom, grid, grid, controls)
    elapsed = time.perf_counter() - start
    ok = report.points == 1323 and report.max_rel <= 1e-3 and elapsed < 10.0
    _report(capsys, 4, ok,
            f"analytic vs steady-state reflection: max rel dev "
            f"{report.max_rel:.2e} over {report.points} points in {elapsed:.1f} s "
            "(bound 1e-3, budget 10 s)")
    assert report.points == 1323
    assert report.max_rel <= 1e-3
    assert elapsed < 10.0


def test_criterion_05_linewidth_identity(capsys):
    rng = np.random.Generator(np.random.Philox(12345))
    worst = 0.0
    for _ in range(1000):
        atom = ThreeLevelAtom(
            omega10=hz_to_angular(2.2684e9),
            anharmonicity=hz_to_angular(118.4e6),
            Gamma10=float(rng.uniform(5.0, 40.0)) * MHZ,
            Gamma21=float(rng.uniform(0.1, 5.0)) * MHZ,
            gphi1=float(rng.uniform(0.5, 15.0)) * MHZ,
            gphi2=float(rng.uniform(0.1, 8.0)) * MHZ,
        )
        Omega_c = float(rng.uniform(0.5, 40.0)) * MHZ
        expected = eit_linewidth(atom.gamma10, atom.gamma20, Omega_c)

        # half-depth level of the |r|^2 dip between the detuned baseline
        # and the dip floor; its abscissa is the numerically located HWHM
        def power(delta_c: float) -> float:
            return abs(reflection_coefficient(atom.Gamma10, atom.gamma10, atom.gamma20,
                                              Omega_c, 0.0, delta_c)) ** 2

        floor = power(0.0)
        baseline = (atom.Gamma10 / (2.0 * atom.gamma10)) ** 2
        half_level = 0.5 * (baseline + floor)

        def depth_balance(delta_c: float) -> float:
            return power(delta_c) - half_level

        located = brentq(depth_balance, expected * 1e-9, expected * 1e6, rtol=1e-14)
        worst = max(worst, abs(located - expected) / expected)
    ok = worst <= 1e-6
    _report(capsys, 5, ok,
            f"located dip HWHM vs closed form: worst rel dev {worst:.2e} "
            "across 1000 random draws (bound 1e-6)")
    assert worst <= 1e-6


def test_criterion_06_pipeline_gamma20(capsys):
    base = paper_profile("linewidth-pipeline")
    truth_hz = 4.94e6

    noiseless = run_experiment(base).summary["line_fit"]["gamma20_hz"]
    rel = abs(noiseless - truth_hz) / truth_hz

    hits = 0
    stderrs = []
    for seed in range(100):
        cfg = dataclasses.replace(
            base, noise=NoiseParams(sigma_rel=0.0095, seed=seed))
        line = run_experiment(cfg).summary["line_fit"]
        stderrs.append(line["gamma20_sigma_hz"])
        if abs(line["gamma20_hz"] - truth_hz) <= 3.0 * line["gamma20_sigma_hz"]:
            hits += 1
    mean_err_mhz = float(np.mean(stderrs)) / 1e6
    ok = (rel <= 1e-6 and mean_err_mhz == pytest.approx(0.14, abs=0.005)
          and hits >= 95)
    _report(capsys, 6, ok,
            f"dephasing recovery: noiseless rel dev {rel:.2e} (bound 1e-6); "
            f"noisy mean stderr {mean_err_mhz:.3f} MHz (target 0.14), "
            f"{hits}/100 seeds within 3 sigma (need 95)")
    assert rel <= 1e-6
    assert mean_err_mhz == pytest.approx(0.14, abs=0.005)
    assert hits >= 95


def test_criterion_07_transmission_fit(capsys):
    Gamma10 = 20.1 * MHZ
    gamma10 = 21.0 * MHZ
    gamma20_true = 4.5 * MHZ
    delta_true = 4.0 * MHZ
    crosstalk = 0.05 * np.exp(1j * 1.0)
    detunings = np.linspace(-50.0, 50.0, 201) * MHZ
    rng = np.random.Generator(np.random.Philox(2026))

    labels = []
    boundary_gap = None
    worst_z = 0.0
    for omega_mhz in (6.0, 16.0, 30.0):
        omega_c = omega_mhz * MHZ
        t = transmission_flux_coefficient(
            Gamma10=Gamma10, gamma10=gamma10, gamma20=gamma20_true,
            Omega_c=omega_c, Delta_p=detunings, delta=delta_true)
        clean = t + crosstalk
        sigma = 0.01 * float(np.max(np.abs(clean)))
        noisy = clean + sigma * (rng.standard_normal(detunings.size)
                                 + 1j * rng.standard_normal(detunings.size))
        samples = samples_from_arrays(detunings, noisy, np.full(detunings.size, sigma))
        fit = fit_transmission(samples, gamma10=gamma10, Gamma10=Gamma10)
        assert fit.converged
        for name, truth in (("gamma20", gamma20_true), ("delta", delta_true),
                            ("Omega_c", omega_c)):
            err = fit.error(name)
            assert err > 0.0
            worst_z = max(worst_z, abs(fit.value(name) - truth) / err)
        fitted_threshold = gamma10 - fit.value("gamma20")
        labels.append(
            classify_regime(gamma10, fit.value("gamma20"),
                            fit.value("Omega_c")).regime)
        if omega_mhz == 16.0:
            boundary_gap = (abs(fit.value("Omega_c") - fitted_threshold)
                            / fitted_threshold)

    ok = (worst_z <= 3.0 and labels[0] is Regime.EIT
          and labels[2] is Regime.AUTLER_TOWNES and boundary_gap <= 0.05)
    _report(capsys, 7, ok,
            f"complex transmission fit: worst parameter pull {worst_z:.2f} sigma "
            f"(bound 3); curve labels {[l.value for l in labels]}; middle curve "
            f"sits {boundary_gap * 100:.1f}% from its fitted threshold (bound 5%)")
    assert worst_z <= 3.0
    assert labels[0] is Regime.EIT
    assert labels[2] is Regime.AUTLER_TOWNES
    assert boundary_gap <= 0.05


def test_criterion_08_pole_decomposition(capsys):
    gamma10 = 21.0 * MHZ
    gamma20 = 4.94 * MHZ
    Gamma10 = 20.1 * MHZ
    threshold = gamma10 - gamma20

    below = poles_and_decomposition(gamma10, gamma20, 0.5 * threshold, Gamma10)
    reals_pinned = below.poles[0].real == 0.0 and below.poles[1].real == 0.0

    Omega_c = 30.0 * MHZ
    above = poles_and_decomposition(gamma10, gamma20, Omega_c, Gamma10)
    oracle_roots = np.roots(
        [-4.0, -4.0j * (gamma10 + gamma20), 4.0 * gamma10 * gamma20 + Omega_c**2])
    oracle_split = abs(oracle_roots[0].real - oracle_roots[1].real)
    formula_split = np.sqrt(Omega_c**2 - threshold**2)
    split_rel = abs(above.splitting - oracle_split) / oracle_split
    split_ok = (split_rel <= 1e-12
                and above.splitting == pytest.approx(formula_split, rel=1e-12))

    # splitting -> drive amplitude convergence. At m = Omega_c / threshold the
    # relative deviation is exactly 1 - sqrt(1 - 1/m^2), so the 5% bound holds
    # from m* = 1/sqrt(1 - 0.95^2) = 3.2026 on; m = 3 lies below that edge and
    # must miss the bound by the exact amount.
    bound = 0.05
    m_star = 1.0 / np.sqrt(1.0 - (1.0 - bound)**2)
    deviations = {}
    for multiple in (3.0, 3.5, 4.0, 6.0, 10.0):
        omega = multiple * threshold
        dec = poles_and_decomposition(gamma10, gamma20, omega, Gamma10)
        deviations[multiple] = abs(dec.splitting - omega) / omega
    law_ok = all(dev == pytest.approx(1.0 - np.sqrt(1.0 - 1.0 / m**2), rel=1e-9)
                 for m, dev in deviations.items())
    ordered = list(deviations.values())
    decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    strong = {m: dev for m, dev in deviations.items() if m >= m_star}
    worst_multiple = max(strong, key=strong.get)
    worst_dev = strong[worst_multiple]
    edge_dev = deviations[3.0]
    edge_missed = 3.0 < m_star and edge_dev > bound
    ok = (reals_pinned and split_ok and law_ok and decreasing
          and worst_dev <= bound and edge_missed)
    _report(capsys, 8, ok,
            f"poles: below-threshold real parts pinned at 0 ({reals_pinned}); "
            f"splitting vs quadratic oracle rel dev {split_rel:.2e} (bound 1e-12); "
            f"splitting-to-drive deviation follows 1 - sqrt(1 - 1/m^2) ({law_ok}) "
            f"and decreases with m ({decreasing}); worst {worst_dev * 100:.2f}% "
            f"at {worst_multiple}x threshold for m >= m* = {m_star:.4f} (bound 5%); "
            f"{edge_dev * 100:.2f}% at 3.0x, below m*, misses it ({edge_missed})")
    assert reals_pinned
    assert split_rel <= 1e-12
    assert above.splitting == pytest.approx(formula_split, rel=1e-12)
    assert law_ok, f"deviations {deviations} do not follow 1 - sqrt(1 - 1/m^2)"
    assert decreasing, f"deviations {deviations} do not decrease as m grows"
    assert worst_dev <= bound, (
        f"deviation {worst_dev:.4f} at m = {worst_multiple}x threshold exceeds "
        f"{bound} although m >= m* = {m_star:.4f}")
    assert edge_missed, (
        f"deviation {edge_dev:.4f} at m = 3x threshold meets the {bound} bound "
        f"although 3 < m* = {m_star:.4f}")


def test_criterion_09_group_delay(capsys, reflection_atom):
    drive = (reflection_atom.Gamma10, reflection_atom.gamma10, reflection_atom.gamma20, 12.0 * MHZ, 0.0, 0.0)
    analytic = group_delay(*drive)
    numeric = numeric_group_delay(*drive, 1e-4 * reflection_atom.gamma10)
    rel = abs(numeric - analytic) / abs(analytic)
    ok = analytic > 0.0 and rel <= 1e-6
    _report(capsys, 9, ok,
            f"group delay {analytic * 1e9:.3f} ns > 0 inside the transparency "
            f"window; finite difference agrees to rel {rel:.2e} (bound 1e-6)")
    assert analytic > 0.0
    assert rel <= 1e-6


def test_criterion_10_cli_determinism(capsys, tmp_path):
    overlay = tmp_path / "noise.json"
    overlay.write_text('{"noise": {"sigma_rel": 0.01}}')
    identical = []
    for fmt in ("csv", "json"):
        out = tmp_path / f"run.{fmt}"
        argv = ["simulate", "flux-sweep", "--profile", "paper",
                "--config", str(overlay), "--seed", "7",
                "--out", str(out), "--format", fmt]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        identical.append(out.read_bytes() == first)
    capsys.readouterr()
    ok = all(identical)
    _report(capsys, 10, ok,
            f"seeded reruns byte-identical: csv={identical[0]}, "
            f"json={identical[1]}")
    assert all(identical)


def test_criterion_11_profile_rates_from_transducer(capsys):
    # the transducer's sinc^2 envelope sets both decay rates of the reflection
    # profile; the upper transition's matrix element is twice the lower one's
    # (a transmon's |<2|n|1>|^2 = 2 |<1|n|0>|^2), so it decays at 2 Gamma_a
    device = IdtTransducer(pairs=25, omega_center=hz_to_angular(2.26e9),
                           k2=7.11e-4, capacitance=85e-15)
    profile = paper_profile("linewidth-pipeline").atom
    atom = profile.build()
    lower = coupling_rate(device, atom.omega10) / TWO_PI
    upper = 2.0 * coupling_rate(device, atom.omega21) / TWO_PI
    lower_dev = lower / profile.decay_hz - 1.0
    upper_dev = upper / profile.upper_decay_hz - 1.0
    ok = abs(lower_dev) <= 0.05 and abs(upper_dev) <= 0.05
    _report(capsys, 11, ok,
            f"transducer rates {lower / 1e6:.2f} MHz at omega10 ({lower_dev:+.1%} of Gamma10 = "
            f"{profile.decay_hz / 1e6:.2f}) and 2 Gamma_a = {upper / 1e6:.4f} MHz at omega21 ({upper_dev:+.1e} of "
            f"Gamma21 = {profile.upper_decay_hz / 1e6:.2f}) (bound 5%)")
    assert lower == pytest.approx(19.52e6, abs=0.005e6)
    assert abs(upper_dev) <= 4e-5
    assert abs(lower_dev) <= 0.05 and abs(upper_dev) <= 0.05
