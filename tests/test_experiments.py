from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acoustic_eit import experiments, model
from acoustic_eit import (
    ConfigError,
    ConvergenceError,
    RankError,
    classify_regime,
    dbm_to_watts,
    eit_linewidth,
    hz_to_angular,
    reflection_coefficient,
)
from acoustic_eit.experiments import (
    AtomParams,
    CalibrationParams,
    ExperimentConfig,
    GridSpec,
    NoiseParams,
    RunResult,
    export_result,
    import_csv,
    merge_config_dicts,
    paper_profile,
    resolve_config,
    result_text,
    run_experiment,
    synthesize_noise,
    table_chunks,
    write_table,
)
from textdiff import assert_same_text


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_grid_spec_values():
    grid = GridSpec(start=0.0, stop=10.0, count=5)
    assert np.array_equal(grid.values(), np.array([0.0, 2.5, 5.0, 7.5, 10.0]))
    single = GridSpec(start=3.0, stop=3.0, count=1)
    assert np.array_equal(single.values(), np.array([3.0]))


def test_grid_spec_repeated_setpoint_allowed():
    grid = GridSpec(start=-50.0, stop=-50.0, count=3)
    assert np.array_equal(grid.values(), np.full(3, -50.0))


def test_grid_spec_validation():
    with pytest.raises(ConfigError):
        GridSpec(start=0.0, stop=1.0, count=0)
    with pytest.raises(ConfigError):
        GridSpec(start=float("nan"), stop=1.0, count=3)
    data = paper_profile("power-sweep").to_dict()
    data["power_grid"] = {"start": 0.0, "stop": 1.0}
    with pytest.raises(ConfigError, match=r"^power_grid needs start, stop, and count$"):
        ExperimentConfig.from_dict(data)
    data["power_grid"] = {"start": 0.0, "stop": 1.0, "count": 3, "step": 1}
    with pytest.raises(ConfigError, match=r"^power_grid has unknown keys: \['step'\]$"):
        ExperimentConfig.from_dict(data)
    data["power_grid"] = {"start": 0.0, "stop": 1.0, "count": True}
    with pytest.raises(ConfigError, match=r"^power_grid.count must be an integer$"):
        ExperimentConfig.from_dict(data)


def test_param_builders_wrap_domain_errors():
    with pytest.raises(ConfigError):
        AtomParams(frequency_hz=2.2684e9, anharmonicity_hz=118.4e6,
                   decay_hz=-1.0).build()
    with pytest.raises(ConfigError):
        CalibrationParams(k_hz2_per_watt=1.0, anchor_power_dbm=-45.0,
                          anchor_rabi_hz=16.06e6).build()
    with pytest.raises(ConfigError):
        CalibrationParams(anchor_power_dbm=-45.0).build()
    with pytest.raises(ConfigError):
        NoiseParams(sigma_rel=-0.1)
    with pytest.raises(ConfigError):
        NoiseParams(kind="additive")
    # an int too large for a float is out of range, not an OverflowError
    flux = paper_profile("flux-sweep")
    for build, message in [
        (lambda: GridSpec(10**400, 1.0, 3), "grid start/stop must be finite numbers"),
        (lambda: NoiseParams(sigma_rel=10**400), "noise.sigma_rel must be >= 0"),
        (lambda: replace(flux, control_rabi_hz=(10**400,)), "control_rabi_hz values must be finite and nonnegative"),
        (lambda: replace(flux, scale=10**400), "scale must be positive"),
        (lambda: AtomParams(frequency_hz=10**400, anharmonicity_hz=1e8, decay_hz=1e7).build(),
         "invalid atom parameters: int too large to convert to float"),
    ]:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build()


def test_calibration_k_is_bit_exact_for_both_forms():
    two_pi = 2.0 * math.pi
    anchor = CalibrationParams(anchor_power_dbm=-45.0, anchor_rabi_hz=16.06e6).build()
    assert type(anchor) is float
    assert anchor == (two_pi * 16.06e6) ** 2 / dbm_to_watts(-45.0)
    assert anchor == paper_profile("power-sweep").calibration.build()
    direct = CalibrationParams(k_hz2_per_watt=_ANCHOR_K_HZ2_PER_WATT).build()
    assert type(direct) is float
    assert direct == _ANCHOR_K_HZ2_PER_WATT * two_pi**2


def test_pipeline_power_grid_that_underflows_to_zero_watts_is_config_error():
    # dbm_to_watts is 0.0 below about -3206 dBm, where log10 of the power fails
    data = {**paper_profile("linewidth-pipeline").to_dict(),
            "power_grid": {"start": -45.0, "stop": -3300.0, "count": 5}}
    with pytest.raises(ConfigError, match=r"^linewidth-pipeline power_grid starts at -3300 dBm, which is 0 W"):
        ExperimentConfig.from_dict(data)
    data["power_grid"]["stop"] = -3000.0
    assert ExperimentConfig.from_dict(data).power_grid.stop == -3000.0
    # in a sweep 0 W is just a control amplitude of 0
    sweep = {**paper_profile("power-sweep").to_dict(), "power_grid": {"start": -3300.0, "stop": -45.0, "count": 5}}
    assert run_experiment(ExperimentConfig.from_dict(sweep)).data["control_power_dbm"][0] == -3300.0


def test_config_round_trip_through_dict():
    for scheme in ("control-sweep", "power-sweep", "flux-sweep", "linewidth-pipeline"):
        cfg = paper_profile(scheme)
        rebuilt = ExperimentConfig.from_dict(cfg.to_dict())
        assert rebuilt.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_keys_and_bad_version():
    data = paper_profile("power-sweep").to_dict()
    data["bogus"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)
    data = paper_profile("power-sweep").to_dict()
    data["schema_version"] = 99
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)


def test_config_scheme_requirements():
    atom = AtomParams(frequency_hz=2.2684e9, anharmonicity_hz=118.4e6, decay_hz=20.1e6)
    with pytest.raises(ConfigError):
        ExperimentConfig(scheme="mystery-sweep", atom=atom).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(scheme="control-sweep", atom=atom).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(scheme="flux-sweep", atom=atom,
                         probe_detuning_grid=GridSpec(-1e6, 1e6, 11)).validate()


_CAP = experiments._MAX_POINTS


def _grid_config(scheme: str, rows: int, points_per_row: int) -> ExperimentConfig:
    """The scheme's profile with a grid of rows x points_per_row points."""
    cfg = paper_profile(scheme)
    if scheme == "flux-sweep":
        return replace(cfg, control_rabi_hz=(6.0e6,) * rows,
                       probe_detuning_grid=replace(cfg.probe_detuning_grid, count=points_per_row))
    if scheme == "power-sweep":
        return replace(cfg, power_grid=replace(cfg.power_grid, count=rows * points_per_row))
    return replace(cfg, power_grid=replace(cfg.power_grid, count=rows),
                   control_frequency_grid=replace(cfg.control_frequency_grid, count=points_per_row))


@pytest.mark.parametrize("scheme,at_cap,over_cap", [
    ("control-sweep", (2, _CAP // 2), (1, _CAP + 1)),
    ("power-sweep", (1, _CAP), (1, _CAP + 1)),
    ("flux-sweep", (2, _CAP // 2), (3, (_CAP + 1) // 3)),
    ("linewidth-pipeline", (5, _CAP // 5), (3, (_CAP + 1) // 3)),
])
def test_grid_point_cap(scheme, at_cap, over_cap):
    # configs only: no grid of this size is ever built
    assert _CAP % 10 == 0 and (_CAP + 1) % 3 == 0
    assert _grid_config(scheme, *at_cap).scheme == scheme
    with pytest.raises(ConfigError, match=rf"^{scheme} grid has {_CAP + 1} points; the limit is {_CAP}$"):
        _grid_config(scheme, *over_cap)


def test_merge_config_dicts_is_recursive():
    base = {"a": 1, "nested": {"x": 1, "y": 2}}
    overlay = {"nested": {"y": 3}, "b": 4}
    merged = merge_config_dicts(base, overlay)
    assert merged == {"a": 1, "nested": {"x": 1, "y": 3}, "b": 4}
    assert base["nested"] == {"x": 1, "y": 2}


def test_resolve_config_profile_and_overrides(tmp_path):
    cfg = resolve_config("power-sweep", profile="paper", seed=7)
    assert cfg.noise.seed == 7
    profile = paper_profile("power-sweep")
    assert cfg == replace(profile, noise=replace(profile.noise, seed=7))

    overlay_path = tmp_path / "overlay.json"
    overlay_path.write_text(json.dumps({"noise": {"sigma_rel": 0.01, "seed": 3}}))
    merged = resolve_config("power-sweep", profile="paper", config_path=overlay_path)
    assert merged.noise.sigma_rel == 0.01
    assert merged.noise.seed == 3

    conflict = tmp_path / "conflict.json"
    conflict.write_text(json.dumps({"scheme": "flux-sweep"}))
    with pytest.raises(ConfigError):
        resolve_config("power-sweep", profile="paper", config_path=conflict)

    with pytest.raises(ConfigError):
        resolve_config("power-sweep")
    with pytest.raises(ConfigError):
        resolve_config("power-sweep", profile="unknown")


# ---------------------------------------------------------------------------
# Records and noise
# ---------------------------------------------------------------------------


def test_sweep_record_validation():
    flux = paper_profile("flux-sweep")
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict(
            {**flux.to_dict(), "probe_detuning_grid": {"start": -1e308, "stop": 1e308, "count": 3}}))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict({**paper_profile("power-sweep").to_dict(),
                                                   "probe_detuning_hz": 1e308}))


def test_noise_zero_sigma_is_identity():
    values = np.array([complex(i, -i) for i in range(5)])
    assert np.array_equal(synthesize_noise(values, 0.0, seed=1), values)


def test_noise_is_deterministic_per_seed():
    values = np.full(100, 1.0 + 0.0j)
    a = synthesize_noise(values, 0.02, seed=42)
    b = synthesize_noise(values, 0.02, seed=42)
    c = synthesize_noise(values, 0.02, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_sample_sigma_matches_nominal():
    n = 10_000
    values = np.full(n, 1.0 + 0.0j)
    noisy = synthesize_noise(values, 0.02, seed=2026)
    deviations = noisy - 1.0
    # nominal per-quadrature sigma is 0.02 * max|value| = 0.02
    assert np.std(deviations.real) == pytest.approx(0.02, rel=0.05)
    assert np.std(deviations.imag) == pytest.approx(0.02, rel=0.05)


def test_noise_magnitude_kind_scales_values():
    values = np.full(2000, 2.0 + 1.0j)
    noisy = synthesize_noise(values, 0.01, seed=5, kind="magnitude")
    factors = noisy / (2.0 + 1.0j)
    assert np.allclose(factors.imag, 0.0, atol=1e-12)
    assert np.std(factors.real) == pytest.approx(0.01, rel=0.1)


def test_noise_validation():
    values = np.array([1.0 + 0.0j])
    with pytest.raises(ValueError):
        synthesize_noise(values, -0.1, seed=0)
    with pytest.raises(ValueError):
        synthesize_noise(values, 0.1, seed=0, kind="bogus")


# ---------------------------------------------------------------------------
# Control sweep
# ---------------------------------------------------------------------------


def test_zero_control_row_is_flat():
    atom = paper_profile("control-sweep").atom.build()
    delta_c = hz_to_angular(np.linspace(2.10e9, 2.20e9, 11)) - atom.omega21
    row = reflection_coefficient(atom.Gamma10, atom.gamma10, atom.gamma20,
                                 Omega_c=0.0, Delta_p=0.0, Delta_c=delta_c)
    expected = atom.Gamma10 / (2.0 * atom.gamma10)
    assert np.allclose(np.abs(row), expected, rtol=1e-12)
    assert float(np.ptp(np.abs(row))) < 1e-12


def _count_calls(monkeypatch, module, name: str, counts: Counter) -> None:
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("scheme", ["control-sweep", "power-sweep", "flux-sweep", "linewidth-pipeline"])
def test_each_run_makes_one_kernel_call(monkeypatch, scheme):
    counts: Counter = Counter()
    for name in ("reflection_coefficient", "transmission_flux_coefficient"):
        _count_calls(monkeypatch, experiments, name, counts)
    _count_calls(monkeypatch, model, "_kernel", counts)
    run_experiment(paper_profile(scheme))
    entry = "transmission_flux_coefficient" if scheme == "flux-sweep" else "reflection_coefficient"
    assert counts == Counter({entry: 1, "_kernel": 1})


def test_control_sweep_dip_deepens_and_broadens():
    result = run_experiment(paper_profile("control-sweep"))
    freqs = paper_profile("control-sweep").control_frequency_grid.values()
    powers = paper_profile("control-sweep").power_grid.values()
    rows = {}
    for power, mag in zip(result.data["control_power_dbm"], result.data["abs"]):
        rows.setdefault(power, []).append(mag)
    assert len(rows) == len(powers)
    dip_mins = []
    widths = []
    for power in powers:
        mags = np.array(rows[power])
        i_min = int(np.argmin(mags))
        # the transparency window sits at the 1-2 transition frequency
        assert abs(freqs[i_min] - 2.15e9) < 3e6
        dip_mins.append(float(mags[i_min]))
        flat = float(np.max(mags))
        widths.append(int(np.count_nonzero(mags < 0.5 * (flat + mags[i_min]))))
    assert all(b < a for a, b in zip(dip_mins, dip_mins[1:]))
    assert widths[-1] > widths[0]
    assert result.summary["transition_frequency_hz"] == pytest.approx(2.15e9, rel=1e-12)


def test_control_sweep_threshold_annotation():
    result = run_experiment(paper_profile("control-sweep"))
    assert result.summary["threshold_rabi_hz"] == pytest.approx(16.06e6, rel=1e-9)
    assert result.summary["threshold_power_dbm"] == pytest.approx(-45.0, abs=1e-9)


def test_control_sweep_regime_annotations_match_classifier():
    cfg = paper_profile("control-sweep")
    atom = cfg.atom.build()
    k = cfg.calibration.build()
    result = run_experiment(cfg)
    for power, annotation in zip(result.data["control_power_dbm"], result.data["annotation"]):
        omega_c = math.sqrt(k * dbm_to_watts(power))
        expected = classify_regime(atom.gamma10, atom.gamma20, omega_c).regime.value
        assert annotation == expected
    seen = set(result.data["annotation"])
    assert "eit" in seen
    assert "autler-townes" in seen


_ANCHOR_K_HZ2_PER_WATT = (16.06e6) ** 2 / dbm_to_watts(-45.0)


def _power_sweep_with_k(k_hz2_per_watt: float):
    return run_experiment(replace(paper_profile("power-sweep"),
                                  calibration=CalibrationParams(k_hz2_per_watt=k_hz2_per_watt)))


def _same_sweep(got, want) -> bool:
    return all(np.array_equal(got.data[name], want.data[name]) for name in ("re", "im")) \
        and got.data["annotation"] == want.data["annotation"]


def test_power_sweep_k_calibration_matches_the_anchor():
    assert _same_sweep(_power_sweep_with_k(_ANCHOR_K_HZ2_PER_WATT), run_experiment(paper_profile("power-sweep")))


def test_pipeline_k_fed_back_as_calibration_reproduces_the_sweep():
    # the linewidth fit's power calibration closes the loop back to the
    # forward model it was measured from
    line = run_experiment(paper_profile("linewidth-pipeline")).summary["line_fit"]
    result = _power_sweep_with_k(line["k_hz2_per_watt"])
    anchor = run_experiment(paper_profile("power-sweep"))
    values = result.data["re"] + 1j * result.data["im"]
    expected = anchor.data["re"] + 1j * anchor.data["im"]
    assert float(np.max(np.abs(values - expected) / np.abs(expected))) <= 1e-9


def test_power_sweep_without_control_frequency_is_on_resonance():
    profile = paper_profile("power-sweep")
    unset = ExperimentConfig.from_dict({**profile.to_dict(), "control_frequency_hz": None})
    assert unset.control_frequency_hz is None
    resonant = replace(profile, control_frequency_hz=profile.atom.frequency_hz - profile.atom.anharmonicity_hz)
    assert _same_sweep(run_experiment(unset), run_experiment(resonant))


def test_power_sweep_runs_and_annotates():
    result = run_experiment(paper_profile("power-sweep"))
    assert next(iter(result.data)) == "control_power_dbm"
    assert len(result.data["abs"]) == 41
    # on-resonance reflection shrinks monotonically with control power
    mags = list(result.data["abs"])
    assert all(b < a for a, b in zip(mags, mags[1:]))


# ---------------------------------------------------------------------------
# Flux sweep
# ---------------------------------------------------------------------------


def _flux_config(rabi_hz, crosstalk_re=0.0, residual_hz=4.0e6):
    base = paper_profile("flux-sweep")
    return ExperimentConfig(
        scheme="flux-sweep",
        atom=base.atom,
        probe_detuning_grid=GridSpec(start=-50.0e6, stop=50.0e6, count=401),
        control_rabi_hz=tuple(rabi_hz),
        residual_detuning_hz=residual_hz,
        crosstalk_re=crosstalk_re,
        crosstalk_im=0.0,
    )


def test_flux_sweep_control_off_is_symmetric():
    result = run_experiment(_flux_config([0.0], residual_hz=4.0e6))
    mags = result.data["abs"]
    assert int(np.argmin(mags)) == mags.size // 2
    assert np.allclose(mags, mags[::-1], rtol=1e-12)
    assert result.data["annotation"][0] == "eit"


def test_flux_sweep_ats_has_two_minima():
    result = run_experiment(_flux_config([30.0e6]))
    mags = result.data["abs"]
    dets = result.data["probe_detuning_hz"]
    interior = (mags[1:-1] < mags[:-2]) & (mags[1:-1] <= mags[2:])
    minima = np.nonzero(interior)[0] + 1
    assert minima.size == 2
    separation = abs(dets[minima[1]] - dets[minima[0]])
    assert 20e6 < separation < 40e6
    assert result.data["annotation"][0] == "autler-townes"


def test_flux_sweep_asymmetry_with_offset():
    result = run_experiment(_flux_config([6.0e6], crosstalk_re=0.05))
    mags = result.data["abs"]
    mirrored = mags[::-1]
    assert float(np.max(np.abs(mags - mirrored))) > 1e-3
    assert result.data["annotation"][0] == "eit"


def test_flux_sweep_regimes_per_curve():
    result = run_experiment(_flux_config([6.0e6, 30.0e6]))
    by_rabi = {}
    for rabi_hz, annotation in zip(result.data["control_rabi_hz"], result.data["annotation"]):
        by_rabi.setdefault(rabi_hz, set()).add(annotation)
    assert by_rabi[6.0e6] == {"eit"}
    assert by_rabi[30.0e6] == {"autler-townes"}


# ---------------------------------------------------------------------------
# Linewidth pipeline
# ---------------------------------------------------------------------------

_PIPELINE_COLUMNS = (
    "power_dbm",
    "power_watts",
    "gamma_eit_hz",
    "gamma_eit_sigma_hz",
    "omega_c_hz",
    "omega_c_sigma_hz",
    "one_sided",
    "log10_power_watts",
    "log10_omega_c_hz",
    "dip_center_hz",
    "regime",
    "status",
)


def test_pipeline_noiseless_recovers_device_parameters():
    cfg = paper_profile("linewidth-pipeline")
    result = run_experiment(cfg)
    assert tuple(result.data) == _PIPELINE_COLUMNS
    assert len(result.data["status"]) == cfg.power_grid.count
    assert all(status == "ok" for status in result.data["status"])

    line = result.summary["line_fit"]
    assert line["gamma20_hz"] == pytest.approx(4.94e6, rel=1e-6)
    expected_k = (16.06e6) ** 2 / dbm_to_watts(-45.0)
    assert line["k_hz2_per_watt"] == pytest.approx(expected_k, rel=1e-6)
    assert result.summary["threshold_rabi_hz"] == pytest.approx(16.06e6, rel=1e-6)
    assert result.summary["threshold_power_dbm"] == pytest.approx(-45.0, abs=1e-5)

    atom = cfg.atom.build()
    k = cfg.calibration.build()
    for row in result.table:
        omega_c = math.sqrt(k * dbm_to_watts(row["power_dbm"]))
        width = eit_linewidth(atom.gamma10, atom.gamma20, omega_c)
        assert hz_to_angular(row["gamma_eit_hz"]) == pytest.approx(width, rel=1e-6)
        assert hz_to_angular(row["omega_c_hz"]) == pytest.approx(omega_c, rel=1e-4)
        expected_regime = classify_regime(atom.gamma10, atom.gamma20, omega_c).regime.value
        assert row["regime"] == expected_regime
        assert row["dip_center_hz"] == pytest.approx(2.15e9, rel=1e-6)


def test_pipeline_row_with_nan_width_error_is_left_out(monkeypatch):
    bad_row = 4
    fit_dip_stack, fit_line = experiments.fit_dip_stack, experiments.fit_linewidth_line
    line_powers = []

    def nan_width_error(*args):
        fits = fit_dip_stack(*args)
        fit = fits[bad_row]
        stderr = fit.stderr.copy()
        stderr[fit.names.index("hwhm")] = np.nan
        fits[bad_row] = replace(fit, stderr=stderr)
        return fits

    def capture_line(powers, *args, **kwargs):
        line_powers.append(powers)
        return fit_line(powers, *args, **kwargs)

    monkeypatch.setattr(experiments, "fit_dip_stack", nan_width_error)
    monkeypatch.setattr(experiments, "fit_linewidth_line", capture_line)
    cfg = replace(paper_profile("linewidth-pipeline"), noise=NoiseParams(sigma_rel=0.0095, seed=1))
    result = run_experiment(cfg)
    data = result.data
    assert data["status"][bad_row] == "dip-fit-failed: dip width error is not a positive finite number"
    assert [i for i, status in enumerate(data["status"]) if status != "ok"] == [bad_row]
    nullable = ("gamma_eit_hz", "gamma_eit_sigma_hz", "omega_c_hz", "omega_c_sigma_hz", "one_sided",
                "log10_omega_c_hz", "dip_center_hz")
    for name in nullable:
        assert data[name][bad_row] is None
        assert all(cell is not None for i, cell in enumerate(data[name]) if i != bad_row)
    others = np.delete(data["power_watts"], bad_row)
    assert len(line_powers) == 1 and np.array_equal(line_powers[0], others)
    assert result.summary["line_fit"]["points_used"] == cfg.power_grid.count - 1


def test_pipeline_single_power_rank_error():
    base = paper_profile("linewidth-pipeline")
    cfg = ExperimentConfig(
        scheme="linewidth-pipeline",
        atom=base.atom,
        calibration=base.calibration,
        power_grid=GridSpec(start=-50.0, stop=-50.0, count=3),
        control_frequency_grid=base.control_frequency_grid,
    )
    with pytest.raises(RankError):
        run_experiment(cfg)


def test_run_experiment_dispatch():
    result = run_experiment(paper_profile("power-sweep"))
    assert tuple(result.data) == ("control_power_dbm", "re", "im", "abs", "phase", "annotation")


def test_singular_model_point_is_config_error():
    # no decay and no dephasing: with the control off, the flux sweep's
    # transmission is singular at zero probe detuning
    profile = paper_profile("flux-sweep")
    cfg = replace(profile, atom=replace(profile.atom, decay_hz=0.0, dephasing1_hz=0.0), control_rabi_hz=(0.0,))
    with pytest.raises(ConfigError, match="^the config puts the model at a singular point: "):
        run_experiment(cfg)


def test_float_overflow_raises_only_inside_a_run():
    # outside a run numpy keeps its own error state, so the grid only warns
    grid = GridSpec(start=-1e308, stop=1e308, count=3)
    with pytest.warns(RuntimeWarning, match="encountered in"):
        grid.values()
    before = np.geterr()
    with pytest.raises(ConfigError, match="^a config value is out of range: float overflow$"):
        run_experiment(replace(paper_profile("flux-sweep"), probe_detuning_grid=grid))
    assert np.geterr() == before


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


def _table_text(data, fmt, config_echo=None, summary=None):
    return "".join(table_chunks(data, fmt, config_echo, summary))


def test_empty_records_give_header_only_csv():
    assert _table_text({"a": np.empty(0), "b": []}, "csv") == "a,b\n"


def _assert_columns_bitwise(data, columns, rows):
    """Rows read back from an export hold data's columns, an array bit for
    bit (-0.0 is not 0.0)."""
    assert list(columns) == list(data)
    for name, column in data.items():
        cells = [row[name] for row in rows]
        if isinstance(column, np.ndarray):
            assert np.array_equal(np.array(cells, dtype=float).view(np.uint64), column.view(np.uint64)), name
        else:
            assert cells == column, name


_NOISY_FLUX = ExperimentConfig(
    scheme="flux-sweep",
    atom=paper_profile("flux-sweep").atom,
    probe_detuning_grid=GridSpec(start=-20.0e6, stop=20.0e6, count=21),
    control_rabi_hz=(6.0e6,),
    residual_detuning_hz=4.0e6,
    crosstalk_re=0.013,
    noise=NoiseParams(sigma_rel=0.01, seed=9),
)


@pytest.mark.parametrize("cfg", [_NOISY_FLUX, paper_profile("control-sweep")], ids=["noisy-flux", "paper-control"])
def test_csv_round_trip_bitwise(tmp_path, cfg):
    result = run_experiment(cfg)
    path = tmp_path / "sweep.csv"
    export_result(result, path, fmt="csv")
    _assert_columns_bitwise(result.data, *import_csv(path))


def test_csv_quotes_cells_with_separators(tmp_path):
    status = ["ok", "failed: a, b", 'said "no"', "two\nlines", None]
    text = _table_text({"x": np.arange(5.0), "status": status}, "csv")
    assert text.splitlines()[2] == '1,"failed: a, b"'
    assert text.splitlines()[3] == '2,"said ""no"""'
    path = tmp_path / "quoted.csv"
    path.write_text(text, encoding="utf-8", newline="\n")
    columns, rows = import_csv(path)
    assert columns == ("x", "status")
    assert [row["status"] for row in rows] == status
    assert [row["x"] for row in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("scheme", ["power-sweep", "control-sweep"])
def test_json_round_trip_with_config_echo(tmp_path, scheme):
    cfg = paper_profile(scheme)
    result = run_experiment(cfg)
    path = tmp_path / "sweep.json"
    export_result(result, path, fmt="json")
    envelope = json.loads(path.read_text())
    assert envelope["schema_version"] == 1
    assert envelope["config_echo"] == cfg.to_dict()
    _assert_columns_bitwise(result.data, envelope["columns"], envelope["rows"])
    assert envelope["summary"]["threshold_power_dbm"] == pytest.approx(-45.0, abs=1e-9)


def test_json_replaces_non_finite_with_null():
    text = _table_text({"a": np.array([float("nan")])}, "json")
    assert "null" in text
    assert "NaN" not in text
    assert json.loads(text)["rows"][0]["a"] is None


def test_result_text_format_selection():
    cfg = paper_profile("power-sweep")
    result = run_experiment(cfg)
    assert result_text(result, "csv").startswith("control_power_dbm,")
    assert result_text(result, "json").startswith("{")
    with pytest.raises(ConfigError):
        result_text(result, fmt="yaml")


def _reference_json_text(data, config_echo=None, summary=None):
    """The export as one json.dumps over per-row dicts."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    columns = tuple(data)
    cells = [data[col].tolist() if isinstance(data[col], np.ndarray) else list(data[col]) for col in columns]
    envelope = {
        "schema_version": 1,
        "config_echo": plain(config_echo) if config_echo else None,
        "columns": list(columns),
        "rows": [dict(zip(columns, plain(list(row)))) for row in zip(*cells)],
        "summary": plain(summary) if summary else {},
    }
    return json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"


_NAN_PAYLOAD = (np.array([np.nan]).view(np.uint64) | 1).view(np.float64)[0]


def _hand_table(n):
    """n rows holding every cell kind the writers render differently, with
    the columns out of sorted order: float64 columns that repeat a value in
    their first chunk (signed zeros, subnormals, NaN payloads, infinities, a
    single value, values first met after the first chunk, and one repeat
    among distinct values), one that repeats only later, and list columns
    of strings and of mixed cells."""
    strings = ["plain", "caf\u00e9 \u03b3", 'q"uote', "back\\slash", "ctl\x01\t\n", "%s %r %%"]
    mixed = [None, True, False, 1.5, -0.0, float("nan"), float("inf"), 2.5e-300]
    signed = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.5])
    nonfinite = np.array([np.nan, -0.0, np.inf, -np.inf, 0.0, _NAN_PAYLOAD, -np.nan])
    rng = np.random.default_rng(n)
    i = np.arange(n)
    data = {
        "z_finite": rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n),
        "a_nonfinite": np.where(np.arange(n) % 3 == 1, np.nan, np.arange(n, dtype=float)),
        "m_mixed": [mixed[i % len(mixed)] for i in range(n)],
        "b\u00e9 \"%key\\": [strings[i % len(strings)] for i in range(n)],
        "c_inf": np.where(np.arange(n) % 2 == 0, np.inf, -np.inf),
        "r_signed": signed[i % len(signed)],
        "r_nonfinite": nonfinite[i % len(nonfinite)],
        "single": np.full(n, 3.7),
        "late_repeat": (i % _CHUNK) * 0.5 + 0.25,
        "one_repeat": np.where(i == 1, 0.0, i * 0.75),
        "early_repeat": np.where(i < _CHUNK, i % 5, i) * 0.125,
    }
    return data


_CHUNK = experiments._CHUNK_ROWS


@pytest.mark.parametrize("n", [0, 1, 2, 9, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_json_text_matches_per_row_dict_reference(n):
    data = _hand_table(n)
    echo = {"b": [1.0, float("nan")], "a": {"y": "\u00e9", "x": None}, "rows": []}
    summary = {"line_fit": {"rss": float("inf"), "converged": True}, "note": 'a "b"'}
    assert_same_text(_table_text(data, "json"), _reference_json_text(data))
    text = _table_text(data, "json", echo, summary)
    assert_same_text(text, _reference_json_text(data, echo, summary))
    if n == 0:
        assert '\n  "rows": [],\n' in text
    assert "NaN" not in text and "Infinity" not in text


def _reference_csv_text(data):
    """The export as one string with every cell formatted up front: an array
    cell at 17 significant digits, a list cell by _format_cell."""
    columns = tuple(data)
    cells = [["%.17g" % value for value in data[col].tolist()] if isinstance(data[col], np.ndarray)
             else list(map(experiments._format_cell, data[col])) for col in columns]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def _reference_import_csv(path):
    """import_csv as one _parse_cell call and one dict insert per cell."""
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    if '"' in text or "\r" in text:
        table = (cells for cells in csv.reader(io.StringIO(text, newline="")) if cells)
    else:
        table = (line.split(",") for line in text.split("\n") if line != "")
    columns = tuple(next(table, ()))
    if not columns:
        raise ValueError(f"{path} is empty")
    for i, name in enumerate(columns):
        if name in columns[:i]:
            raise ValueError(f"{path}: column {name!r} repeats in the header")
    rows = []
    for cells in table:
        if len(cells) != len(columns):
            raise ValueError(f"{path}: row has {len(cells)} cells, expected {len(columns)}")
        rows.append({col: experiments._parse_cell(cell) for col, cell in zip(columns, cells)})
    return columns, rows


def _exported_bytes(result, path, fmt):
    export_result(result, path, fmt)
    return path.read_bytes()


_NOISE = {
    "clean": NoiseParams(),
    "seeded": NoiseParams(sigma_rel=0.01, seed=5),
    "magnitude": NoiseParams(sigma_rel=0.01, seed=5, kind="magnitude"),
    # one dip row of this pipeline ends unconverged, with a comma in its status
    "failed-row": NoiseParams(sigma_rel=0.015, seed=35),
}
_EXPORT_CASES = [
    *((scheme, noise) for scheme in experiments.SCHEMES for noise in ("clean", "seeded")),
    *((scheme, "magnitude") for scheme in ("control-sweep", "power-sweep", "flux-sweep")),
    ("linewidth-pipeline", "failed-row"),
]


@pytest.mark.parametrize("scheme,noise", _EXPORT_CASES)
def test_export_file_matches_result_text(tmp_path, scheme, noise):
    result = run_experiment(replace(paper_profile(scheme), noise=_NOISE[noise]))
    if noise == "failed-row":
        assert sum(status != "ok" for status in result.data["status"]) == 1
    for fmt in ("csv", "json"):
        text = result_text(result, fmt)
        assert_same_text(_exported_bytes(result, tmp_path / f"out.{fmt}", fmt), text.encode("utf-8"))
    assert_same_text(result_text(result, "csv"), _reference_csv_text(result.data))
    assert_same_text(result_text(result, "json"),
                     _reference_json_text(result.data, result.config.to_dict(), result.summary))


@pytest.mark.parametrize("n", [0, 1, _CHUNK, _CHUNK + 1])
def test_export_file_matches_result_text_at_chunk_edges(tmp_path, n):
    data = _hand_table(n)
    data["b\u00e9 \"%key\\"] = [s.replace("\n", " ") for s in data["b\u00e9 \"%key\\"]]
    result = RunResult(config=paper_profile("power-sweep"), data=data, summary={"n": n})
    for fmt in ("csv", "json"):
        text = result_text(result, fmt)
        assert_same_text(_exported_bytes(result, tmp_path / f"out.{fmt}", fmt), text.encode("utf-8"))
    assert_same_text(result_text(result, "csv"), _reference_csv_text(data))
    assert len(result_text(result, "csv").splitlines()) == n + 1
    # the float64 columns formatted once per distinct value: those that
    # repeat in the first chunk with at most half their rows distinct
    once = {key for key, column in data.items()
            if isinstance(column, np.ndarray) and experiments._float_render(column, "%r")[0] == "%s"}
    assert once == (set() if n < 2 else {"c_inf", "r_signed", "r_nonfinite", "single", "early_repeat"})


def test_export_leaves_no_partial_file(tmp_path):
    result = run_experiment(paper_profile("power-sweep"))
    path = tmp_path / "out.yaml"
    with pytest.raises(ConfigError):
        export_result(result, path, "yaml")
    assert not path.exists()
    # a cell that fails to render past the first chunk: the rows already
    # written are removed with the file
    n = _CHUNK + 5
    bad = RunResult(config=result.config,
                    data={"x": np.arange(float(n)), "obj": [None] * (n - 1) + [object()]}, summary={})
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        export_result(bad, path, "json")
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_columns_of_unequal_length_raise_before_any_chunk(tmp_path, fmt):
    data = {"a": np.arange(3.0), "b": ["x"]}
    with pytest.raises(ValueError, match="differ in length"):
        table_chunks(data, fmt)
    path = tmp_path / f"out.{fmt}"
    with pytest.raises(ValueError, match="differ in length"):
        export_result(RunResult(config=paper_profile("power-sweep"), data=data, summary={}), path, fmt)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("column", [np.arange(3), np.arange(3, dtype=np.float32), np.arange(3) % 2 == 0],
                         ids=["int64", "float32", "bool"])
def test_array_column_that_is_not_float64_raises_before_any_chunk(tmp_path, fmt, column):
    # the writer takes the tables the package makes: float64 arrays and lists
    data = {"a": np.arange(3.0), "b": column}
    with pytest.raises(ValueError, match=rf"^table column 'b' is a {column.dtype} array; array columns must be float64$"):
        table_chunks(data, fmt)
    path = tmp_path / f"out.{fmt}"
    with pytest.raises(ValueError, match="must be float64"):
        export_result(RunResult(config=paper_profile("power-sweep"), data=data, summary={}), path, fmt)
    assert not path.exists()


def test_pipeline_export_includes_status_column(tmp_path):
    result = run_experiment(paper_profile("linewidth-pipeline"))
    path = tmp_path / "pipeline.csv"
    export_result(result, path, fmt="csv")
    columns, rows = import_csv(path)
    assert columns == _PIPELINE_COLUMNS
    assert all(row["status"] == "ok" for row in rows)
    assert all(row["one_sided"] is False for row in rows)


@pytest.mark.parametrize("kind", ["complex", "magnitude"])
def test_pipeline_weights_dips_by_the_noise_kind(monkeypatch, kind):
    # |r|^2 carries the sigma of its noise model at first order: complex noise
    # 2|v| sigma_rel max|r| per row, magnitude noise (r (1 + n)) 2|v|^2 sigma_rel
    calls, fit = [], experiments.fit_dip_stack

    def fit_and_capture(x, y, sigma):
        calls.append((y, sigma))
        return fit(x, y, sigma)

    monkeypatch.setattr(experiments, "fit_dip_stack", fit_and_capture)
    config = replace(paper_profile("linewidth-pipeline"), noise=NoiseParams(sigma_rel=0.01, seed=5, kind=kind))
    run_experiment(config)
    (y, sigma), = calls
    if kind == "magnitude":
        assert np.array_equal(sigma, 2.0 * 0.01 * y)
    else:
        atom, _, _, omega_c, _ = experiments._drive(config)
        clean = np.abs(reflection_coefficient(atom.Gamma10, atom.gamma10, atom.gamma20, omega_c[:, None], 0.0,
                                              hz_to_angular(config.control_frequency_grid.values()) - atom.omega21))
        np.testing.assert_allclose(sigma, 2.0 * np.sqrt(y) * 0.01 * clean.max(axis=1, keepdims=True), rtol=1e-12)


def _import_outcome(read, path):
    """What a CSV reader makes of a file: the columns and every row's keys,
    cell types and values (repr tells -0.0 from 0.0, True from 1.0 and
    matches nan with nan), or the message of the ValueError it raised."""
    try:
        columns, rows = read(path)
    except ValueError as exc:
        return "error", str(exc)
    return columns, [repr(list(row.items())) for row in rows]


def _assert_imports_like_reference(path):
    got = _import_outcome(import_csv, path)
    assert got == _import_outcome(_reference_import_csv, path)
    return got


@pytest.mark.parametrize("scheme,noise", [
    *((scheme, "clean") for scheme in experiments.SCHEMES),
    ("linewidth-pipeline", "failed-row"),
])
def test_import_csv_matches_per_cell_reference_on_exports(tmp_path, scheme, noise):
    result = run_experiment(replace(paper_profile(scheme), noise=_NOISE[noise]))
    path = tmp_path / "out.csv"
    export_result(result, path, "csv")
    columns, rows = _assert_imports_like_reference(path)
    assert columns == tuple(result.data)
    assert len(rows) == len(result.data[columns[0]])
    if noise == "failed-row":
        text = "".join(rows)
        assert "None" in text and "False" in text


def test_import_csv_mixed_column_matches_reference(tmp_path):
    cells = ["1.5", "", "true", "false", "text", "nan", "-0.0", "inf", " 2 ", "1_0", "True", "-", "1e400"]
    n = 3 * _CHUNK + 7
    lines = ["x,mixed,num"] + [f"{i},{cells[i % len(cells)]},{i * 0.5}" for i in range(n)]
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    columns, rows = _assert_imports_like_reference(path)
    assert columns == ("x", "mixed", "num") and len(rows) == n
    _, parsed = import_csv(path)
    assert [row["mixed"] for row in parsed[:5]] == [1.5, None, True, False, "text"]
    assert [type(row["mixed"]) for row in parsed[5:13]] == [float, float, float, float, float, str, str, float]


@pytest.mark.parametrize("quoted", [False, True])
def test_import_csv_repeating_columns_match_reference_and_share_values(tmp_path, quoted):
    # "mixed" repeats its texts through the file and is parsed once per text;
    # "early" repeats through the first block, then takes a new text every
    # row, so its memo passes _CHUNK texts in the second block and is dropped,
    # and its repeats in the third block are parsed row by row again
    texts = ["", "true", "false", "text", "1_0", " 2 ", "-0.0", "0.0", "nan"] + (['"a, b"'] if quoted else [])
    n = 3 * _CHUNK + 7
    early = [f"{i % 3 * 0.5}" if i < _CHUNK or i >= 2 * _CHUNK else f"{i * 0.25}" for i in range(n)]
    lines = ["x,mixed,early"] + [f"{i},{texts[i % len(texts)]},{early[i]}" for i in range(n)]
    path = tmp_path / "repeating.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_imports_like_reference(path)
    _, rows = import_csv(path)

    def objects(column, part):
        return len({id(row[column]) for row in part})

    assert objects("mixed", rows) == len(texts)
    assert objects("early", rows[:_CHUNK]) == 3
    assert objects("early", rows[2 * _CHUNK:]) == n - 2 * _CHUNK
    assert objects("x", rows) == n


def test_import_csv_axis_rows_share_one_value_per_text(tmp_path):
    result = run_experiment(paper_profile("control-sweep"))
    path = tmp_path / "map.csv"
    export_result(result, path, "csv")
    _, rows = import_csv(path)
    assert len(rows) > _CHUNK

    def objects(column):
        return len({id(row[column]) for row in rows})

    for axis in ("control_power_dbm", "control_frequency_hz"):
        assert objects(axis) == len(set(result.data[axis].tolist())) < len(rows) // 2
    assert objects("annotation") == len(set(result.data["annotation"]))
    assert objects("re") == len(rows)


def test_import_csv_quoted_cells_across_a_chunk_edge(tmp_path):
    n = _CHUNK + 6
    status = ["ok"] * n
    for i in (_CHUNK - 2, _CHUNK - 1, _CHUNK, _CHUNK + 1):
        status[i] = f'row {i}: "a, b"\nsecond line'
    status[_CHUNK + 3] = None
    text = _table_text({"x": np.arange(float(n)), "status": status}, "csv")
    path = tmp_path / "quoted.csv"
    path.write_text(text, encoding="utf-8", newline="\n")
    _assert_imports_like_reference(path)
    _, rows = import_csv(path)
    assert [row["status"] for row in rows] == status
    assert [row["x"] for row in rows] == list(map(float, range(n)))


# every character str.splitlines ends a line at, besides "\n"
_LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("beside", ["c", "quoted, c"])
@pytest.mark.parametrize("brk", _LINE_BREAKS, ids=[f"U+{ord(b[0]):04X}{'+LF' if len(b) > 1 else ''}" for b in _LINE_BREAKS])
def test_csv_round_trips_text_holding_a_line_break(tmp_path, brk, beside):
    data = {"v": np.array([1.0, 2.0]), "note": [f"a{brk}b", beside]}
    path = tmp_path / "notes.csv"
    write_table(path, table_chunks(data, "csv"))
    columns, _ = _assert_imports_like_reference(path)
    _, rows = import_csv(path)
    assert columns == ("v", "note")
    assert rows == [{"v": 1.0, "note": f"a{brk}b"}, {"v": 2.0, "note": beside}]


@pytest.mark.parametrize("status", ["ok", '"a, b"'])
def test_import_csv_reads_crlf_rows(tmp_path, status):
    path = tmp_path / "crlf.csv"
    path.write_bytes(f"x,status\r\n1.5,{status}\r\n\r\n-0,\r\n".encode())
    columns, _ = _assert_imports_like_reference(path)
    _, rows = import_csv(path)
    assert columns == ("x", "status")
    assert repr(rows) == repr([{"x": 1.5, "status": status.strip('"')}, {"x": -0.0, "status": None}])


@pytest.mark.parametrize("text", ["a,b\n", "a,b", '"a,b",c\n\n'])
def test_import_csv_header_only(tmp_path, text):
    path = tmp_path / "header.csv"
    path.write_text(text, encoding="utf-8", newline="\n")
    columns, rows = _assert_imports_like_reference(path)
    assert rows == [] and len(columns) == 2


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_import_csv_empty_file_raises_like_reference(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text, encoding="utf-8")
    assert _assert_imports_like_reference(path) == ("error", f"{path} is empty")


@pytest.mark.parametrize("text, name", [
    ("a,a,b\n1,2,3\n", "a"), ('a,b,"a"\n1,2,3\n', "a"), ("x,a,b,a,b\n", "a"), ('"x,y",b,"x,y"\r\n', "x,y"),
])
def test_import_csv_rejects_a_repeated_column(tmp_path, text, name):
    # a dict per row would keep only the last of two same-named cells
    path = tmp_path / "repeated.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _assert_imports_like_reference(path) == ("error", f"{path}: column {name!r} repeats in the header")


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("bad", ["long", "short", "long-then-short"])
def test_import_csv_bad_row_past_first_chunk_raises_like_reference(tmp_path, quoted, bad):
    status = '"ok"' if quoted else "ok"
    lines = ["x,y,status"] + [f"{i},{-i},{status}" for i in range(_CHUNK + 20)]
    row = _CHUNK + 10
    if bad in ("long", "long-then-short"):
        lines[row + 1] += ",extra"
    if bad in ("short", "long-then-short"):
        lines[row + 3] = f"{row + 2},{-(row + 2)}"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = 2 if bad == "short" else 4
    assert _assert_imports_like_reference(path) == ("error", f"{path}: row has {expected} cells, expected 3")


@pytest.mark.parametrize("text, message", [
    ('a,b\n1,"abc', "unexpected end of data"),
    ('a,b\n1,"ab"c\n', "',' expected after '\"'"),
], ids=["quote-open-at-end", "text-after-closing-quote"])
def test_import_csv_rejects_malformed_quoting(tmp_path, text, message):
    path = tmp_path / "malformed.csv"
    path.write_text(text, encoding="utf-8", newline="\n")
    with pytest.raises(ValueError) as excinfo:
        import_csv(path)
    assert str(excinfo.value) == f"{path}: line 2: {message}"


_SCAN = experiments._SCAN_BYTES


@pytest.mark.parametrize("where", ["quote-at-second-scan-block", "quote-last-byte", "cr-last-byte"])
def test_import_csv_finds_a_quote_or_cr_past_the_first_scan_block(tmp_path, where):
    # rows of one long text cell reach past the first scan block, and the
    # only quote or carriage return of the file lies there
    filler = "a" * 1000
    lines = ["x,status"] + [f"{i},{filler}" for i in range(_SCAN // len(filler) + 5)]
    text = "\n".join(lines) + "\n"
    if where == "quote-at-second-scan-block":
        head = text[:_SCAN - len("9,")]
        head = head[:head.rindex("\n") + 1]
        pad = _SCAN - len(head) - len("9,") - len("8,\n")
        text = head + f"8,{'b' * pad}\n" + '9,"q, x"\n' + "10,c\n"
        assert text.encode().index(b'"') == _SCAN
    elif where == "quote-last-byte":
        text += '9,""'
    else:
        text += "9,ok\r"
    path = tmp_path / "late.csv"
    path.write_bytes(text.encode())
    assert len(text.encode()) > _SCAN
    _assert_imports_like_reference(path)
    _, parsed = import_csv(path)
    assert parsed[-1]["status"] == {"quote-at-second-scan-block": "c", "quote-last-byte": None,
                                    "cr-last-byte": "ok"}[where]
    if where == "quote-at-second-scan-block":
        assert parsed[-2]["status"] == "q, x"


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("last", ["ok", ""])
@pytest.mark.parametrize("ending", ["", "\n"], ids=["no-newline", "newline"])
def test_import_csv_last_row_starts_a_chunk(tmp_path, quoted, last, ending):
    n = _CHUNK + 1
    status = '"ok"' if quoted else "ok"
    for width in (1, 2):  # one column: a stray empty cell would make a row
        lines = ["status"] + [status] * (n - 1) + [last]
        if width == 2:
            lines = [f"{x},{cell}" for x, cell in zip(["x", *map(str, range(n))], lines)]
        path = tmp_path / f"open{width}.csv"
        path.write_text("\n".join(lines) + ending, encoding="utf-8", newline="\n")
        _assert_imports_like_reference(path)
        _, rows = import_csv(path)
        if width == 1 and last == "":
            # an empty last line is skipped, as every empty line is
            assert len(rows) == n - 1
            continue
        assert len(rows) == n
        assert [row["status"] for row in rows[-2:]] == ["ok", last or None]


def _import_transient_bytes(path):
    """tracemalloc's peak during import_csv less what the returned rows keep."""
    tracemalloc.start()
    try:
        result = import_csv(path)  # held, so the rows count as kept
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - kept


@pytest.mark.parametrize("quoted", [False, True])
def test_import_csv_memory_beyond_the_rows_does_not_grow_with_the_file(tmp_path, quoted):
    # the file is streamed a block of rows at a time: five times the rows
    # keep five times the dicts, but need no more memory on the way, also
    # when a column repeats in its first block only and its memo of texts
    # would otherwise grow with the file
    cell = '"%s"' if quoted else "%s"
    seconds = {
        "status": lambda i: cell % "ok",
        "first-block": lambda i: cell % (i % 5 if i < _CHUNK else i),
    }
    for kind, second in seconds.items():
        transients = []
        for n in (2 * _CHUNK, 10 * _CHUNK):
            path = tmp_path / f"{kind}{n}.csv"
            path.write_text("x,y\n" + "".join(f"{i * 0.5},{second(i)}\n" for i in range(n)), encoding="utf-8")
            transients.append(_import_transient_bytes(path))
        small, large = transients
        assert abs(large - small) <= 1_000_000, (kind, small, large)


_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "true", "false", "nan", "1e5", " 3 ", "ok", "a,b", 'say "hi"', "two\nlines"]),
    st.text(alphabet='0123456789.e-+,"\n\r ab', max_size=6),
)


@settings(derandomize=True, deadline=None, database=None)
@given(width=st.integers(min_value=1, max_value=4), n=st.integers(min_value=0, max_value=12),
       cells=st.lists(_CELLS, min_size=48, max_size=48), float_columns=st.sets(st.integers(0, 3)))
def test_import_csv_matches_reference_on_random_tables(tmp_path_factory, width, n, cells, float_columns):
    columns = tuple(f"c{j}" for j in range(width))
    data = {
        col: (np.array([float(j * n + i) / 3.0 for i in range(n)]) if j in float_columns
              else [cells[(j * n + i) % len(cells)] for i in range(n)])
        for j, col in enumerate(columns)
    }
    path = tmp_path_factory.mktemp("random") / "table.csv"
    path.write_text(_table_text(data, "csv"), encoding="utf-8", newline="\n")
    _assert_imports_like_reference(path)


def test_list_column_strings_render_once_per_value_same_bytes():
    column = [0.0, -0.0, True, 1.0, 1, False, 0, None, float("nan"), "a", "a", "a,b"]
    n = _CHUNK + len(column)
    cases = {
        "signed-and-bool-cells": {"x": column},
        "across-chunks": {"x": [column[i % len(column)] for i in range(n)]},
    }
    for data in cases.values():
        assert_same_text(_table_text(data, "csv"), _reference_csv_text(data))
        text = _table_text(data, "json")
        assert_same_text(text, _reference_json_text(data))
        rendered = [line[len('      "x": '):] for line in text.splitlines() if line.startswith('      "x": ')]
        assert rendered == [json.dumps(experiments._json_sanitize(v)) for v in data["x"]]
    csv_cells = _table_text(cases["signed-and-bool-cells"], "csv").splitlines()[1:]
    assert csv_cells == ["0", "-0", "true", "1", "1", "false", "0", "", "nan", "a", "a", '"a,b"']
    # an unhashable cell cannot be rendered, in either format
    for fmt in ("csv", "json"):
        with pytest.raises(TypeError):
            _table_text({"x": ["a", [1.0, -0.0], "a", True, 1.0]}, fmt)


class _FailingFile:
    """A file object over a real handle whose writes or close fail like a
    full disk; fileno may name another descriptor to stand for a device."""

    def __init__(self, handle, fail, fileno=None):
        self.handle, self.fail, self._fileno = handle, fail, fileno

    def fileno(self):
        return self.handle.fileno() if self._fileno is None else self._fileno

    def writelines(self, chunks):
        for i, chunk in enumerate(chunks):
            if self.fail == "write" and i == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.handle.write(chunk)

    def close(self):
        self.handle.close()
        if self.fail == "close":
            raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _failing_open(monkeypatch, fail, fileno=None):
    real_open = open
    monkeypatch.setattr(experiments, "open",
                        lambda *args, **kwargs: _FailingFile(real_open(*args, **kwargs), fail, fileno),
                        raising=False)


@pytest.mark.parametrize("fail", ["write", "close"])
def test_write_table_failure_is_config_error_and_removes_the_file(tmp_path, monkeypatch, fail):
    result = run_experiment(paper_profile("control-sweep"))
    path = tmp_path / "out.csv"
    _failing_open(monkeypatch, fail)
    with pytest.raises(ConfigError, match=f"^cannot write {path}: No space left on device$"):
        export_result(result, path, "csv")
    assert not path.exists()


def test_write_table_leaves_a_path_that_is_not_a_regular_file(tmp_path, monkeypatch):
    # a pipe's descriptor stands for a device: a failed write must not unlink it
    read_end, write_end = os.pipe()
    try:
        path = tmp_path / "device"
        _failing_open(monkeypatch, "close", fileno=read_end)
        with pytest.raises(ConfigError, match="No space left on device"):
            export_result(run_experiment(paper_profile("power-sweep")), path, "csv")
        assert path.exists()
    finally:
        os.close(read_end)
        os.close(write_end)


def test_records_and_table_views_follow_data():
    """RunResult.records and .table are read-only views over data; the
    benchmark's fit-batch reads rec.axes, rec.value and row["status"]."""
    flux = run_experiment(ExperimentConfig(
        scheme="flux-sweep",
        atom=paper_profile("flux-sweep").atom,
        probe_detuning_grid=GridSpec(start=-20.0e6, stop=20.0e6, count=7),
        control_rabi_hz=(6.0e6, 30.0e6),
        noise=NoiseParams(sigma_rel=0.01, seed=3),
    ))
    data = flux.data
    assert len(flux.records) == len(flux.table) == len(data["re"]) == 14
    for i, rec in enumerate(flux.records):
        assert rec.axes == (data["control_rabi_hz"][i], data["probe_detuning_hz"][i])
        assert rec.value == complex(data["re"][i], data["im"][i])
        assert rec.annotation == data["annotation"][i]
    for i, row in enumerate(flux.table):
        assert list(row) == list(data)
        assert all(row[col] == data[col][i] for col in data)

    base = paper_profile("linewidth-pipeline")
    pipeline = run_experiment(ExperimentConfig(
        scheme="linewidth-pipeline",
        atom=base.atom,
        calibration=base.calibration,
        power_grid=GridSpec(start=-60.0, stop=-45.0, count=4),
        control_frequency_grid=GridSpec(start=2.125e9, stop=2.175e9, count=51),
    ))
    assert pipeline.records == ()
    assert len(pipeline.table) == len(pipeline.data["status"]) == 4
    for i, row in enumerate(pipeline.table):
        assert row["status"] == pipeline.data["status"][i] == "ok"
        assert row["power_dbm"] == pipeline.data["power_dbm"][i]
