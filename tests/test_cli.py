from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from acoustic_eit import cli, experiments, lindblad
from acoustic_eit.cli import build_parser, main, scheme_command
from acoustic_eit.experiments import (
    _CHUNK_ROWS,
    FORMATS,
    SCHEMES,
    import_csv,
    paper_profile,
    resolve_config,
    result_text,
    run_experiment,
)
from textdiff import assert_same_text


def test_no_arguments_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["classify", "--gamma10", "21e6",
                              "--gamma20", "4.94e6", "--omega-c", "6.1e6"])
    assert args.gamma10 == 21e6


@pytest.mark.parametrize("argv,line", [
    (["pipeline"], "acoustic-eit pipeline: error: the following arguments are required: {linewidth}"),
    (["simulate"], "acoustic-eit simulate: error: the following arguments are required: "
                   "{control-sweep,power-sweep,flux-sweep}"),
])
def test_missing_subcommand_names_its_choices(capsys, argv, line):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == line


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    action = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return action.choices


_COMMANDS = {
    "control-sweep": ["simulate", "control-sweep"],
    "power-sweep": ["simulate", "power-sweep"],
    "flux-sweep": ["simulate", "flux-sweep"],
    "linewidth-pipeline": ["pipeline", "linewidth"],
}


def test_parser_commands_are_the_scheme_table():
    commands = _subcommands(build_parser())
    assert list(_subcommands(commands["simulate"])) == ["control-sweep", "power-sweep", "flux-sweep"]
    assert list(_subcommands(commands["pipeline"])) == ["linewidth"]
    assert tuple(_COMMANDS) == SCHEMES


@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_command_sets_its_scheme(scheme):
    assert scheme_command(scheme) == _COMMANDS[scheme]
    assert build_parser().parse_args([*_COMMANDS[scheme], "--profile", "paper"]).scheme == scheme


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_command_prints_its_runner_export(capsys, scheme, fmt):
    assert main([*_COMMANDS[scheme], "--profile", "paper", "--format", fmt]) == 0
    assert_same_text(capsys.readouterr().out, result_text(run_experiment(paper_profile(scheme)), fmt))


def test_classify_below_threshold(capsys):
    code = main(["classify", "--gamma10", "21e6", "--gamma20", "4.94e6",
                 "--omega-c", "6.1e6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "regime=eit" in out
    assert "threshold_rabi_hz=16060000" in out


def test_classify_above_threshold(capsys):
    code = main(["classify", "--gamma10", "21e6", "--gamma20", "4.94e6",
                 "--omega-c", "30e6"])
    assert code == 0
    assert "regime=autler-townes" in capsys.readouterr().out


def test_classify_rejects_negative_rates(capsys):
    code = main(["classify", "--gamma10", "-1.0", "--gamma20", "0.0",
                 "--omega-c", "1.0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_power_sweep_to_stdout(capsys):
    code = main(["simulate", "power-sweep", "--profile", "paper"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "control_power_dbm,re,im,abs,phase,annotation"
    assert len(lines) == 42


def test_simulate_seeded_runs_are_byte_identical(tmp_path, capsys):
    overlay = tmp_path / "noise.json"
    overlay.write_text(json.dumps({"noise": {"sigma_rel": 0.01}}))
    argv = ["simulate", "power-sweep", "--profile", "paper",
            "--config", str(overlay), "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(argv[:-1] + ["6"]) == 0
    other_seed = capsys.readouterr().out
    assert other_seed != first


def test_simulate_json_seeded_runs_are_byte_identical(tmp_path, capsys):
    overlay = tmp_path / "noise.json"
    overlay.write_text(json.dumps({"noise": {"sigma_rel": 0.01}}))
    argv = ["simulate", "flux-sweep", "--profile", "paper",
            "--config", str(overlay), "--seed", "11", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    envelope = json.loads(first)
    assert envelope["schema_version"] == 1
    assert envelope["config_echo"]["noise"]["seed"] == 11


def test_simulate_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "flux.csv"
    code = main(["simulate", "flux-sweep", "--profile", "paper",
                 "--out", str(out_path)])
    assert code == 0
    assert f"wrote 1203 rows to {out_path}" in capsys.readouterr().out
    columns, rows = import_csv(out_path)
    assert columns == ("control_rabi_hz", "probe_detuning_hz", "re", "im",
                       "abs", "phase", "annotation")
    assert len(rows) == 1203


def test_missing_config_file_is_config_error(capsys):
    code = main(["simulate", "power-sweep", "--config", "/nonexistent/cfg.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_conflicting_scheme_is_config_error(tmp_path, capsys):
    overlay = tmp_path / "conflict.json"
    overlay.write_text(json.dumps({"scheme": "flux-sweep"}))
    code = main(["simulate", "power-sweep", "--profile", "paper",
                 "--config", str(overlay)])
    assert code == 2
    assert "conflicts" in capsys.readouterr().err


def test_pipeline_linewidth_reports_line_fit(tmp_path, capsys):
    out_path = tmp_path / "pipeline.json"
    code = main(["pipeline", "linewidth", "--profile", "paper",
                 "--out", str(out_path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    reported = {}
    for token in out.split():
        if "=" in token:
            key, _, value = token.partition("=")
            reported[key] = value
    assert float(reported["gamma20_hz"]) == pytest.approx(4.94e6, rel=1e-6)
    assert float(reported["threshold_power_dbm"]) == pytest.approx(-45.0, abs=1e-5)
    envelope = json.loads(out_path.read_text())
    assert envelope["summary"]["line_fit"]["points_used"] == 10


def test_pipeline_single_power_exits_three(tmp_path, capsys):
    overlay = tmp_path / "single.json"
    overlay.write_text(json.dumps(
        {"power_grid": {"start": -50.0, "stop": -50.0, "count": 3}}))
    code = main(["pipeline", "linewidth", "--profile", "paper",
                 "--config", str(overlay)])
    assert code == 3
    assert "distinct powers" in capsys.readouterr().err


def test_failed_dip_row_round_trips_through_csv(tmp_path, capsys):
    # at this noise and seed one dip fit fails and its status message holds a comma
    overlay = tmp_path / "noise.json"
    overlay.write_text(json.dumps({"noise": {"sigma_rel": 0.015, "seed": 35}}))
    out_path = tmp_path / "pipeline.csv"
    code = main(["pipeline", "linewidth", "--profile", "paper", "--config", str(overlay),
                 "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    columns, rows = import_csv(out_path)
    failed = [row["status"] for row in rows if row["status"] != "ok"]
    assert len(rows) == 10 and len(failed) == 1
    assert failed[0].startswith("dip-fit-failed: ") and "," in failed[0]
    with open(out_path, newline="") as handle:
        assert {len(cells) for cells in csv.reader(handle)} == {len(columns)}


def test_pipeline_negative_intercept_exits_three(tmp_path, capsys):
    # at this seed the weighted line fit puts gamma20 below zero
    overlay = tmp_path / "noise.json"
    overlay.write_text(json.dumps({"noise": {"sigma_rel": 0.05, "seed": 27}}))
    code = main(["pipeline", "linewidth", "--profile", "paper", "--config", str(overlay),
                 "--out", str(tmp_path / "pipeline.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: line fit gives a negative intercept")


@pytest.mark.parametrize("power_grid,k", [
    ({"start": 10, "stop": 40, "count": 4}, "-7.393e+15"),
    ({"start": -30, "stop": 0, "count": 4}, "-2.373e+19"),
], ids=["above-0-dbm", "up-to-0-dbm"])
def test_pipeline_slope_that_is_not_positive_exits_three(tmp_path, capsys, power_grid, k):
    # Omega_c**2 = k * P has no solution for k <= 0, so no threshold power is printed
    overlay = tmp_path / "strong.json"
    overlay.write_text(json.dumps({"power_grid": power_grid}))
    code = main(["pipeline", "linewidth", "--profile", "paper", "--config", str(overlay)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line fit gives a non-positive calibration slope k = {k} Hz^2/W\n"


def test_pipeline_power_that_underflows_to_zero_watts_exits_two(tmp_path, capsys):
    overlay = tmp_path / "faint.json"
    overlay.write_text(json.dumps({"power_grid": {"start": -3300.0, "stop": -45.0, "count": 500}}))
    code = main(["pipeline", "linewidth", "--profile", "paper", "--config", str(overlay)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: linewidth-pipeline power_grid starts at -3300 dBm, "
                            "which is 0 W in float64\n")


def test_pipeline_zero_sigma_rows_exit_three(tmp_path, capsys):
    # the grid holds the exact two-photon point of a lossless upper level,
    # where r = 0; magnitude noise keeps it 0, so every row has a zero sigma
    overlay = tmp_path / "zero.json"
    overlay.write_text(json.dumps({
        "atom": {"upper_decay_hz": 0.0, "dephasing2_hz": 0.0},
        "control_frequency_grid": {"start": 2.149e9, "stop": 2.151e9, "count": 201},
        "noise": {"sigma_rel": 0.01, "seed": 3, "kind": "magnitude"},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["pipeline", "linewidth", "--profile", "paper", "--config", str(overlay)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: only 0 of 10 dip fits usable; need at least 3 for the line fit\n"


def test_idt_response_table(capsys):
    code = main(["idt", "response", "--np", "25", "--f-idt", "2.26e9",
                 "--k2", "7.11e-4", "--count", "5"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("frequency_hz,")
    assert len(lines) == 6
    # middle point is the synchronous frequency: full response
    center = lines[3].split(",")
    assert float(center[1]) == 0.0
    assert float(center[2]) == 1.0


def test_idt_response_json_carries_summary(tmp_path, capsys):
    out_path = tmp_path / "idt.json"
    code = main(["idt", "response", "--np", "25", "--f-idt", "2.26e9",
                 "--k2", "7.11e-4", "--count", "3", "--out", str(out_path),
                 "--format", "json"])
    assert code == 0
    assert "bandwidth_hz=81360000" in capsys.readouterr().out
    envelope = json.loads(out_path.read_text())
    assert envelope["summary"]["bandwidth_hz"] == pytest.approx(81.36e6, rel=1e-12)
    assert envelope["summary"]["peak_rate_hz"] == pytest.approx(20.08575e6, rel=1e-9)


def test_idt_response_validation(capsys):
    assert main(["idt", "response", "--np", "25", "--f-idt", "2.26e9",
                 "--k2", "7.11e-4", "--count", "1"]) == 2
    capsys.readouterr()
    assert main(["idt", "response", "--np", "0", "--f-idt", "2.26e9",
                 "--k2", "7.11e-4"]) == 2
    capsys.readouterr()
    for pairs in ("1", "2"):
        assert main(["idt", "response", "--np", pairs, "--f-idt", "2.3e9", "--k2", "0.0007"]) == 2
        assert capsys.readouterr().err == (
            "error: the default --f-min, f_idt * (1 - 2/np), is not positive for --np <= 2; give --f-min\n")
    assert main(["idt", "response", "--np", "2", "--f-idt", "2.3e9", "--k2", "0.0007",
                 "--f-min", "1e9", "--count", "3"]) == 0
    capsys.readouterr()


_IDT = ["idt", "response", "--count", "3"]
_OVERFLOW = "a config value is out of range: float overflow"


@pytest.mark.parametrize("argv,message", [
    ([*_IDT, "--np", "3", "--f-idt", "2.3e9", "--k2", "0.0007", "--ct", "1e308"], "must be positive and finite"),
    ([*_IDT, "--np", "3", "--f-idt", "1e-300", "--k2", "1e-320", "--ct", "1e-320"], "must be positive and finite"),
    ([*_IDT, "--np", "25", "--f-idt", "1e307", "--k2", "7.11e-4"], _OVERFLOW),
    (["oracle", "check", "--grid-count", "3", "--span-hz", "2e307"], _OVERFLOW),
], ids=["conductance-peak-overflow", "peaks-underflow", "detuning-overflow", "oracle-detuning-sum-overflow"])
def test_idt_response_out_of_range_prints_only_the_error_line(capsys, argv, message):
    # every flag is finite, but a peak, the array factor or the oracle's
    # Delta_p + Delta_c is not: the command ends with one error line, no
    # numpy warning and no inf or nan row
    before = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert np.geterr() == before
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_idt_response_far_from_the_center_is_zero_without_warning(capsys):
    # |X| ~ 1e302: sinc is 0 there, and the Taylor branch not taken must
    # not overflow, or the run's overflow check would reject a valid table
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["idt", "response", "--np", "25", "--f-idt", "1", "--k2", "7e-4",
                     "--f-min", "1", "--f-max", "1e300", "--count", "3"])
    assert [str(w.message) for w in caught] == []
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[2:] for row in rows[1:]] == [["0", "0", "0"]] * 2


@pytest.mark.parametrize("argv", [
    ["simulate", "control-sweep", "--profile", "paper", "--config", "huge.json"],
    ["idt", "response", "--np", "25", "--f-idt", "2.26e9", "--k2", "7.11e-4", "--count", str(10**15)],
], ids=["control-sweep", "idt-response"])
def test_grid_too_large_for_memory_exits_two(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "huge.json").write_text(json.dumps(
        {"control_frequency_grid": {"start": 2.1e9, "stop": 2.2e9, "count": 10**15}}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail("a grid was built"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(experiments._MAX_POINTS) in captured.err


def test_oracle_check_passes(capsys):
    code = main(["oracle", "check", "--grid-count", "5", "--span-hz", "30e6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "points=75" in out
    assert "oracle check passed" in out


def test_oracle_check_prints_worst_point(capsys):
    assert main(["oracle", "check", "--grid-count", "5", "--span-hz", "30e6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "points=75"
    assert lines[1].startswith("max_abs=")
    fields = dict(item.split("=") for item in lines[2].split())
    assert sorted(fields) == ["worst_delta_c_hz", "worst_delta_p_hz", "worst_omega_c_hz"]
    assert float(fields["worst_omega_c_hz"]) in (0.0, 6.1e6, 30.0e6)
    for key in ("worst_delta_p_hz", "worst_delta_c_hz"):
        assert float(fields[key]) in (-30e6, -15e6, 0.0, 15e6, 30e6)


def test_oracle_check_flag_validation(capsys):
    assert main(["oracle", "check", "--grid-count", "1"]) == 2
    capsys.readouterr()
    # the cap bounds the run time: 3 * 501**2 points take about 3 s
    assert main(["oracle", "check", "--grid-count", "502"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid-count <= 501" in captured.err


@pytest.mark.parametrize("overlay", [
    {"atom": {"decay_hz": "fast"}},
    {"atom": {"decay_hz": None}},
    {"atom": {"decay_hz": [20.1e6]}},
    {"power_grid": {"start": "low"}},
    {"noise": {"sigma_rel": True}},
    {"control_rabi_hz": ["x"]},
    {"atom": {"frequency_hz": math.inf}},
    {"atom": {"anharmonicity_hz": math.nan}},
    {"idt": {"inductance_h": math.nan}},
    {"idt": {"pairs": 25, "frequency_hz": 2.26e9, "k2": 7.11e-4, "capacitance_f": 1.5e-13}},
    {"power_grid": {"start": -60, "stop": 1e5, "count": 3}},
    {"calibration": {"anchor_power_dbm": 1e5}},
    {"calibration": {"anchor_power_dbm": -1e5}},
    {"calibration": {"anchor_rabi_hz": 1e300}},
    {"atom": {"decay_hz": 1e300}},
    {"probe_detuning_hz": 1e308},
    {"control_frequency_hz": 1e308},
], ids=["atom-string", "atom-null", "atom-list", "grid-string", "noise-bool", "rabi-string",
        "atom-frequency-inf", "atom-anharmonicity-nan", "idt-inductance-nan", "idt-section",
        "power-overflow", "anchor-power-overflow", "anchor-power-underflow", "anchor-rabi-overflow",
        "decay-overflow", "probe-detuning-overflow", "control-frequency-overflow"])
def test_malformed_config_value_is_config_error(tmp_path, capsys, overlay):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(overlay))
    code = main(["simulate", "power-sweep", "--profile", "paper", "--config", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


_NO_ANCHOR = {"anchor_power_dbm": None, "anchor_rabi_hz": None}


@pytest.mark.parametrize("calibration,message", [
    ({"k_hz2_per_watt": 0.0, **_NO_ANCHOR},
     "invalid calibration: calibration constant k must be positive and finite"),
    ({"k_hz2_per_watt": math.nan, **_NO_ANCHOR},
     "invalid calibration: calibration constant k must be positive and finite"),
    ({"anchor_rabi_hz": 0.0}, "invalid calibration: anchor Rabi amplitude must be positive"),
    ({"anchor_rabi_hz": math.nan},
     "invalid calibration: calibration constant k must be positive and finite"),
    ({"anchor_power_dbm": -4000.0}, "invalid calibration: float division by zero"),
    ({"anchor_power_dbm": 4000.0}, "invalid calibration: (34, 'Numerical result out of range')"),
    ({"k_hz2_per_watt": 1.0}, "calibration needs exactly one of k_hz2_per_watt or an anchor pair"),
    ({"anchor_rabi_hz": None},
     "invalid calibration: calibration anchor needs both anchor_power_dbm and anchor_rabi_hz"),
], ids=["k-zero", "k-nan", "anchor-rabi-zero", "anchor-rabi-nan", "anchor-power-underflow",
        "anchor-power-overflow", "k-and-anchor", "anchor-half"])
def test_bad_calibration_error_line(tmp_path, capsys, calibration, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"calibration": calibration}))
    code = main(["simulate", "power-sweep", "--profile", "paper", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# k and each power are finite, but k times the power is not
_HUGE_K = {"calibration": {"k_hz2_per_watt": 1e300, "anchor_power_dbm": None, "anchor_rabi_hz": None},
           "power_grid": {"start": 200.0, "stop": 300.0, "count": 3}}


@pytest.mark.parametrize("argv,overlay", [
    (["simulate", "flux-sweep"], {"control_rabi_hz": [1e300]}),
    (["simulate", "power-sweep"], _HUGE_K),
    (["simulate", "control-sweep"], _HUGE_K),
    (["pipeline", "linewidth"], _HUGE_K),
], ids=["flux-rabi", "power-sweep-amplitude", "control-sweep-amplitude", "pipeline-amplitude"])
def test_control_amplitude_overflow_is_config_error(tmp_path, capsys, argv, overlay):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(overlay))
    code = main([*argv, "--profile", "paper", "--config", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "out of range" in captured.err


@pytest.mark.parametrize("scheme", ["control-sweep", "power-sweep"])
def test_threshold_power_that_overflows_is_null(tmp_path, capsys, scheme):
    # threshold**2 / k is inf watts, which has no dBm: the export says null
    path = tmp_path / "tiny_k.json"
    path.write_text(json.dumps({"calibration": {"k_hz2_per_watt": 1e-300, **_NO_ANCHOR}}))
    code = main(["simulate", scheme, "--profile", "paper", "--config", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    summary = json.loads(captured.out)["summary"]
    assert summary["threshold_power_dbm"] is None
    assert summary["threshold_rabi_hz"] == 16.06e6


def test_singular_model_point_is_config_error(tmp_path, capsys):
    # no decay and no dephasing: with the control off, r's denominator
    # vanishes at zero probe detuning
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"atom": {"decay_hz": 0.0, "dephasing1_hz": 0.0}, "control_rabi_hz": [0.0]}))
    code = main(["simulate", "flux-sweep", "--profile", "paper", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "singular" in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "control-sweep"],
    ["simulate", "power-sweep"],
    ["simulate", "flux-sweep"],
    ["pipeline", "linewidth"],
], ids=["control-sweep", "power-sweep", "flux-sweep", "linewidth-pipeline"])
def test_complete_config_file_needs_no_profile(tmp_path, capsys, argv):
    scheme = "linewidth-pipeline" if argv[0] == "pipeline" else argv[1]
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(experiments.paper_profile(scheme).to_dict()))
    assert main([*argv, "--profile", "paper"]) == 0
    profile_bytes = capsys.readouterr().out
    assert main([*argv, "--config", str(path)]) == 0
    assert_same_text(capsys.readouterr().out, profile_bytes)


@pytest.mark.parametrize("version,code", [(1, 0), (99, 2)])
def test_config_file_schema_version_is_checked_with_a_profile(tmp_path, capsys, version, code):
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({"schema_version": version, "noise": {"seed": 3}}))
    assert main(["simulate", "power-sweep", "--profile", "paper", "--config", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == "error: config schema_version must be 1, got 99\n"
    else:
        assert captured.out.startswith("control_power_dbm,") and captured.err == ""


def test_config_file_that_is_not_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"noise": {"seed": 3,}}')
    assert main(["simulate", "power-sweep", "--profile", "paper", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not valid JSON" in captured.err


def test_integer_too_large_for_a_float_is_config_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"probe_detuning_hz": 1%s}' % ("0" * 400))
    assert main(["simulate", "power-sweep", "--profile", "paper", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "probe_detuning_hz is too large for a float" in captured.err


_WRONG_CLOSED_FORMS = {
    "true": lambda G10, g10, g20, oc, dp, dc: (G10, g10, g20, oc, dp, dc),
    "gamma20-1e-8": lambda G10, g10, g20, oc, dp, dc: (G10, g10, g20 * (1.0 + 1e-8), oc, dp, dc),
    "gamma10-1e-8": lambda G10, g10, g20, oc, dp, dc: (G10, g10 * (1.0 + 1e-8), g20, oc, dp, dc),
    "Gamma10-1e-8": lambda G10, g10, g20, oc, dp, dc: (G10 * (1.0 + 1e-8), g10, g20, oc, dp, dc),
    "control-detuning-sign": lambda G10, g10, g20, oc, dp, dc: (G10, g10, g20, oc, dp, -dc),
}


@pytest.mark.parametrize("wrong", list(_WRONG_CLOSED_FORMS))
def test_oracle_check_fails_a_wrong_closed_form(monkeypatch, capsys, wrong):
    # at the oracle's own probe the weak-probe term is ~1e-13, so a closed
    # form off by 1e-8 in one rate reads ~1e-8 and fails the 1e-10 bound
    closed_form = lindblad.reflection_coefficient
    monkeypatch.setattr(lindblad, "reflection_coefficient",
                        lambda *args: closed_form(*_WRONG_CLOSED_FORMS[wrong](*args)))
    code = main(["oracle", "check"])
    last = capsys.readouterr().out.splitlines()[-1]
    if wrong == "true":
        assert (code, last) == (0, "oracle check passed: max relative deviation <= 1e-10")
    else:
        assert (code, last) == (1, "oracle check FAILED: max relative deviation > 1e-10")


def test_oracle_check_has_no_probe_flag(capsys):
    # the oracle derives its probe from the atom
    with pytest.raises(SystemExit) as err:
        main(["oracle", "check", "--probe-rabi-hz", "1e4"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "unrecognized arguments: --probe-rabi-hz 1e4" in captured.err


@pytest.mark.parametrize("argv", [
    ["--span-hz", "1e307"],
    ["--span-hz", "1e160"],
], ids=["span-1e307", "span-1e160"])
def test_oracle_check_too_large_for_the_solver_is_config_error(capsys, argv):
    # finite in rad/s, but the Liouvillian norm overflows: the residual test
    # cannot be made, so the check does not pass, and no numpy warning shows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["oracle", "check", "--grid-count", "3", *argv])
    assert [str(w.message) for w in caught] == []
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "liouvillian norm or residual is not finite" in captured.err


_HUGE_CONTROL_GRID = {"control_frequency_grid": {"start": 1e308, "stop": 1.7e308, "count": 10}}


@pytest.mark.parametrize("argv,overlay", [
    (["simulate", "flux-sweep"], {"control_rabi_hz": [1e308]}),
    (["simulate", "flux-sweep"], {"probe_detuning_grid": {"start": -1e308, "stop": 1e308, "count": 3}}),
    (["simulate", "control-sweep"], _HUGE_CONTROL_GRID),
    (["pipeline", "linewidth"], _HUGE_CONTROL_GRID),
    (["simulate", "power-sweep"],
     {"power_grid": {"start": -60, "stop": -60, "count": 1}, "noise": {"sigma_rel": 1.5e308, "seed": 75}}),
    (["simulate", "flux-sweep"], {"scale": 1e308, "crosstalk_re": 1e308}),
    (["pipeline", "linewidth"], {"noise": {"sigma_rel": 1e300}}),
    (["pipeline", "linewidth"], {"noise": {"sigma_rel": 1e308}}),
    (["pipeline", "linewidth"], {"noise": {"sigma_rel": 1e300, "kind": "magnitude"}}),
    (["pipeline", "linewidth"], {"atom": {"anharmonicity_hz": 1e307}}),
], ids=["flux-rabi-angular", "flux-grid-span", "control-grid-angular", "pipeline-grid-angular",
        "power-noise-abs", "flux-scale-crosstalk", "pipeline-noise-1e300", "pipeline-noise-1e308",
        "pipeline-magnitude-noise", "pipeline-detunings-mean"])
def test_angular_overflow_prints_only_the_error_line(tmp_path, capsys, argv, overlay):
    # a value finite in the config that overflows on the way (in rad/s, in
    # the noise, in the exported abs, in a fit's mean of the detunings)
    # ends the run with the one error line, with no numpy warning before it
    # and numpy's error state as it was
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(overlay))
    before = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--profile", "paper", "--config", str(path)])
    assert [str(w.message) for w in caught] == []
    assert np.geterr() == before
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_OVERFLOW}\n"


@pytest.mark.parametrize("argv", [
    ["oracle", "check", "--grid-count", "2", "--span-hz", "inf"],
    ["oracle", "check", "--grid-count", "2", "--span-hz", "nan"],
    ["oracle", "check", "--grid-count", "2", "--span-hz", "1e308"],
    ["idt", "response", "--np", "25", "--f-idt", "2.26e9", "--k2", "7.11e-4", "--f-max", "inf"],
    ["idt", "response", "--np", "25", "--f-idt", "2.26e9", "--k2", "7.11e-4", "--f-min", "nan"],
    ["idt", "response", "--np", "25", "--f-idt", "2.26e9", "--k2", "7.11e-4", "--f-max", "1e308", "--count", "3"],
], ids=["span-inf", "span-nan", "span-angular-overflow", "f-max-inf", "f-min-nan", "f-max-angular-overflow"])
def test_non_finite_flag_is_config_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "control-sweep", "--profile", "paper", "--format", "csv"],
    ["simulate", "control-sweep", "--profile", "paper", "--format", "json"],
    ["simulate", "power-sweep", "--profile", "paper", "--format", "csv"],
    ["simulate", "power-sweep", "--profile", "paper", "--format", "json"],
    ["simulate", "flux-sweep", "--profile", "paper", "--format", "csv"],
    ["simulate", "flux-sweep", "--profile", "paper", "--format", "json"],
    ["idt", "response", "--np", "25", "--f-idt", "2.26e9", "--k2", "7.11e-4", "--format", "csv"],
    ["idt", "response", "--np", "25", "--f-idt", "2.26e9", "--k2", "7.11e-4", "--format", "json"],
    ["pipeline", "linewidth", "--profile", "paper"],
], ids=["control-sweep-csv", "control-sweep-json", "power-sweep-csv", "power-sweep-json", "flux-sweep-csv",
        "flux-sweep-json", "idt-csv", "idt-json", "linewidth-pipeline"])
def test_out_file_matches_stdout_bytes(tmp_path, capsys, argv):
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    # the bytes do not depend on where they are written
    for directory in ("a", "b/c"):
        out_path = tmp_path / directory / "out"
        out_path.parent.mkdir(parents=True)
        assert main([*argv, "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert_same_text(out_path.read_bytes(), stdout.encode("utf-8"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_run_renders_its_table_once(tmp_path, capsys, monkeypatch, fmt, out):
    # with --out the file is export_result's one rendering of the table
    calls = []
    table_chunks = experiments.table_chunks

    def counted(*args, **kwargs):
        calls.append(args[1])
        return table_chunks(*args, **kwargs)

    monkeypatch.setattr(experiments, "table_chunks", counted)
    monkeypatch.setattr(cli, "table_chunks", counted)
    argv = ["simulate", "power-sweep", "--profile", "paper", "--format", fmt]
    assert main(argv + ["--out", str(tmp_path / "table")] if out else argv) == 0
    capsys.readouterr()
    assert calls == [fmt]


@pytest.mark.parametrize("argv", [
    ["simulate", "power-sweep", "--profile", "paper"],
    ["pipeline", "linewidth", "--profile", "paper"],
    ["idt", "response", "--np", "25", "--f-idt", "2.26e9", "--k2", "7.11e-4"],
], ids=["simulate", "pipeline", "idt"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_config_error(tmp_path, capsys, argv, target):
    out_path = tmp_path / "no" / "such" / "x.csv" if target == "missing-dir" else tmp_path
    assert main([*argv, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out_path}: ")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("key,value", [("output_path", "x.csv"), ("output_format", "json")])
def test_config_file_output_keys_are_unknown(tmp_path, capsys, key, value):
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({key: value}))
    code = main(["simulate", "control-sweep", "--profile", "paper", "--config", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config has unknown keys: ['{key}']\n"


class _Writes:
    """A stdout that keeps every write separately."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_is_written_a_chunk_at_a_time(tmp_path, monkeypatch, fmt):
    overlay = tmp_path / "grid.json"
    overlay.write_text(json.dumps({"control_frequency_grid": {"count": 1001}}))
    argv = ["simulate", "control-sweep", "--profile", "paper", "--config", str(overlay), "--format", fmt]
    stdout = _Writes()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(argv) == 0
    monkeypatch.undo()
    rows = 21 * 1001
    assert len(stdout.writes) >= rows // _CHUNK_ROWS
    text = "".join(stdout.writes)
    assert max(map(len, stdout.writes)) < len(text) / 4
    config = resolve_config("control-sweep", profile="paper", config_path=str(overlay))
    assert_same_text(text, result_text(run_experiment(config), fmt))


def test_out_write_that_fails_at_close_exits_two_and_removes_the_file(tmp_path, capsys, monkeypatch):
    class FullDisk:
        """A file whose buffered rows cannot be flushed when it is closed."""

        def __init__(self, handle) -> None:
            self.handle = handle

        def fileno(self) -> int:
            return self.handle.fileno()

        def writelines(self, chunks) -> None:
            self.handle.writelines(chunks)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info) -> None:
            self.handle.close()
            raise OSError(errno.ENOSPC, "No space left on device")

    real_open = open
    monkeypatch.setattr(experiments, "open", lambda *a, **k: FullDisk(real_open(*a, **k)), raising=False)
    out_path = tmp_path / "map.csv"
    assert main(["simulate", "control-sweep", "--profile", "paper", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out_path}: No space left on device\n"
    assert not out_path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_stdout_exits_two_without_traceback(fmt):
    src = Path(experiments.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "acoustic_eit.cli", "simulate", "control-sweep", "--profile", "paper", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # the export is far larger than a pipe's buffer, so the child is still
    # writing when the reader goes away
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: cannot write to stdout: Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "power-sweep", "--profile", "paper", "--out", "power.csv"],
    ["idt", "response", "--np", "25", "--f-idt", "2.26e9", "--k2", "7.11e-4", "--out", "idt.csv"],
    ["classify", "--gamma10", "21e6", "--gamma20", "4.94e6", "--omega-c", "30e6"],
    ["oracle", "check"],
], ids=["run-out", "idt-out", "classify", "oracle"])
def test_closed_stdout_after_short_output_exits_two(tmp_path, argv):
    src = Path(experiments.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    # a pipe whose reader is gone before the child starts: its first write fails
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run([sys.executable, "-m", "acoustic_eit.cli", *argv], stdout=write_fd,
                              stderr=subprocess.PIPE, env=env, cwd=tmp_path, timeout=120)
    finally:
        os.close(write_fd)
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: cannot write to stdout: Broken pipe\n"
