"""The README's Python examples run as written, with numpy alone, and its
table of the config fields each scheme reads holds."""

from __future__ import annotations

import json
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from acoustic_eit.experiments import (
    SCHEMES,
    CalibrationParams,
    ExperimentConfig,
    GridSpec,
    NoiseParams,
    paper_profile,
    result_text,
    run_experiment,
)
from textdiff import assert_same_text

README = Path(__file__).resolve().parents[1] / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order(monkeypatch, capsys):
    blocks = _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    # any import of scipy raises ImportError, as on a numpy-only install
    monkeypatch.setitem(sys.modules, "scipy", None)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["tau"] < 0.0 and namespace["spectrum"].shape == (201,)
    assert abs(namespace["r_me"] - namespace["r"]) < 1e-3 * abs(namespace["r"])


_FIELD_ROW = re.compile(r"^\| `([a-z-]+)` \| (`.+`) \|$", re.MULTILINE)
# another valid value of every config field that some scheme leaves unread
_UNREAD_VALUES = {
    "calibration": CalibrationParams(k_hz2_per_watt=2.0e19),
    "probe_detuning_hz": 3.0e6,
    "power_grid": GridSpec(start=-55.0, stop=-50.0, count=4),
    "control_frequency_grid": GridSpec(start=2.14e9, stop=2.16e9, count=7),
    "probe_detuning_grid": GridSpec(start=-5.0e6, stop=5.0e6, count=9),
    "control_rabi_hz": (1.0e6, 2.0e6),
    "control_frequency_hz": 2.16e9,
    "residual_detuning_hz": -2.0e6,
    "crosstalk_re": 0.2,
    "crosstalk_im": -0.1,
    "scale": 1.5,
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_field_outside_its_readme_row_changes_no_exported_value(scheme):
    rows = {name: set(re.findall(r"`(\w+)`", cells))
            for name, cells in _FIELD_ROW.findall(README.read_text(encoding="utf-8")) if name in SCHEMES}
    assert set(rows) == set(SCHEMES)
    unread = {f.name for f in fields(ExperimentConfig)} - rows[scheme] - {"scheme"}
    assert unread and unread <= set(_UNREAD_VALUES)
    base = replace(paper_profile(scheme), noise=NoiseParams(sigma_rel=0.01, seed=5))
    moved = replace(base, **{name: _UNREAD_VALUES[name] for name in unread})
    assert all(getattr(moved, name) != getattr(base, name) for name in unread)
    results = [run_experiment(config) for config in (base, moved)]
    assert_same_text(result_text(results[1], "csv"), result_text(results[0], "csv"))
    exports = [json.loads(result_text(result, "json")) for result in results]
    for key in ("columns", "rows", "summary"):
        same = exports[1][key] == exports[0][key]  # a bool, so a failure prints no diff of the rows
        assert same, key
    assert exports[1]["config_echo"] != exports[0]["config_echo"]
