"""The README's Python examples run as written, with numpy alone, its table
of the config fields each scheme reads holds, and the Python and numpy it and
pyproject.toml declare are the versions CI pins."""

from __future__ import annotations

import json
import math
import re
import sys
import tomllib
from dataclasses import fields, replace
from pathlib import Path

import pytest

from acoustic_eit.errors import ConfigError
from acoustic_eit.experiments import (
    _SCHEMES,
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
# a value of each of those fields that a scheme reading it rejects
_INVALID_UNREAD_VALUES = {
    "calibration": None,
    "probe_detuning_hz": math.nan,
    "power_grid": None,
    "control_frequency_grid": GridSpec(start=-2.16e9, stop=-2.14e9, count=7),
    "probe_detuning_grid": None,
    "control_rabi_hz": (-1.0,),
    "control_frequency_hz": -5.0,
    "residual_detuning_hz": -math.inf,
    "crosstalk_re": math.inf,
    "crosstalk_im": math.nan,
    "scale": -1.0,
}


def _readme_rows() -> dict[str, set[str]]:
    """Each scheme's row of the README's run-fields table, as a set of fields."""
    return {name: set(re.findall(r"`(\w+)`", cells))
            for name, cells in _FIELD_ROW.findall(README.read_text(encoding="utf-8")) if name in SCHEMES}


def test_each_readme_row_is_the_fields_its_scheme_reads():
    assert _readme_rows() == {scheme: set(_SCHEMES[scheme].reads) for scheme in SCHEMES}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_field_outside_its_readme_row_changes_no_exported_value(scheme):
    rows = _readme_rows()
    assert set(rows) == set(SCHEMES)
    unread = {f.name for f in fields(ExperimentConfig)} - rows[scheme] - {"scheme"}
    assert unread and unread <= set(_UNREAD_VALUES) == set(_INVALID_UNREAD_VALUES)
    base = replace(paper_profile(scheme), noise=NoiseParams(sigma_rel=0.01, seed=5))
    moved = replace(base, **{name: _UNREAD_VALUES[name] for name in unread})
    # an unread field is ignored, valid or not: these configs construct
    broken = replace(moved, **{name: _INVALID_UNREAD_VALUES[name] for name in unread})
    for config, before in ((moved, base), (broken, moved)):
        assert all(getattr(config, name) != getattr(before, name) for name in unread)
    results = [run_experiment(config) for config in (base, moved, broken)]
    exports = [json.loads(result_text(result, "json")) for result in results]
    for result, export in zip(results[1:], exports[1:]):
        assert_same_text(result_text(result, "csv"), result_text(results[0], "csv"))
        for key in ("columns", "rows", "summary"):
            same = export[key] == exports[0][key]  # a bool, so a failure prints no diff of the rows
            assert same, key
    assert exports[0]["config_echo"] != exports[1]["config_echo"] != exports[2]["config_echo"]
    # the echo writes a non-finite value as null, as it writes a missing grid
    echo = exports[2]["config_echo"]
    for name in unread:
        value = _INVALID_UNREAD_VALUES[name]
        assert (echo[name] is None) == (value is None or isinstance(value, float) and not math.isfinite(value)), name


@pytest.mark.parametrize("scheme, name, value, message", [
    ("control-sweep", "probe_detuning_hz", math.nan, "probe_detuning_hz must be finite"),
    ("power-sweep", "control_frequency_hz", -5.0, "control_frequency_hz must be positive"),
    ("power-sweep", "control_frequency_hz", math.inf, "control_frequency_hz must be positive"),
    ("flux-sweep", "scale", -1.0, "scale must be positive"),
    ("linewidth-pipeline", "control_frequency_grid", GridSpec(start=-2.2e9, stop=-2.1e9, count=201),
     "control_frequency_grid must be positive frequencies"),
])
def test_a_bad_value_of_a_read_field_keeps_its_message(scheme, name, value, message):
    assert name in _readme_rows()[scheme]
    with pytest.raises(ConfigError, match=f"^{message}$"):
        replace(paper_profile(scheme), **{name: value})


def test_declared_versions_are_the_ones_ci_pins():
    # every digest was captured under the workflow's pins, so the declared
    # floors are those pins and nothing older that no job runs
    root = README.parent
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    pinned = dict(pin.split("==") for pin in re.search(r"^\s*PINNED: (.+)$", workflow, re.MULTILINE)[1].split())
    python, = set(re.findall(r'^\s*python-version: "(.+)"$', workflow, re.MULTILINE))
    assert project["requires-python"] == f">={python}"
    assert project["dependencies"] == [f"numpy>={pinned['numpy']}"]
    assert f"Python {python} or newer and numpy {pinned['numpy']} or newer;" in README.read_text(encoding="utf-8")
