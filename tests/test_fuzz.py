"""Seeded fuzz of the command line: every command keeps one error contract.

Flags and config values are drawn from edge values (signed zeros, a
subnormal, values near the float64 limit, inf, nan, an int past 2**64) with
a fixed random.Random(seed), and each command runs in process through
cli.main. Only values that argparse accepts for the flag's type are drawn,
so every call reaches a handler.
"""

from __future__ import annotations

import json
import math
import random
import re
import warnings

import pytest

from acoustic_eit.cli import main, scheme_command
from acoustic_eit.experiments import FORMATS, SCHEMES, paper_profile

_VALUES = [0.0, -0.0, -1.0, 1e-320, 1e-300, 1e-6, 1.0, 1e6, 2.26e9, 1e154, 1e300, 1e307, 1e308, 1.7e308,
           math.inf, -math.inf, math.nan, 2**70]
_COUNTS = [-1, 0, 1, 2, 3, 25, 2**70]
# the grid counts that shrink each scheme's paper profile: a larger grid
# costs time and reaches no other code
_SMALL_GRIDS = {
    "control-sweep": {"power_grid": {"count": 3}, "control_frequency_grid": {"count": 5}},
    "power-sweep": {"power_grid": {"count": 3}},
    "flux-sweep": {"probe_detuning_grid": {"count": 5}},
    "linewidth-pipeline": {"power_grid": {"count": 3}, "control_frequency_grid": {"count": 9}},
}
# passes at exit 0 unless the oracle runs under the float-overflow policy
# and a NaN deviation does not read as agreement
_PINNED = [
    ["oracle", "check", "--grid-count", "3", "--span-hz", "2e307"],
]
_NON_FINITE = {"inf", "-inf", "nan", "Infinity", "-Infinity", "NaN"}


def _flag(name: str, value) -> str:
    # "--flag=-inf": argparse would take a bare "-inf" for an option
    return f"{name}={value!r}"


def _numeric_leaves(node, path=()):
    """Paths of a config dict's number leaves, grid counts and the seed left out."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numeric_leaves(value, (*path, index))
    elif isinstance(node, (int, float)) and not isinstance(node, bool) and path[-1] not in (
            "count", "seed", "schema_version"):
        yield path


def _draw_run(rng: random.Random, tmp_path, index: int) -> list[str]:
    scheme = rng.choice(sorted(_SMALL_GRIDS))
    config = paper_profile(scheme).to_dict()
    for section, grid in _SMALL_GRIDS[scheme].items():
        config[section].update(grid)
    leaves = list(_numeric_leaves(config))
    for path in rng.sample(leaves, rng.randint(1, 3)):
        *parents, leaf = path
        node = config
        for key in parents:
            node = node[key]
        node[leaf] = rng.choice(_VALUES)
    path = tmp_path / f"config{index}.json"
    path.write_text(json.dumps(config))
    argv = [*scheme_command(scheme), "--config", str(path), "--format", rng.choice(FORMATS)]
    if rng.random() < 0.2:
        argv.append(_flag("--seed", rng.choice(_COUNTS)))
    return argv


def _draw(rng: random.Random, tmp_path, index: int) -> list[str]:
    """One command line: each flag keeps its working value or, half the
    time, takes an edge value."""
    def pick(name, working, edges=_VALUES):
        return _flag(name, working if rng.random() < 0.5 else rng.choice(edges))

    command = rng.choice(["run", "classify", "idt", "oracle"])
    if command == "run":
        return _draw_run(rng, tmp_path, index)
    if command == "classify":
        return ["classify", pick("--gamma10", 21e6), pick("--gamma20", 4.94e6), pick("--omega-c", 6.1e6)]
    if command == "idt":
        argv = ["idt", "response", pick("--np", 25, _COUNTS), pick("--f-idt", 2.26e9), pick("--k2", 7.11e-4),
                pick("--count", 3, _COUNTS), "--format", rng.choice(FORMATS)]
        return argv + [pick(name, working) for name, working in (("--ct", 1.5e-13), ("--f-min", 2.1e9),
                                                                  ("--f-max", 2.4e9)) if rng.random() < 0.5]
    # a grid count past 3 only costs time
    return ["oracle", "check", pick("--grid-count", 3, _COUNTS[:5]), pick("--span-hz", 50e6)]


def _contract_breaches(argv: list[str], capsys) -> list[str]:
    """What a call of main does outside the contract: exit 0, 2 or 3, no
    exception or warning, no non-finite cell in a successful output, and one
    error line for exit 2 or 3. Exit 1, a failed oracle check, is a breach:
    the oracle checks the build, and no input makes a correct one fail."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except BaseException as exc:  # an escaping SystemExit breaks the contract too
            capsys.readouterr()
            return [f"raised {exc!r}"]
    out, err = capsys.readouterr()
    breaches = [f"warned {w.message}" for w in caught]
    if code not in (0, 2, 3):
        breaches.append(f"exit {code}")
    if code == 0 and _NON_FINITE & set(re.split(r"[\s,=:\[\]{}\"]+", out)):
        breaches.append("non-finite value in the output")
    if code in (2, 3) and not (err.startswith("error: ") and err.count("\n") == 1):
        breaches.append(f"stderr {err!r}")
    return breaches


def test_every_scheme_is_fuzzed():
    # a scheme added to the table without small grids here fails, instead of
    # escaping the error contract
    assert tuple(_SMALL_GRIDS) == SCHEMES


@pytest.mark.parametrize("seed", [1, 2])
def test_fuzzed_commands_keep_the_error_contract(tmp_path, capsys, seed):
    rng = random.Random(seed)
    calls = [*_PINNED, *(_draw(rng, tmp_path, index) for index in range(150))]
    breaches = [(argv, breach) for argv in calls for breach in _contract_breaches(argv, capsys)]
    assert breaches == []
