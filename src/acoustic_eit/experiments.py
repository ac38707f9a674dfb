"""Config-driven sweep generation, noise synthesis, pipelines, and export.

External units at this boundary: frequencies and rates in Hz, powers in dBm,
capacitance in farads. Everything is converted to angular frequencies on the
way into the physics layer and back to Hz on the way out, so exported tables
are directly plot-ready.

Determinism: a config plus its seed fully determines every byte of the
export. Noise uses a counter-based generator (Philox): a sweep draws its
(n, 2) block from the config seed, and the linewidth pipeline derives one
child seed per power row via SeedSequence.spawn. Exports carry no timestamps.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, get_args, get_type_hints

import numpy as np

from .errors import ConfigError, ConvergenceError, SingularModelError
from .estimation import fit_dip_stack, fit_linewidth_line, rabi_per_point
from .model import ThreeLevelAtom, reflection_coefficient, transmission_flux_coefficient
from .poles import classify_regime, crossover_rabi
from .units import (
    TWO_PI,
    angular_to_hz,
    dbm_to_watts,
    hz_to_angular,
    watts_to_dbm,
)

SCHEMA_VERSION = 1
FORMATS = ("csv", "json")
# rows per export or import chunk: an export holds one chunk of formatted
# rows in memory at a time instead of the whole text, and import_csv one
# chunk of lines
_CHUNK_ROWS = 4096
# bytes per read of import_csv's scan for a quote or a carriage return
_SCAN_BYTES = 1 << 20
# points in one run's grid (and in an idt response table): measured peak
# memory is about 160 B per point for a sweep (767 MB for a control sweep
# at the cap) and 370 B per point for the linewidth pipeline, so a run at
# the cap stays under about 2 GB
_MAX_POINTS = 5_000_000


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _finite(value: float) -> bool:
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


# ---------------------------------------------------------------------------
# Config types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Inclusive linear grid: count points from start to stop."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        _require(_finite(self.start) and _finite(self.stop), "grid start/stop must be finite numbers")
        _require(isinstance(self.count, int) and not isinstance(self.count, bool) and self.count >= 1,
                 "grid count must be an integer >= 1")
        # start == stop with count > 1 is allowed: a repeated-setpoint grid is
        # how rank-deficient sweeps (all rows at one power) are expressed

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class AtomParams:
    """Three-level atom in external units (Hz, not angular)."""

    frequency_hz: float
    anharmonicity_hz: float
    decay_hz: float
    upper_decay_hz: float = 0.0
    dephasing1_hz: float = 0.0
    dephasing2_hz: float = 0.0

    def build(self) -> ThreeLevelAtom:
        try:
            return ThreeLevelAtom(
                omega10=hz_to_angular(self.frequency_hz),
                anharmonicity=hz_to_angular(self.anharmonicity_hz),
                Gamma10=hz_to_angular(self.decay_hz),
                Gamma21=hz_to_angular(self.upper_decay_hz),
                gphi1=hz_to_angular(self.dephasing1_hz),
                gphi2=hz_to_angular(self.dephasing2_hz),
            )
        except (ValueError, OverflowError) as exc:  # an int too large for a float
            raise ConfigError(f"invalid atom parameters: {exc}") from exc


@dataclass(frozen=True)
class CalibrationParams:
    """Control-line power calibration Omega_c**2 = k * P: either k directly or
    a power anchor.

    k_hz2_per_watt uses cyclic units ((Omega_c/2pi)^2 = k * P); the anchor
    form pins one known Rabi frequency at one known power. build() returns
    the angular k in (rad/s)^2 per watt, so Omega_c = sqrt(k * P) in rad/s
    for a power P in watts.
    """

    k_hz2_per_watt: float | None = None
    anchor_power_dbm: float | None = None
    anchor_rabi_hz: float | None = None

    def build(self) -> float:
        has_k = self.k_hz2_per_watt is not None
        has_anchor = self.anchor_power_dbm is not None or self.anchor_rabi_hz is not None
        _require(has_k != has_anchor,
                 "calibration needs exactly one of k_hz2_per_watt or an anchor pair")
        try:
            if has_k:
                k = self.k_hz2_per_watt * TWO_PI**2
            else:
                _require(self.anchor_power_dbm is not None and self.anchor_rabi_hz is not None,
                         "calibration anchor needs both anchor_power_dbm and anchor_rabi_hz")
                omega_c = hz_to_angular(self.anchor_rabi_hz)
                if omega_c <= 0.0:  # a NaN amplitude passes on to the check of k
                    raise ValueError("anchor Rabi amplitude must be positive")
                k = omega_c**2 / dbm_to_watts(self.anchor_power_dbm)
            if not (k > 0.0 and math.isfinite(k)):
                raise ValueError("calibration constant k must be positive and finite")
        except (ValueError, ArithmeticError) as exc:  # an anchor power whose watts overflow or vanish
            raise ConfigError(f"invalid calibration: {exc}") from exc
        return k


@dataclass(frozen=True)
class NoiseParams:
    """Measurement noise model: relative Gaussian noise and its seed."""

    sigma_rel: float = 0.0
    seed: int = 0
    kind: str = "complex"

    def __post_init__(self) -> None:
        _require(_finite(self.sigma_rel) and self.sigma_rel >= 0.0, "noise.sigma_rel must be >= 0")
        _require(isinstance(self.seed, int) and not isinstance(self.seed, bool)
                 and 0 <= self.seed < 2**64, "noise.seed must be an integer in [0, 2^64)")
        _require(self.kind in ("complex", "magnitude"), "noise.kind must be 'complex' or 'magnitude'")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated experiment."""

    scheme: str
    atom: AtomParams
    calibration: CalibrationParams | None = None
    probe_detuning_hz: float = 0.0
    power_grid: GridSpec | None = None
    control_frequency_grid: GridSpec | None = None
    probe_detuning_grid: GridSpec | None = None
    control_rabi_hz: tuple[float, ...] = ()
    control_frequency_hz: float | None = None
    residual_detuning_hz: float = 0.0
    crosstalk_re: float = 0.0
    crosstalk_im: float = 0.0
    scale: float = 1.0
    noise: NoiseParams = field(default_factory=NoiseParams)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        _require(self.scheme in SCHEMES, f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        self.atom.build()
        reads = _SCHEMES[self.scheme].reads
        if "calibration" in reads:
            _require(self.calibration is not None, f"{self.scheme} needs a calibration section")
            self.calibration.build()
        points = 1
        for name, least in reads.items():
            value = getattr(self, name)
            if least:
                size = 0 if value is None else value.count if isinstance(value, GridSpec) else len(value)
                _require(size >= least, f"{self.scheme} needs {name} ({least} or more points)")
                points *= size
            if name in _FIELD_CHECKS:
                check, message = _FIELD_CHECKS[name]
                _require(check(value), message)
        if self.scheme == "linewidth-pipeline":
            # the pipeline reports log10 of each power in watts; a power
            # above 0 dBm cannot underflow, and might overflow dbm_to_watts
            lowest = min(self.power_grid.start, self.power_grid.stop)
            _require(lowest > 0.0 or dbm_to_watts(lowest) > 0.0,
                     f"linewidth-pipeline power_grid starts at {lowest:g} dBm, which is 0 W in float64")
        _require(points <= _MAX_POINTS, f"{self.scheme} grid has {points} points; the limit is {_MAX_POINTS}")

    def to_dict(self) -> dict[str, Any]:
        return {"schema_version": SCHEMA_VERSION, **_encode(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        _require(isinstance(data, Mapping), "config must be a JSON object")
        data = dict(data)
        version = data.pop("schema_version", None)
        _require(version == SCHEMA_VERSION,
                 f"config schema_version must be {SCHEMA_VERSION}, got {version!r}")
        return _decode(cls, data, "")


# a checked config field's test and error; validate tests only the fields the scheme reads
_FIELD_CHECKS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "probe_detuning_hz": (_finite, "probe_detuning_hz must be finite"),
    "residual_detuning_hz": (_finite, "residual_detuning_hz must be finite"),
    "crosstalk_re": (_finite, "crosstalk must be finite"),
    "crosstalk_im": (_finite, "crosstalk must be finite"),
    "scale": (lambda v: _finite(v) and v > 0.0, "scale must be positive"),
    "control_frequency_hz": (lambda v: v is None or (_finite(v) and v > 0.0), "control_frequency_hz must be positive"),
    "control_frequency_grid": (lambda g: min(g.start, g.stop) > 0.0,
                               "control_frequency_grid must be positive frequencies"),
    "control_rabi_hz": (lambda v: all(_finite(x) and x >= 0.0 for x in v),
                        "control_rabi_hz values must be finite and nonnegative"),
}


def _encode(value: Any) -> Any:
    """Plain JSON-ready form of a config dataclass: nested sections become
    dicts and tuples become lists, in field declaration order."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(cls: type, data: Any, path: str) -> Any:
    """Build config dataclass cls from a JSON object, checking each key
    against the declared field types. path is the section name ("" at the
    top level) used in error messages."""
    where = path or "config"
    _require(isinstance(data, Mapping), f"{where} must be an object")
    declared = fields(cls)
    extra = set(data) - {f.name for f in declared}
    _require(not extra, f"{where} has unknown keys: {sorted(extra)}")
    required = [f.name for f in declared if f.default is MISSING and f.default_factory is MISSING]
    if not set(required) <= set(data):
        *head, last = required
        listed = f"{', '.join(head)}, and {last}" if len(head) > 1 else " and ".join(required)
        raise ConfigError(f"{where} needs {listed}")
    hints = get_type_hints(cls)
    return cls(**{
        name: _decode_value(hints[name], value, f"{path}.{name}" if path else name)
        for name, value in data.items()
    })


def _decode_value(hint: Any, value: Any, path: str) -> Any:
    args = get_args(hint)
    if type(None) in args:  # X | None
        if value is None:
            return None
        hint = args[0]
    if is_dataclass(hint):
        return _decode(hint, value, path)
    if hint is int:
        _require(isinstance(value, int) and not isinstance(value, bool), f"{path} must be an integer")
        return value
    if hint is float:
        _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{path} must be a number")
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path} is too large for a float") from None
    if hint is str:
        _require(isinstance(value, str), f"{path} must be a string")
        return value
    # tuple[float, ...]
    _require(isinstance(value, list), f"{path} must be a list")
    item = get_args(hint)[0]
    return tuple(_decode_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))


def merge_config_dicts(base: Mapping[str, Any], overlay: Mapping[str, Any]) -> dict[str, Any]:
    """Field-by-field overlay: overlay leaves win, objects merge recursively."""
    merged = dict(base)
    for key, value in overlay.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), Mapping):
            merged[key] = merge_config_dicts(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_config_file(path: str | Path) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "config file must contain a JSON object")
    return data


# ---------------------------------------------------------------------------
# Built-in device profile
# ---------------------------------------------------------------------------

# Reflection-side device: probe resonant with the 0-1 transition, second
# transition 2.15 GHz, radiative decay 20.1 MHz, coherence rates 21 / 4.94 MHz.
_REFLECTION_ATOM = AtomParams(
    frequency_hz=2.2684e9,
    anharmonicity_hz=118.4e6,
    decay_hz=20.1e6,
    upper_decay_hz=1.09e6,
    dephasing1_hz=10.95e6,
    dephasing2_hz=4.395e6,
)

# Transmission-side device: probe fixed at 2.2644 GHz, upper coherence rate
# 4.5 MHz as extracted from the transmitted lineshapes.
_TRANSMISSION_ATOM = AtomParams(
    frequency_hz=2.2644e9,
    anharmonicity_hz=114.4e6,
    decay_hz=20.1e6,
    upper_decay_hz=1.09e6,
    dephasing1_hz=10.95e6,
    dephasing2_hz=3.955e6,
)

# Anchor: the EIT/ATS threshold Rabi frequency 16.06 MHz is reached at
# -45 dBm of room-temperature control power.
_PROFILE_CALIBRATION = CalibrationParams(anchor_power_dbm=-45.0, anchor_rabi_hz=16.06e6)

PROFILE_NAMES = ("paper",)


def paper_profile(scheme: str) -> ExperimentConfig:
    """Built-in device profile reproducing the published datasets per scheme."""
    _require(scheme in SCHEMES, f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return ExperimentConfig(scheme=scheme, calibration=_PROFILE_CALIBRATION, **_SCHEMES[scheme].profile)


def resolve_config(
    scheme: str,
    profile: str | None = None,
    config_path: str | Path | None = None,
    *,
    seed: int | None = None,
) -> ExperimentConfig:
    """Combine profile, config file, and command-line overrides into a config.

    A config file overlays the profile field-by-field when both are given;
    without a profile the file must be complete. A file that declares a
    schema_version must declare the current one, with a profile too. The
    scheme is fixed by the caller and must not conflict with the file.
    """
    _require(profile is not None or config_path is not None, "need --config, --profile, or both")
    base: dict[str, Any] = {}
    if profile is not None:
        _require(profile in PROFILE_NAMES, f"unknown profile {profile!r}; choose from {PROFILE_NAMES}")
        base = paper_profile(scheme).to_dict()
    overlay = {} if config_path is None else load_config_file(config_path)
    if overlay.get("scheme", scheme) != scheme:
        raise ConfigError(f"config file scheme {overlay['scheme']!r} conflicts with requested {scheme!r}")
    cfg = ExperimentConfig.from_dict({**merge_config_dicts(base, overlay), "scheme": scheme})
    if seed is not None:
        cfg = replace(cfg, noise=replace(cfg.noise, seed=seed))
    return cfg


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


class SweepPoint(NamedTuple):
    """One sweep point as read through RunResult.records."""

    axes: tuple[float, ...]
    value: complex
    annotation: str


def _cells(column: np.ndarray | list) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


@dataclass(frozen=True)
class RunResult:
    """Everything a scheme run produces: export columns plus summary facts.

    data maps each column name, in export order, to one column: float64
    arrays for numeric columns, lists for the string columns (annotation,
    regime, status) and for the pipeline's nullable columns, which hold None
    where a fit failed.
    """

    config: ExperimentConfig
    data: dict[str, np.ndarray | list]
    summary: dict[str, Any]

    @property
    def records(self) -> tuple[SweepPoint, ...]:
        """Per-point view of a sweep, built from data on each access; empty
        for the pipeline."""
        if "re" not in self.data:
            return ()
        names = list(self.data)
        axes = zip(*(self.data[name].tolist() for name in names[:names.index("re")]))
        values = map(complex, self.data["re"].tolist(), self.data["im"].tolist())
        return tuple(map(SweepPoint, axes, values, self.data["annotation"]))

    @property
    def table(self) -> tuple[dict[str, Any], ...]:
        """Per-row dict view of data, built on each access."""
        cells = [_cells(column) for column in self.data.values()]
        return tuple(dict(zip(self.data, row)) for row in zip(*cells))


def _require_finite(values: np.ndarray) -> None:
    _require(np.isfinite(values).all(), "simulated values are not finite: a config value is out of range")


def _sweep_columns(
    config: ExperimentConfig,
    axes: dict[str, np.ndarray],
    values: np.ndarray,
    regimes: list[str],
    summary: dict[str, Any],
) -> RunResult:
    """A sweep's export columns from its 1-D axes (the drive axis first), its
    noiseless values (one row per control amplitude) and each row's regime:
    the first axis repeats along its row, the second is tiled, each regime
    repeats over its row, and the configured noise is added to the values."""
    rows, per_row = len(regimes), values.size // len(regimes)
    (drive, drive_axis), *inner = axes.items()
    grid = {drive: np.repeat(drive_axis, per_row), **{name: np.tile(axis, rows) for name, axis in inner}}
    values = synthesize_noise(values.ravel(), config.noise.sigma_rel, config.noise.seed, config.noise.kind)
    _require_finite(values)
    re, im = values.real, values.imag
    data = {
        **grid,
        "re": re,
        "im": im,
        # np.hypot and math.atan2 agree bit for bit with abs() and
        # cmath.phase() of a Python complex; np.abs and np.angle do not
        "abs": np.hypot(re, im),
        "phase": np.fromiter(map(math.atan2, im.tolist(), re.tolist()), float, count=re.size),
        "annotation": [regime for regime in regimes for _ in range(per_row)],
    }
    return RunResult(config=config, data=data, summary=summary)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


def synthesize_noise(
    values: np.ndarray,
    sigma_rel: float,
    seed: int | np.random.SeedSequence,
    kind: str = "complex",
) -> np.ndarray:
    """Add seeded Gaussian measurement noise to an array of complex values.

    kind="complex": independent noise per quadrature with standard deviation
    sigma_rel * max|value| (the physical digitizer model), drawn as an (n, 2)
    array in value order. kind="magnitude": multiplies each value by (1 + n),
    n ~ N(0, sigma_rel), for sensitivity studies. Deterministic given the
    seed; sigma_rel = 0 returns the values unchanged.
    """
    if sigma_rel < 0.0 or not math.isfinite(sigma_rel):
        raise ValueError("sigma_rel must be finite and >= 0")
    if kind not in ("complex", "magnitude"):
        raise ValueError("kind must be 'complex' or 'magnitude'")
    values = np.asarray(values, dtype=complex)
    if sigma_rel == 0.0 or values.size == 0:
        return values
    rng = np.random.Generator(np.random.Philox(seed))
    if kind == "complex":
        sigma = sigma_rel * float(np.max(np.hypot(values.real, values.imag)))
        draws = rng.normal(0.0, sigma, size=(values.size, 2))
        return values + draws.view(complex)[:, 0]
    return values * (1.0 + rng.normal(0.0, sigma_rel, size=values.size))


# ---------------------------------------------------------------------------
# Scheme runners
# ---------------------------------------------------------------------------


def _regimes(atom: ThreeLevelAtom, omega_c: np.ndarray) -> list[str]:
    """Transparency regime of each control amplitude, one decision per row."""
    return [classify_regime(atom.gamma10, atom.gamma20, w).regime.value for w in omega_c.tolist()]


def _calibrated_grid(
    config: ExperimentConfig, probe_detuning_hz: float, control_hz: np.ndarray | float | None
) -> tuple[ThreeLevelAtom, float, np.ndarray, np.ndarray, list[str], np.ndarray, np.ndarray]:
    """A calibrated run's atom, k, control powers (dBm, watts), each power's regime, control detunings and
    noiseless reflection at probe_detuning_hz: a row per power, a column per control_hz (Hz; None: Delta_c = 0)."""
    atom = config.atom.build()
    k = config.calibration.build()
    powers = config.power_grid.values()
    watts = np.array([dbm_to_watts(power) for power in powers.tolist()])
    omega_c = np.sqrt(k * watts)
    delta_c = np.zeros(1) if control_hz is None else hz_to_angular(np.atleast_1d(control_hz)) - atom.omega21
    values = reflection_coefficient(
        Gamma10=atom.Gamma10,
        gamma10=atom.gamma10,
        gamma20=atom.gamma20,
        Omega_c=omega_c[:, None],
        Delta_p=hz_to_angular(probe_detuning_hz),
        Delta_c=delta_c,
    )
    return atom, k, powers, watts, _regimes(atom, omega_c), delta_c, values


def _threshold_summary(gamma10: float, gamma20: float, k: float | None) -> dict[str, Any]:
    """The EIT/Autler-Townes threshold drive (poles.crossover_rabi) and the
    control power P = Omega_c**2 / k (k > 0) that reaches it; None without
    k, or where that power is 0 W or overflows."""
    threshold = crossover_rabi(gamma10, gamma20)
    power = threshold**2 / k if k is not None else 0.0
    return {
        "threshold_rabi_hz": angular_to_hz(threshold),
        "threshold_power_dbm": watts_to_dbm(power) if 0.0 < power < math.inf else None,
    }


def _control_sweep(config: ExperimentConfig) -> RunResult:
    """2-D reflection map over (control power dBm, control frequency Hz)."""
    freqs = config.control_frequency_grid.values()
    atom, k, powers, _, regimes, _, values = _calibrated_grid(config, config.probe_detuning_hz, freqs)
    summary = _threshold_summary(atom.gamma10, atom.gamma20, k)
    summary["transition_frequency_hz"] = angular_to_hz(atom.omega21)
    axes = {"control_power_dbm": powers, "control_frequency_hz": freqs}
    return _sweep_columns(config, axes, values, regimes, summary)


def _power_sweep(config: ExperimentConfig) -> RunResult:
    """1-D reflection versus control power at a fixed control frequency: a one-column control map."""
    atom, k, powers, _, regimes, _, values = _calibrated_grid(
        config, config.probe_detuning_hz, config.control_frequency_hz)
    summary = _threshold_summary(atom.gamma10, atom.gamma20, k)
    return _sweep_columns(config, {"control_power_dbm": powers}, values, regimes, summary)


def _flux_sweep(config: ExperimentConfig) -> RunResult:
    """Transmission curves versus probe detuning, one per control amplitude.

    Both detunings are swept together (transmon tuning), leaving the control
    offset at probe resonance as the residual detuning; a constant complex
    crosstalk background and a real scale multiply the model transmission.
    """
    atom = config.atom.build()
    detunings = config.probe_detuning_grid.values()
    delta = hz_to_angular(config.residual_detuning_hz)
    crosstalk = complex(config.crosstalk_re, config.crosstalk_im)
    rabi_hz = np.array(config.control_rabi_hz, dtype=float)
    omega_c = hz_to_angular(rabi_hz)
    regimes = _regimes(atom, omega_c)
    t = transmission_flux_coefficient(
        Gamma10=atom.Gamma10,
        gamma10=atom.gamma10,
        gamma20=atom.gamma20,
        Omega_c=omega_c[:, None],
        Delta_p=hz_to_angular(detunings),
        delta=delta,
    )
    summary = _threshold_summary(atom.gamma10, atom.gamma20, None)
    summary["residual_detuning_hz"] = config.residual_detuning_hz
    axes = {"control_rabi_hz": rabi_hz, "probe_detuning_hz": detunings}
    return _sweep_columns(config, axes, config.scale * (t + crosstalk), regimes, summary)


def _dip_status(fit: Any, weighted: bool) -> str:
    """A pipeline row's status from its dip stack outcome (a FitResult or
    the error fitting it): "ok" when the fit is usable for the line fit."""
    if isinstance(fit, Exception):
        failure = str(fit)
    elif "hwhm-unidentifiable" in fit.notes:
        failure = "dip is degenerate: width unidentifiable"
    elif weighted and not 0.0 < fit.error("hwhm") < math.inf:
        failure = "dip width error is not a positive finite number"
    else:
        return "ok"
    return f"dip-fit-failed: {failure}"


def _linewidth_pipeline(config: ExperimentConfig) -> RunResult:
    """Simulate the dips at probe resonance, add seeded noise (a spawned child seed per power) and fit them."""
    atom, _, powers, powers_watts, regimes, delta_c, grid = _calibrated_grid(
        config, 0.0, config.control_frequency_grid.values())
    children = np.random.SeedSequence(config.noise.seed).spawn(len(powers))
    values = np.stack([synthesize_noise(base, config.noise.sigma_rel, child, config.noise.kind)
                       for base, child in zip(grid, children)])
    _require_finite(values)
    y = np.abs(values) ** 2
    sigma_y = None
    if config.noise.sigma_rel > 0.0 and config.noise.kind == "magnitude":
        # |r|^2 (1 + n)^2 with n ~ N(0, sigma_rel), at first order
        sigma_y = 2.0 * config.noise.sigma_rel * y
    elif config.noise.sigma_rel > 0.0:
        # known per-quadrature sigma carried to |r|^2 at first order
        sigma_q = config.noise.sigma_rel * np.max(np.abs(grid), axis=1, keepdims=True)
        sigma_y = 2.0 * np.abs(values) * sigma_q
    data, summary = _fit_linewidths(atom, powers, powers_watts, delta_c, y, sigma_y, regimes)
    return RunResult(config=config, data=data, summary=summary)


def _fit_linewidths(atom: ThreeLevelAtom, powers: np.ndarray, powers_watts: np.ndarray, delta_c: np.ndarray,
                    y: np.ndarray, sigma_y: np.ndarray | None, regimes: list[str]) -> tuple[dict, dict[str, Any]]:
    """Per-power dip fits of y = |r|^2 (a row per power over the control detunings delta_c; sigma_y its
    sigma, None when noiseless), then the linewidth-versus-power line fit: a run's data and summary.

    All powers' Lorentzians fit in one lockstep stack, and each half width is
    the transparency linewidth. The surviving rows feed the weighted line fit
    for the intrinsic rate and the power calibration constant, which in turn
    give a control Rabi frequency with error bars per point. Rows whose dip
    fit fails are kept with a status message and excluded from the line fit.
    Of the atom, only gamma10 and omega21 are read."""
    fits = fit_dip_stack(delta_c, y, sigma_y)
    statuses = [_dip_status(fit, sigma_y is not None) for fit in fits]
    good = [i for i, status in enumerate(statuses) if status == "ok"]
    if len(good) < 3:
        raise ConvergenceError(
            f"only {len(good)} of {len(powers)} dip fits usable; need at least 3 for the line fit"
        )
    widths = np.array([fits[i].value("hwhm") for i in good])
    width_errors = np.array([fits[i].error("hwhm") for i in good])
    width_sigmas = width_errors if sigma_y is not None else None
    centers = np.array([fits[i].value("center") for i in good])
    line = fit_linewidth_line(powers_watts[good], widths, width_sigmas, gamma10=atom.gamma10)
    gamma20_fit = line.value("gamma20")
    k_fit = line.value("k")
    if not gamma20_fit >= 0.0:
        raise ConvergenceError(f"line fit gives a negative intercept gamma20 = {angular_to_hz(gamma20_fit):.4g} Hz")
    if not k_fit > 0.0:
        raise ConvergenceError(f"line fit gives a non-positive calibration slope k = {k_fit / TWO_PI**2:.4g} Hz^2/W")
    omega_c_fit, omega_c_sigma, one_sided = rabi_per_point(gamma20_fit, widths, width_sigmas, gamma10=atom.gamma10)
    omega_c_hz = angular_to_hz(omega_c_fit).tolist()

    def nullable(values: np.ndarray | list) -> list:
        """A column with values in the usable rows and None in every other."""
        column: list = [None] * powers.size
        for row, value in zip(good, _cells(values)):
            column[row] = value
        return column

    data: dict[str, np.ndarray | list] = {
        "power_dbm": powers,
        "power_watts": powers_watts,
        "gamma_eit_hz": nullable(angular_to_hz(widths)),
        "gamma_eit_sigma_hz": nullable(angular_to_hz(width_errors)),
        "omega_c_hz": nullable(omega_c_hz),
        "omega_c_sigma_hz": nullable(angular_to_hz(omega_c_sigma)),
        "one_sided": nullable(one_sided),
        "log10_power_watts": np.array([math.log10(w) for w in powers_watts.tolist()]),
        "log10_omega_c_hz": nullable([math.log10(w) if w > 0.0 else None for w in omega_c_hz]),
        "dip_center_hz": nullable(angular_to_hz(atom.omega21 + centers)),
        "regime": regimes,
        "status": statuses,
    }

    summary: dict[str, Any] = {
        "line_fit": {
            "gamma20_hz": angular_to_hz(gamma20_fit),
            "gamma20_sigma_hz": angular_to_hz(line.error("gamma20")),
            "k_hz2_per_watt": k_fit / TWO_PI**2,
            "k_sigma_hz2_per_watt": line.error("k") / TWO_PI**2,
            "rss": line.rss,
            "converged": line.converged,
            "points_used": len(good),
        },
        **_threshold_summary(atom.gamma10, gamma20_fit, k_fit),
        "gamma10_hz": angular_to_hz(atom.gamma10),
    }
    return data, summary


class _Scheme(NamedTuple):
    """A scheme's runner, the config fields it reads (its README row: a grid field, drive axis
    first, maps to the fewest points it must hold, any other field to 0; validate checks these
    alone and ignores the rest) and its paper profile's fields less _PROFILE_CALIBRATION."""

    run: Callable[[ExperimentConfig], RunResult]
    reads: Mapping[str, int]
    profile: Mapping[str, Any] = {}


# Every scheme, declared once and in SCHEMES order: SCHEMES, validate,
# paper_profile, run_experiment and the CLI's run commands read this table.
_SCHEMES = {
    "control-sweep": _Scheme(_control_sweep, dict(atom=0, calibration=0, power_grid=1, control_frequency_grid=1,
                                                  probe_detuning_hz=0, noise=0), dict(
        atom=_REFLECTION_ATOM,
        power_grid=GridSpec(start=-60.0, stop=-40.0, count=21),
        control_frequency_grid=GridSpec(start=2.10e9, stop=2.20e9, count=201))),
    "power-sweep": _Scheme(_power_sweep, dict(atom=0, calibration=0, power_grid=1, control_frequency_hz=0,
                                              probe_detuning_hz=0, noise=0), dict(
        atom=_REFLECTION_ATOM,
        power_grid=GridSpec(start=-60.0, stop=-40.0, count=41),
        control_frequency_hz=2.15e9)),
    "flux-sweep": _Scheme(_flux_sweep, dict(atom=0, control_rabi_hz=1, probe_detuning_grid=1, residual_detuning_hz=0,
                                            crosstalk_re=0, crosstalk_im=0, scale=0, noise=0), dict(
        atom=_TRANSMISSION_ATOM,
        probe_detuning_grid=GridSpec(start=-50.0e6, stop=50.0e6, count=401),
        control_rabi_hz=(6.0e6, 16.0e6, 30.0e6),
        residual_detuning_hz=4.0e6,
        crosstalk_re=0.05)),
    "linewidth-pipeline": _Scheme(_linewidth_pipeline, dict(atom=0, calibration=0, power_grid=3,
                                                            control_frequency_grid=5, noise=0), dict(
        atom=_REFLECTION_ATOM,
        power_grid=GridSpec(start=-60.0, stop=-45.0, count=10),
        control_frequency_grid=GridSpec(start=2.125e9, stop=2.175e9, count=201))),
}
SCHEMES = tuple(_SCHEMES)


@contextmanager
def _float_overflow_is_config_error() -> Iterator[None]:
    """Run the block with numpy raising on float overflow and invalid
    operations (an inner np.errstate still wins), and turn that error or an
    OverflowError into ConfigError. numpy's error state is set for the block
    alone. run_experiment and cli.main enter it, and nothing else does."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (OverflowError, FloatingPointError) as exc:
        raise ConfigError("a config value is out of range: float overflow") from exc


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run the config's scheme: the one entry point of every scheme. A float
    overflow or invalid operation anywhere in the run (the exported abs
    included) and a config value that puts the model at a singular point
    raise ConfigError; a pipeline whose fits fail raises ConvergenceError
    or RankError. numpy's error state is set for the run alone."""
    try:
        with _float_overflow_is_config_error():
            return _SCHEMES[config.scheme].run(config)
    except SingularModelError as exc:
        raise ConfigError(f"the config puts the model at a singular point: {exc}") from exc


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:  # RFC 4180 quoting
        return '"%s"' % text.replace('"', '""')
    return text


def _parse_cell(text: str) -> Any:
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return float(text)
    except ValueError:
        return text


def _row_chunks(template: str, renders: Sequence[Callable[[slice], list]], n: int, sep: str) -> Iterator[str]:
    """Rows 0..n through one %-template, sep between rows, _CHUNK_ROWS rows
    per chunk; each render gives the template arguments of one column for a
    slice of rows."""
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        cells = zip(*(render(rows) for render in renders))
        yield (sep if start else "") + sep.join(map(template.__mod__, cells))


class _StringMemo(dict):
    """A column's cells through render, once per distinct value for a str
    cell: the text of a list column's cells on export, the parse of a
    column's cell texts on import. A str cell's result is kept, so the rows
    that hold one text share one value; any other cell is rendered every
    time, because keyed by value True would answer for 1.0 and -0.0 for
    0.0."""

    def __init__(self, render: Callable[[Any], Any]) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, value: Any) -> Any:
        result = self.render(value)
        if type(value) is str:
            self[value] = result
        return result


def _once_per_string(column: np.ndarray | list, render: Callable[[Any], str]) -> Callable[[slice], list]:
    """Row-slice renderer of a column through _StringMemo; an unhashable
    cell (a list or dict) raises TypeError like any cell that cannot be
    rendered."""
    memo = _StringMemo(render)
    return lambda rows: list(map(memo.__getitem__, column[rows]))


def _float_render(column: np.ndarray, spec: str) -> tuple[str, Callable[[slice], list]]:
    """Template field and row-slice renderer of an array column whose cells
    are formatted with spec. A float64 column that repeats a value in its
    first _CHUNK_ROWS rows and holds at most half as many distinct bit
    patterns as rows (a grid axis) has each pattern formatted once, so -0.0
    stays apart from 0.0 and NaN payloads from each other, and every chunk
    looks its texts up among the sorted patterns; any other array goes
    through spec in the row template, a value at a time, which is faster
    when most values differ. The distinct patterns come from a sort: numpy
    2.4's np.unique hashes integer arrays, some 20 times slower on 82,041
    values."""
    head = np.sort(column[:_CHUNK_ROWS].view(np.uint64))
    if (head[1:] == head[:-1]).any():
        bits = np.sort(column.view(np.uint64))
        bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
        if 2 * len(bits) <= len(column):
            texts = np.array([spec % value for value in bits.view(np.float64).tolist()], dtype=object)
            return "%s", lambda rows: texts[np.searchsorted(bits, column[rows].view(np.uint64))].tolist()
    return spec, lambda rows: column[rows].tolist()


def _row_count(data: Mapping[str, np.ndarray | list]) -> int:
    """The number of rows of a table; an array column that is not float64,
    or columns of unequal length, raise ValueError."""
    for name, column in data.items():
        if isinstance(column, np.ndarray) and column.dtype != np.float64:
            raise ValueError(f"table column {name!r} is a {column.dtype} array; array columns must be float64")
    lengths = {name: len(column) for name, column in data.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    return next(iter(lengths.values()), 0)


def _csv_chunks(data: Mapping[str, np.ndarray | list]) -> Iterable[str]:
    """Header, then the rows in chunks; floats at 17 significant digits.

    Array columns are formatted through one row-format string, a repeating
    float64 column once per distinct value (_float_render); list columns
    (strings, nullable values) are formatted cell by cell first (a string
    once per distinct value), and a string cell holding a comma, quote or
    line break is quoted (RFC 4180).
    """
    n = _row_count(data)
    fields = [
        _float_render(column, "%.17g") if isinstance(column, np.ndarray)
        else ("%s", _once_per_string(column, _format_cell))
        for column in data.values()
    ]
    row_format = ",".join(field for field, _ in fields) + "\n"
    return chain([",".join(data) + "\n"], _row_chunks(row_format, [render for _, render in fields], n, ""))


def _parse_column(cells: Sequence[str], memo: _StringMemo | None) -> list:
    """_parse_cell of every cell: through memo when given, else one float
    pass, or, when a cell is not a float ("", true, false or text all fail
    float), once per distinct cell of the block."""
    if memo is None:
        try:
            return list(map(float, cells))
        except ValueError:
            memo = _StringMemo(_parse_cell)
    return list(map(memo.__getitem__, cells))


def _strict_csv_rows(handle: Iterable[str], path: str | Path) -> Iterator[list[str]]:
    """The nonempty rows of an RFC 4180 file; malformed quoting raises ValueError."""
    reader = csv.reader(handle, strict=True)
    try:
        yield from filter(None, reader)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc


def import_csv(path: str | Path) -> tuple[tuple[str, ...], list[dict[str, Any]]]:
    """Read a CSV export back: the header's column names and one dict per row.

    A cell parses as None when empty, as True/False for true/false, as a
    float when float() accepts it, and stays text otherwise; quoted cells
    (RFC 4180) may hold commas, quotes and line breaks. A row ends at a
    newline, a carriage return or CRLF outside quotes, and at no other
    line-break character. Empty lines are skipped. An empty file, a header
    that names a column twice, a row whose cell count differs from the
    header's, or malformed quoting (a quote left open at the end of the
    file, or text after a closing quote) raises ValueError.

    The file is streamed: one scan of its bytes for a quote or a carriage
    return picks the parser, then the rows are read, checked and parsed
    column by column _CHUNK_ROWS at a time. A column whose first block
    holds at most half as many distinct texts as rows (a grid axis, a
    status) is parsed once per distinct text through one memo kept across
    blocks, so its rows share one value per text; a memo that passes
    _CHUNK_ROWS texts is dropped, and its column is parsed block by block
    from there on. So the memory beyond the returned rows is one block plus
    at most _CHUNK_ROWS texts per repeating column. The scan needs a file
    that can seek back to its start: a pipe raises io.UnsupportedOperation.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        scan = iter(partial(handle.buffer.read, _SCAN_BYTES), b"")
        quoted = any(b'"' in block or b"\r" in block for block in scan)
        handle.seek(0)
        if quoted:  # rows of cells
            table = _strict_csv_rows(handle, path)
        else:  # lines, each but the file's last ending in "\n"
            table = filter("\n".__ne__, handle)
        header = next(table, None)
        if header is None:
            raise ValueError(f"{path} is empty")
        columns = tuple(header if quoted else header.rstrip("\n").split(","))
        width = len(columns)
        if len(set(columns)) < width:
            repeated = next(name for i, name in enumerate(columns) if name in columns[:i])
            raise ValueError(f"{path}: column {repeated!r} repeats in the header")
        rows: list[dict[str, Any]] = []
        memos: list[_StringMemo | None] | None = None
        while block := list(islice(table, _CHUNK_ROWS)):
            if quoted:
                counts, cells = list(map(len, block)), zip(*block)
            else:  # the block's lines split at once, each column a stride of the cells
                counts = [commas + 1 for commas in map(str.count, block, repeat(","))]
                block[-1] = block[-1].rstrip("\n")
                flat = "".join(block).replace("\n", ",").split(",")
                cells = (flat[j::width] for j in range(width))
            if set(counts) != {width}:
                count = next(count for count in counts if count != width)
                raise ValueError(f"{path}: row has {count} cells, expected {width}")
            if memos is None:  # a column that repeats in the first block keeps one memo for the file
                cells = list(cells)
                memos = [_StringMemo(_parse_cell) if 2 * len(set(column)) <= len(block) else None
                         for column in cells]
            parsed = map(_parse_column, cells, memos)
            rows.extend(map(dict, map(zip, repeat(columns), zip(*parsed))))
            memos = [None if memo is None or len(memo) > _CHUNK_ROWS else memo for memo in memos]
    return columns, rows


def _json_sanitize(value: Any) -> Any:
    """Replace non-finite floats with null so the JSON stays standard."""
    if isinstance(value, dict):
        return {k: _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def _json_render(column: np.ndarray | list) -> tuple[str, Callable[[slice], list]]:
    """Template field and row-slice renderer of one JSON column: an
    all-finite array goes through %r, the float repr json writes
    (_float_render); any other column is rendered cell by cell (a string
    once per distinct value), non-finite floats as null."""
    if isinstance(column, np.ndarray) and np.isfinite(column).all():
        return _float_render(column, "%r")
    return "%s", _once_per_string(column, lambda v: json.dumps(_json_sanitize(v)))


def _json_chunks(
    data: Mapping[str, np.ndarray | list],
    config_echo: Mapping[str, Any] | None,
    summary: Mapping[str, Any] | None,
) -> Iterable[str]:
    """The text of json.dumps(envelope, sort_keys=True, indent=2) in chunks,
    with the rows rendered through one template instead of one dict each."""
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "config_echo": _json_sanitize(dict(config_echo) if config_echo else None),
        "columns": list(data),
        "rows": [],
        "summary": _json_sanitize(dict(summary) if summary else {}),
    }
    text = json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"
    n = _row_count(data)
    if n == 0:
        return [text]
    head, _, tail = text.partition('\n  "rows": []')
    keys = sorted(data)
    fields, renders = zip(*(_json_render(data[key]) for key in keys))
    template = "    {\n%s\n    }" % ",\n".join(
        "      %s: %s" % (encode_basestring_ascii(key).replace("%", "%%"), field)
        for key, field in zip(keys, fields)
    )
    return chain([head, '\n  "rows": [\n'], _row_chunks(template, renders, n, ",\n"), ["\n  ]", tail])


def table_chunks(
    data: Mapping[str, np.ndarray | list],
    fmt: str,
    config_echo: Mapping[str, Any] | None = None,
    summary: Mapping[str, Any] | None = None,
) -> Iterable[str]:
    """A table as text chunks of _CHUNK_ROWS rows: CSV (header and rows), or
    the schema-versioned JSON envelope that also carries the config echo for
    provenance and the summary. The columns are data's, in its key order:
    float64 arrays and lists. An unknown format, an array column that is not
    float64 or columns of unequal length (ValueError) raise before any chunk
    is made."""
    if fmt == "csv":
        return _csv_chunks(data)
    if fmt == "json":
        return _json_chunks(data, config_echo, summary)
    raise ConfigError(f"unknown export format {fmt!r}; choose from {FORMATS}")


def write_table(path: str | Path, chunks: Iterable[str]) -> None:
    """Write text chunks to a file, one chunk in memory at a time. A path
    that cannot be opened or written (a full disk included, which may show
    only when the file is closed) is a ConfigError. A failure part way
    through removes the file if it is a regular file, and leaves any other
    path (a device such as /dev/stdout) alone."""
    try:
        handle = open(path, "w", encoding="utf-8", newline="\n")
        regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with handle:
            handle.writelines(chunks)
    except BaseException as exc:
        if regular:
            Path(path).unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def result_text(result: RunResult, fmt: str) -> str:
    """A run's export in the given format: the bytes export_result writes."""
    return "".join(table_chunks(result.data, fmt, result.config.to_dict(), result.summary))


def export_result(result: RunResult, path: str | Path, fmt: str) -> None:
    """Write a run to disk in the given format, a chunk of rows at a time."""
    write_table(path, table_chunks(result.data, fmt, result.config.to_dict(), result.summary))
