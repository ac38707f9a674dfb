"""Acoustic transparency simulator and estimation toolkit.

Models a weak surface-acoustic-wave probe scattering off a driven
three-level superconducting artificial atom: closed-form reflection and
transmission spectra, an exact density-matrix oracle, transducer coupling,
pole-based regime classification, least-squares parameter extraction, and a
config-driven experiment harness with a CLI.
"""

from __future__ import annotations

from .errors import (
    ConfigError,
    ConvergenceError,
    RankError,
    SingularModelError,
    SteadyStateError,
    UndefinedPhaseError,
)
from .estimation import (
    Samples,
    fit_linewidth_line,
    fit_transmission,
    fit_two_level,
    rabi_per_point,
    samples_from_arrays,
)
from .experiments import (
    AtomParams,
    CalibrationParams,
    ExperimentConfig,
    GridSpec,
    NoiseParams,
    RunResult,
    export_result,
    import_csv,
    paper_profile,
    resolve_config,
    run_experiment,
    synthesize_noise,
)
from .idt import (
    IdtTransducer,
    acoustic_conductance,
    coupling_rate,
    detuning_parameter,
    idt_bandwidth,
)
from .leastsq import FitResult
from .lindblad import (
    DeviationReport,
    build_liouvillian,
    master_equation_reflection,
    steady_state,
    weak_probe_deviation,
)
from .model import (
    DipShape,
    ThreeLevelAtom,
    dip_shape,
    eit_linewidth,
    group_delay,
    reflection_coefficient,
    transmission_flux_coefficient,
)
from .poles import (
    PoleDecomposition,
    Regime,
    RegimeDecision,
    classify_regime,
    poles_and_decomposition,
)
from .units import (
    angular_to_hz,
    dbm_to_watts,
    hz_to_angular,
    watts_to_dbm,
)

__version__ = "0.1.0"

__all__ = [
    "AtomParams",
    "CalibrationParams",
    "ConfigError",
    "ConvergenceError",
    "DeviationReport",
    "DipShape",
    "ExperimentConfig",
    "FitResult",
    "GridSpec",
    "IdtTransducer",
    "NoiseParams",
    "PoleDecomposition",
    "RankError",
    "Regime",
    "RegimeDecision",
    "RunResult",
    "Samples",
    "SingularModelError",
    "SteadyStateError",
    "ThreeLevelAtom",
    "UndefinedPhaseError",
    "acoustic_conductance",
    "angular_to_hz",
    "build_liouvillian",
    "classify_regime",
    "coupling_rate",
    "dbm_to_watts",
    "detuning_parameter",
    "dip_shape",
    "eit_linewidth",
    "export_result",
    "fit_linewidth_line",
    "fit_transmission",
    "fit_two_level",
    "group_delay",
    "hz_to_angular",
    "idt_bandwidth",
    "import_csv",
    "master_equation_reflection",
    "paper_profile",
    "poles_and_decomposition",
    "rabi_per_point",
    "reflection_coefficient",
    "resolve_config",
    "run_experiment",
    "samples_from_arrays",
    "steady_state",
    "synthesize_noise",
    "transmission_flux_coefficient",
    "watts_to_dbm",
    "weak_probe_deviation",
]
