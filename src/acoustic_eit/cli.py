"""Command-line interface for simulations, pipelines, and diagnostics.

Exit codes: 0 success, 2 configuration/validation failure, 3 fit
non-convergence or rank deficiency. `oracle check` returns 1 when the
steady-state solver and the closed-form scattering model disagree beyond
tolerance (which would indicate a broken build, not a bad config).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, RankError
from .experiments import (
    FORMATS,
    PROFILE_NAMES,
    _MAX_POINTS,
    export_result,
    paper_profile,
    resolve_config,
    run_experiment,
    table_chunks,
    write_table,
)
from .idt import IdtTransducer, acoustic_conductance, coupling_rate, detuning_parameter, idt_bandwidth
from .lindblad import weak_probe_deviation
from .poles import classify_regime
from .units import angular_to_hz, hz_to_angular

_ORACLE_TOLERANCE = 1e-3
# the oracle costs about 14 us per point and checks 3 * grid_count**2 points,
# so the largest grid (about 0.75 M points) runs in about 10 s
_ORACLE_MAX_GRID_COUNT = 501


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file (overlays --profile)")
    parser.add_argument("--profile", choices=PROFILE_NAMES, help="built-in device profile")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the config noise seed")
    parser.add_argument("--out", metavar="PATH", help="output file (default: print to stdout)")
    parser.add_argument("--format", choices=FORMATS, default="csv", help="output format (default: csv)")


def _write_stdout(chunks: Iterable[str]) -> None:
    """Write a table to stdout a chunk at a time. A closed or full stdout is
    a ConfigError; stdout is then pointed at os.devnull, so the rows still
    buffered are not written again, and fail again, at interpreter exit."""
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ConfigError(f"cannot write to stdout: {exc.strerror or exc}") from exc


def _report_written(out: str, rows: int, summary_lines: Sequence[str]) -> int:
    """After a table was written to --out: its row count and summary lines to stdout."""
    _write_stdout(f"{line}\n" for line in [f"wrote {rows} rows to {out}", *summary_lines])
    return 0


def _handle_run(args: argparse.Namespace) -> int:
    config = resolve_config(args.scheme, profile=args.profile, config_path=args.config, seed=args.seed)
    result = run_experiment(config)
    summary_lines = []
    line = result.summary.get("line_fit")
    if line is not None:
        threshold_power = result.summary["threshold_power_dbm"]
        threshold_power_text = "none" if threshold_power is None else "%.17g" % threshold_power
        summary_lines = [
            "gamma20_hz=%.17g gamma20_sigma_hz=%.17g" % (line["gamma20_hz"], line["gamma20_sigma_hz"]),
            "k_hz2_per_watt=%.17g k_sigma_hz2_per_watt=%.17g"
            % (line["k_hz2_per_watt"], line["k_sigma_hz2_per_watt"]),
            "threshold_rabi_hz=%.17g threshold_power_dbm=%s"
            % (result.summary["threshold_rabi_hz"], threshold_power_text),
        ]
    if not args.out:
        _write_stdout(table_chunks(result.data, args.format, config.to_dict(), result.summary))
        return 0
    # a run's file export is one call of export_result, which the benchmark's tracer times
    export_result(result, args.out, args.format)
    return _report_written(args.out, len(next(iter(result.data.values()))), summary_lines)


def _handle_classify(args: argparse.Namespace) -> int:
    try:
        decision = classify_regime(
            hz_to_angular(args.gamma10),
            hz_to_angular(args.gamma20),
            hz_to_angular(args.omega_c),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_stdout([f"regime={decision.regime.value}\n",
                   "threshold_rabi_hz=%.17g\n" % angular_to_hz(decision.threshold)])
    return 0


def _handle_idt_response(args: argparse.Namespace) -> int:
    try:
        idt = IdtTransducer(
            pairs=args.pairs,
            omega_center=hz_to_angular(args.f_idt),
            k2=args.k2,
            capacitance=args.ct,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    f_min = args.f_min if args.f_min is not None else args.f_idt * (1.0 - 2.0 / args.pairs)
    f_max = args.f_max if args.f_max is not None else args.f_idt * (1.0 + 2.0 / args.pairs)
    if not (0.0 < f_min < f_max and math.isfinite(hz_to_angular(f_max))):
        raise ConfigError("need 0 < --f-min < --f-max, both finite in angular frequency")
    if not 2 <= args.count <= _MAX_POINTS:
        raise ConfigError(f"--count must be from 2 to {_MAX_POINTS}")
    freqs = np.linspace(f_min, f_max, args.count)
    omegas = hz_to_angular(freqs)
    rates = coupling_rate(idt, omegas)
    data = {
        "frequency_hz": freqs,
        "detuning_parameter": detuning_parameter(idt, omegas),
        "response": rates / idt.decay_peak,
        "coupling_rate_hz": angular_to_hz(rates),
        "conductance_s": acoustic_conductance(idt, omegas),
    }
    summary = {
        "bandwidth_hz": angular_to_hz(idt_bandwidth(idt)),
        "peak_rate_hz": angular_to_hz(idt.decay_peak),
    }
    chunks = table_chunks(data, args.format, summary=summary)
    if not args.out:
        _write_stdout(chunks)
        return 0
    write_table(args.out, chunks)
    return _report_written(args.out, freqs.size, [
        "bandwidth_hz=%.17g peak_rate_hz=%.17g" % (summary["bandwidth_hz"], summary["peak_rate_hz"])])


def _handle_oracle_check(args: argparse.Namespace) -> int:
    if not (2 <= args.grid_count <= _ORACLE_MAX_GRID_COUNT
            and 0.0 < hz_to_angular(args.span_hz) < math.inf
            and 0.0 < hz_to_angular(args.probe_rabi_hz) < math.inf):
        raise ConfigError(f"need 2 <= --grid-count <= {_ORACLE_MAX_GRID_COUNT} and "
                          "--span-hz > 0, --probe-rabi-hz > 0, both finite in angular frequency")
    atom = paper_profile("control-sweep").atom.build()
    detunings = hz_to_angular(np.linspace(-args.span_hz, args.span_hz, args.grid_count))
    control_amplitudes = hz_to_angular(np.array([0.0, 6.1e6, 30.0e6]))
    report = weak_probe_deviation(
        atom,
        detunings,
        detunings,
        control_amplitudes,
        Omega_p=hz_to_angular(args.probe_rabi_hz),
    )
    lines = [
        f"points={report.points}\n",
        "max_abs=%.3e max_rel=%.3e\n" % (report.max_abs, report.max_rel),
        "worst_delta_p_hz=%.6g worst_delta_c_hz=%.6g worst_omega_c_hz=%.6g\n" % (
            angular_to_hz(report.worst_Delta_p), angular_to_hz(report.worst_Delta_c),
            angular_to_hz(report.worst_Omega_c)),
    ]
    if report.max_rel <= _ORACLE_TOLERANCE:
        _write_stdout(lines + [f"oracle check passed: max relative deviation <= {_ORACLE_TOLERANCE:g}\n"])
        return 0
    _write_stdout(lines + [f"oracle check FAILED: max relative deviation > {_ORACLE_TOLERANCE:g}\n"])
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acoustic-eit",
        description="Simulate and analyze acoustic transparency spectra of a driven three-level atom.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="run a forward sweep")
    sim_sub = simulate.add_subparsers(dest="scheme", required=True)
    for scheme in ("control-sweep", "flux-sweep", "power-sweep"):
        sweep = sim_sub.add_parser(scheme, help=f"{scheme} simulation")
        _add_run_flags(sweep)
        sweep.set_defaults(handler=_handle_run, scheme=scheme)

    pipeline = subparsers.add_parser("pipeline", help="run an estimation pipeline")
    pipe_sub = pipeline.add_subparsers(dest="pipeline_name", required=True)
    linewidth = pipe_sub.add_parser("linewidth", help="dip fits, linewidth line, per-point drive strength")
    _add_run_flags(linewidth)
    linewidth.set_defaults(handler=_handle_run, scheme="linewidth-pipeline")

    classify = subparsers.add_parser("classify", help="transparency regime for given rates")
    classify.add_argument("--gamma10", type=float, required=True, metavar="HZ",
                          help="probe-transition coherence rate / 2pi")
    classify.add_argument("--gamma20", type=float, required=True, metavar="HZ",
                          help="two-photon coherence rate / 2pi")
    classify.add_argument("--omega-c", type=float, required=True, metavar="HZ",
                          help="control Rabi frequency / 2pi")
    classify.set_defaults(handler=_handle_classify)

    idt = subparsers.add_parser("idt", help="transducer diagnostics")
    idt_sub = idt.add_subparsers(dest="idt_command", required=True)
    response = idt_sub.add_parser("response", help="frequency response table")
    response.add_argument("--np", dest="pairs", type=int, required=True, help="finger-pair count")
    response.add_argument("--f-idt", dest="f_idt", type=float, required=True, metavar="HZ",
                          help="transducer center frequency")
    response.add_argument("--k2", type=float, required=True, help="electromechanical coupling coefficient")
    response.add_argument("--ct", type=float, default=1.5e-13, metavar="F",
                          help="total capacitance (default 150 fF)")
    response.add_argument("--f-min", dest="f_min", type=float, metavar="HZ")
    response.add_argument("--f-max", dest="f_max", type=float, metavar="HZ")
    response.add_argument("--count", type=int, default=201)
    response.add_argument("--out", metavar="PATH")
    response.add_argument("--format", choices=FORMATS, default="csv")
    response.set_defaults(handler=_handle_idt_response)

    oracle = subparsers.add_parser("oracle", help="internal consistency checks")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    check = oracle_sub.add_parser("check", help="steady-state solver vs closed-form scattering")
    check.add_argument("--probe-rabi-hz", dest="probe_rabi_hz", type=float, default=1.0e4)
    check.add_argument("--grid-count", dest="grid_count", type=int, default=21,
                       help=f"detuning points per axis, 2 to {_ORACLE_MAX_GRID_COUNT} (default 21)")
    check.add_argument("--span-hz", dest="span_hz", type=float, default=50.0e6)
    check.set_defaults(handler=_handle_oracle_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, RankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
