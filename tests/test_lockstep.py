"""The lockstep fit engine: its results pinned bit for bit, and equal per fit
to the same fits run one at a time.

The digest of test_fit_batch_fits_are_pinned was taken before the fits were
stacked, from the fits the benchmark's fit-batch workload makes. It covers
every dip-fit row of the 40 noisy seed-1 paper pipelines (sigma 0.0095, one
child seed of SeedSequence(1) each, failed rows included) and of the
seed-225 pipeline with its unconverged -50 dBm row, and the 60 seed-1 flux
curves (sigma 0.01) fitted as complex data and as magnitudes. Each row
contributes every field of its FitResult, or the error it raised, and each
pipeline its CSV export (which carries the row statuses) and line fit. The
other tests mix fits in one stack, edge cases included, and compare each
with the same fit alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from acoustic_eit import estimation, experiments, leastsq
from acoustic_eit.errors import ConvergenceError
from acoustic_eit.estimation import fit_dip_lorentzian, fit_transmission, samples_from_arrays
from acoustic_eit.experiments import NoiseParams, paper_profile, result_text, run_experiment

PIPELINE_SIGMA = 0.0095
FLUX_SIGMA = 0.01


def _child_seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1, np.uint64)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def _pipeline_configs() -> list[experiments.ExperimentConfig]:
    base = paper_profile("linewidth-pipeline")
    seeds = _child_seeds(1, 60)[:40] + [225]
    return [dataclasses.replace(base, noise=NoiseParams(sigma_rel=PIPELINE_SIGMA, seed=s)) for s in seeds]


def _flux_curves() -> list[tuple[np.ndarray, np.ndarray]]:
    flux = paper_profile("flux-sweep")
    curves = []
    for seed in _child_seeds(1, 60)[40:]:
        config = dataclasses.replace(flux, noise=NoiseParams(sigma_rel=FLUX_SIGMA, seed=seed))
        data = run_experiment(config).data
        for rabi in flux.control_rabi_hz:
            rows = data["control_rabi_hz"] == rabi
            curves.append((2.0 * math.pi * data["probe_detuning_hz"][rows],
                           data["re"][rows] + 1j * data["im"][rows]))
    return curves


def _fit_record(fit) -> str:
    """Every field of a FitResult, exactly; or the type and text of an error."""
    if isinstance(fit, Exception):
        return repr((type(fit).__name__, str(fit)))
    covariance = None if fit.covariance is None else fit.covariance.tolist()
    return repr((fit.names, fit.values.tolist(), fit.stderr.tolist(), covariance, fit.rss,
                 fit.iterations, fit.converged, fit.at_bound, fit.gradient_norm, fit.notes))


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ConvergenceError, ValueError) as exc:
        return exc


def pipeline_rows(monkeypatch, config) -> tuple[list, object]:
    """The dip samples of each pipeline row, and the pipeline's result or error."""
    rows = []
    build = experiments.samples_from_arrays

    def capture(*args):
        rows.append(build(*args))
        return rows[-1]

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "samples_from_arrays", capture)
        result = _attempt(run_experiment, config)
    return rows, result


def test_fit_batch_fits_are_pinned(monkeypatch):
    digest = hashlib.sha256()
    failed_rows = 0
    for config in _pipeline_configs():
        rows, result = pipeline_rows(monkeypatch, config)
        assert len(rows) == config.power_grid.count
        for samples in rows:
            fit = _attempt(fit_dip_lorentzian, samples)
            failed_rows += isinstance(fit, Exception)
            digest.update(_fit_record(fit).encode())
        if isinstance(result, Exception):
            digest.update(repr((type(result).__name__, str(result))).encode())
        else:
            digest.update(result_text(result, "csv").encode())
            digest.update(repr(sorted(result.summary["line_fit"].items())).encode())
    flux = paper_profile("flux-sweep").atom.build()
    for x, values in _flux_curves():
        for data in (values, np.abs(values)):
            fit = _attempt(fit_transmission, samples_from_arrays(x, data),
                           gamma10=flux.gamma10, Gamma10=flux.Gamma10)
            digest.update(_fit_record(fit).encode())
    # the seed-225 pipeline's -50 dBm row does not converge
    assert failed_rows == 1
    assert digest.hexdigest() == "68e8d98271a00914ef806a0ee11d86d7a2347e7c20a7499403328008a8359ac7"


# ---------------------------------------------------------------------------
# Stacked fits equal the same fits run one at a time
# ---------------------------------------------------------------------------


@pytest.fixture()
def engine_results(monkeypatch):
    """Every FitResult the engine returns to the estimators, in call order."""
    results = []
    engine = estimation.levenberg_marquardt_stack

    def record(evaluate, x0, **kwargs):
        fits = engine(evaluate, x0, **kwargs)
        results.extend(fits)
        return fits

    monkeypatch.setattr(estimation, "levenberg_marquardt_stack", record)
    return results


def test_stacked_dip_fits_equal_single_fits(monkeypatch, engine_results):
    curves = [samples for config in _pipeline_configs() for samples in pipeline_rows(monkeypatch, config)[0]]
    engine_results.clear()
    x = curves[0].x
    curves.insert(3, samples_from_arrays(x, np.full(x.size, 0.7)))  # constant data: never iterated
    curves.insert(7, samples_from_arrays(x[:4], np.ones(4)))  # too few samples
    curves.insert(9, samples_from_arrays(x, np.full(x.size, 0.5 + 0.1j)))  # complex values
    stacked = estimation.fit_dip_stack(curves)
    stacked_engine = list(engine_results)
    engine_results.clear()
    single = [estimation.fit_dip_stack([samples])[0] for samples in curves]
    assert [_fit_record(fit) for fit in engine_results] == [_fit_record(fit) for fit in stacked_engine]
    assert [_fit_record(fit) for fit in stacked] == [_fit_record(fit) for fit in single]
    assert [_fit_record(_attempt(fit_dip_lorentzian, samples)) for samples in curves] == \
        [_fit_record(fit) for fit in stacked]
    assert "degenerate:constant-data" in stacked[3].notes
    assert isinstance(stacked[7], ValueError) and isinstance(stacked[9], ValueError)
    # the seed-225 -50 dBm row runs into the iteration cap inside the stack
    assert sum(fit.iterations == 200 and not fit.converged for fit in stacked_engine) == 1
    assert sum(isinstance(fit, ConvergenceError) for fit in stacked) == 1


def test_dip_stack_needs_one_length():
    x = np.linspace(-1.0, 1.0, 21)
    y = 1.0 - 0.5 / (1.0 + (x / 0.2) ** 2)
    with pytest.raises(ValueError, match="same length"):
        estimation.fit_dip_stack([samples_from_arrays(x, y), samples_from_arrays(x[:-1], y[:-1])])


# ---------------------------------------------------------------------------
# Engine edge cases: each fit of a mixed stack gets the result it gets alone
# ---------------------------------------------------------------------------

T = np.linspace(0.0, 2.0, 8)
TINY = 2.2e-161  # TINY**2 is about 100 units of the smallest subnormal
FIRST = (T == 0.0).astype(float)


def _edge_problems():
    lorentz = 1.0 / (1.0 + T * T)
    design = np.column_stack([np.ones_like(T), T])
    start = np.array([2.0, 0.5])
    return {
        # the start is the exact optimum: zero iterations
        "at-optimum": (start, (lambda x: design @ x - design @ start, lambda x: design)),
        # constant data under a dip model: the depth goes to zero
        "constant-data": (np.array([1.0, 0.3]), (lambda x: x[0] - x[1] * lorentz - 0.7,
                                                         lambda x: np.column_stack([np.ones_like(T), -lorentz]))),
        # a Jacobian 1000 times too steep: every step is accepted, and tiny
        "iteration-cap": (np.array([3.0, -1.0]), (lambda x: design @ x - design @ [1.0, 2.0],
                                                          lambda x: 1000.0 * design)),
        # residuals are finite only at the start: every step is rejected
        "damping-overflow": (np.array([1.0, 1.0]), (
            lambda x: design @ x - 3.0 if np.all(x == 1.0) else np.full(T.size, np.nan),
            lambda x: design)),
        # parallel columns, the second so small that its square is subnormal:
        # the damping adds less than half a unit to that diagonal entry, and
        # the damped normal matrix rounds to an exactly singular one
        "singular": (np.array([1.0, 1.0]), (
            lambda x: FIRST * (x[0] + TINY * x[1] - 3.0),
            lambda x: np.column_stack([FIRST, TINY * FIRST]))),
        "exponential": (np.array([1.0, 0.3]), (
            lambda x: x[0] * np.exp(-x[1] * T) - 2.5 * np.exp(-0.8 * T),
            lambda x: np.column_stack([np.exp(-x[1] * T), -x[0] * T * np.exp(-x[1] * T)]))),
        "non-finite-start": (np.array([1.0, 1.0]), (lambda x: np.full(T.size, np.inf),
                                                            lambda x: design)),
    }


def _stacked(problems, names, lower):
    starts = np.array([problems[name][0] for name in names])
    functions = [problems[name][1] for name in names]

    def evaluate(theta, rows):
        pairs = [(functions[i][0](point), functions[i][1](point)) for i, point in zip(rows, theta)]
        return np.array([r for r, _ in pairs]), np.array([j for _, j in pairs])

    return leastsq.levenberg_marquardt_stack(evaluate, starts, lower=lower)


@pytest.mark.parametrize("lower", [None, [-np.inf, 0.0]], ids=["free", "bounded"])
def test_mixed_stack_matches_fits_alone(lower, fit_one):
    problems = _edge_problems()
    names = list(problems)
    alone = {}
    for name in names:
        start, (residual, jacobian) = problems[name]
        alone[name] = _fit_record(_attempt(fit_one, residual, start, jacobian, lower=lower))
        assert _fit_record(_stacked(problems, [name], lower)[0]) == alone[name]
    for order in (names, names[::-1], names[1::2] + names[::2]):
        fits = _stacked(problems, order, lower)
        assert [_fit_record(fit) for fit in fits] == [alone[name] for name in order]

    fits = dict(zip(names, _stacked(problems, names, lower)))
    assert fits["at-optimum"].iterations == 0 and fits["at-optimum"].converged
    assert fits["iteration-cap"].iterations == 200 and not fits["iteration-cap"].converged
    # damping 1e-3 grows tenfold per rejection and passes 1e15 on the 19th
    assert fits["damping-overflow"].iterations == 19 and not fits["damping-overflow"].converged
    assert fits["exponential"].converged
    assert isinstance(fits["non-finite-start"], ValueError)


def test_singular_case_is_singular():
    _, (residual, jacobian) = _edge_problems()["singular"]
    jac = jacobian(np.array([1.0, 1.0]))
    normal = jac.T @ jac
    damped = normal + 1e-3 * np.diag(np.diag(normal))  # the first trial's damping
    assert damped[1, 1] == normal[1, 1]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(damped, -jac.T @ residual(np.array([1.0, 1.0])))
