from __future__ import annotations

import numpy as np
import pytest

from acoustic_eit.leastsq import FitResult, levenberg_marquardt_stack
from numdiff import central_difference


# ---------------------------------------------------------------------------
# FitResult container
# ---------------------------------------------------------------------------


def _simple_result() -> FitResult:
    return FitResult(
        names=("a", "b"),
        values=np.array([1.5, -2.0]),
        stderr=np.array([0.1, 0.2]),
        covariance=np.diag([0.01, 0.04]),
        rss=0.5,
        iterations=3,
        converged=True,
    )


def test_fit_result_accessors():
    res = _simple_result()
    assert res.value("a") == 1.5
    assert res.error("b") == 0.2
    with pytest.raises(KeyError):
        res.value("missing")


def test_fit_result_with_notes_appends():
    res = _simple_result().with_notes("flag-one")
    assert res.notes == ("flag-one",)
    res2 = res.with_notes("flag-two")
    assert res2.notes == ("flag-one", "flag-two")
    assert res.notes == ("flag-one",)


def test_fit_result_length_validation():
    with pytest.raises(ValueError):
        FitResult(names=("a",), values=np.array([1.0, 2.0]),
                  stderr=np.array([0.1, 0.1]), covariance=None,
                  rss=0.0, iterations=0, converged=True)


# ---------------------------------------------------------------------------
# Central differences, the tests' reference for every analytic Jacobian
# ---------------------------------------------------------------------------


def test_finite_difference_matches_analytic():
    t = np.linspace(0.0, 4.0, 25)

    def residual(x):
        return x[0] * np.exp(-x[1] * t) - 1.0

    def analytic(x):
        col_a = np.exp(-x[1] * t)
        col_b = -x[0] * t * np.exp(-x[1] * t)
        return np.column_stack([col_a, col_b])

    x = np.array([2.0, 0.7])
    fd = central_difference(residual, x, 1e-6 * np.maximum(np.abs(x), 1.0))
    assert np.allclose(fd, analytic(x), rtol=1e-7, atol=1e-9)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt engine
# ---------------------------------------------------------------------------


def test_linear_problem_solves_in_a_few_steps(fit_one):
    t = np.linspace(0.0, 1.0, 11)
    y = 3.0 + 2.0 * t

    def residual(x):
        return x[0] + x[1] * t - y

    def jacobian(x):
        return np.column_stack([np.ones_like(t), t])

    res = fit_one(residual, [0.0, 0.0], jacobian, names=("intercept", "slope"))
    assert res.converged
    assert res.value("intercept") == pytest.approx(3.0, rel=1e-9)
    assert res.value("slope") == pytest.approx(2.0, rel=1e-9)
    assert res.rss < 1e-18
    assert res.iterations <= 8


def test_exponential_round_trip_with_analytic_jacobian(fit_one):
    t = np.linspace(0.0, 5.0, 40)
    truth = np.array([2.5, 0.8])
    y = truth[0] * np.exp(-truth[1] * t)

    def residual(x):
        return x[0] * np.exp(-x[1] * t) - y

    def jacobian(x):
        return np.column_stack([np.exp(-x[1] * t), -x[0] * t * np.exp(-x[1] * t)])

    res = fit_one(residual, [1.0, 0.3], jacobian, names=("amp", "rate"))
    assert res.converged
    assert res.value("amp") == pytest.approx(2.5, rel=1e-8)
    assert res.value("rate") == pytest.approx(0.8, rel=1e-8)


def test_lower_bound_clamps_and_flags(fit_one):
    t = np.linspace(0.0, 1.0, 9)
    y = -1.0 + 0.0 * t

    def residual(x):
        return x[0] - y

    def jacobian(x):
        return np.ones((t.size, 1))

    res = fit_one(residual, [1.0], jacobian, names=("level",), lower=[0.0])
    assert res.value("level") == 0.0
    # the flag is stated once, in at_bound, and not repeated as a note
    assert res.at_bound == (True,)
    assert res.notes == ()
    # the projected gradient ignores the outward push, so this counts as converged
    assert res.converged and res.stop == "gradient"


def test_names_length_validation(fit_one):
    with pytest.raises(ValueError):
        fit_one(lambda x: x, [1.0, 2.0], lambda x: np.eye(2), names=("only-one",))
    with pytest.raises(ValueError):
        fit_one(lambda x: x, [1.0, 2.0], lambda x: np.eye(2), lower=[0.0])


@pytest.mark.parametrize("x0", [[1.0, 2.0], [[[1.0]]]], ids=["1-d", "3-d"])
def test_start_not_one_row_per_fit_raises(x0):
    with pytest.raises(ValueError, match=r"shape \(k, p\)"):
        levenberg_marquardt_stack(lambda theta, rows: pytest.fail("evaluated"), x0, names=("a", "b"),
                                  lower=[0.0, 0.0])


def test_non_finite_initial_residual_raises(fit_one):
    def residual(x):
        return np.array([np.nan])

    with pytest.raises(ValueError):
        fit_one(residual, [1.0], lambda x: np.ones((1, 1)))


@pytest.mark.filterwarnings("error")
def test_overflowing_initial_rss_raises_without_warnings(fit_one):
    # each residual is finite, but their sum of squares is not
    with pytest.raises(ValueError, match="not finite at the initial guess"):
        fit_one(lambda x: np.full(4, 1e200) * x[0], [1.0], lambda x: np.full((4, 1), 1e200))


def test_covariance_matches_direct_formula(fit_one):
    rng = np.random.Generator(np.random.Philox(5))
    t = np.linspace(0.0, 1.0, 30)
    y = 1.0 + 2.0 * t + 0.05 * rng.standard_normal(t.size)

    def residual(x):
        return x[0] + x[1] * t - y

    def jacobian(x):
        return np.column_stack([np.ones_like(t), t])

    res = fit_one(residual, [0.0, 0.0], jacobian)
    jac = jacobian(res.values)
    direct = np.linalg.inv(jac.T @ jac) * res.rss / (t.size - 2)
    assert res.covariance is not None
    assert np.allclose(res.covariance, direct, rtol=1e-8)
    assert res.stderr == pytest.approx(np.sqrt(np.diag(direct)), rel=1e-8)


def test_zero_degrees_of_freedom_gives_nan_stderr(fit_one):
    def residual(x):
        return np.array([x[0] - 1.0, x[1] - 2.0])

    res = fit_one(residual, [0.0, 0.0], lambda x: np.eye(2))
    # the decrement test needs more residuals than parameters
    assert res.converged and res.stop == "gradient"
    assert res.covariance is None
    assert np.all(np.isnan(res.stderr))
