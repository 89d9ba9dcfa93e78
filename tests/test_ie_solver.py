"""Backward scheme, interpolation, convergence, and comparison bounds."""

import math

import numpy as np
import pytest

from tcpolicy import (
    ConstantHazard,
    ConstantPayout,
    ConstantWeight,
    Exponential,
    InsuranceIncomeSpec,
    ModelSpec,
    PreferenceParams,
    ValidationError,
    constant_K,
)
from tcpolicy.closed_form import a_exponential
from tcpolicy.ie_solver import (
    AssumptionViolatedError,
    SchemeBreakdownError,
    _SchemeTables,
    a_priori_bounds,
    convergence_report,
    rhs_derivative,
    solve_a,
)


def _no_insurance_spec(market, rho=0.1, gamma=-1.0, n=1.0, horizon=1.0):
    return ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(rho),
        prefs=PreferenceParams(
            gamma=gamma, n=n, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(rho)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# solve_a
# ---------------------------------------------------------------------------


def test_terminal_values_bit_exact(exp1_spec):
    grid = solve_a(exp1_spec, 64)
    assert grid.a_values[0] == exp1_spec.prefs.n
    assert grid.A_values[0] == 1.0
    assert grid.times[0] == exp1_spec.horizon
    assert grid.times[-1] == 0.0
    assert grid.epsilon == -exp1_spec.horizon / 64


def test_solution_grid_arrays_read_only(exp1_spec):
    grid = solve_a(exp1_spec, 16)
    for values in (grid.times, grid.a_values, grid.A_values):
        with pytest.raises(ValueError, match="read-only"):
            values[1] = 0.5


def test_exp1_matches_closed_form(exp1_spec):
    grid = solve_a(exp1_spec, 500)
    ref = np.array([a_exponential(exp1_spec, t) for t in grid.times])
    assert np.max(np.abs(grid.a_values - ref) / ref) < 5e-3


def test_no_insurance_matches_closed_form(market):
    spec = _no_insurance_spec(market)
    grid = solve_a(spec, 500)
    ref = np.array([a_exponential(spec, t) for t in grid.times])
    assert np.max(np.abs(grid.a_values - ref) / ref) < 5e-3


def test_experiment_runs_positive(experiment_spec):
    grid = solve_a(experiment_spec, 200)
    assert np.all(grid.a_values > 0.0)
    assert np.all(grid.A_values > 0.0)


def test_all_iterates_positive(exp1_spec):
    grid = solve_a(exp1_spec, 128)
    assert np.all(grid.a_values > 0.0)
    assert np.all(grid.A_values > 0.0)


def test_refusals(exp1_spec, log_spec, market):
    with pytest.raises(ValidationError):
        solve_a(exp1_spec, 1)
    with pytest.raises(ValidationError):
        solve_a(log_spec, 100)  # log branch lives in closed_form
    failing = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(0.1),
        prefs=PreferenceParams(
            gamma=0.9, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(5.0)),
        horizon=1.0,
    )
    with pytest.raises(AssumptionViolatedError, match="min"):
        solve_a(failing, 100)


def test_scheme_breakdown_reports_increase_N(market):
    # large step against a strong outflow drives the iterate negative
    spec = _no_insurance_spec(market, rho=2.0, horizon=50.0)
    with pytest.raises(SchemeBreakdownError, match="increase N"):
        solve_a(spec, 2)


def test_A_recursion_matches_trapezoid(exp1_spec):
    N = 400
    grid = solve_a(exp1_spec, N)
    gamma = exp1_spec.prefs.gamma
    from tcpolicy.model import weight_M

    g = gamma * grid.a_values ** (1.0 / (gamma - 1.0)) * weight_M(
        exp1_spec.prefs, exp1_spec.insurance, grid.times
    )
    h = exp1_spec.horizon / N
    # int_{t_n}^T with times decreasing: trapezoid over the first n panels
    integral = np.concatenate([[0.0], np.cumsum(0.5 * h * (g[:-1] + g[1:]))])
    expected = np.exp(integral)
    assert np.max(np.abs(grid.A_values - expected) / expected) < 5.0 / N


# ---------------------------------------------------------------------------
# rhs_derivative
# ---------------------------------------------------------------------------


def test_rhs_terminal_node_formula(exp1_spec):
    # empty memory sum at t = T: only the local terms remain
    grid = solve_a(exp1_spec, 50)
    got = rhs_derivative(exp1_spec, grid, 0)
    gamma, n = -1.0, 1.0
    K = constant_K(exp1_spec.market, gamma)
    lam, M, inv_l = 0.02, 1.02, 1.0 / 50.0
    expected = (gamma * M - lam - 1.0) * n ** (gamma / (gamma - 1.0))
    expected += (lam - (-0.1) - K - gamma * inv_l) * n
    assert got == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(-2.04 + 0.220625, abs=1e-12)


def test_rhs_matches_finite_difference_of_closed_form(exp1_spec):
    grid = solve_a(exp1_spec, 200)
    h = 1e-5
    T = exp1_spec.horizon
    fd = (a_exponential(exp1_spec, T) - a_exponential(exp1_spec, T - h)) / h
    assert rhs_derivative(exp1_spec, grid, 0) == pytest.approx(fd, abs=1e-4)


def test_exponential_kernel_degeneracy(exp1_spec):
    # h = h_hat exponential with constant m: the memory kernel L vanishes
    N = 200
    grid = solve_a(exp1_spec, N)
    tab = _SchemeTables(exp1_spec, N)
    a_pow = grid.a_values ** tab.pow_ratio
    sums = [abs(tab.memory_sum(n, a_pow, grid.A_values)) for n in range(N)]
    assert max(sums) <= 1e-14


def test_rhs_index_validation(exp1_spec):
    grid = solve_a(exp1_spec, 16)
    with pytest.raises(ValidationError):
        rhs_derivative(exp1_spec, grid, 17)
    with pytest.raises(ValidationError):
        rhs_derivative(exp1_spec, grid, -1)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def test_interpolation_nodes_and_midpoints(exp1_spec):
    grid = solve_a(exp1_spec, 32)
    assert grid.interpolate(exp1_spec.horizon) == exp1_spec.prefs.n
    k = 7
    assert grid.interpolate(grid.times[k]) == grid.a_values[k]
    mid = 0.5 * (grid.times[k] + grid.times[k + 1])
    assert grid.interpolate(mid) == pytest.approx(
        0.5 * (grid.a_values[k] + grid.a_values[k + 1]), rel=1e-14
    )
    with pytest.raises(ValidationError):
        grid.interpolate(-0.01)
    with pytest.raises(ValidationError):
        grid.interpolate(exp1_spec.horizon + 0.01)


# ---------------------------------------------------------------------------
# Convergence
# ---------------------------------------------------------------------------


def test_convergence_first_order_exp1(exp1_spec):
    report = convergence_report(exp1_spec, 125)
    assert report.reference == "closed_form"
    assert 1.6 <= report.ratio <= 2.4


def test_convergence_self_reference(experiment_spec):
    report = convergence_report(experiment_spec, 64)
    assert report.reference == "self_4x"
    assert 1.5 <= report.ratio <= 2.5


def test_convergence_exact_on_engineered_constant(market):
    # (gamma-1) n^(g/(g-1)) + (rho-K) n = 0 at n = ((rho-K)/(1-gamma))^(gamma-1),
    # so a == n solves the equation and the scheme is exact at any N
    rho = 0.1
    K = constant_K(market, -1.0)
    n = ((rho - K) / 2.0) ** -2
    spec = _no_insurance_spec(market, rho=rho, n=n)
    report = convergence_report(spec, 8)
    assert report.err_coarse < 1e-8
    assert report.err_fine < 1e-8


# ---------------------------------------------------------------------------
# A-priori bounds
# ---------------------------------------------------------------------------


def test_bounds_constants_exp1(exp1_spec):
    rep = a_priori_bounds(exp1_spec)
    # constant coefficients make the grid extrema exact
    assert rep.c1 == pytest.approx(2.04, abs=1e-12)
    assert rep.rho == pytest.approx(0.1, abs=1e-12)
    assert rep.rho_prime == pytest.approx(0.02, abs=1e-12)
    assert rep.c0 == pytest.approx(0.02 + 0.3 + 0.080625 + 0.02, abs=1e-12)
    assert rep.d1 == pytest.approx(2.04, abs=1e-12)


def test_bounds_terminal_value(exp1_spec):
    rep = a_priori_bounds(exp1_spec)
    assert rep.lower_curve(exp1_spec.horizon) == pytest.approx(1.0, rel=1e-12)
    assert rep.upper_curve(exp1_spec.horizon) == pytest.approx(1.0, rel=1e-12)


def test_bounds_contain_solution(exp1_spec):
    grid = solve_a(exp1_spec, 500)
    rep = a_priori_bounds(exp1_spec)
    err = convergence_report(exp1_spec, 125).err_fine
    tol = 10.0 * err
    lower = rep.lower_curve(grid.times)
    upper = rep.upper_curve(grid.times)
    assert np.all(grid.a_values >= lower - tol)
    assert np.all(grid.a_values <= upper + tol)
    assert np.all(lower > 0.0)


def test_bounds_refuse_negative_c1(market):
    failing = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(0.1),
        prefs=PreferenceParams(
            gamma=0.9, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(5.0)),
        horizon=1.0,
    )
    with pytest.raises(AssumptionViolatedError):
        a_priori_bounds(failing)
