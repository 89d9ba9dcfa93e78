"""Backward scheme, interpolation, convergence, and comparison bounds."""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from tcpolicy import (
    AffineExponential,
    AffineHazard,
    ConstantHazard,
    ConstantPayout,
    ConstantWeight,
    Exponential,
    Hyperbolic,
    InsuranceIncomeSpec,
    MarketParams,
    ModelSpec,
    PreferenceParams,
    SumOfExponentials,
    ValidationError,
    constant_K,
    weight_M,
)
from tcpolicy.cli import parse_config
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
from tcpolicy.model import legacy_hazard_weight

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
# The factored memory sum against the per-pair sum it replaced
# ---------------------------------------------------------------------------


def _per_pair_march(spec, N):
    """Reference march: the memory kernel L(t_j, t_n) formed pair by pair
    over j = 0..n-1 at every step, with the survival and Psi factors taken
    as ratios of exponentials (the form the lag tables replaced)."""
    T = spec.horizon
    prefs, ins = spec.prefs, spec.insurance
    gamma = prefs.gamma
    pow_ratio = gamma / (gamma - 1.0)
    pow_inv = 1.0 / (gamma - 1.0)
    K = constant_K(spec.market, gamma)
    eps = -T / N
    lam_weight = legacy_hazard_weight(prefs)
    q_weight = lam_weight / prefs.m0
    times = np.linspace(T, 0.0, N + 1)
    lags = np.linspace(0.0, T, N + 1)
    h_log = np.asarray(spec.discount.log_derivative(lags), dtype=float)
    h_val = np.asarray(spec.discount.value(lags), dtype=float)
    hbar_log = np.asarray(spec.hbar_log_derivative(lags[:N]), dtype=float)
    hbar_val = np.asarray(spec.hbar_value(lags[:N]), dtype=float)
    lam = np.asarray(spec.mortality.rate(times), dtype=float)
    M = np.asarray(weight_M(prefs, ins, times), dtype=float)
    inv_l = np.asarray(ins.payout.inverse(times), dtype=float)
    exp_neg_cumhaz = np.exp(-np.asarray(spec.mortality.cumulative(times), dtype=float))
    psi = K * times + gamma * ins.eta * np.asarray(ins.payout.integrated_inverse(times), dtype=float)
    exp_psi = np.exp(psi)

    a = np.empty(N + 1)
    A = np.empty(N + 1)
    a_pow = np.empty(N + 1)
    a[0] = prefs.n
    A[0] = 1.0
    for n in range(N):
        a_pow[n] = a[n] ** pow_ratio
        memory = 0.0
        if n > 0:
            surv = exp_neg_cumhaz[:n] / exp_neg_cumhaz[n]
            Q = h_val[n:0:-1] * surv
            q = q_weight * hbar_val[n:0:-1] * lam[:n] * surv
            bracket = (h_log[n] - h_log[n:0:-1]) * Q + (h_log[n] - hbar_log[n:0:-1]) * q
            L = bracket * (exp_psi[:n] / exp_psi[n])
            memory = float(np.sum(L * a_pow[:n] * (A[:n] / A[n])))
        drift = lam[n] - h_log[n] - K - gamma * ins.eta * inv_l[n]
        local = (gamma * M[n] - lam_weight * lam[n] - 1.0) * a_pow[n] + drift * a[n]
        a[n + 1] = a[n] + eps * (local + -eps * memory)
        A[n + 1] = A[n] - gamma * eps * a[n] ** pow_inv * M[n] * A[n]
    return a, A


def _mixed_kernel_spec():
    # distinct consumption and bequest kernels and m != 1: hbar != h and q_weight != 1
    hazard = AffineHazard(lambda0=0.01, lambda1=0.004)
    return ModelSpec(
        market=MarketParams(r=0.04, alpha=0.1, sigma=0.25),
        mortality=hazard,
        discount=SumOfExponentials(weight=0.4, r1=0.05, r2=0.6),
        prefs=PreferenceParams(
            gamma=-2.0,
            n=3.0,
            m_weight=ConstantWeight(2.0),
            bequest_discount=AffineExponential(a_coef=0.2, r_rate=0.5),
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(30.0), eta=0.8, income=0.0),
        horizon=5.0,
    )


@pytest.mark.parametrize("N", [400, 4000])
@pytest.mark.parametrize("config", ["exp1", "experiment", "hump_k5_n10", "mixed"])
def test_factored_memory_matches_per_pair_sum(config, N):
    if config == "mixed":
        spec = _mixed_kernel_spec()
        assert legacy_hazard_weight(spec.prefs) / spec.prefs.m0 != 1.0  # q_weight
    else:
        spec = parse_config((CONFIGS / f"{config}.cfg").read_text()).spec
    ref_a, ref_A = _per_pair_march(spec, N)
    grid = solve_a(spec, N)
    assert np.max(np.abs(grid.a_values - ref_a) / ref_a) <= 1e-13
    assert np.max(np.abs(grid.A_values - ref_A) / ref_A) <= 1e-13


# ---------------------------------------------------------------------------
# Long horizons: the exponential factors stay in log space
# ---------------------------------------------------------------------------


def _long_horizon(spec, horizon, hazard, discount=None):
    discount = discount or spec.discount
    return dataclasses.replace(
        spec,
        horizon=horizon,
        mortality=ConstantHazard(hazard),
        discount=discount,
        prefs=dataclasses.replace(spec.prefs, bequest_discount=discount),
    )


@pytest.mark.parametrize("horizon, hazard", [(400.0, 2.0), (1000.0, 1.0), (400.0, 4.0)])
def test_long_horizon_matches_closed_form(exp1_spec, horizon, hazard):
    # Lambda(T) = 800, 1000, 1600: e^(-Lambda) underflows.  At hazard 4 the
    # node weights' exponent e + log A spans about 1345, more than the double
    # range, so they must be rescaled during the march.  The first-order
    # error measures 0.13, 0.07 and 0.21 T/N.
    spec = _long_horizon(exp1_spec, horizon, hazard)
    N = 4000
    grid = solve_a(spec, N)
    ref = np.array([a_exponential(spec, t) for t in grid.times])
    assert np.max(np.abs(grid.a_values - ref) / ref) <= 0.3 * horizon / N
    assert np.all(grid.A_values > 0.0)


def test_long_horizon_hyperbolic_inside_envelopes(exp1_spec):
    spec = _long_horizon(exp1_spec, 400.0, 2.0, Hyperbolic.from_unit_value(5.0, 0.3))
    grid = solve_a(spec, 4000)
    assert np.all(np.isfinite(grid.a_values)) and np.all(grid.a_values > 0.0)
    rep = a_priori_bounds(spec)
    tol = 1e-12 * grid.a_values
    assert np.all(grid.a_values >= rep.lower_curve(grid.times) - tol)
    assert np.all(grid.a_values <= rep.upper_curve(grid.times) + tol)


def test_nonfinite_iterate_reported_as_overflow():
    # gamma = 0.5 with a tiny volatility: K = 24.5, so a(t) grows like
    # e^(24.4 (T - t)) and leaves the double range well before t = 0
    h = Exponential(0.1)
    spec = ModelSpec(
        market=MarketParams(r=0.05, alpha=0.12, sigma=0.01),
        mortality=ConstantHazard(0.0),
        discount=h,
        prefs=PreferenceParams(gamma=0.5, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=h),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=40.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the breakdown is the report, not a numpy warning
        with pytest.raises(SchemeBreakdownError, match="overflow") as info:
            solve_a(spec, 4000)
    # stopped at the first infinite iterate, not at a nan it leads to later
    assert "a = inf" in str(info.value) and "increase N" not in str(info.value)


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
    sums = []
    for n in range(N):
        sums.append(abs(tab.memory(n, grid.A_values[n])))
        tab.record(n, a_pow[n], grid.A_values[n])
    assert max(sums) <= 1e-14


def test_rhs_index_validation(exp1_spec):
    grid = solve_a(exp1_spec, 16)
    with pytest.raises(ValidationError):
        rhs_derivative(exp1_spec, grid, 17)
    with pytest.raises(ValidationError):
        rhs_derivative(exp1_spec, grid, -1)
    with pytest.raises(ValidationError, match="outside 0..15"):
        rhs_derivative(exp1_spec, grid, 16)  # t = 0 needs the legacy weight at lag T


@pytest.mark.parametrize("config", ["exp1", "experiment", "hump_k5_n10"])
def test_rhs_derivative_matches_march(config):
    spec = parse_config((CONFIGS / f"{config}.cfg").read_text()).spec
    grid = solve_a(spec, 300)
    for n in (0, 1, 2, 150, 299):
        step = (grid.a_values[n + 1] - grid.a_values[n]) / grid.epsilon
        assert rhs_derivative(spec, grid, n) == pytest.approx(step, rel=1e-12)


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
