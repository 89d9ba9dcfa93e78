"""Closed forms: income floor b, exponential/log value coefficients, stationary case."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from tcpolicy import (
    AffineHazard,
    ConstantHazard,
    ConstantPayout,
    ConstantWeight,
    Exponential,
    Hyperbolic,
    InsuranceIncomeSpec,
    InverseHazardPayout,
    MarketParams,
    ModelSpec,
    PreferenceParams,
    ValidationError,
    constant_K,
    kernel_Q,
    kernel_q,
)
from tcpolicy.closed_form import (
    a_exponential,
    a_log,
    b_function,
    solve_b,
    solve_stationary,
)
from tcpolicy.cli import parse_config
from tcpolicy.closed_form import StationaryInfeasibleError
from tcpolicy.model import legacy_hazard_weight, weight_M

from conftest import long_income_config_text, make_stationary_spec


def _with_income(spec, income, payout=None):
    ins = InsuranceIncomeSpec(
        payout=spec.insurance.payout if payout is None else payout,
        eta=spec.insurance.eta,
        income=income,
    )
    return ModelSpec(
        market=spec.market,
        mortality=spec.mortality,
        discount=spec.discount,
        prefs=spec.prefs,
        insurance=ins,
        horizon=spec.horizon,
    )


# ---------------------------------------------------------------------------
# b(t)
# ---------------------------------------------------------------------------


def test_b_zero_income(exp1_spec):
    assert np.all(solve_b(exp1_spec, 16) == 0.0)
    assert b_function(exp1_spec)(0.3) == 0.0


@pytest.mark.parametrize("income", [0.0, 1.0])  # the closed form, the Simpson interpolant
def test_b_refuses_time_outside_horizon(exp1_spec, experiment_spec, income):
    # exp1 without income returned 0.0 at t = -1, 5 and NaN; experiment with
    # income interpolates its Simpson grid, which np.interp would clamp
    spec = exp1_spec if income == 0.0 else _with_income(experiment_spec, income)
    b = b_function(spec)
    T = spec.horizon
    for t in (-1.0, -1e-12, T + 1e-9, 5.0, math.nan):
        with pytest.raises(ValidationError, match="outside"):
            b(t)
        with pytest.raises(ValidationError, match="outside"):
            b(np.array([0.0, 0.5 * T, t, T]))
    assert np.all(np.isfinite(b(np.array([0.0, 0.5 * T, T])))) and b(T) == 0.0


def test_b_constant_rate_closed_form(exp1_spec):
    # i = 1, r + eta/l = 0.05 + 1/50 = 0.07, one year to go
    spec = _with_income(exp1_spec, income=1.0)
    b = solve_b(spec, 10)
    expected = (1.0 - math.exp(-0.07)) / 0.07
    assert b[-1] == pytest.approx(expected, rel=1e-12)  # t = 0
    assert b[0] == 0.0  # boundary b(T) = 0
    assert b_function(spec)(0.0) == pytest.approx(expected, rel=1e-12)


def test_b_actuarial_payout_over_constant_hazard_closed_form(exp1_spec):
    # l = 1/lambda over a constant hazard is the constant rate r + eta lambda:
    # b is the closed form at any N, not an interpolant of the Simpson grid
    # (about 1e-3 relative off next to T at N = 1000)
    spec = dataclasses.replace(
        _with_income(exp1_spec, income=1.0, payout=InverseHazardPayout(exp1_spec.mortality)), horizon=40.0
    )
    rate = 0.05 + 1.0 * 0.02

    def closed_form(t):  # i (1 - e^(-rate (T - t)))/rate with i = 1
        return -np.expm1(-rate * (40.0 - t)) / rate

    t = np.linspace(0.0, 40.0, 4000, endpoint=False)  # b(T) = 0
    assert np.max(np.abs(b_function(spec, 1000)(t) / closed_form(t) - 1.0)) <= 1e-14
    nodes = np.linspace(40.0, 0.0, 1001)
    assert np.max(np.abs(solve_b(spec, 1000)[1:] / closed_form(nodes[1:]) - 1.0)) <= 1e-14


def test_b_ode_residual_constant_rate(exp1_spec):
    # i + b' - (r + eta/l) b = 0 at interior nodes, b' by central difference
    spec = _with_income(exp1_spec, income=2.5)
    N = 200
    b = solve_b(spec, N)[::-1]  # ascending time
    t = np.linspace(0.0, spec.horizon, N + 1)
    h = t[1] - t[0]
    bp = (b[2:] - b[:-2]) / (2 * h)
    rate = spec.market.r + spec.insurance.eta / 50.0
    residual = spec.insurance.income + bp - rate * b[1:-1]
    assert np.max(np.abs(residual)) < 1e-6


def test_b_time_varying_rate_simpson(experiment_spec):
    # actuarial payout makes eta/l = lambda(t); Simpson path vs quad oracle
    spec = _with_income(experiment_spec, income=1.0)
    N = 64
    b = solve_b(spec, N)
    times = np.linspace(spec.horizon, 0.0, N + 1)

    def oracle(s):
        def integrand(u):
            big_r, _ = quad(lambda z: spec.market.r + spec.mortality.rate(z), s, u)
            return spec.insurance.income * math.exp(-big_r)

        val, _ = quad(integrand, s, spec.horizon, limit=200)
        return val

    for idx in (0, N // 2, N):
        assert b[idx] == pytest.approx(oracle(times[idx]), rel=1e-8, abs=1e-12)
    # residual through the defining equation, central differences
    b_asc = b[::-1]
    t = times[::-1]
    h = t[1] - t[0]
    bp = (b_asc[2:] - b_asc[:-2]) / (2 * h)
    rate = spec.market.r + spec.insurance.eta * spec.mortality.rate(t[1:-1])
    residual = spec.insurance.income + bp - rate * b_asc[1:-1]
    assert np.max(np.abs(residual)) < 1e-3  # O(h^2) difference error dominates


@st.composite
def _income_specs(draw):
    """Income > 0 with a constant or actuarial payout.  The hazard never
    decreases, so the discount rate r + eta/l(t) never does either, and
    (r + eta/l) b <= i keeps b non-increasing in t."""
    r = draw(st.floats(-0.05, 0.1))
    market = MarketParams(r=r, alpha=r + draw(st.floats(0.01, 0.2)), sigma=draw(st.floats(0.1, 0.5)))
    mortality = draw(
        st.builds(ConstantHazard, st.floats(0.0, 0.5))
        | st.builds(AffineHazard, st.floats(0.0, 0.1), st.floats(0.0, 0.05))
    )
    payout = draw(
        st.builds(ConstantPayout, st.floats(0.5, 100.0))
        | st.just(ConstantPayout(math.inf))
        | st.just(InverseHazardPayout(mortality))
    )
    insurance = InsuranceIncomeSpec(payout=payout, eta=draw(st.floats(0.1, 2.0)), income=draw(st.floats(0.01, 5.0)))
    h = Exponential(0.1)
    prefs = PreferenceParams(gamma=-1.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=h)
    return ModelSpec(market, mortality, h, prefs, insurance, draw(st.floats(0.1, 50.0)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=_income_specs(), N=st.integers(2, 2000))
def test_b_vanishes_at_T_nonnegative_and_non_increasing(spec, N):
    # where (r + eta/l)(T - t) is large, b has settled at i/(r + eta/l) and
    # its steps are rounding noise of a few ulp (in 3000 random draws at
    # most 2 ulp of b at the nodes and 6 between them), so a rise of at most
    # 1e-13 of b counts as flat
    rel = 1e-13
    b_nodes = solve_b(spec, N)  # t decreasing from T to 0
    assert b_nodes[0] == 0.0
    assert np.all(b_nodes >= 0.0) and np.all(np.diff(b_nodes) >= -rel * b_nodes[1:])
    b = b_function(spec)
    t = np.linspace(0.0, spec.horizon, 1001)
    b_t = b(t)
    assert b(spec.horizon) == 0.0
    assert np.all(b_t >= 0.0) and np.all(np.diff(b_t) <= rel * b_t[1:])


def _absolute_exponent_b(spec, N):
    """b as ``e^(R(t)) int_t^T i e^(-R(u)) du`` with cumulative Simpson
    panels on the solver grid: the absolute exponents e^(+-R) overflow once
    R = int_0^t (r + eta/l) passes about 709."""
    times = np.linspace(spec.horizon, 0.0, N + 1)

    def big_r(t):
        return spec.market.r * t + spec.insurance.eta * spec.insurance.payout.integrated_inverse(t)

    mids = 0.5 * (times[:-1] + times[1:])
    g_nodes = spec.insurance.income * np.exp(-big_r(times))
    g_mids = spec.insurance.income * np.exp(-big_r(mids))
    panels = (times[:-1] - times[1:]) / 6.0 * (g_nodes[1:] + 4.0 * g_mids + g_nodes[:-1])
    return np.exp(big_r(times)) * np.concatenate([[0.0], np.cumsum(panels)])


def test_b_long_horizon_stays_finite():
    # R(T) = 822 at T = 400 with the hazard 0.005 + 0.01 t and l = 1/lambda:
    # the absolute-exponent form gives nan for t >= 371.4 (287 of 4001
    # nodes); the backward march stays finite and agrees where that form is
    # finite (6.4e-15 measured)
    spec = parse_config(long_income_config_text()).spec
    N = 4000
    b = solve_b(spec, N)
    assert np.all(np.isfinite(b)) and b[0] == 0.0 and np.all(b[1:] > 0.0)
    assert np.all(np.isfinite(b_function(spec, N)(np.linspace(0.0, spec.horizon, 1001))))
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _absolute_exponent_b(spec, N)
    finite = np.isfinite(ref)
    assert np.count_nonzero(~finite) == 287
    assert np.max(np.abs(b[finite] / ref[finite] - 1.0)) <= 1e-13


def test_b_requires_two_steps(exp1_spec):
    with pytest.raises(ValidationError):
        solve_b(exp1_spec, 1)


# ---------------------------------------------------------------------------
# a under exponential discounting
# ---------------------------------------------------------------------------


def test_a_exponential_terminal(exp1_spec):
    assert a_exponential(exp1_spec, exp1_spec.horizon) == pytest.approx(1.0, rel=1e-12)


def test_a_exponential_constant_coefficient_oracle(exp1_spec):
    # all coefficients constant: bracket = n^(1/2) e^(nu tau) + c (e^(nu tau)-1)/nu
    K = constant_K(exp1_spec.market, -1.0)
    nu = (K + (-1.0) * 1.0 / 50.0 - 0.1 - 0.02) / 2.0
    c = (1.0 + 0.02 + 1.02) / 2.0
    for t in (0.0, 0.25, 0.8):
        tau = exp1_spec.horizon - t
        bracket = math.exp(nu * tau) + c * (math.exp(nu * tau) - 1.0) / nu
        assert a_exponential(exp1_spec, t) == pytest.approx(bracket**2, rel=1e-10)
    # one call at the nodes of an N = 1000 grid: the rounding of the 1e4-step
    # march measures 5.9e-13
    tau = exp1_spec.horizon - np.linspace(exp1_spec.horizon, 0.0, 1001)
    exact = (np.exp(nu * tau) + c * np.expm1(nu * tau) / nu) ** 2
    got = a_exponential(exp1_spec, exp1_spec.horizon - tau)
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-12


def _constant_m(spec, m0):
    return dataclasses.replace(spec, prefs=dataclasses.replace(spec.prefs, m_weight=ConstantWeight(m0)))


@pytest.mark.parametrize("case", ["exp1", "experiment"])
def test_a_exponential_array_equals_scalar_calls(exp1_spec, experiment_spec, case):
    # unsorted, repeated and end-point times, in a 2-D array; each scalar
    # call marches its own 1e4 panels from t, the array call one grid for all
    spec = exp1_spec if case == "exp1" else _constant_m(experiment_spec, 2.0)
    T = spec.horizon
    times = np.array([[0.8 * T, 0.0, T], [0.25 * T, 0.8 * T, T / 3.0]])
    got = a_exponential(spec, times)
    assert got.shape == times.shape
    scalar = np.array([[a_exponential(spec, float(t)) for t in row] for row in times])
    assert np.max(np.abs(got / scalar - 1.0)) <= 1e-12
    assert got[0, 2] == scalar[0, 2]  # a(T) = n from both


@pytest.mark.parametrize("times", [[], np.empty((0, 3))])
def test_a_exponential_of_no_times_is_empty(exp1_spec, times):
    # t_req.min() of no times raised numpy's zero-size reduction error
    got = a_exponential(exp1_spec, times)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == np.shape(times)


def test_a_exponential_value_at_zero(exp1_spec):
    assert a_exponential(exp1_spec, 0.0) == pytest.approx(3.4645, abs=2e-4)


def test_a_exponential_vs_ode_oracle(experiment_spec):
    # time-varying hazard/payout (constant m): integrate the defining ODE
    # backwards with an independent stiff solver and compare
    spec = ModelSpec(
        market=experiment_spec.market,
        mortality=experiment_spec.mortality,
        discount=experiment_spec.discount,
        prefs=PreferenceParams(
            gamma=-1.0,
            n=1.0,
            m_weight=ConstantWeight(2.0),
            bequest_discount=experiment_spec.discount,
        ),
        insurance=experiment_spec.insurance,
        horizon=experiment_spec.horizon,
    )
    gamma = spec.prefs.gamma
    K = constant_K(spec.market, gamma)
    rho = spec.discount.rho
    w = legacy_hazard_weight(spec.prefs)

    def rhs(t, y):
        lam = spec.mortality.rate(t)
        Mv = weight_M(spec.prefs, spec.insurance, t)
        inv_l = spec.insurance.payout.inverse(t)
        local = (gamma * Mv - w * lam - 1.0) * y[0] ** (gamma / (gamma - 1.0))
        drift = (lam + rho - K - gamma * spec.insurance.eta * inv_l) * y[0]
        return [local + drift]

    sol = solve_ivp(rhs, [spec.horizon, 0.0], [spec.prefs.n], rtol=1e-11, atol=1e-13, dense_output=True)
    for t in (0.0, 1.7, 3.2):
        assert a_exponential(spec, t) == pytest.approx(float(sol.sol(t)[0]), rel=1e-8)


def test_a_exponential_refusals(exp1_spec, market):
    with pytest.raises(ValidationError):
        a_exponential(exp1_spec, -0.1)
    with pytest.raises(ValidationError):
        a_exponential(exp1_spec, np.array([0.5, exp1_spec.horizon + 0.1]))
    hyp = Hyperbolic(k1=5.0, k2=3.0)
    spec = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=hyp,
        prefs=PreferenceParams(gamma=-1.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=hyp),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=1.0,
    )
    with pytest.raises(ValidationError):
        a_exponential(spec, 0.0)
    mixed = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(0.1),
        prefs=PreferenceParams(
            gamma=-1.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.2)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=1.0,
    )
    with pytest.raises(ValidationError):
        a_exponential(mixed, 0.0)


def _exp1_long_horizon(exp1_spec, horizon):
    # exp1 at gamma = 0.9, whose a grows like e^(0.49425 (T - t))
    return dataclasses.replace(exp1_spec, horizon=horizon, prefs=dataclasses.replace(exp1_spec.prefs, gamma=0.9))


def test_a_exponential_long_horizon_matches_closed_form(exp1_spec):
    # w = a^10 passes the double range near t = 0 at T = 400 (a(0) = 7.4e85,
    # w(0) = 4.8e858), and the march carries it rescaled by powers of 2^512.
    # With constant coefficients a = exp((1-g) (k tau + log(n^q + s (1 -
    # e^(-k tau))/k))), q = 1/(1-g), k = (K - rho + g eta/l - lambda)/(1-g)
    # and s = (1 + lambda - g M)/(1-g).  Measured 9.1e-9 at each time: the
    # Simpson error of the 1e4 panels, which the rescaling leaves alone
    spec = _exp1_long_horizon(exp1_spec, 400.0)
    gamma, inv_l, lam = 0.9, 1.0 / 50.0, 0.02
    k = (constant_K(spec.market, gamma) - 0.1 + gamma * inv_l - lam) / (1.0 - gamma)
    s = (1.0 + lam - gamma * (1.0 + inv_l)) / (1.0 - gamma)
    t = np.array([0.0, 200.0, 399.0])
    tau = spec.horizon - t
    exact = np.exp((1.0 - gamma) * (k * tau + np.log(1.0 + s * -np.expm1(-k * tau) / k)))
    assert exact == pytest.approx([7.3819e85, 8.6728e42, 1.6701], rel=1e-4)
    # one call, and one call per time, each on its own panels
    for got in (a_exponential(spec, t), [a_exponential(spec, u) for u in t]):
        assert np.max(np.abs(got / exact - 1.0)) <= 1e-8


def test_a_exponential_overflow_raises(exp1_spec):
    # gamma = 0.9 over T = 1500: a itself leaves the double range where
    # T - t passes 1436 (a(0) = 1e322); over T = 400 only w = a^10 did, and
    # that raised too
    spec = _exp1_long_horizon(exp1_spec, 1500.0)
    assert math.isfinite(a_exponential(spec, 100.0))
    with pytest.raises(OverflowError, match=r"^a_exponential: overflow: a is not finite$"):
        a_exponential(spec, np.linspace(1500.0, 0.0, 4001))
    with pytest.raises(OverflowError, match="overflow"):
        a_exponential(spec, 0.0)


# ---------------------------------------------------------------------------
# a under log utility
# ---------------------------------------------------------------------------


def test_a_log_terminal(log_spec):
    assert a_log(log_spec, log_spec.horizon) == pytest.approx(1.0, rel=1e-12)


def test_a_log_exponential_no_mortality(log_spec):
    # (1 - e^(-rho tau))/rho + n e^(-rho tau)
    expected = (1.0 - math.exp(-0.1)) / 0.1 + math.exp(-0.1)
    assert a_log(log_spec, 0.0) == pytest.approx(expected, abs=1e-10)


def test_a_log_zero_rate(market):
    spec = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(0.0),
        prefs=PreferenceParams(
            gamma=0.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.0)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=1.0,
    )
    assert a_log(spec, 0.25) == pytest.approx(0.75 + 1.0, rel=1e-12)


def test_a_log_with_mortality_vs_quad(market):
    spec = ModelSpec(
        market=market,
        mortality=AffineHazard(0.01, 0.003),
        discount=Exponential(0.15),
        prefs=PreferenceParams(
            gamma=0.0, n=2.0, m_weight=ConstantWeight(3.0), bequest_discount=Exponential(0.05)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(25.0)),
        horizon=2.0,
    )
    t0 = 0.4
    integral, _ = quad(
        lambda s: kernel_Q(spec, s, t0) + kernel_q(spec, s, t0), t0, spec.horizon, limit=200
    )
    expected = integral + spec.prefs.n * kernel_Q(spec, spec.horizon, t0)
    assert a_log(spec, t0) == pytest.approx(expected, rel=1e-9)


def test_a_log_requires_log_branch(exp1_spec):
    with pytest.raises(ValidationError):
        a_log(exp1_spec, 0.0)


# ---------------------------------------------------------------------------
# Stationary case
# ---------------------------------------------------------------------------


def test_stationary_equal_rates_closed_form(stationary_fixture):
    # alpha = lambda + r - K - gamma eta/l = 0.220625; the equation turns
    # linear: x = alpha/(1 + lambda - gamma beta); a = x^(1-gamma)
    sol = solve_stationary(stationary_fixture)
    alpha = 0.02 + 0.1 + 0.080625 + 0.02
    assert sol.alpha1 == pytest.approx(alpha, abs=1e-15)
    assert sol.alpha2 == pytest.approx(alpha, abs=1e-15)
    assert sol.beta == pytest.approx(1.02, abs=1e-15)
    x_expected = alpha / (1.0 + 0.02 + 1.02)
    assert sol.x == pytest.approx(x_expected, rel=1e-12)
    assert sol.a == pytest.approx(x_expected**2, rel=1e-12)
    assert sol.a == pytest.approx(0.0116963, abs=1e-6)
    assert sol.tc1 == pytest.approx(alpha - 1.02 * x_expected, rel=1e-10)
    assert sol.tc1 > 0.0 and sol.tc2 > 0.0
    assert sol.residual < 1e-10
    assert sol.b == 0.0


def test_stationary_residual_recomputed(stationary_fixture):
    sol = solve_stationary(stationary_fixture)
    prefs = stationary_fixture.prefs
    gb = prefs.gamma * sol.beta
    lw = stationary_fixture.mortality.lambda0 * prefs.m0 ** (1.0 / (1.0 - prefs.gamma))
    res = abs(1.0 / sol.x - 1.0 / (sol.alpha1 + gb * sol.x) - lw / (sol.alpha2 + gb * sol.x))
    assert res < 1e-10


def test_stationary_income_floor(market):
    spec = make_stationary_spec(market, lam=0.02, r1=0.1, r2=0.1, m=1.0, payout=50.0, gamma=-1.0, income=1.0)
    sol = solve_stationary(spec)
    assert sol.b == pytest.approx(1.0 / 0.07, rel=1e-12)


def _stationary_alphas(spec):
    lam, gamma, eta = spec.mortality.lambda0, spec.prefs.gamma, spec.insurance.eta
    inv_l = 1.0 / spec.insurance.payout.payout
    K = constant_K(spec.market, gamma)
    return (
        lam + spec.discount.rho - K - gamma * eta * inv_l,
        lam + spec.prefs.bequest_discount.rho - K - gamma * eta * inv_l,
    )


def _brentq_stationary_x(spec):
    # reference: bracket the first sign change of the uncleared equation on
    # the interval where both transversality values are positive, then brentq
    alpha1, alpha2 = _stationary_alphas(spec)
    gamma, m = spec.prefs.gamma, spec.prefs.m0
    w = spec.mortality.lambda0 * m ** (1.0 / (1.0 - gamma))
    gb = gamma * (1.0 + m ** (1.0 / (1.0 - gamma)) / spec.insurance.payout.payout)

    def g(x):
        return 1.0 / x - 1.0 / (alpha1 + gb * x) - w / (alpha2 + gb * x)

    if gb < 0.0:
        upper = min(alpha1, alpha2) / (-gb)
        lo, hi = upper * 1e-12, upper * (1.0 - 1e-12)
    else:
        lo = max(0.0, max(-alpha1, -alpha2) / gb) if gb > 0.0 else 0.0
        lo = lo * (1.0 + 1e-12) + 1e-300
        hi = max(1.0, lo) * 1e9
    grid = np.geomspace(lo, hi, 4000)
    vals = np.array([g(x) for x in grid])
    i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][0]
    return brentq(g, grid[i], grid[i + 1], xtol=1e-300, rtol=8.9e-16)


_STATIONARY_CASES = [
    # (hazard_rate, r1, r2, m, payout, gamma)
    (0.02, 0.1, 0.1, 1.0, 50.0, -1.0),
    (0.005, 0.005, 0.005, 1.0, 50.0, -1.0),  # equal rates: spurious root inside the region
    (0.03, 0.08, 0.12, 4.0, 20.0, -1.0),
    (0.02, 0.1, 0.3, 2.0, math.inf, -3.0),
    (0.05, 0.3, 0.1, 0.25, 5.0, -0.5),
    (0.02, 0.1, 0.3, 2.0, 50.0, 0.0),
    (0.02, 0.3, 0.3, 4.0, 50.0, 0.3),
    (0.1, 0.3, 0.2, 1.0, 10.0, 0.5),
]


@pytest.mark.parametrize("lam, r1, r2, m, payout, gamma", _STATIONARY_CASES)
def test_stationary_quadratic_matches_brentq(market, lam, r1, r2, m, payout, gamma):
    spec = make_stationary_spec(market, lam, r1, r2, m, payout, gamma)
    sol = solve_stationary(spec)
    x_ref = _brentq_stationary_x(spec)
    assert sol.x == pytest.approx(x_ref, rel=1e-13)
    assert sol.a == pytest.approx(x_ref ** (1.0 - gamma), rel=1e-13)


def test_stationary_two_feasible_roots_refused(market):
    # gamma > 0 with m != 1: both roots of the quadratic satisfy the
    # equation and transversality, so no single stationary value exists
    spec = make_stationary_spec(market, lam=0.005, r1=0.3, r2=0.05, m=4.0, payout=5.0, gamma=0.3)
    with pytest.raises(StationaryInfeasibleError, match="multiple"):
        solve_stationary(spec)


def test_stationary_distinct_rates_and_weight(market):
    spec = make_stationary_spec(market, lam=0.03, r1=0.08, r2=0.12, m=4.0, payout=20.0, gamma=-1.0, income=0.5)
    sol = solve_stationary(spec)
    assert sol.residual < 1e-10
    assert sol.tc1 > 0.0 and sol.tc2 > 0.0
    # defining function strictly monotone on the feasible interval
    gb = spec.prefs.gamma * sol.beta
    upper = min(sol.alpha1, sol.alpha2) / (-gb)
    xs = np.linspace(upper * 1e-6, upper * (1 - 1e-6), 1000)
    lw = spec.mortality.lambda0 * spec.prefs.m0**0.5
    g = 1.0 / xs - 1.0 / (sol.alpha1 + gb * xs) - lw / (sol.alpha2 + gb * xs)
    assert np.all(np.diff(g) < 0.0)


def test_stationary_log_branch(market):
    sol = solve_stationary(make_stationary_spec(market, lam=0.02, r1=0.1, r2=0.1, m=1.0, payout=50.0, gamma=0.0))
    assert sol.residual < 1e-12
    assert sol.tc1 > 0.0 and sol.tc2 > 0.0
    # gamma beta = 0: 1/x = 1/alpha1 + lambda m/alpha2
    assert sol.x == pytest.approx(1.0 / (1.0 / sol.alpha1 + 0.02 / sol.alpha2), rel=1e-12)
    assert sol.a == pytest.approx(sol.x, rel=1e-14)  # a = x^(1-0)


def test_stationary_infeasible(market):
    # gamma in (0,1) pushes K above lambda + r_j: alpha_j < 0 with
    # gamma*beta > 0 leaves g(x) < 0 on the whole feasible ray
    spec = make_stationary_spec(market, lam=0.005, r1=0.005, r2=0.005, m=1.0, payout=1e12, gamma=0.5)
    with pytest.raises(StationaryInfeasibleError):
        solve_stationary(spec)


_REPRO_MARKET = MarketParams(r=0.05, alpha=0.12, sigma=0.2)
_rates = st.floats(0.001, 0.5)


@st.composite
def _stationary_specs(draw):
    r1 = draw(_rates)
    lam = draw(st.just(0.0) | _rates)
    r2 = draw(st.one_of(st.just(r1), _rates))
    m = draw(st.one_of(st.just(1.0), st.floats(0.1, 10.0)))
    payout = draw(st.one_of(st.just(math.inf), st.floats(0.5, 100.0)))
    eta = draw(st.floats(0.1, 2.0))
    income = draw(st.floats(0.0, 2.0))
    gamma = draw(st.one_of(st.just(0.0), st.floats(-10.0, 0.95)))
    market = MarketParams(
        r=draw(st.floats(0.001, 0.1)), alpha=draw(st.floats(0.11, 0.3)), sigma=draw(st.floats(0.1, 0.5))
    )
    return make_stationary_spec(market, lam, r1, r2, m, payout, gamma, eta=eta, income=income)


@given(spec=_stationary_specs())
@example(
    spec=make_stationary_spec(
        _REPRO_MARKET, lam=0.005, r1=0.005, r2=0.005, m=1.0, payout=50.0, gamma=-1.0, income=1.0
    )
)
@example(
    spec=make_stationary_spec(
        _REPRO_MARKET, lam=0.005, r1=0.005, r2=0.005, m=1.0, payout=20.0, gamma=0.3, income=1.0
    )
)
@settings(max_examples=400, deadline=None)
def test_stationary_root_properties(spec):
    alpha1, alpha2 = _stationary_alphas(spec)
    gamma = spec.prefs.gamma
    try:
        sol = solve_stationary(spec)
    except StationaryInfeasibleError:
        sol = None
    lam = spec.mortality.lambda0
    if gamma <= 0.0 and lam > 0.0:
        # the equation is monotone on the transversality region, which is
        # non-empty exactly when both alphas are positive
        assert (sol is not None) == (min(alpha1, alpha2) > 0.0)
    elif gamma <= 0.0:
        # Merton's x = alpha1/(1 - gamma beta), with 1 - gamma beta >= 1:
        # the legacy term has no weight, so tc2 bounds no integral
        assert (sol is not None) == (alpha1 > 0.0)
    if sol is None:
        return
    assert sol.tc1 > 0.0 and (sol.tc2 > 0.0 or lam == 0.0)
    assert sol.x * sol.residual <= 1e-9
    if lam == 0.0 or spec.discount.rho == spec.prefs.bequest_discount.rho:
        w = spec.mortality.lambda0 * spec.prefs.m0 ** (1.0 / (1.0 - gamma))
        assert sol.x == pytest.approx(alpha1 / (1.0 + w - gamma * sol.beta), rel=1e-12)


@pytest.mark.parametrize("payout", ["inf", "inverse_hazard"])
@pytest.mark.parametrize("gamma", [-5.0, -1.0, -0.3, 0.0, 0.3, 0.5])
def test_stationary_zero_mortality_is_merton(stationary_fixture, gamma, payout):
    # lambda0 = 0 with no insurance (l = inf, or l = 1/lambda = inf): the
    # Merton (1969) value a = ((rho - K)/(1 - gamma))^(1 - gamma)
    insurance = InsuranceIncomeSpec(
        payout=ConstantPayout(math.inf) if payout == "inf" else InverseHazardPayout(ConstantHazard(0.0))
    )
    spec = dataclasses.replace(
        stationary_fixture,
        mortality=ConstantHazard(0.0),
        prefs=dataclasses.replace(stationary_fixture.prefs, gamma=gamma),
        insurance=insurance,
    )
    sol = solve_stationary(spec)
    K = constant_K(spec.market, gamma)
    assert sol.a == pytest.approx(((0.1 - K) / (1.0 - gamma)) ** (1.0 - gamma), rel=1e-12)
    assert sol.tc1 > 0.0 and sol.tc2 > 0.0 and sol.b == 0.0


@pytest.mark.parametrize("gamma", [-5.0, -1.0, 0.0, 0.5])
def test_stationary_zero_mortality_ignores_tc2(market, gamma):
    # lambda0 = 0 with rho_b far below rho: at gamma < 0, alpha2 + gamma beta x
    # <= 0 at Merton's root, which is served, since the legacy term has no weight
    spec = make_stationary_spec(market, lam=0.0, r1=0.3, r2=0.01, m=1.0, payout=50.0, gamma=gamma)
    sol = solve_stationary(spec)
    assert sol.x == pytest.approx(sol.alpha1 / (1.0 - gamma * sol.beta), rel=1e-15)
    assert sol.a == pytest.approx(sol.x ** (1.0 - gamma), rel=1e-15)
    assert sol.tc1 > 0.0 and sol.x * sol.residual <= 1e-15
    assert sol.tc2 <= 0.0 or gamma >= 0.0


@pytest.mark.parametrize("payout", ["constant", "inverse_hazard"])
def test_stationary_accepts_affine_hazard_at_lambda1_zero(stationary_fixture, payout):
    # AffineHazard(0.02, 0) was refused as "requires constant mortality"
    def solve(hazard):
        insurance = stationary_fixture.insurance
        if payout == "inverse_hazard":
            insurance = InsuranceIncomeSpec(payout=InverseHazardPayout(hazard))
        return solve_stationary(dataclasses.replace(stationary_fixture, mortality=hazard, insurance=insurance))

    assert solve(AffineHazard(0.02, 0.0)) == solve(ConstantHazard(0.02))


def test_exact_b_serves_actuarial_payout_over_affine_hazard_at_lambda1_zero(exp1_spec):
    # 1/l = lambda is constant at lambda1 = 0: the closed form, bit for bit
    # the b of a constant hazard, not the Simpson interpolant
    def b_of(hazard):
        insurance = InsuranceIncomeSpec(payout=InverseHazardPayout(hazard), income=1.0)
        return b_function(dataclasses.replace(exp1_spec, mortality=hazard, insurance=insurance))

    t = np.linspace(0.0, exp1_spec.horizon, 1001)
    b = b_of(AffineHazard(0.02, 0.0))(t)
    assert np.array_equal(b, b_of(ConstantHazard(0.02))(t))
    # r + eta/l = 0.07: i (1 - e^(-0.07 tau)) / 0.07
    assert np.max(np.abs(b - -np.expm1(-0.07 * (1.0 - t)) / 0.07)) <= 1e-16


def test_stationary_refuses_time_varying_actuarial_payout(stationary_fixture):
    # constant mortality, but l = 1/lambda over an affine hazard: 1/l varies
    payout = InverseHazardPayout(AffineHazard(0.01, 0.004))
    spec = dataclasses.replace(stationary_fixture, insurance=InsuranceIncomeSpec(payout=payout))
    with pytest.raises(ValidationError, match="stationary: requires a constant payout ratio"):
        solve_stationary(spec)
