"""Feedback maps, consumption rate, legacy, value function, satiation search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpolicy import (
    AffineHazard,
    ConstantWeight,
    Exponential,
    InsuranceIncomeSpec,
    InverseHazardPayout,
    ModelSpec,
    PreferenceParams,
    ValidationError,
)
from tcpolicy.closed_form import b_function
from tcpolicy.ie_solver import solve_a
from tcpolicy.policy import (
    consumption_rate,
    find_satiation,
    legacy,
    policy_at,
    value_function,
)

from conftest import make_hyperbolic_spec


@pytest.fixture(scope="module")
def exp1_curves(exp1_spec):
    grid = solve_a(exp1_spec, 400)
    return grid.a_curve, b_function(exp1_spec)


# ---------------------------------------------------------------------------
# policy_at
# ---------------------------------------------------------------------------


def test_merton_fraction_value(exp1_spec, exp1_curves):
    a_curve, b_curve = exp1_curves
    trip = policy_at(a_curve, b_curve, exp1_spec, 0.3, 2.0)
    y = 2.0 + b_curve(0.3)
    # mu/(sigma^2 (1-gamma)) = 0.07/(0.04*2)
    assert trip.stock_amount / y == pytest.approx(0.875, abs=1e-12)


@given(t=st.floats(0.0, 1.0), x=st.floats(0.01, 50.0))
@settings(max_examples=150, deadline=None)
def test_merton_fraction_constant(exp1_spec, exp1_curves, t, x):
    a_curve, b_curve = exp1_curves
    trip = policy_at(a_curve, b_curve, exp1_spec, t, x)
    y = x + b_curve(t)
    assert abs(trip.stock_amount / y - 0.875) < 1e-12


def test_policy_at_nan_time_refused(exp1_spec, exp1_curves):
    # refused, not a finite stock amount beside NaN consumption and premium
    a_curve, b_curve = exp1_curves
    with pytest.raises(ValidationError, match="outside"):
        policy_at(a_curve, b_curve, exp1_spec, math.nan, 1.0)


def test_nan_wealth_refused(exp1_spec, exp1_curves):
    # NaN wealth fails the floor check rather than giving NaN policies and value
    a_curve, b_curve = exp1_curves
    with pytest.raises(ValidationError, match="floor"):
        policy_at(a_curve, b_curve, exp1_spec, 0.5, math.nan)
    with pytest.raises(ValidationError, match="floor"):
        value_function(a_curve, b_curve, exp1_spec.prefs.gamma, 0.5, math.nan)


def test_log_branch_uses_classical_merton_amount(log_spec):
    grid_a = lambda t: 1.5  # any positive coefficient
    b_curve = b_function(log_spec)
    trip = policy_at(grid_a, b_curve, log_spec, 0.2, 3.0)
    assert trip.stock_amount == pytest.approx(0.07 * 3.0 / 0.04, rel=1e-12)
    assert trip.consumption == pytest.approx(3.0 / 1.5, rel=1e-12)


def test_premium_x_coefficient_vanishes_at_a_equal_m(exp1_spec):
    # a(t) = m(0) and eta = 1 make the premium independent of wealth
    a_curve = lambda t: exp1_spec.prefs.m0
    b_curve = lambda t: 0.7
    p1 = policy_at(a_curve, b_curve, exp1_spec, 0.1, 1.0).insurance_premium
    p2 = policy_at(a_curve, b_curve, exp1_spec, 0.1, 9.0).insurance_premium
    assert p1 == pytest.approx(p2, abs=1e-14)
    assert p1 == pytest.approx(0.7 / 50.0, rel=1e-12)


def test_policy_homogeneous_in_shifted_wealth(exp1_spec, exp1_curves):
    a_curve, b_curve = exp1_curves
    t = 0.4
    b = b_curve(t)
    inv_l = 1.0 / 50.0
    eta = exp1_spec.insurance.eta
    y1 = 1.3
    p1 = policy_at(a_curve, b_curve, exp1_spec, t, y1 - b)
    p2 = policy_at(a_curve, b_curve, exp1_spec, t, 2.0 * y1 - b)
    assert p2.stock_amount == pytest.approx(2.0 * p1.stock_amount, rel=1e-12)
    assert p2.consumption == pytest.approx(2.0 * p1.consumption, rel=1e-12)
    # premium is affine in y with intercept inv_l * eta * b
    off = inv_l * eta * b
    assert p2.insurance_premium - off == pytest.approx(2.0 * (p1.insurance_premium - off), rel=1e-12)


def test_wealth_floor_error(exp1_spec, exp1_curves):
    a_curve, b_curve = exp1_curves
    with pytest.raises(ValidationError, match="human-capital floor"):
        policy_at(a_curve, b_curve, exp1_spec, 0.2, -0.5)


# ---------------------------------------------------------------------------
# consumption_rate / legacy / value_function
# ---------------------------------------------------------------------------


def test_consumption_rate_examples():
    assert consumption_rate(lambda t: 1.0, -1.0, 0.0) == 1.0
    assert consumption_rate(lambda t: 1.0, 0.5, 0.0) == 1.0
    assert consumption_rate(lambda t: 4.0, -1.0, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert consumption_rate(lambda t: 2.0, 0.0, 0.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ValidationError):
        consumption_rate(lambda t: 0.0, -1.0, 0.0)


def test_legacy_examples(exp1_spec):
    assert legacy(exp1_spec, 0.1, 3.0, 0.0) == 3.0
    assert legacy(exp1_spec, 0.1, 0.0, 1.0) == pytest.approx(50.0, rel=1e-14)


@pytest.mark.parametrize("t", [math.nan, -0.1, 1.5])
def test_legacy_refuses_time_outside_horizon(exp1_spec, t):
    # legacy(t = nan) returned 6.0, as if l(t) were 50
    with pytest.raises(ValidationError, match="outside"):
        legacy(exp1_spec, t, 1.0, 0.1)
    assert legacy(exp1_spec, exp1_spec.horizon, 1.0, 0.1) == pytest.approx(6.0, rel=1e-14)


def test_legacy_of_equilibrium_premium(exp1_spec, exp1_curves):
    a_curve, b_curve = exp1_curves
    t, x = 0.35, 2.4
    trip = policy_at(a_curve, b_curve, exp1_spec, t, x)
    got = legacy(exp1_spec, t, x, trip.insurance_premium)
    y = x + b_curve(t)
    expected = (a_curve(t) / exp1_spec.prefs.m0) ** (1.0 / (-1.0 - 1.0)) * y
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0.0


def test_legacy_no_insurance_zero_premium(log_spec):
    # infinite payout with zero premium contributes nothing
    assert legacy(log_spec, 0.3, 2.0, 0.0) == 2.0


def test_legacy_under_inverse_hazard_payout(market):
    # l(t) = 1/(0.01 t): l(2) = 50, and l(0) = inf, where a zero premium adds nothing
    hazard = AffineHazard(0.0, 0.01)
    spec = ModelSpec(
        market=market,
        mortality=hazard,
        discount=Exponential(0.1),
        prefs=PreferenceParams(gamma=-1.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1)),
        insurance=InsuranceIncomeSpec(payout=InverseHazardPayout(hazard)),
        horizon=4.0,
    )
    assert legacy(spec, 2.0, 1.0, 0.5) == 26.0
    assert legacy(spec, 0.0, 1.0, 0.0) == 1.0


def test_value_function_examples():
    assert value_function(lambda t: 2.0, lambda t: 1.0, -1.0, 0.1, 3.0) == pytest.approx(
        2.0 * 4.0**-1.0 / -1.0, rel=1e-14
    )
    # boundary: a(T) = n, b(T) = 0 gives n U(x)
    assert value_function(lambda t: 1.0, lambda t: 0.0, -1.0, 1.0, 2.0) == pytest.approx(-0.5)
    assert value_function(lambda t: 1.5, lambda t: 0.0, 0.0, 0.0, 2.0) == pytest.approx(
        1.5 * math.log(2.0), rel=1e-14
    )


def test_value_function_concave_in_wealth(exp1_spec, exp1_curves):
    a_curve, b_curve = exp1_curves
    h = 1e-3
    for x in (0.5, 1.0, 5.0):
        vm = value_function(a_curve, b_curve, -1.0, 0.2, x - h)
        v0 = value_function(a_curve, b_curve, -1.0, 0.2, x)
        vp = value_function(a_curve, b_curve, -1.0, 0.2, x + h)
        assert vp - 2 * v0 + vm < 0.0


# ---------------------------------------------------------------------------
# Satiation search
# ---------------------------------------------------------------------------


def test_find_satiation_cases():
    assert find_satiation([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]) is None  # boundary max
    assert find_satiation([(0.0, 1.0), (1.0, 2.0), (2.0, 1.0)]) == 1.0
    with pytest.raises(ValidationError):
        find_satiation([(0.0, 1.0), (0.0, 2.0), (2.0, 1.0)])
    with pytest.raises(ValidationError):
        find_satiation([(0.0, 1.0), (1.0, 2.0)])


def test_exponential_rate_monotone_no_satiation(exp1_spec):
    grid = solve_a(exp1_spec, 300)
    t = grid.times[::-1]
    rate = consumption_rate(grid.a_curve, -1.0, t)
    assert find_satiation(np.column_stack([t, rate])) is None
    diffs = np.diff(rate)
    assert np.all(diffs > 0.0) or np.all(diffs < 0.0)


def test_hyperbolic_rate_has_interior_satiation(market):
    spec = make_hyperbolic_spec(market, 5.0, 10.0)
    grid = solve_a(spec, 300)
    t = grid.times[::-1]
    rate = consumption_rate(grid.a_curve, -1.0, t)
    sat = find_satiation(np.column_stack([t, rate]))
    assert sat is not None
    assert 0.0 < sat < spec.horizon
