"""Primitive kernels, survival law, and derived constants."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from tcpolicy import (
    AffineExponential,
    AffineHazard,
    ConstantHazard,
    ConstantPayout,
    ConstantWeight,
    Exponential,
    Hyperbolic,
    InsuranceIncomeSpec,
    InverseHazardPayout,
    LogTaperWeight,
    MarketParams,
    ModelSpec,
    PreferenceParams,
    SumOfExponentials,
    ValidationError,
    check_assumption_a1,
    constant_K,
    kernel_Q,
    kernel_q,
    survival,
    weight_M,
)
from tcpolicy.cli import parse_config
from tcpolicy.model import a1_margin, legacy_hazard_weight

from conftest import CONFIGS

ALL_KERNELS = [
    Exponential(rho=0.1),
    Hyperbolic(k1=5.0, k2=3.3597500808650516),
    SumOfExponentials(weight=0.4, r1=0.05, r2=0.3),
    AffineExponential(a_coef=0.1, r_rate=0.25),
]


# ---------------------------------------------------------------------------
# Discount kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
def test_h_at_zero_is_one(kernel):
    assert kernel.value(0.0) == pytest.approx(1.0, abs=0.0)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
def test_h_strictly_decreasing_and_positive(kernel):
    t = np.linspace(0.0, 4.0, 1000)
    h = kernel.value(t)
    assert np.all(h > 0.0)
    assert np.all(np.diff(h) < 0.0)
    assert np.all(kernel.log_derivative(t) <= 0.0)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
def test_log_derivative_matches_finite_difference(kernel):
    # central difference of log h as an independent oracle
    t = np.linspace(0.05, 3.95, 40)
    eps = 1e-6
    fd = (np.log(kernel.value(t + eps)) - np.log(kernel.value(t - eps))) / (2 * eps)
    assert kernel.log_derivative(t) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_exponential_zero_rate_constant():
    k = Exponential(rho=0.0)
    assert k.value(7.3) == 1.0


def test_exponential_log_derivative_constant():
    assert Exponential(rho=0.1).log_derivative(2.0) == -0.1


def test_hyperbolic_unit_value_matches_root_finder():
    # oracle: solve (1 + k1)^(-k2/k1) = 0.3 for k2 by bracketing root finder
    k1 = 5.0
    k2_oracle = brentq(lambda k2: (1.0 + k1) ** (-k2 / k1) - 0.3, 1e-6, 100.0, rtol=1e-14)
    k = Hyperbolic.from_unit_value(k1, 0.3)
    assert k.k2 == pytest.approx(k2_oracle, rel=1e-12)
    assert k.value(1.0) == pytest.approx(0.3, rel=1e-12)


@pytest.mark.parametrize("k1", [0.0, -1.0, -0.5, math.nan])
def test_hyperbolic_unit_value_rejects_nonpositive_k1(k1):
    # log1p(k1) is 0 at k1 = 0 and undefined below -1: refuse before either
    with pytest.raises(ValidationError, match="k1 > 0"):
        Hyperbolic.from_unit_value(k1, 0.3)


def test_hyperbolic_log_derivative_formula():
    k = Hyperbolic(k1=5.0, k2=3.3597)
    assert k.log_derivative(0.0) == pytest.approx(-3.3597, rel=1e-12)
    t = 2.0
    assert k.log_derivative(t) == pytest.approx(-3.3597 / (1.0 + 5.0 * t), rel=1e-12)


def test_negative_time_rejected():
    with pytest.raises(ValidationError):
        Exponential(rho=0.1).value(-0.5)
    with pytest.raises(ValidationError):
        Hyperbolic(k1=1.0, k2=1.0).log_derivative(-1.0)


@pytest.mark.parametrize(
    "kernel",
    [
        Exponential(rho=0.1),
        Hyperbolic(k1=1.0, k2=1.0),
        SumOfExponentials(weight=0.4, r1=0.1, r2=0.5),
        AffineExponential(a_coef=0.5, r_rate=0.8),
    ],
    ids=lambda k: type(k).__name__,
)
@pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan])], ids=["scalar", "array"])
def test_nan_time_rejected(kernel, t):
    # a NaN time is not a nonnegative time: it fails the range check instead
    # of flowing on as a NaN discount value
    with pytest.raises(ValidationError, match="nonnegative"):
        kernel.value(t)
    with pytest.raises(ValidationError, match="nonnegative"):
        kernel.log_derivative(t)


def test_exponential_scalar_value_bit_identical_to_array():
    # scalar times took math.exp, which differed in the last bit from the
    # array values at 4 638 of these times
    h = Exponential(0.8)
    t = np.linspace(0.0, 50.0, 100001)
    assert np.array_equal([h.value(float(ti)) for ti in t], h.value(t))


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
def test_kernel_scalar_time_gives_python_float(kernel):
    # all families but Exponential returned np.float64 for a scalar time
    assert type(kernel.value(0.5)) is float
    assert type(kernel.log_derivative(0.5)) is float


def test_kernel_parameter_validation():
    with pytest.raises(ValidationError):
        Hyperbolic(k1=0.0, k2=1.0)
    with pytest.raises(ValidationError):
        SumOfExponentials(weight=1.4, r1=0.1, r2=0.1)
    with pytest.raises(ValidationError):
        AffineExponential(a_coef=0.5, r_rate=0.2)  # would increase near 0


# ---------------------------------------------------------------------------
# Survival
# ---------------------------------------------------------------------------


def test_survival_trivial_and_closed_forms():
    assert survival(ConstantHazard(0.5), 1.3, 1.3) == 1.0
    assert survival(ConstantHazard(0.02), 0.0, 1.0) == pytest.approx(math.exp(-0.02), rel=1e-14)
    # affine hazard from the numerical experiment: int_0^4 = 4/200 + (9/8000)*16/2
    mort = AffineHazard(lambda0=1.0 / 200.0, lambda1=9.0 / 8000.0)
    assert survival(mort, 0.0, 4.0) == pytest.approx(math.exp(-0.029), rel=1e-14)


def test_survival_against_quadrature_oracle():
    from scipy.integrate import quad

    mort = AffineHazard(lambda0=0.01, lambda1=0.004)
    integral, _ = quad(mort.rate, 0.7, 3.1)
    assert survival(mort, 0.7, 3.1) == pytest.approx(math.exp(-integral), rel=1e-10)


@given(
    times=st.lists(st.floats(0.0, 4.0, allow_nan=False), min_size=3, max_size=3),
    lam0=st.floats(0.0, 0.5),
    lam1=st.floats(0.0, 0.1),
)
@settings(max_examples=200, deadline=None)
def test_survival_semigroup(times, lam0, lam1):
    t, s1, s2 = sorted(times)
    mort = AffineHazard(lambda0=lam0, lambda1=lam1)
    lhs = survival(mort, t, s1) * survival(mort, s1, s2)
    assert abs(lhs - survival(mort, t, s2)) < 1e-12


def test_survival_rejects_reversed_times():
    with pytest.raises(ValidationError):
        survival(ConstantHazard(0.1), 2.0, 1.0)


@pytest.mark.parametrize("t, s", [(math.nan, 1.0), (0.0, math.nan), (np.array([0.0, math.nan]), 1.0)])
def test_survival_refuses_nan_time(t, s):
    # survival(lambda, nan, 1.0) returned nan
    with pytest.raises(ValidationError, match="need t <= s"):
        survival(ConstantHazard(0.1), t, s)


@pytest.mark.parametrize(
    "hazard",
    [
        ConstantHazard(0.02),
        AffineHazard(lambda0=0.005, lambda1=0.001125),
        AffineHazard(lambda0=0.02, lambda1=-0.001),  # decreasing, zero at t = 20
        AffineHazard(lambda0=0.0, lambda1=0.01),
        AffineHazard(lambda0=0.03, lambda1=0.0),
    ],
    ids=["constant", "affine", "affine_decreasing", "affine_lambda0_zero", "affine_lambda1_zero"],
)
def test_inverse_cumulative_inverts_cumulative(hazard):
    t = np.linspace(0.0, 15.0, 301)
    assert np.max(np.abs(hazard.inverse_cumulative(hazard.cumulative(t)) - t)) <= 1e-12
    assert abs(hazard.inverse_cumulative(hazard.cumulative(2.5)) - 2.5) <= 1e-12


def test_inverse_cumulative_beyond_reach_is_infinite():
    assert np.all(np.isinf(ConstantHazard(0.0).inverse_cumulative(np.array([0.5, 2.0]))))
    # a hazard 0.02 - 0.001 t integrates to at most 0.02^2 / 0.002 = 0.2
    assert math.isinf(AffineHazard(lambda0=0.02, lambda1=-0.001).inverse_cumulative(0.3))


@pytest.mark.parametrize("lambda1", [1.125e-3, 1e-6, 1e-9, 1e-12])
def test_affine_inverse_cumulative_does_not_cancel(lambda1):
    # the root (sqrt(lambda0^2 + 2 lambda1 L) - lambda0) / lambda1 cancelled:
    # off by up to 2.1e-8 relative at lambda1 = 1e-6 and 6.1e-3 at 1e-12
    hazard = AffineHazard(lambda0=0.02, lambda1=lambda1)
    t = np.linspace(1e-4, 4.0, 4001)
    assert np.max(np.abs(hazard.inverse_cumulative(hazard.cumulative(t)) / t - 1.0)) <= 1e-14


_AFFINE = AffineHazard(lambda0=0.005, lambda1=0.001125)
_TIME_METHODS = [
    (ConstantHazard(0.02), ("rate", "cumulative")),
    (_AFFINE, ("rate", "cumulative")),
    (ConstantWeight(2), ("value", "log_derivative")),  # value(0.5) returned the int 2
    (ConstantPayout(50.0), ("value", "inverse", "integrated_inverse")),
    (ConstantPayout(math.inf), ("value", "inverse", "integrated_inverse")),
    (InverseHazardPayout(_AFFINE), ("value", "inverse", "integrated_inverse")),
]
_TIME_METHOD_CASES = [(obj, name) for obj, names in _TIME_METHODS for name in names]
_TIME_METHOD_IDS = [f"{type(obj).__name__}.{name}" for obj, name in _TIME_METHOD_CASES]


@pytest.mark.parametrize("obj, method", _TIME_METHOD_CASES, ids=_TIME_METHOD_IDS)
@pytest.mark.parametrize("t", [-1.0, math.nan, np.array([0.5, -1.0]), np.array([0.5, math.nan])])
def test_time_methods_refuse_negative_and_nan_times(obj, method, t):
    # survival(ConstantHazard(0.1), -1, 0) read 0.905, ConstantPayout(50)
    # .integrated_inverse(-2) read -0.04 and InverseHazardPayout(h).value(-1) 258
    with pytest.raises(ValidationError, match="outside"):
        getattr(obj, method)(t)


@pytest.mark.parametrize("obj, method", _TIME_METHOD_CASES, ids=_TIME_METHOD_IDS)
def test_time_methods_give_python_float_for_scalar_time(obj, method):
    assert type(getattr(obj, method)(0.5)) is float
    assert type(getattr(obj, method)(1)) is float


@pytest.mark.parametrize(
    "t, s", [(-1.0, 0.0), (-2.0, -1.0), (math.nan, 1.0), (0.0, math.nan), (np.array([0.0, -0.5]), 1.0)]
)
def test_survival_refuses_times_outside(t, s):
    with pytest.raises(ValidationError, match="outside"):
        survival(ConstantHazard(0.1), t, s)


# ---------------------------------------------------------------------------
# Kernels Q and q
# ---------------------------------------------------------------------------


def test_kernel_Q_examples(exp1_spec, log_spec):
    assert kernel_Q(exp1_spec, 0.7, 0.7) == 1.0
    # no mortality: reduces to the pure discount
    assert kernel_Q(log_spec, 1.0, 0.0) == pytest.approx(math.exp(-0.1), rel=1e-14)
    # constant hazard stacks multiplicatively
    assert kernel_Q(exp1_spec, 1.0, 0.0) == pytest.approx(math.exp(-0.12), rel=1e-14)


def test_kernels_give_python_float_on_hyperbolic_config():
    # kernel_Q(spec, 1, 0) read np.float64(0.29999999999999993) on this config
    spec = parse_config((CONFIGS / "hump_k5_n10.cfg").read_text()).spec
    assert type(kernel_Q(spec, 1, 0)) is float
    assert type(kernel_q(spec, 1, 0)) is float
    assert type(spec.hbar_value(0.5)) is float


def test_kernel_q_examples(exp1_spec, log_spec):
    assert kernel_q(log_spec, 0.9, 0.1) == 0.0
    assert kernel_q(exp1_spec, 0.4, 0.4) == pytest.approx(0.02, rel=1e-14)
    assert kernel_q(exp1_spec, 1.0, 0.0) == pytest.approx(0.02 * math.exp(-0.12), rel=1e-14)


@given(t=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_kernels_at_equal_times(exp1_spec, t):
    assert kernel_Q(exp1_spec, t, t) == 1.0
    lam = exp1_spec.mortality.rate(t)
    assert kernel_q(exp1_spec, t, t) == pytest.approx(exp1_spec.prefs.m0 * lam, rel=1e-13)


def test_kernel_Q_time_derivative_identity(experiment_spec):
    # dQ/dt(s, t) = (lambda(t) - h'/h(s - t)) Q(s, t), by central difference
    spec = experiment_spec
    s, t, eps = 3.5, 1.2, 1e-5
    fd = (kernel_Q(spec, s, t + eps) - kernel_Q(spec, s, t - eps)) / (2 * eps)
    expected = (spec.mortality.rate(t) - spec.discount.log_derivative(s - t)) * kernel_Q(spec, s, t)
    assert fd == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("kernel", [kernel_Q, kernel_q], ids=["Q", "q"])
@pytest.mark.parametrize(
    "s, t",
    [(-1.0, -2.0), (0.5, -0.1), (math.nan, 0.0), (0.5, math.nan), (1.0 + 1e-13, 0.0), (1.5, 0.5)],
    ids=["negative", "negative_t", "nan_s", "nan_t", "just_beyond_T", "beyond_T"],
)
def test_kernels_refuse_times_outside_horizon(exp1_spec, kernel, s, t):
    # kernel_Q(exp1, -1, -2) returned 0.887; NaN times were refused only by
    # the lag check of h, and s up to T + 1e-12 was accepted
    with pytest.raises(ValidationError, match=f"{kernel.__name__}: t outside"):
        kernel(exp1_spec, s, t)
    with pytest.raises(ValidationError, match=f"{kernel.__name__}: t outside"):
        kernel(exp1_spec, np.array([1.0, s]), np.array([0.0, t]))


def test_kernel_domain_errors(exp1_spec):
    with pytest.raises(ValidationError):
        kernel_Q(exp1_spec, 0.2, 0.5)
    with pytest.raises(ValidationError):
        kernel_q(exp1_spec, 2.0, 0.5)  # beyond horizon


# ---------------------------------------------------------------------------
# Constants K, M and the positivity assumption
# ---------------------------------------------------------------------------


def test_constant_K_values(market):
    # gamma(r + mu^2/(2(1-gamma) sigma^2)) at gamma=-1: -(0.05 + 0.0049/0.16)
    assert constant_K(market, -1.0) == pytest.approx(-0.080625, abs=1e-15)
    assert constant_K(market, 0.0) == 0.0
    with pytest.raises(ValidationError):
        constant_K(market, 1.0)


def test_weight_M_values():
    prefs1 = PreferenceParams(
        gamma=-1.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1)
    )
    no_ins = InsuranceIncomeSpec(payout=ConstantPayout(math.inf))
    assert weight_M(prefs1, no_ins, 0.3) == 1.0
    ins50 = InsuranceIncomeSpec(payout=ConstantPayout(50.0))
    assert weight_M(prefs1, ins50, 0.0) == pytest.approx(1.02, abs=1e-15)
    # m(0)=4, l=1, gamma=-1: 1 + 4^(1/2)/1... m^(1/(gamma-1)) = 4^(-1/2)
    prefs4 = PreferenceParams(
        gamma=-1.0, n=1.0, m_weight=ConstantWeight(4.0), bequest_discount=Exponential(0.1)
    )
    ins1 = InsuranceIncomeSpec(payout=ConstantPayout(1.0))
    assert weight_M(prefs4, ins1, 0.0) == pytest.approx(3.0, abs=1e-14)


def test_assumption_a1_holds_for_nonpositive_gamma(exp1_spec, experiment_spec):
    assert check_assumption_a1(exp1_spec).holds
    assert check_assumption_a1(experiment_spec).holds


def test_a1_margin_is_the_checked_quantity(experiment_spec):
    # the tapering weight makes w = m(0)^(1/2) != 1 and l = 1/lambda varies
    spec = experiment_spec
    t = np.linspace(0.0, spec.horizon, 2001)
    w = legacy_hazard_weight(spec.prefs)
    expected = 1.0 + w * spec.mortality.rate(t) - spec.prefs.gamma * weight_M(spec.prefs, spec.insurance, t)
    margin = a1_margin(spec, t)
    assert np.array_equal(margin, expected)
    assert check_assumption_a1(spec).min_value == float(np.min(margin))
    scalar = a1_margin(spec, 1.5)
    assert isinstance(scalar, float) and scalar == margin[750]


def test_inverse_hazard_payout_infinite_where_hazard_vanishes():
    payout = InverseHazardPayout(AffineHazard(0.0, 0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = payout.value(np.array([0.0, 1.0, 2.0]))
        scalar = payout.value(1.0)
    assert values.tolist() == [math.inf, 100.0, 50.0]
    assert isinstance(scalar, float) and scalar == 100.0


def test_assumption_a1_actuarial_payout(market):
    # m = 1 and l = 1/lambda keeps the coefficient positive even for gamma > 0
    hazard = AffineHazard(0.01, 0.002)
    from tcpolicy import InverseHazardPayout

    spec = ModelSpec(
        market=market,
        mortality=hazard,
        discount=Exponential(0.1),
        prefs=PreferenceParams(
            gamma=0.5, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1)
        ),
        insurance=InsuranceIncomeSpec(payout=InverseHazardPayout(hazard)),
        horizon=4.0,
    )
    assert check_assumption_a1(spec).holds


def test_assumption_a1_failure(market):
    # gamma=0.9, M = 1 + 1/5 = 1.2, lambda = 0: 1 - 1.08 = -0.08
    spec = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(0.1),
        prefs=PreferenceParams(
            gamma=0.9, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(5.0)),
        horizon=1.0,
    )
    res = check_assumption_a1(spec)
    assert not res.holds
    assert res.min_value == pytest.approx(-0.08, abs=1e-12)


def test_legacy_hazard_weight_unit_for_m1(exp1_spec, experiment_spec):
    assert legacy_hazard_weight(exp1_spec.prefs) == 1.0
    m0 = experiment_spec.prefs.m0
    assert legacy_hazard_weight(experiment_spec.prefs) == pytest.approx(math.sqrt(m0), rel=1e-14)


# ---------------------------------------------------------------------------
# Container validation
# ---------------------------------------------------------------------------


def test_market_params_validation():
    with pytest.raises(ValidationError):
        MarketParams(r=0.05, alpha=0.12, sigma=0.0)
    with pytest.raises(ValidationError):
        MarketParams(r=0.05, alpha=0.05, sigma=0.2)  # mu must be > 0
    assert MarketParams(r=0.05, alpha=0.12, sigma=0.2).mu == pytest.approx(0.07)


def test_preference_validation():
    with pytest.raises(ValidationError):
        PreferenceParams(gamma=1.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1))
    with pytest.raises(ValidationError):
        PreferenceParams(gamma=-1.0, n=0.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1))


def test_hazard_and_weight_validation():
    with pytest.raises(ValidationError):
        ConstantHazard(-0.1)
    with pytest.raises(ValidationError):
        ConstantWeight(0.0)
    with pytest.raises(ValidationError):
        LogTaperWeight(horizon=-1.0)
    with pytest.raises(ValidationError):
        ConstantPayout(0.0)
    with pytest.raises(ValidationError):
        InsuranceIncomeSpec(payout=ConstantPayout(50.0), eta=0.0)


def test_log_taper_weight_shape():
    m = LogTaperWeight(horizon=4.0, eps=1e-15)
    assert m.value(0.0) == pytest.approx(math.log(4e15 + 1), rel=1e-9)
    assert m.value(4.0) == 0.0
    t = np.linspace(0.0, 3.9, 200)
    assert np.all(np.diff(m.value(t)) < 0.0)
    assert np.all(m.log_derivative(t) < 0.0)


@pytest.mark.parametrize("method", ["value", "log_derivative"])
@pytest.mark.parametrize("t", [-1.0, 4.5, 1e9, math.nan])
def test_log_taper_weight_refuses_time_outside_horizon(method, t):
    # value(-1.0) read 36.1 and log_derivative(1e9) read nan
    m = LogTaperWeight(horizon=4.0)
    with pytest.raises(ValidationError, match="outside"):
        getattr(m, method)(t)
    with pytest.raises(ValidationError, match="outside"):
        getattr(m, method)(np.array([0.0, t]))


def test_model_spec_refuses_infinite_horizon(exp1_spec):
    # an infinite horizon constructed, and solve_a then refused it with a
    # false "positivity assumption fails: min(...) = nan < 0"
    with pytest.raises(ValidationError, match="finite"):
        dataclasses.replace(exp1_spec, horizon=math.inf)


def test_model_spec_horizon_consistency(market):
    with pytest.raises(ValidationError):
        ModelSpec(
            market=market,
            mortality=ConstantHazard(0.0),
            discount=Exponential(0.1),
            prefs=PreferenceParams(
                gamma=-1.0,
                n=1.0,
                m_weight=LogTaperWeight(horizon=2.0),
                bequest_discount=Exponential(0.1),
            ),
            insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
            horizon=4.0,
        )
