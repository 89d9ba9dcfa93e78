"""Shared model fixtures.

EXP-1 is the workhorse exponential instance with a closed-form solution;
the "experiment" fixture combines an affine hazard, actuarial payout and
a tapering Pareto weight (the hardest configuration); the hyperbolic
factory reproduces the consumption-hump setting.
"""

import math
from pathlib import Path

import pytest

from tcpolicy import (
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
)
from tcpolicy import simulate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(autouse=True)
def _fresh_monte_carlo_samples():
    # every test computes its Monte Carlo samples itself, none reads the
    # samples that an earlier test left in the estimators' memo
    simulate._samples.cache_clear()


@pytest.fixture(scope="session")
def market():
    return MarketParams(r=0.05, alpha=0.12, sigma=0.2)


@pytest.fixture(scope="session")
def exp1_spec(market):
    # T=1, gamma=-1, rho=0.1, lambda=0.02, l=50, eta=1, m=1, i=0, n=1
    return ModelSpec(
        market=market,
        mortality=ConstantHazard(lambda0=0.02),
        discount=Exponential(rho=0.1),
        prefs=PreferenceParams(
            gamma=-1.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(rho=0.1)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(50.0), eta=1.0, income=0.0),
        horizon=1.0,
    )


@pytest.fixture(scope="session")
def experiment_spec(market):
    # T=4, affine hazard 1/200 + (9/8000)t, l = 1/lambda, tapering m, rho=0.8
    hazard = AffineHazard(lambda0=1.0 / 200.0, lambda1=9.0 / 8000.0)
    return ModelSpec(
        market=market,
        mortality=hazard,
        discount=Exponential(rho=0.8),
        prefs=PreferenceParams(
            gamma=-1.0,
            n=1.0,
            m_weight=LogTaperWeight(horizon=4.0, eps=1e-15),
            bequest_discount=Exponential(rho=0.8),
        ),
        insurance=InsuranceIncomeSpec(payout=InverseHazardPayout(hazard), eta=1.0, income=0.0),
        horizon=4.0,
    )


def make_hyperbolic_spec(market, k1, n, gamma=-1.0, horizon=4.0):
    """No income, no insurance, no mortality; h(1) = 0.3."""
    h = Hyperbolic.from_unit_value(k1, 0.3)
    return ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=h,
        prefs=PreferenceParams(gamma=gamma, n=n, m_weight=ConstantWeight(1.0), bequest_discount=h),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf), eta=1.0, income=0.0),
        horizon=horizon,
    )


@pytest.fixture(scope="session")
def hyperbolic_spec(market):
    return lambda k1, n: make_hyperbolic_spec(market, k1, n)


@pytest.fixture(scope="session")
def log_spec(market):
    # gamma = 0, no mortality, no insurance
    return ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(rho=0.1),
        prefs=PreferenceParams(
            gamma=0.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(rho=0.1)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf), eta=1.0, income=0.0),
        horizon=1.0,
    )


def make_stationary_spec(market, lam, r1, r2, m, payout, gamma, eta=1.0, income=0.0):
    """The constant-coefficient spec that solve_stationary takes: hazard lam,
    discount rates r1 (own) and r2 (bequest), Pareto weight m, payout l."""
    return ModelSpec(
        market=market,
        mortality=ConstantHazard(lam),
        discount=Exponential(r1),
        prefs=PreferenceParams(
            gamma=gamma, n=1.0, m_weight=ConstantWeight(m), bequest_discount=Exponential(r2)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(payout), eta=eta, income=income),
        horizon=1.0,
    )


@pytest.fixture(scope="session")
def stationary_fixture(market):
    # r1 = r2 = 0.1 collapses the fixed-point equation to a linear one
    return make_stationary_spec(market, lam=0.02, r1=0.1, r2=0.1, m=1.0, payout=50.0, gamma=-1.0)


def long_income_config_text():
    """configs/experiment.cfg at T = 400 with the hazard 0.005 + 0.01 t,
    income 1, a constant Pareto weight and N = 4000.  Under the actuarial
    payout ``int_0^T (r + eta/l)`` reaches 822, beyond the range of exp."""
    changes = {
        "horizon": "400",
        "mortality.lambda1": "0.01",
        "income.rate": "1",
        "preferences.m.family": "constant",
        "grid.N": "4000",
    }
    lines = []
    for line in (CONFIGS / "experiment.cfg").read_text().splitlines():
        key = line.partition("=")[0].strip()
        if key != "preferences.m.eps":
            lines.append(f"{key} = {changes[key]}" if key in changes else line)
    return "\n".join(lines) + "\n"
