"""Equilibrium feedback maps and the value function.

Given a solved value coefficient curve a(t) and income floor b(t), the
policy at state (t, x) is linear in the shifted wealth ``y = x + b(t)``:
a constant Merton fraction of y in the stock, consumption
``a^(1/(gamma-1)) y`` and an insurance premium that tops the bequeathed
wealth up to ``(a/m)^(1/(gamma-1)) y``.  :func:`feedback_rates` is the
only place these rates are computed.  The log branch (gamma = 0) needs no
special case: the exponent ``1/(gamma-1)`` is then exactly -1 and the
Merton fraction the classical ``mu/sigma^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, ValidationError, check_horizon_times, crra_utility, legacy_hazard_weight

__all__ = [
    "PolicyTriple",
    "FeedbackRates",
    "feedback_rates",
    "policy_at",
    "consumption_rate",
    "legacy",
    "value_function",
    "find_satiation",
]


@dataclass(frozen=True)
class PolicyTriple:
    """Stock position, consumption rate and insurance premium at one state.

    The premium may be negative (selling insurance); consumption is
    strictly positive whenever x + b(t) > 0.
    """

    stock_amount: float
    consumption: float
    insurance_premium: float


def _shifted_wealth(x, b):
    """``y = x + b``, refused unless finite and above the human-capital floor 0."""
    y = x + b
    if not 0.0 < y < math.inf:  # NaN fails too
        raise ValidationError("wealth below human-capital floor or not finite: need 0 < x + b(t) < inf")
    return y


def _crra_rate(a, gamma: float) -> np.ndarray:
    """``a^(1/(gamma-1))`` for a > 0; the exponent is exactly -1 at gamma = 0."""
    a = np.asarray(a, dtype=float)
    if not np.all(a > 0.0):  # NaN fails too
        raise ValidationError("a(t) must be positive")
    return a ** (1.0 / (gamma - 1.0))


@dataclass(frozen=True)
class FeedbackRates:
    """The feedback map per unit of shifted wealth ``y = x + b``.

    Stock ``merton y``, consumption ``consumption y`` and bequeathed wealth
    ``bequest y``; ``inv_l = 1/l``.  Rates are shaped like ``a``.
    """

    merton: float
    consumption: np.ndarray
    bequest: np.ndarray
    inv_l: np.ndarray
    eta: float

    @property
    def premium_x(self):
        """Premium per unit of wealth, ``(bequest - eta)/l``."""
        return self.inv_l * (self.bequest - self.eta)

    @property
    def premium_b(self):
        """Premium per unit of the income floor, ``bequest/l``."""
        return self.inv_l * self.bequest

    def premium(self, x, b):
        """Premium that tops the legacy ``eta x + l premium`` up to ``bequest (x + b)``."""
        return self.premium_x * x + self.premium_b * b


def feedback_rates(spec: ModelSpec, a, t) -> FeedbackRates:
    """The feedback map at times ``t`` given the value coefficients ``a = a(t)``."""
    gamma, market = spec.prefs.gamma, spec.market
    consumption = _crra_rate(a, gamma)
    return FeedbackRates(
        merton=market.mu / (market.sigma**2 * (1.0 - gamma)),
        consumption=consumption,
        bequest=legacy_hazard_weight(spec.prefs) * consumption,
        inv_l=np.asarray(spec.insurance.payout.inverse(t), dtype=float),
        eta=spec.insurance.eta,
    )


def policy_at(a_curve, b_curve, spec: ModelSpec, t: float, x: float) -> PolicyTriple:
    """Evaluate the equilibrium feedback triple at (t, x)."""
    b = float(b_curve(t))
    y = _shifted_wealth(x, b)
    rates = feedback_rates(spec, float(a_curve(t)), t)
    return PolicyTriple(
        stock_amount=float(rates.merton * y),
        consumption=float(rates.consumption * y),
        insurance_premium=float(rates.premium(x, b)),
    )


def consumption_rate(a_curve, gamma: float, t):
    """Consumption per unit of shifted wealth, ``a(t)^(1/(gamma-1))``."""
    out = _crra_rate(a_curve(t), gamma)
    return out if np.ndim(t) else float(out)


def legacy(spec: ModelSpec, t: float, x: float, premium: float) -> float:
    """Amount accruing to heirs at death: ``eta(t) x + l(t) premium``; t
    outside [0, T], NaN included, is refused."""
    payout = spec.insurance.payout.value(check_horizon_times(t, spec.horizon, "legacy"))
    insured = 0.0 if premium == 0.0 else payout * premium
    return spec.insurance.eta * x + insured


def value_function(a_curve, b_curve, gamma: float, t: float, x: float) -> float:
    """Equilibrium value ``a(t) U_gamma(x + b(t))``.

    For gamma = 0 this returns ``a(t) log(x + b(t))`` which omits a purely
    time-dependent additive term; treat the log branch as policies-only.
    """
    y = _shifted_wealth(x, float(b_curve(t)))
    return float(a_curve(t)) * crra_utility(y, gamma)


def find_satiation(rate_samples) -> float | None:
    """Interior argmax time of a sampled rate curve, if one exists.

    Expects >= 3 samples of (time, rate) with strictly increasing times.
    Returns the time of the maximum when it is interior and exceeds both
    endpoint rates by more than 1e-9; otherwise None.
    """
    samples = np.asarray(rate_samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 3:
        raise ValidationError("find_satiation: need >= 3 (time, rate) samples")
    times, rates = samples[:, 0], samples[:, 1]
    if np.any(np.diff(times) <= 0.0):
        raise ValidationError("find_satiation: times must be strictly increasing")
    k = int(np.argmax(rates))
    if k == 0 or k == len(rates) - 1:
        return None
    if rates[k] > rates[0] + 1e-9 and rates[k] > rates[-1] + 1e-9:
        return float(times[k])
    return None
