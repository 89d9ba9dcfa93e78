"""Problem primitives for the lifetime investment/consumption/insurance model.

A single decision maker trades a riskless bond and one stock, consumes,
receives deterministic income and buys instantaneous term life insurance.
Preferences are CRRA with weight ``n`` on terminal wealth, a Pareto weight
``m(t)`` on the heirs' utility and two discount functions: ``h`` for own
consumption/terminal wealth and ``h_hat`` for the legacy.  Non-exponential
discounting (or a time varying ``m``) makes the problem time inconsistent;
the solver modules compute the subgame-perfect policies instead of the
pre-commitment optimum.

This module houses the parameter containers (the Monte Carlo settings
``SimConfig`` among them), the mortality-adjusted discount kernels
``Q(s, t)`` and ``q(s, t)``, and the derived constants ``K`` and ``M(z)``
used throughout the solvers.  Everything here is a pure function of its
inputs and safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationError",
    "MarketParams",
    "DiscountKernel",
    "Exponential",
    "Hyperbolic",
    "SumOfExponentials",
    "AffineExponential",
    "ConstantHazard",
    "AffineHazard",
    "MortalityModel",
    "ParetoWeight",
    "ConstantWeight",
    "LogTaperWeight",
    "PayoutRatio",
    "ConstantPayout",
    "InverseHazardPayout",
    "InsuranceIncomeSpec",
    "PreferenceParams",
    "ModelSpec",
    "EXACT_Y",
    "EULER",
    "SimConfig",
    "A1Check",
    "survival",
    "kernel_Q",
    "kernel_q",
    "constant_K",
    "weight_M",
    "a1_margin",
    "check_assumption_a1",
    "legacy_hazard_weight",
    "crra_utility",
    "check_horizon_times",
]


class ValidationError(ValueError):
    """Raised when a model invariant or an operation precondition fails."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def check_horizon_times(t, horizon, name: str) -> np.ndarray:
    """``t`` as a float array, refused unless every time lies in [0, horizon];
    an array horizon bounds each time by its own, as numpy broadcasts them."""
    t = np.asarray(t, dtype=float)
    if not (np.all(t >= 0.0) and np.all(t <= horizon)):  # NaN fails too
        raise ValidationError(f"{name}: t outside [0, T]")
    return t


# ---------------------------------------------------------------------------
# Discount kernels
# ---------------------------------------------------------------------------

# log of the relative size of each dropped tail of a quadrature sum
_LOG_TAIL = math.log(1e-17)
_LAG = "discount kernel: nonnegative lag needed"


class DiscountKernel:
    """Discount function ``h`` with ``h(0) = 1``, positive and non-increasing.

    ``value`` and ``log_derivative`` (that is ``h'/h``) take a scalar or an
    array of nonnegative times and give a float or an array.  Subclasses
    implement them as ``_value`` and ``_log_derivative`` on the checked
    float array, and ``exponential_sum``.
    """

    def value(self, t):
        t = check_horizon_times(t, math.inf, _LAG)
        out = self._value(t)
        return out if t.ndim else float(out)

    def log_derivative(self, t):
        t = check_horizon_times(t, math.inf, _LAG)
        out = self._log_derivative(t)
        return out if t.ndim else float(out)

    def exponential_sum(self, horizon: float, step: float):
        """Arrays ``(w, r)``, real or complex, with ``h(t) = Re sum_i w_i
        e^(-r_i t)`` to double precision for t in [step, horizon].  Every
        ``Re r_i >= 0``, so each weight is its term's value at t = 0."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(DiscountKernel):
    """Classical exponential discounting, ``h(t) = exp(-rho t)``."""

    rho: float

    def __post_init__(self):
        _require(self.rho >= 0, "Exponential: rho must be >= 0")

    def _value(self, t):
        return np.exp(-self.rho * t)

    def _log_derivative(self, t):
        return np.full_like(t, -self.rho)

    def exponential_sum(self, horizon: float, step: float):
        return np.array([1.0]), np.array([self.rho])


@dataclass(frozen=True)
class Hyperbolic(DiscountKernel):
    """Hyperbolic discounting, ``h(t) = (1 + k1 t)^(-k2/k1)``.

    The instantaneous discount rate ``k2 / (1 + k1 t)`` starts at ``k2`` and
    decays to zero, which is what produces time inconsistency.
    """

    k1: float
    k2: float

    def __post_init__(self):
        _require(self.k1 > 0 and self.k2 > 0, "Hyperbolic: k1 and k2 must be > 0")

    @classmethod
    def from_unit_value(cls, k1: float, h1: float) -> "Hyperbolic":
        """Construct with ``k2`` chosen so that ``h(1) = h1``."""
        _require(k1 > 0, "Hyperbolic.from_unit_value: need k1 > 0")
        _require(0 < h1 < 1, "Hyperbolic.from_unit_value: need 0 < h1 < 1")
        k2 = -k1 * math.log(h1) / math.log1p(k1)
        return cls(k1, k2)

    def _value(self, t):
        return np.power(1.0 + self.k1 * t, -self.k2 / self.k1)

    def _log_derivative(self, t):
        return -self.k2 / (1.0 + self.k1 * t)

    def exponential_sum(self, horizon: float, step: float):
        """Trapezoid nodes of ``(1 + k1 t)^(-p) = Gamma(p)^(-1) int exp(p x -
        e^x (1 + k1 t)) dx`` with p = k2/k1 (Beylkin & Monzon 2005): node x
        gives ``r = k1 e^x``.  The x-step is 0.25 up to p = 1 and shrinks as
        p^(-1/3) beyond, where the integrand grows off the real axis (at a
        fixed 0.25 the fit error is 5e-14 at p = 3 and 1e-4 at p = 30).  The
        nodes dropped left of ``x_lo`` sum to under 1e-17 of h(horizon), and
        those right of ``x_hi`` to about 1e-17 of h(step) or less.
        """
        p = self.k2 / self.k1
        dx = 0.25 / max(1.0, p) ** (1.0 / 3.0)
        x_lo = (_LOG_TAIL + math.lgamma(p + 1.0)) / p - math.log1p(self.k1 * horizon)
        x_hi = math.log(2.0 * p - 4.0 * _LOG_TAIL) - math.log1p(self.k1 * step)
        x = x_lo + dx * np.arange(math.ceil((x_hi - x_lo) / dx) + 1)
        return dx * np.exp(p * x - np.exp(x) - math.lgamma(p)), self.k1 * np.exp(x)


@dataclass(frozen=True)
class SumOfExponentials(DiscountKernel):
    """Quasi-exponential mixture ``h(t) = w e^(-r1 t) + (1-w) e^(-r2 t)``."""

    weight: float
    r1: float
    r2: float

    def __post_init__(self):
        _require(0.0 <= self.weight <= 1.0, "SumOfExponentials: weight must lie in [0, 1]")
        _require(self.r1 >= 0 and self.r2 >= 0, "SumOfExponentials: rates must be >= 0")

    def _value(self, t):
        return self.weight * np.exp(-self.r1 * t) + (1.0 - self.weight) * np.exp(-self.r2 * t)

    def _log_derivative(self, t):
        num = -self.weight * self.r1 * np.exp(-self.r1 * t) - (1.0 - self.weight) * self.r2 * np.exp(-self.r2 * t)
        return num / self._value(t)

    def exponential_sum(self, horizon: float, step: float):
        return np.array([self.weight, 1.0 - self.weight]), np.array([self.r1, self.r2])


@dataclass(frozen=True)
class AffineExponential(DiscountKernel):
    """Quasi-exponential family ``h(t) = (1 + a t) e^(-r t)``.

    Requires ``0 <= a <= r`` so that ``h`` is non-increasing for all t >= 0.
    """

    a_coef: float
    r_rate: float

    def __post_init__(self):
        _require(0.0 <= self.a_coef <= self.r_rate, "AffineExponential: need 0 <= a_coef <= r_rate")

    def _value(self, t):
        return (1.0 + self.a_coef * t) * np.exp(-self.r_rate * t)

    def _log_derivative(self, t):
        return self.a_coef / (1.0 + self.a_coef * t) - self.r_rate

    def exponential_sum(self, horizon: float, step: float):
        """``e^(-r t)`` and the complex step ``a t e^(-r t) = Re (-i a/delta)
        e^(-(r - i delta) t)`` to a relative ``(delta t)^2/6`` (Squire & Trapp
        1998), under 2e-17 on [0, horizon] with ``delta horizon = 1e-8``.
        The second weight's real part is an exact 0, so the real part of its
        product with a state is one product and nothing cancels."""
        delta = 1e-8 / horizon
        return np.array([1.0, -1j * self.a_coef / delta]), np.array([self.r_rate, self.r_rate - 1j * delta])


# ---------------------------------------------------------------------------
# Mortality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantHazard:
    """Constant force of mortality ``lambda(t) = lambda0``."""

    lambda0: float

    def __post_init__(self):
        _require(self.lambda0 >= 0, "ConstantHazard: lambda0 must be >= 0")

    def rate(self, t):
        t = check_horizon_times(t, math.inf, "ConstantHazard")
        return np.full_like(t, self.lambda0) if t.ndim else float(self.lambda0)

    def cumulative(self, t):
        """Integrated hazard on [0, t]."""
        t = check_horizon_times(t, math.inf, "ConstantHazard")
        out = self.lambda0 * t
        return out if t.ndim else float(out)

    def inverse_cumulative(self, target):
        """The t with ``cumulative(t) = target``; inf for a zero hazard."""
        target = np.asarray(target, dtype=float)
        out = target / self.lambda0 if self.lambda0 > 0.0 else np.full_like(target, np.inf)
        return out if target.ndim else float(out)


@dataclass(frozen=True)
class AffineHazard:
    """Linearly increasing force of mortality ``lambda(t) = lambda0 + lambda1 t``."""

    lambda0: float
    lambda1: float

    def __post_init__(self):
        _require(self.lambda0 >= 0, "AffineHazard: lambda0 must be >= 0")

    def rate(self, t):
        t = check_horizon_times(t, math.inf, "AffineHazard")
        out = self.lambda0 + self.lambda1 * t
        return out if t.ndim else float(out)

    def cumulative(self, t):
        t = check_horizon_times(t, math.inf, "AffineHazard")
        out = self.lambda0 * t + 0.5 * self.lambda1 * t * t
        return out if t.ndim else float(out)

    def inverse_cumulative(self, target):
        """The least t >= 0 with ``cumulative(t) = target``; inf past ``lambda0^2
        / (2 |lambda1|)``, all that a decreasing hazard (lambda1 < 0) integrates to."""
        lam0, lam1 = self.lambda0, self.lambda1
        if lam1 == 0.0:
            return ConstantHazard(lam0).inverse_cumulative(target)
        target = np.asarray(target, dtype=float)
        disc = lam0 * lam0 + 2.0 * lam1 * target
        # the root as 2 target / (lam0 + sqrt(disc)): (sqrt(disc) - lam0) / lam1
        # cancels for a small lam1; the denominator is 0 only at lam0 = target = 0
        root = np.divide(2.0 * target, lam0 + np.sqrt(np.abs(disc)), out=np.zeros_like(target), where=target != 0.0)
        out = np.where(disc >= 0.0, root, np.inf)
        return out if target.ndim else float(out)


MortalityModel = ConstantHazard | AffineHazard


def survival(mortality: MortalityModel, t, s):
    """Probability of surviving from t to s, ``exp(-int_t^s lambda)``.

    Uses the closed-form integrated hazard; requires ``0 <= t <= s`` (NaN fails).
    """
    check_horizon_times(t, s, "survival: need t <= s")
    out = np.exp(mortality.cumulative(t) - mortality.cumulative(s))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Pareto weight on the heirs' utility
# ---------------------------------------------------------------------------


class ParetoWeight:
    """Aggregation weight ``m(t) > 0`` applied to the legacy utility."""

    def value(self, t):
        raise NotImplementedError

    def log_derivative(self, t):
        """``m'(t)/m(t)``; zero for a constant weight."""
        raise NotImplementedError

    def exponential_sum(self, step: float):
        """Real arrays ``(w, r)`` of m as a function of the lag, in the form of
        :meth:`ModelSpec.hbar_exponential_sum`."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantWeight(ParetoWeight):
    m0: float

    def __post_init__(self):
        _require(self.m0 > 0, "ConstantWeight: m0 must be > 0")

    def value(self, t):
        t = check_horizon_times(t, math.inf, "ConstantWeight")
        return np.full_like(t, self.m0) if t.ndim else float(self.m0)

    def log_derivative(self, t):
        t = check_horizon_times(t, math.inf, "ConstantWeight")
        return np.zeros_like(t) if t.ndim else 0.0

    def exponential_sum(self, step: float):
        return np.array([self.m0]), np.array([0.0])


@dataclass(frozen=True)
class LogTaperWeight(ParetoWeight):
    """Decreasing weight ``m(t) = log((T + eps - t)/eps)``.

    Large at t = 0 and tapering to zero only at t = T exactly; with the
    default ``eps = 1e-15`` the drop happens in a boundary layer invisible
    at solver resolution.  Solvers therefore evaluate m-dependent terms on
    [0, T) only and let t = T enter through boundary conditions.
    """

    horizon: float
    eps: float = 1e-15

    def __post_init__(self):
        _require(self.horizon > 0, "LogTaperWeight: horizon must be > 0")
        _require(self.eps > 0, "LogTaperWeight: eps must be > 0")

    def value(self, t):
        t = check_horizon_times(t, self.horizon, "LogTaperWeight")
        # grouping (T - t) + eps keeps the boundary exact: m(T) = log(1) = 0
        out = np.log(((self.horizon - t) + self.eps) / self.eps)
        return out if t.ndim else float(out)

    def log_derivative(self, t):
        t = check_horizon_times(t, self.horizon, "LogTaperWeight")
        rem = (self.horizon - t) + self.eps
        out = -1.0 / (rem * np.log(rem / self.eps))
        return out if t.ndim else float(out)

    def exponential_sum(self, step: float):
        """With X = T + eps and x = X - t, ``m(t) = log(X/eps) - int (e^(-u
        x) - e^(-u X)) ds`` over u = e^s, whose t-derivative is ``-1/x = -int
        u e^(-u x) ds``.  Trapezoid nodes with ds = 0.25 (Beylkin & Monzon
        2005), from u = 1e-17/X, below which the dropped nodes sum to under
        1e-17 of t/X, to u = 40/step, past which ``e^(-u x) < e^(-40)`` at
        every lag t <= T - step.  The constant is a term of rate 0; node u
        gives the term ``-ds e^(-u eps) e^(-u (T - t))`` of rate -u, which
        grows with t.
        """
        X = self.horizon + self.eps
        ds = 0.25
        s_lo = _LOG_TAIL - math.log(X)
        s = s_lo + ds * np.arange(math.ceil((math.log(40.0 / step) - s_lo) / ds) + 1)
        u = np.exp(s)
        const = math.log(X / self.eps) + ds * math.fsum(np.exp(-u * X))
        return np.append(const, -ds * np.exp(-u * self.eps)), np.append(0.0, -u)


# ---------------------------------------------------------------------------
# Insurance payout, bequest fraction and income
# ---------------------------------------------------------------------------


class PayoutRatio:
    """Insurance payout ``l(t)`` per unit of premium.

    ``inverse`` returns ``1/l(t)``, which is what every formula actually
    consumes; a constant payout of ``inf`` encodes "no insurance offered"
    (the premium term then vanishes identically).
    """

    def value(self, t):
        raise NotImplementedError

    def inverse(self, t):
        raise NotImplementedError

    def integrated_inverse(self, t):
        """Closed-form ``int_0^t 1/l(u) du``."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantPayout(PayoutRatio):
    payout: float

    def __post_init__(self):
        _require(self.payout > 0, "ConstantPayout: payout must be > 0")

    def value(self, t):
        t = check_horizon_times(t, math.inf, "ConstantPayout")
        return np.full_like(t, self.payout) if t.ndim else float(self.payout)

    def inverse(self, t):
        t = check_horizon_times(t, math.inf, "ConstantPayout")
        return np.full_like(t, 1.0 / self.payout) if t.ndim else 1.0 / self.payout

    def integrated_inverse(self, t):
        t = check_horizon_times(t, math.inf, "ConstantPayout")
        out = (1.0 / self.payout) * t
        return out if t.ndim else float(out)


@dataclass(frozen=True)
class InverseHazardPayout(PayoutRatio):
    """Actuarially linked payout ``l(t) = 1/lambda(t)``."""

    hazard: MortalityModel

    def value(self, t):
        lam = np.asarray(self.hazard.rate(t))
        with np.errstate(divide="ignore"):
            out = np.where(lam > 0, 1.0 / lam, np.inf)
        return out if lam.ndim else float(out)

    def inverse(self, t):
        return self.hazard.rate(t)

    def integrated_inverse(self, t):
        return self.hazard.cumulative(t)


@dataclass(frozen=True)
class InsuranceIncomeSpec:
    """Payout ratio l(t), bequest fraction eta and deterministic income rate."""

    payout: PayoutRatio
    eta: float = 1.0
    income: float = 0.0

    def __post_init__(self):
        _require(self.eta > 0, "InsuranceIncomeSpec: eta must be > 0")
        _require(self.income >= 0, "InsuranceIncomeSpec: income must be >= 0")


# ---------------------------------------------------------------------------
# Market and preferences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketParams:
    """Riskless rate, stock drift and volatility; mu = alpha - r > 0."""

    r: float
    alpha: float
    sigma: float

    def __post_init__(self):
        _require(self.sigma > 0, "MarketParams: sigma must be > 0")
        _require(self.alpha - self.r > 0, "MarketParams: excess return alpha - r must be > 0")

    @property
    def mu(self) -> float:
        return self.alpha - self.r


@dataclass(frozen=True)
class PreferenceParams:
    """CRRA exponent, terminal-wealth weight, Pareto weight and legacy discount.

    ``gamma = 0`` selects the logarithmic branch.
    """

    gamma: float
    n: float
    m_weight: ParetoWeight
    bequest_discount: DiscountKernel

    def __post_init__(self):
        _require(self.gamma < 1, "PreferenceParams: gamma must be < 1")
        _require(self.n > 0, "PreferenceParams: n must be > 0")

    @property
    def is_log(self) -> bool:
        return self.gamma == 0.0

    @property
    def m0(self) -> float:
        """The constant m = m(0) entering the policy maps and M(z)."""
        return self.m_weight.value(0.0)


@dataclass(frozen=True)
class ModelSpec:
    """A complete problem instance on the horizon [0, T]."""

    market: MarketParams
    mortality: MortalityModel
    discount: DiscountKernel
    prefs: PreferenceParams
    insurance: InsuranceIncomeSpec
    horizon: float

    def __post_init__(self):
        _require(0.0 < self.horizon < math.inf, "ModelSpec: horizon must be > 0 and finite")
        lam_T = self.mortality.rate(self.horizon)
        _require(lam_T >= 0, "ModelSpec: hazard rate must stay >= 0 on [0, T]")
        if isinstance(self.prefs.m_weight, LogTaperWeight):
            _require(
                self.prefs.m_weight.horizon == self.horizon,
                "ModelSpec: LogTaperWeight horizon must equal the model horizon",
            )

    # -- convenience wrappers used by the solvers -------------------------

    def hbar_value(self, t):
        """Legacy kernel weight ``m(t) h_hat(t)``."""
        return self.prefs.m_weight.value(t) * self.prefs.bequest_discount.value(t)

    def hbar_log_derivative(self, t):
        """``(m h_hat)'/(m h_hat) = m'/m + h_hat'/h_hat``."""
        return self.prefs.m_weight.log_derivative(t) + self.prefs.bequest_discount.log_derivative(t)

    def hbar_exponential_sum(self, step: float):
        """``(w, r)`` with ``m h_hat = Re sum_i w_i e^(-r_i t)`` to double
        precision at the lags step, 2 step, ... short of T: the product of
        m's real sum and h_hat's, so that the real part of the product is
        the product of the real parts.

        A term of ``Re r >= 0`` is ``w e^(-r t)``, as in
        ``DiscountKernel.exponential_sum``.  A term of ``Re r < 0`` grows
        with the lag; it is ``w e^(r (T - t))``, its weight being its value
        at t = T, so that no factor of a term exceeds 1 in modulus on
        [0, T].  A constant m has one term; the log taper's some 200 times
        h_hat's terms give about 400 with a two-rate h_hat and about 54 000
        with a hyperbolic one.
        """
        T = self.horizon
        m_w, m_r = self.prefs.m_weight.exponential_sum(step)
        h_w, h_r = self.prefs.bequest_discount.exponential_sum(T, step)
        r = np.add.outer(m_r, h_r).ravel()
        # each product term weighted at lag 0 where it decays and at lag T where it grows
        at_0 = np.outer(m_w * np.exp(m_r * T), h_w).ravel()
        at_T = np.outer(m_w, h_w * np.exp(-h_r * T)).ravel()
        return np.where(r.real < 0.0, at_T, at_0), r


# The Monte Carlo schemes of ``simulate``: exact Gaussian increments of
# log(X + b), or Euler-Maruyama steps of X + b.
EXACT_Y = "exact_y"
EULER = "euler"


@dataclass(frozen=True)
class SimConfig:
    """Path count, seed, Euler step and discretization scheme."""

    paths: int
    seed: int
    dt: float
    scheme: str = EXACT_Y

    def __post_init__(self):
        _require(isinstance(self.paths, numbers.Integral) and self.paths >= 1, "SimConfig: need integer paths >= 1")
        _require(
            isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64,
            "SimConfig: seed must be an integer in [0, 2^64)",
        )
        _require(self.dt > 0.0, "SimConfig: dt must be > 0")
        _require(self.scheme in (EXACT_Y, EULER), f"SimConfig: unknown scheme {self.scheme!r}")


# ---------------------------------------------------------------------------
# Kernels and derived constants
# ---------------------------------------------------------------------------


def _kernel_arguments(spec: ModelSpec, s, t, name: str):
    """``(s, lag s - t, survival from t to s)`` for times s and t in [0, T]."""
    s = check_horizon_times(s, spec.horizon, name)
    t = check_horizon_times(t, spec.horizon, name)
    return s, s - t, survival(spec.mortality, t, s)


def kernel_Q(spec: ModelSpec, s, t):
    """Survival-adjusted own discount kernel ``Q(s,t) = h(s-t) exp(-int_t^s lambda)``."""
    _, lag, surv = _kernel_arguments(spec, s, t, "kernel_Q")
    return spec.discount.value(lag) * surv


def kernel_q(spec: ModelSpec, s, t):
    """Legacy kernel ``q(s,t) = m(s-t) h_hat(s-t) lambda(s) exp(-int_t^s lambda)``."""
    s, lag, surv = _kernel_arguments(spec, s, t, "kernel_q")
    return spec.hbar_value(lag) * spec.mortality.rate(s) * surv


def constant_K(market: MarketParams, gamma: float) -> float:
    """Growth constant ``K = gamma (r + mu^2 / (2 (1-gamma) sigma^2))``."""
    if gamma >= 1:
        raise ValidationError("constant_K: gamma must be < 1")
    mu = market.mu
    return gamma * (market.r + mu * mu / (2.0 * (1.0 - gamma) * market.sigma**2))


def weight_M(prefs: PreferenceParams, insurance: InsuranceIncomeSpec, z):
    """Outflow multiplier ``M(z) = 1 + m^(1/(1-gamma))/l(z)`` with m = m(0)."""
    return 1.0 + legacy_hazard_weight(prefs) * insurance.payout.inverse(z)


@dataclass(frozen=True)
class A1Check:
    """Result of the positivity check on the A1 margin (:func:`a1_margin`)."""

    holds: bool
    min_value: float


def legacy_hazard_weight(prefs: PreferenceParams) -> float:
    """The constant ``w = m(0)^(1/(1-gamma))``: it multiplies the hazard in
    the consumption coefficient and ``1/l`` in M, and the consumption rate
    to give the bequest rate.

    It comes from the legacy utility evaluated at the equilibrium bequest
    ``(a/m)^(1/(gamma-1)) (x + b)`` together with the ``m(0) lambda`` mass
    of the legacy kernel at zero delay; it equals 1 whenever m(0) = 1.
    """
    return prefs.m0 ** (1.0 / (1.0 - prefs.gamma))


def a1_margin(spec: ModelSpec, t):
    """The A1 margin ``1 + w lambda(t) - gamma M(t)``, ``w = m(0)^(1/(1-gamma))``.

    A1 asks it to be nonnegative on [0, T].  It is also minus the march's
    local coefficient, C1 (min) and D1 (max) of the a-priori envelopes and,
    over 1 - gamma, the source of the exponential closed form.
    """
    w = legacy_hazard_weight(spec.prefs)
    return 1.0 + w * spec.mortality.rate(t) - spec.prefs.gamma * weight_M(spec.prefs, spec.insurance, t)


_A1_GRID_POINTS = 2001


def check_assumption_a1(spec: ModelSpec) -> A1Check:
    """Grid-evaluate :func:`a1_margin` on [0, T].

    A negative minimum means the consumption coefficient can drive a(t) to
    zero, in which case the backward solver refuses to run; A1 holds for
    any gamma <= 0.
    """
    m = float(np.min(a1_margin(spec, np.linspace(0.0, spec.horizon, _A1_GRID_POINTS))))
    return A1Check(holds=m >= 0.0, min_value=m)


def crra_utility(x, gamma: float):
    """CRRA utility ``x^gamma / gamma``, or ``log x`` when gamma = 0."""
    x = np.asarray(x, dtype=float)
    if gamma == 0.0:
        out = np.log(x)
    else:
        out = np.power(x, gamma) / gamma
    return out if x.ndim else float(out)
