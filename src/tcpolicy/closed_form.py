"""Closed-form and semi-closed-form solutions.

These serve both as first-class outputs (the human-capital floor ``b``, the
exponential-discounting and log-utility value coefficients, the stationary
infinite-horizon constants) and as independent oracles for the backward
integral-equation solver.  Every function here takes the same
:class:`~tcpolicy.model.ModelSpec` as the backward scheme; those that solve
a special case refuse a spec outside it.  :func:`exponential_applies` is
the one test of the exponential case, shared with the solver's convergence
report.  ``b``, the exponential ``a`` and the log ``a`` share one quadrature,
the backward march of :func:`_backward_linear`; the exact ``b`` and the
solver's a-priori envelopes share one closed form, :func:`_linear_closed_form`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ConstantPayout,
    ConstantWeight,
    Exponential,
    InverseHazardPayout,
    ModelSpec,
    ValidationError,
    _check_grid_size,
    _on_times,
    a1_margin,
    check_horizon_times,
    constant_K,
    kernel_Q,
    kernel_q,
    legacy_hazard_weight,
    weight_M,
)

__all__ = [
    "solve_b",
    "b_function",
    "exponential_applies",
    "a_exponential",
    "a_log",
    "StationarySolution",
    "solve_stationary",
]

_SIMPSON_PANELS = 10_000


def _backward_linear(times, kappa, source, w_T: float):
    """``w(t) = e^(-kappa(t)) [w_T e^(kappa(T)) + int_t^T source e^kappa]`` at
    ``times``, which decrease from T; ``kappa`` and ``source`` are vectorized.

    Each step adds one Simpson panel with its midpoint, ``w_(n+1) =
    e^(kappa_n - kappa_(n+1)) w_n + int_(t_(n+1))^(t_n) source e^(kappa - kappa_(n+1))``,
    so each exponent spans one panel and grows with its width, not with T.
    Returns ``(v, e)`` with ``w = v 2^e`` at each node: v is divided by
    2^512, exactly, where it passes 2^512, so that w may leave the double
    range, and e counts those divisions in steps of 512.
    """
    mids = 0.5 * (times[:-1] + times[1:])
    k_nodes, g_nodes, g_mids = kappa(times), source(times), source(mids)
    carry = np.exp(k_nodes[:-1] - k_nodes[1:])
    inner = np.exp(kappa(mids) - k_nodes[1:])
    panels = (times[:-1] - times[1:]) / 6.0 * (g_nodes[1:] + 4.0 * g_mids * inner + g_nodes[:-1] * carry)
    ldexp, top = math.ldexp, 2.0**512
    v, s, w, e = w_T, 0, [w_T], [0]
    for c, p in zip(carry.tolist(), panels.tolist()):
        v = c * v + (ldexp(p, -s) if s else p)
        if v > top:
            v, s = ldexp(v, -512), s + 512
        w.append(v)
        e.append(s)
    return np.array(w), np.array(e)


def _linear_closed_form(lin: float, const: float, y_T, tau):
    """``y(T - tau)`` for ``y' = lin y + const`` from y(T) = y_T: ``y_T e^x +
    const expm1(x) / lin``, ``x = -lin tau`` (``y_T - const tau`` at lin = 0).
    expm1 keeps y(T) exact and cancels nothing at a small lin, which divides
    last (const / lin overflows at a subnormal lin); a term with a zero
    factor is left out, so that b without income is 0 where e^x overflows."""
    if lin == 0.0:
        return y_T - const * tau
    x = -lin * tau
    with np.errstate(over="ignore"):
        y = y_T * np.exp(x) if y_T else np.zeros_like(x)
        return y + const * np.expm1(x) / lin if const else y


# ---------------------------------------------------------------------------
# Human-capital floor b(t)
# ---------------------------------------------------------------------------


def _constant_payout(spec: ModelSpec) -> bool:
    """True when ``1/l`` is constant: a constant payout, or the actuarial
    payout ``l = 1/lambda`` over a hazard with ``lambda1 = 0``."""
    payout = spec.insurance.payout
    return isinstance(payout, ConstantPayout) or (
        isinstance(payout, InverseHazardPayout) and payout.hazard.lambda1 == 0.0
    )


def _b_is_exact(spec: ModelSpec) -> bool:
    return spec.insurance.income == 0.0 or _constant_payout(spec)


def _exact_b(spec: ModelSpec, t):
    """``b(t)`` in closed form, ``b' = (r + eta/l) b - i`` from b(T) = 0;
    valid when :func:`_b_is_exact` holds."""
    rate = spec.market.r + spec.insurance.eta * spec.insurance.payout.inverse(0.0)
    return _linear_closed_form(rate, -spec.insurance.income, 0.0, spec.horizon - np.asarray(t, dtype=float))


def solve_b(spec: ModelSpec, N: int) -> np.ndarray:
    """b at the backward grid nodes ``t_n = T - n T/N`` (decreasing in t).

    b discounts future income at the augmented rate ``r + eta/l``:
    it solves ``i + b' - (r + eta/l) b = 0`` with ``b(T) = 0``, i.e.
    ``b(s) = int_s^T i exp(-int_s^u (r + eta/l)) du``.  Constant ``i`` and
    ``eta/l`` give the exact exponential form; an actuarial payout over a
    time-varying hazard makes ``eta/l`` time varying and the integral is
    marched back from T one Simpson panel of the solver grid at a time, so
    that b stays finite however large ``int_0^T (r + eta/l)`` grows.
    """
    _check_grid_size(N, 2, "solve_b")
    times = np.linspace(spec.horizon, 0.0, N + 1)
    if _b_is_exact(spec):
        return _exact_b(spec, times)
    income, eta = spec.insurance.income, spec.insurance.eta

    # kappa = -R with R(t) = int_0^t (r + eta/l)
    def kappa(t):
        return -(spec.market.r * t + eta * spec.insurance.payout.integrated_inverse(t))

    return np.ldexp(*_backward_linear(times, kappa, lambda t: np.full_like(t, income), 0.0))


def b_function(spec: ModelSpec, N: int = 4096):
    """Return ``b`` as a vectorized callable of time.

    Exact when there is no income or the discount rate ``r + eta/l`` is
    constant; otherwise a linear interpolant of the Simpson grid values.
    The callable refuses a time outside [0, T], NaN included.
    """
    _check_grid_size(N, 2, "b_function")
    exact = _b_is_exact(spec)
    if not exact:
        times = np.linspace(spec.horizon, 0.0, N + 1)[::-1]
        values = solve_b(spec, N)[::-1]

    def b(t):
        return _on_times(lambda t: _exact_b(spec, t) if exact else np.interp(t, times, values), t, "b", spec.horizon)

    return b


# ---------------------------------------------------------------------------
# Exponential-discounting value coefficient
# ---------------------------------------------------------------------------


def exponential_applies(spec: ModelSpec) -> bool:
    """True when ``h`` and ``h_hat`` are exponential with the same rate and
    the Pareto weight is constant: the case :func:`a_exponential` solves."""
    h, hhat = spec.discount, spec.prefs.bequest_discount
    return (
        isinstance(h, Exponential)
        and isinstance(hhat, Exponential)
        and h.rho == hhat.rho
        and isinstance(spec.prefs.m_weight, ConstantWeight)
    )


def a_exponential(spec: ModelSpec, t):
    """Value coefficient under exponential discounting, by quadrature.

    Requires :func:`exponential_applies`; in that regime the equilibrium
    coincides with the pre-commitment optimum and a(t) has the explicit form

        a(t) = [ n^(1/(1-g)) e^(k(T)) + int_t^T (1+w lam-g M)/(1-g) e^(k(u)) du ]^(1-g)

    with ``k(u) = int_t^u (K + g eta/l - rho - lam) / (1-g)`` and the
    legacy-kernel weight ``w = m^(1/(1-g))`` (= 1 for the unit weight).
    ``t`` is a time or an array of times; one backward march serves them
    all, on the requested times merged with ``_SIMPSON_PANELS`` equal
    panels from the earliest of them to T.  The march rescales w past the
    double range, so only an a that leaves it raises ``OverflowError``.
    """
    if not exponential_applies(spec):
        raise ValidationError(
            "a_exponential: requires h = h_hat exponential with one rate and a constant Pareto weight"
        )
    gamma = spec.prefs.gamma
    K = constant_K(spec.market, gamma)
    one_mg = 1.0 - gamma

    def kappa(u):
        eta_il = spec.insurance.eta * spec.insurance.payout.integrated_inverse(u)
        return ((K - spec.discount.rho) * u + gamma * eta_il - spec.mortality.cumulative(u)) / one_mg

    def source(u):
        return a1_margin(spec, u) / one_mg

    def march(t_req):
        # the sorted union of the two, as np.union1d gives it, whose np.unique
        # would import numpy.ma (about 17 ms) on first use; no times march from T to T
        start = t_req.min(initial=spec.horizon)
        merged = np.sort(np.concatenate([t_req.ravel(), np.linspace(start, spec.horizon, _SIMPSON_PANELS + 1)]))
        ascending = merged[np.concatenate([[True], merged[1:] != merged[:-1]])]
        w, e = _backward_linear(ascending[::-1], kappa, source, spec.prefs.n ** (1.0 / one_mg))
        at = ascending.size - 1 - np.searchsorted(ascending, t_req)
        with np.errstate(over="ignore"):  # (w 2^e)^(1-g); 2^0 = 1 leaves an unscaled w's bits
            a = w[at] ** one_mg * np.exp2(one_mg * e[at])
        if np.any(np.isinf(a)):
            raise OverflowError("a_exponential: overflow: a is not finite")
        return a

    return _on_times(march, t, "a_exponential", spec.horizon)


# ---------------------------------------------------------------------------
# Log-utility value coefficient
# ---------------------------------------------------------------------------


def a_log(spec: ModelSpec, t: float) -> float:
    """Value coefficient for log utility: ``int_t^T (Q + q) ds + n Q(T, t)``."""
    if not spec.prefs.is_log:
        raise ValidationError("a_log: requires gamma = 0")
    t = float(check_horizon_times(t, spec.horizon, "a_log"))

    def source(s):
        return kernel_Q(spec, s, t) + kernel_q(spec, s, t)

    times = np.linspace(spec.horizon, t, _SIMPSON_PANELS + 1)
    boundary = spec.prefs.n * kernel_Q(spec, spec.horizon, t)
    w, e = _backward_linear(times, np.zeros_like, source, 0.0)
    return float(np.ldexp(w[-1], e[-1]) + boundary)


# ---------------------------------------------------------------------------
# Stationary (infinite-horizon) case
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationarySolution:
    """Constant value coefficient and derived quantities.

    ``x = a^(1/(1-gamma))`` solves the rational fixed-point equation

        1/x = 1/(alpha1 + gamma beta x) + lambda m^(1/(1-gamma)) / (alpha2 + gamma beta x)

    and the transversality values ``alpha_j + gamma beta x`` must both be
    strictly positive for the infinite-horizon integrals to converge.  At
    ``lambda = 0`` the legacy term has no weight: the equation is linear,
    ``x = alpha1 / (1 - gamma beta)``, and ``tc2`` bounds no integral, so
    only ``tc1`` is required and ``tc2`` may take any sign.
    """

    a: float
    b: float
    x: float
    alpha1: float
    alpha2: float
    beta: float
    tc1: float
    tc2: float
    residual: float


class StationaryInfeasibleError(ValidationError):
    """No root satisfies both transversality conditions."""


def _check_stationary(spec: ModelSpec) -> None:
    if spec.mortality.lambda1 != 0.0:
        raise ValidationError("stationary: requires constant mortality")
    if not isinstance(spec.prefs.m_weight, ConstantWeight):
        raise ValidationError("stationary: requires a constant Pareto weight")
    if not _constant_payout(spec):
        raise ValidationError("stationary: requires a constant payout ratio")
    if not (isinstance(spec.discount, Exponential) and isinstance(spec.prefs.bequest_discount, Exponential)):
        raise ValidationError("stationary: requires exponential discount kernels")


def _stationary_pieces(spec: ModelSpec):
    lam, gamma = spec.mortality.lambda0, spec.prefs.gamma
    inv_l = spec.insurance.payout.inverse(0.0)
    K = constant_K(spec.market, gamma)
    alpha1 = lam + spec.discount.rho - K - gamma * spec.insurance.eta * inv_l
    alpha2 = lam + spec.prefs.bequest_discount.rho - K - gamma * spec.insurance.eta * inv_l
    beta = weight_M(spec.prefs, spec.insurance, 0.0)
    legacy_weight = lam * legacy_hazard_weight(spec.prefs)
    return inv_l, alpha1, alpha2, beta, legacy_weight


_ROOT_RESIDUAL_TOL = 1e-9


def _tc_ok(alpha1, alpha2, gb, x) -> bool:
    return alpha1 + gb * x > 0.0 and alpha2 + gb * x > 0.0


def _residual(alpha1, alpha2, gb, legacy_weight, x) -> float:
    legacy = legacy_weight / (alpha2 + gb * x) if legacy_weight else 0.0
    return 1.0 / x - 1.0 / (alpha1 + gb * x) - legacy


def _quadratic_root(gb, alpha1, alpha2, legacy_weight):
    if legacy_weight == 0.0:
        # 1/x = 1/(alpha1 + gb x) is linear, and tc1 = alpha1 + gb x = x;
        # clearing alpha2 + gb x would add its zero as a spurious root
        x = alpha1 / (1.0 - gb) if gb != 1.0 else math.nan
        if not (x > 0.0 and alpha1 + gb * x > 0.0):
            raise StationaryInfeasibleError(
                "no transversality-feasible root; model misconfiguration (roots: [%s])" % x
            )
        return x
    # multiplying by x (alpha1 + gb x)(alpha2 + gb x) gives A x^2 + B x + C = 0
    A = gb * (1.0 - gb + legacy_weight)
    B = alpha2 * (1.0 - gb) + alpha1 * (legacy_weight - gb)
    C = -alpha1 * alpha2
    if A == 0.0:
        if B == 0.0:
            raise StationaryInfeasibleError("stationary equation degenerate (A = B = 0)")
        roots = [-C / B]
    else:
        disc = B * B - 4.0 * A * C
        if disc < 0.0:
            raise StationaryInfeasibleError("stationary quadratic has no real root")
        # numerically stable pair
        q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
        roots = [q / A, C / q] if q != 0.0 else [0.0]
    # when alpha1 = alpha2 clearing adds the root alpha + gb x = 0, at which
    # the equation itself is unbounded: the residual test drops it
    feasible = [
        x
        for x in roots
        if x > 0.0
        and _tc_ok(alpha1, alpha2, gb, x)
        and abs(x * _residual(alpha1, alpha2, gb, legacy_weight, x)) <= _ROOT_RESIDUAL_TOL
    ]
    if not feasible:
        raise StationaryInfeasibleError(
            "no transversality-feasible root; model misconfiguration (roots: %s)" % roots
        )
    if len(feasible) > 1:
        raise StationaryInfeasibleError("multiple transversality-feasible roots: %s" % feasible)
    return feasible[0]


def solve_stationary(spec: ModelSpec) -> StationarySolution:
    """Solve the stationary fixed-point equation and transversality check.

    The stationary case is the constant-coefficient spec: a constant hazard
    ``lambda0 >= 0`` (any hazard with ``lambda1 = 0``), exponential ``h``
    and ``h_hat`` (the consumption kernel decays at ``lambda + rho``, the
    legacy kernel carries weight ``m lambda`` and decays at ``lambda +
    rho_hat``), constant m and constant ``1/l`` (a
    constant payout, or the actuarial ``l = 1/lambda`` over a constant
    hazard); any other spec is refused with :class:`ValidationError`.
    ``lambda0 = 0`` is Merton's problem, ``x = alpha1 / (1 - gamma beta)``.
    The horizon and ``n`` do not enter.  Clearing the denominators of the
    equation in :class:`StationarySolution` gives one quadratic in x for
    every m and gamma (linear when ``gamma beta = 0``), or at ``lambda0 = 0``
    the linear equation ``x = alpha1 + gamma beta x``, solved directly.  A
    root is accepted when ``x > 0``, both transversality values (``tc1``
    alone at ``lambda0 = 0``) are strictly positive and the relative
    residual ``|x (1/x - rhs(x))|`` is at most 1e-9.  The last
    test drops the spurious root ``alpha + gamma beta x = 0`` that clearing
    adds when ``alpha1 = alpha2``.  No accepted root, or two, raises
    :class:`StationaryInfeasibleError`.  ``b = i / (r + eta/l)``.
    """
    _check_stationary(spec)
    inv_l, alpha1, alpha2, beta, legacy_weight = _stationary_pieces(spec)
    gamma, income = spec.prefs.gamma, spec.insurance.income
    gb = gamma * beta
    x = _quadratic_root(gb, alpha1, alpha2, legacy_weight)

    b_rate = spec.market.r + spec.insurance.eta * inv_l
    if b_rate <= 0.0 and income > 0.0:
        raise StationaryInfeasibleError("b = i/(r + eta/l) requires r + eta/l > 0")
    b = income / b_rate if income > 0.0 else 0.0

    res = abs(_residual(alpha1, alpha2, gb, legacy_weight, x))
    tc1 = alpha1 + gb * x
    tc2 = alpha2 + gb * x
    return StationarySolution(
        a=x ** (1.0 - gamma),
        b=b,
        x=x,
        alpha1=alpha1,
        alpha2=alpha2,
        beta=beta,
        tc1=tc1,
        tc2=tc2,
        residual=res,
    )
