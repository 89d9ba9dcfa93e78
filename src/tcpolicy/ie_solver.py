"""Backward explicit scheme for the equilibrium value coefficient a(t).

The subgame-perfect value function has the separated form
``v(t, x) = a(t) U_gamma(x + b(t))`` where a solves a nonlinear
Volterra-type fixed-point equation with terminal value ``a(T) = n``.  In
differential form, with ``w = m(0)^(1/(1-gamma))``,

    a'(t) = (gamma M(t) - w lambda(t) - 1) a(t)^(gamma/(gamma-1))
          + (lambda(t) - h'/h(T-t) - K - gamma eta(t)/l(t)) a(t)
          + int_t^T L(s, t) a(s)^(gamma/(gamma-1)) (A(s)/A(t)) ds

with ``A(s) = exp(int_s^T gamma a^(1/(gamma-1)) M)`` and a memory kernel L
(the legacy kernel q enters it scaled by ``w/m(0)``) that vanishes
identically under exponential discounting with a constant Pareto weight.
The weight w is forced by the fixed-point property: the legacy utility is
evaluated at ``(a/m(0))^(1/(gamma-1)) (x+b)``, so the q-term of the
criterion carries ``(a/m(0))^(gamma/(gamma-1))`` rather than the bare
power of a; w = 1 whenever m(0) = 1.  The scheme marches from T down to 0
with step ``epsilon = -T/N``, discretizing the memory integral by a
Riemann sum over the already-computed nodes; it is first-order accurate
in 1/N.  On the uniform grid L factors into lag-only tables times
node-only weights kept in log space, so step n is two (2 x n) mat-vecs
without allocation: O(N^2) flops in total, and long horizons neither
underflow nor overflow the exponential factors.

Also here: a-priori comparison bounds sandwiching a(t) between two
Bernoulli-ODE envelopes, and an empirical convergence report.  The march
is inherently sequential and single-threaded with a fixed summation
order, so results are bit-reproducible; solved grids are immutable and
freely shareable across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_form
from .model import (
    ConstantWeight,
    Exponential,
    ModelSpec,
    ValidationError,
    check_assumption_a1,
    constant_K,
    legacy_hazard_weight,
    weight_M,
)

__all__ = [
    "SolutionGrid",
    "BoundsReport",
    "ConvergenceReport",
    "AssumptionViolatedError",
    "SchemeBreakdownError",
    "solve_a",
    "rhs_derivative",
    "convergence_report",
    "a_priori_bounds",
]


class AssumptionViolatedError(ValidationError):
    """The positivity assumption on 1 - gamma M + lambda fails; refusing."""


class SchemeBreakdownError(RuntimeError):
    """A scheme iterate left the positive cone (increase N) or overflowed."""


@dataclass(frozen=True)
class SolutionGrid:
    """Backward grid ``t_n = T - n T/N`` with the a- and A-iterates.

    ``times`` decreases from T to 0; ``a_values[0] = n`` and
    ``A_values[0] = 1`` hold bit-exactly.  The three arrays are made
    read-only in place at construction.
    """

    times: np.ndarray
    a_values: np.ndarray
    A_values: np.ndarray
    N: int
    epsilon: float

    def __post_init__(self):
        for values in (self.times, self.a_values, self.A_values):
            values.flags.writeable = False

    def interpolate(self, t):
        """Piecewise-linear interpolation of a; exact at the nodes."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0) or np.any(t_arr > self.times[0]):
            raise ValidationError("interpolate: t outside [0, T]")
        out = np.interp(t_arr, self.times[::-1], self.a_values[::-1])
        return out if t_arr.ndim else float(out)

    @property
    def a_curve(self):
        return self.interpolate


# ---------------------------------------------------------------------------
# Precomputed node and lag tables
# ---------------------------------------------------------------------------

# The node weights f and g are stored relative to e^ref, and ref moves to
# the current node once e_n + log A_n drifts this far from it, so that they
# stay inside the double range (about e^+-709) over long horizons.
_MAX_LOG_DRIFT = 100.0


class _SchemeTables:
    """Node- and lag-indexed tables and the node-weight buffers of one march.

    On the uniform grid ``s - t`` between nodes is a whole number of steps,
    so the memory kernel factors into lag-only tables times node-only
    weights.  With ``k = n - j``, ``e = Psi - Lambda`` (``Psi = int_0^t (K +
    gamma eta/l)``, Lambda the integrated hazard; kept in log space and
    offset so that e = 0 at t = T), ``d = h'/h - h'/h(0)`` and ``dbar =
    hbar'/hbar - h'/h(0)`` at each lag,

        L(t_j, t_n) A_j/A_n = [(d_n - d_k) h_k + q_weight (d_n - dbar_k) hbar_k lambda_j]
                              e^(e_j - e_n) A_j/A_n.

    h'/h(0) cancels in each difference; measuring from it makes d vanish
    exactly for an exponential kernel, so the memory term is exactly zero
    where the kernel is, instead of the rounding residue of sums as large
    as e^(e_j - e_n).  The lag tables ``[h, d h]`` and ``[hbar, dbar hbar]``
    are stored reversed, so step n reads the contiguous tail of length n.
    The legacy-weight table stops one lag short of T: a lag of exactly T
    never occurs inside the march, and a tapering Pareto weight may be
    singular there.
    """

    def __init__(self, spec: ModelSpec, N: int):
        T = spec.horizon
        prefs, ins = spec.prefs, spec.insurance
        self.gamma = prefs.gamma
        self.pow_ratio = self.gamma / (self.gamma - 1.0)
        self.pow_inv = 1.0 / (self.gamma - 1.0)
        self.K = constant_K(spec.market, self.gamma)
        self.eta = ins.eta
        self.epsilon = -T / N
        # legacy-kernel scaling from U((a/m)^(1/(g-1)) Y); both equal 1 at m(0) = 1
        self.lam_weight = legacy_hazard_weight(prefs)
        self.q_weight = self.lam_weight / prefs.m0

        self.times = np.linspace(T, 0.0, N + 1)
        lags = np.linspace(0.0, T, N + 1)  # k * T/N

        self.h_log = np.asarray(spec.discount.log_derivative(lags), dtype=float)
        h_val = np.asarray(spec.discount.value(lags), dtype=float)
        hbar_log = np.asarray(spec.hbar_log_derivative(lags[:N]), dtype=float)
        hbar_val = np.asarray(spec.hbar_value(lags[:N]), dtype=float)
        self.d = self.h_log - self.h_log[0]
        dbar = hbar_log - self.h_log[0]
        # lags N..1 and N-1..1
        self.h_lags = np.ascontiguousarray(np.stack([h_val, self.d * h_val])[:, :0:-1])
        self.hbar_lags = np.ascontiguousarray(np.stack([hbar_val, dbar * hbar_val])[:, :0:-1])

        self.lam = np.asarray(spec.mortality.rate(self.times), dtype=float)
        self.M = np.asarray(weight_M(prefs, ins, self.times), dtype=float)
        self.inv_l = np.asarray(ins.payout.inverse(self.times), dtype=float)
        psi = self.K * self.times + self.gamma * self.eta * np.asarray(
            ins.payout.integrated_inverse(self.times), dtype=float
        )
        e = psi - np.asarray(spec.mortality.cumulative(self.times), dtype=float)
        self.e = e - e[0]  # only differences of e enter; e = 0 at t = T

        # node weights, relative to e^ref and filled one node at a time
        self.f = np.empty(N)
        self.g = np.empty(N)
        self.ref = 0.0

    def record(self, n: int, a_pow_n: float, A_n: float) -> None:
        """Store the node weights ``f_n = e^(e_n - ref) a_n^(g/(g-1)) A_n``
        and ``g_n = lambda_n f_n``, first rescaling the stored ones if ref
        has to move (see ``_MAX_LOG_DRIFT``); nodes come in order 0, 1, ...
        """
        log_scale = self.e[n] + math.log(A_n)
        if abs(log_scale - self.ref) > _MAX_LOG_DRIFT:
            shift = math.exp(self.ref - log_scale)
            self.f[:n] *= shift
            self.g[:n] *= shift
            self.ref = log_scale
        self.f[n] = math.exp(log_scale - self.ref) * a_pow_n
        self.g[n] = self.lam[n] * self.f[n]

    def memory(self, n: int, A_n: float) -> float:
        """``sum_j L(t_j, t_n) a_j^(g/(g-1)) A_j/A_n`` over j = 0..n-1, from
        the weights recorded for those nodes: two (2 x n) mat-vecs."""
        if n == 0:
            return 0.0
        hf, dhf = self.h_lags[:, -n:] @ self.f[:n]
        hg, dhg = self.hbar_lags[:, -n:] @ self.g[:n]
        d_n = self.d[n]
        bracket = d_n * hf - dhf + self.q_weight * (d_n * hg - dhg)
        return bracket / math.exp(self.e[n] + math.log(A_n) - self.ref)

    def rhs(self, n: int, a_n: float, a_pow_n: float, memory: float) -> float:
        drift = self.lam[n] - self.h_log[n] - self.K - self.gamma * self.eta * self.inv_l[n]
        local = (self.gamma * self.M[n] - self.lam_weight * self.lam[n] - 1.0) * a_pow_n + drift * a_n
        return local - self.epsilon * memory


def _check_preconditions(spec: ModelSpec, N: int) -> None:
    if N < 2:
        raise ValidationError("solve_a: N must be >= 2")
    if spec.prefs.is_log:
        raise ValidationError("solve_a: gamma = 0 is served by the log-utility closed form")
    a1 = check_assumption_a1(spec)
    if not a1.holds:
        raise AssumptionViolatedError(
            f"positivity assumption fails: min(1 - gamma M + lambda) = {a1.min_value:.6g} < 0"
        )


def solve_a(spec: ModelSpec, N: int) -> SolutionGrid:
    """March the explicit scheme backward from a(T) = n, A(T) = 1.

    Refuses to run when the positivity assumption fails; raises
    :class:`SchemeBreakdownError` if an iterate leaves the positive cone or
    overflows.  Step n costs two (2 x n) mat-vecs of the lag tables against
    node weights filled one node per step, so a solve is O(N^2) flops with
    no per-step array allocation.
    """
    _check_preconditions(spec, N)
    tab = _SchemeTables(spec, N)
    eps = tab.epsilon

    a = np.empty(N + 1)
    A = np.empty(N + 1)
    a[0] = spec.prefs.n
    A[0] = 1.0
    # an overflow shows as a non-finite iterate, which the breakdown test
    # below reports; one errstate per step would cost about 35 ms at N = 1.6e4
    with np.errstate(over="ignore"):
        for n in range(N):
            a_pow = a[n] ** tab.pow_ratio
            memory = tab.memory(n, A[n])
            tab.record(n, a_pow, A[n])
            a[n + 1] = a[n] + eps * tab.rhs(n, a[n], a_pow, memory)
            A[n + 1] = A[n] - tab.gamma * eps * a[n] ** tab.pow_inv * tab.M[n] * A[n]
            if not (0.0 < a[n + 1] < math.inf and 0.0 < A[n + 1] < math.inf):
                finite = math.isfinite(a[n + 1]) and math.isfinite(A[n + 1])
                raise SchemeBreakdownError(
                    f"scheme breakdown at step {n + 1} (t = {tab.times[n + 1]:.6g}): "
                    f"a = {a[n + 1]:.6g}, A = {A[n + 1]:.6g}; "
                    + ("increase N" if finite else "overflow: the iterate is not finite")
                )
    return SolutionGrid(times=tab.times, a_values=a, A_values=A, N=N, epsilon=eps)


def rhs_derivative(spec: ModelSpec, grid: SolutionGrid, n: int) -> float:
    """Discretized right-hand side a'(t_n) given the populated grid.

    The memory integral is the Riemann sum ``-eps sum_j L(t_j, t_n) ...``
    over the nodes already computed (t_j > t_n), the same sum the march
    takes; n = N is outside the march (it needs the legacy weight at lag T).
    """
    if not 0 <= n < grid.N:
        raise ValidationError(f"rhs_derivative: index {n} outside 0..{grid.N - 1}")
    a, A = grid.a_values, grid.A_values
    if np.any(a[: n + 1] <= 0.0) or np.any(A[: n + 1] <= 0.0):
        raise SchemeBreakdownError("rhs_derivative: non-positive grid values")
    _check_preconditions(spec, grid.N)
    tab = _SchemeTables(spec, grid.N)
    with np.errstate(over="ignore"):
        a_pow = a[: n + 1] ** tab.pow_ratio
        for j in range(n):
            tab.record(j, a_pow[j], A[j])
        return tab.rhs(n, a[n], a_pow[n], tab.memory(n, A[n]))


# ---------------------------------------------------------------------------
# Convergence report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Max-node errors at N and 2N against a reference, and their ratio.

    A first-order scheme gives ``ratio`` near 2.  ``reference`` records
    whether the closed form or a refined self-solve served as truth.
    """

    err_coarse: float
    err_fine: float
    ratio: float
    reference: str


def _closed_form_applies(spec: ModelSpec) -> bool:
    h, hh = spec.discount, spec.prefs.bequest_discount
    return (
        isinstance(h, Exponential)
        and isinstance(hh, Exponential)
        and h.rho == hh.rho
        and isinstance(spec.prefs.m_weight, ConstantWeight)
    )


def _max_err_vs_closed_form(spec: ModelSpec, N: int) -> float:
    grid = solve_a(spec, N)
    ref = np.array([closed_form.a_exponential(spec, t) for t in grid.times])
    return float(np.max(np.abs(grid.a_values - ref)))


def _max_err_vs_refined(spec: ModelSpec, N: int) -> float:
    grid = solve_a(spec, N)
    fine = solve_a(spec, 4 * N)
    # the coarse nodes are every 4th fine node
    return float(np.max(np.abs(grid.a_values - fine.a_values[::4])))


def convergence_report(spec: ModelSpec, N: int) -> ConvergenceReport:
    """Empirical order check: error at N over error at 2N.

    Exponential instances are compared against the closed form; otherwise
    each resolution is compared against its own 4x refinement.
    """
    if N < 4:
        raise ValidationError("convergence_report: N must be >= 4")
    if _closed_form_applies(spec):
        err_coarse = _max_err_vs_closed_form(spec, N)
        err_fine = _max_err_vs_closed_form(spec, 2 * N)
        reference = "closed_form"
    else:
        err_coarse = _max_err_vs_refined(spec, N)
        err_fine = _max_err_vs_refined(spec, 2 * N)
        reference = "self_4x"
    ratio = err_coarse / err_fine if err_fine > 0.0 else float("inf")
    return ConvergenceReport(err_coarse=err_coarse, err_fine=err_fine, ratio=ratio, reference=reference)


# ---------------------------------------------------------------------------
# A-priori comparison bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Comparison constants and the two Bernoulli envelope curves.

    a(t) satisfies ``a' <= -C1 a^(g/(g-1)) + C0 a`` and
    ``a' >= -D1 a^(g/(g-1)) - D0 a``; integrating the equalities backward
    from a(T) = n yields curves with lower(t) <= a(t) <= upper(t).  The
    substitution ``w = a^(1/(1-g))`` makes both ODEs linear, so the curves
    are evaluated in closed form.  ``rho`` bounds |h'/h| and |hbar'/hbar|
    and ``rho_prime`` bounds |gamma eta / l| over the horizon.
    """

    c0: float
    c1: float
    d0: float
    d1: float
    rho: float
    rho_prime: float
    terminal: float
    gamma: float
    horizon: float

    def _w_backward(self, c_lin: float, c_const: float, t):
        # w' = (c_lin w + c_const)/(1-g) integrated backward from w(T)
        tau = self.horizon - np.asarray(t, dtype=float)
        one_mg = 1.0 - self.gamma
        w_T = self.terminal ** (1.0 / one_mg)
        if c_lin == 0.0:
            return w_T - c_const * tau / one_mg
        with np.errstate(over="ignore"):
            return (w_T + c_const / c_lin) * np.exp(-c_lin * tau / one_mg) - c_const / c_lin

    def lower_curve(self, t):
        w = np.maximum(self._w_backward(self.c0, -self.c1, t), 0.0)
        out = w ** (1.0 - self.gamma)
        return out if np.ndim(t) else float(out)

    def upper_curve(self, t):
        w = self._w_backward(-self.d0, -self.d1, t)
        with np.errstate(over="ignore"):
            out = w ** (1.0 - self.gamma)
        return out if np.ndim(t) else float(out)


def a_priori_bounds(spec: ModelSpec, grid_points: int = 10_000) -> BoundsReport:
    """Grid-search the comparison constants and build the envelope curves.

    Refuses when C1 < 0 (the positivity assumption fails and a(t) may hit
    zero).  The legacy-weight log-derivative is scanned on [0, T) since a
    tapering Pareto weight is singular at T itself.
    """
    t_closed = np.linspace(0.0, spec.horizon, grid_points)
    t_open = np.linspace(0.0, spec.horizon, grid_points, endpoint=False)
    gamma = spec.prefs.gamma
    K = constant_K(spec.market, gamma)

    lam = np.asarray(spec.mortality.rate(t_closed), dtype=float)
    lam_w = legacy_hazard_weight(spec.prefs) * lam
    Mv = np.asarray(weight_M(spec.prefs, spec.insurance, t_closed), dtype=float)
    rho = max(
        float(np.max(np.abs(spec.discount.log_derivative(t_closed)))),
        float(np.max(np.abs(spec.hbar_log_derivative(t_open)))),
    )
    rho_prime = float(
        np.max(np.abs(gamma * spec.insurance.eta * np.asarray(spec.insurance.payout.inverse(t_closed))))
    )

    c1 = float(np.min(1.0 - gamma * Mv + lam_w))
    if c1 < 0.0:
        raise AssumptionViolatedError(f"a_priori_bounds: C1 = {c1:.6g} < 0; a(t) may reach zero")
    c0 = float(np.max(lam)) + 3.0 * rho - K + rho_prime
    d0 = float(np.max(lam)) + K + 3.0 * rho + rho_prime
    d1 = float(np.max(1.0 + lam_w - gamma * Mv))
    return BoundsReport(
        c0=c0,
        c1=c1,
        d0=d0,
        d1=d1,
        rho=rho,
        rho_prime=rho_prime,
        terminal=spec.prefs.n,
        gamma=gamma,
        horizon=spec.horizon,
    )
