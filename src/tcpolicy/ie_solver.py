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
in 1/N.  On the uniform grid L factors into two lag-only kernels times
node-only weights kept in log space, and the march carries log A rather
than A, so long horizons neither underflow nor overflow the exponential
factors.  Each kernel part is the real part of a sum of K exponentials
(exponential, two-rate mixture, affine-exponential through one complex
rate, hyperbolic through a quadrature of its Laplace-type integral, and
for h_hat the product with the log-taper Pareto weight's sum) and is
carried by K states, updated once per block of nodes, with the block's
own nodes summed against the exact lags, so a solve costs O(N K); a
kernel part that vanishes on the grid is not computed at all.  Each step
takes one CRRA power, the consumption rate ``a^(1/(gamma-1))``, and per
memory part one call, and one exp of the node's log-scale if there is a
part; an exponential h leaves a part its ``d k`` row alone.

Every gamma < 1 takes the equation above.  At gamma = 0 it is log
utility's, with K = 0, ``a^(gamma/(gamma-1)) = 1`` and A = 1, and the
value is ``v(t, x) = a(t) log(x + b(t))`` plus a term in t alone;
:func:`closed_form.a_log` gives the same a by quadrature.

:func:`solve_a` is the only code that drives the scheme tables; the
discrete derivative at node n is the march's own step quotient
``(a_(n+1) - a_n) / epsilon``.  Once the march ends, a grid whose local
stiffness ``(T/N) |coef_n| a_n^(1/(gamma-1))`` exceeds a bound at some
step is refused: the explicit step crossed a terminal layer it cannot
resolve.

Also here: a-priori comparison bounds sandwiching a(t) between two
Bernoulli-ODE envelopes, and an empirical convergence report, which takes
the closed form as truth where :func:`closed_form.exponential_applies`
holds and a 4x refinement otherwise.  The march is inherently sequential
and single-threaded with a fixed summation order, so results are
bit-reproducible; solved grids are immutable and freely shareable across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from . import closed_form
from .model import (
    ModelSpec,
    ValidationError,
    _check_grid_size,
    _on_times,
    a1_margin,
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
    "convergence_report",
    "a_priori_bounds",
]


class AssumptionViolatedError(ValidationError):
    """A1 fails: the margin ``1 + w lambda - gamma M``, ``w = m(0)^(1/(1-gamma))``, is negative; refusing."""


class SchemeBreakdownError(RuntimeError):
    """A scheme iterate left the positive cone or overflowed, or the grid is
    too coarse for the stiffness of the terminal layer (increase N)."""


@dataclass(frozen=True)
class SolutionGrid:
    """Backward grid ``t_n = T - n T/N`` with the a- and A-iterates.

    ``times`` decreases from T to 0; ``a_values[0] = n`` and
    ``A_values[0] = 1`` hold bit-exactly.  The march carries log A;
    ``A_values`` is its exp, which may underflow to 0 on long horizons
    without affecting a.  The three arrays are made read-only in place at
    construction.
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
        return _on_times(lambda t: np.interp(t, self.times[::-1], self.a_values[::-1]), t, "interpolate", self.times[0])

    @property
    def a_curve(self):
        return self.interpolate


# ---------------------------------------------------------------------------
# Memory parts and the scheme tables
# ---------------------------------------------------------------------------

# The node weights f and g are stored relative to e^ref, and ref moves to
# the current node once e_n + log A_n drifts this far from it, so that they
# stay inside the double range (about e^+-709) over long horizons.
_MAX_LOG_DRIFT = 100.0


# Nodes per block of an exponential-sum part: the K states take in a block's
# nodes at once, and the block's own nodes are summed against the exact lags.
_BLOCK = 16


class _ExponentialSum:
    """A memory part whose kernel is the real part of a sum of K
    exponentials, in the form of ``ModelSpec.hbar_exponential_sum``, summed
    with the near/far split of fast convolution quadrature (Lubich &
    Schaedle 2002).

    Nodes before the current block of ``_BLOCK`` reach step n through one
    state per term, read with the rows ``[w, w (-r - c)]`` (``d = k'/k -
    c``).  A term of ``Re r >= 0`` keeps ``S(b) = sum_(j<b) e^(-r (b - j)
    step) x_j`` for the block starting at node b; a term of ``Re r < 0``,
    whose weight is its value at lag ``N step``, keeps the prefix sum
    ``P(b) = sum_(j<b) e^(r j step) x_j``, read with the factor ``e^(r (N -
    n) step)``, so that no factor exceeds 1 in modulus.  At the start of
    each block the states take in the block before it and give the far
    sums of all its nodes, two small numpy products, of which the real
    parts are kept; the states and tables are complex only where a rate
    is.  The block's own nodes are summed in Python against ``near``, the
    exact lag rows ``[k, d k]`` at lags 0, 1, ...  Where d vanishes on the
    grid (``d`` is None) the bracket is ``-d k``, and ``near``, ``spread``
    and ``far`` keep the ``d k`` row alone.
    """

    def __init__(self, w, r, c: float, step: float, N: int, near: np.ndarray, d, weight: memoryview):
        B = _BLOCK
        self.rows = np.stack([w, w * (-r - c)])
        self.rate, self.step, self.N = r, step, N
        self.d, self.weight = d, weight
        self.columns = slice(None) if d is not None else slice(1, None, 2)  # of [k, d k] per node
        grows = self.grows = r.real < 0.0
        # the rate of each growing term and 0 for the others; None when none grows
        self.growth = np.where(grows, r, 0.0) if np.any(grows) else None
        # a block's nodes x_m into the states: S <- e^(-r B step) S + sum_m
        # e^(-r (B - m) step) x_m, and P <- P + e^(r b step) sum_m e^(r m step) x_m
        m = np.arange(B)
        rate = r[:, None]
        self.carry = np.exp(-np.where(grows, 0.0, r) * (B * step))
        self.fold = np.exp(np.where(grows[:, None], rate * m, -rate * (B - m)) * step)
        self.spread = np.ascontiguousarray(self._spread(B)[:, self.columns])
        self.state = np.zeros(r.size, self.rows.dtype)
        # node p of a block reads the block's earlier nodes at lags p, p-1, ..., 1
        k, dk = ([row[p:0:-1].tolist() for p in range(min(B, near.shape[1]))] for row in near)
        self.near = dk if d is None else list(zip(k, dk))
        self.block = [0.0] * B
        self.far = [0.0] * self.spread.shape[1]

    def _spread(self, q: int) -> np.ndarray:
        """Columns ``[k, d k]`` of each term at each node m of a block of q
        nodes, per unit of state: the rows times ``e^(-r m step)``, counted
        from the block's first node, or for a growing term ``e^(r (q - 1 - m)
        step)``, counted from its last; shape (K, 2 q)."""
        m = np.arange(q)
        rate = self.rate[:, None]
        factor = np.exp(np.where(self.grows[:, None], rate * (q - 1 - m), -rate * m) * self.step)
        return (factor[:, :, None] * self.rows.T[:, None, :]).reshape(self.rate.size, 2 * q)

    def _start_block(self, b: int) -> None:
        """Take the block ending at node b into the states, then read the far
        sums of the block of q nodes starting there; a growing term is read
        from the block's last node inside the grid."""
        taken = self.fold @ self.block
        q = min(_BLOCK, self.N - b)
        state = self.state
        state *= self.carry
        if self.growth is None:
            state += taken
        else:
            state += np.exp(self.growth * ((b - _BLOCK) * self.step)) * taken
            state = state * np.exp(self.growth * ((self.N - b - q + 1) * self.step))
        # a last, partial block takes all 2 q columns: a product of the d k
        # columns alone need not round them as that one does
        self.far = (state @ self.spread if q == _BLOCK else (state @ self._spread(q))[self.columns]).real.tolist()

    def bracket(self, n: int, f_n: float) -> float:
        p = n % _BLOCK
        if not p and n:
            self._start_block(n)
        x, far, near = self.block, self.far, self.near[p]
        if self.d is None:
            out = -(far[p] + sum(map(mul, near, x)))
        else:
            out = self.d[n] * (far[2 * p] + sum(map(mul, near[0], x))) - (far[2 * p + 1] + sum(map(mul, near[1], x)))
        x[p] = self.weight[n] * f_n
        return out

    def rescale(self, shift: float) -> None:
        self.state *= shift
        self.block = [x * shift for x in self.block]
        self.far = [v * shift for v in self.far]


class _SchemeTables:
    """Node tables and the two memory parts of one march.

    On the uniform grid ``s - t`` between nodes is a whole number of steps,
    so the memory kernel factors into lag-only kernels times node-only
    weights.  With ``k = n - j``, ``e = Psi - Lambda`` (``Psi = int_0^t (K +
    gamma eta/l)``, Lambda the integrated hazard; kept in log space and
    offset so that e = 0 at t = T), ``d = h'/h - h'/h(0)`` and ``dbar =
    hbar'/hbar - h'/h(0)`` at each lag,

        L(t_j, t_n) A_j/A_n = [(d_n - d_k) h_k + q_weight (d_n - dbar_k) hbar_k lambda_j]
                              e^(e_j - e_n) A_j/A_n.

    h'/h(0) cancels in each difference; measuring from it makes d vanish
    exactly for an exponential kernel.  The h part sums ``[h, d h]`` against
    ``f_j = e^(e_j - ref) a_j^(g/(g-1)) A_j`` and the hbar part sums ``[hbar,
    dbar hbar]`` against ``g_j = q_weight lambda_j f_j``, where ``q_weight =
    w/m(0)`` and ``w = m(0)^(1/(1-gamma))``.  Each kept part holds its
    per-node multiplier of f, and its ``bracket(n, f_n)`` returns ``d_n k -
    d k`` summed over nodes 0..n-1 and stores node n.  A part whose offsets
    (d; d and dbar) or whose hazard vanish on the grid contributes exactly 0
    and is skipped; otherwise it is the exponential sum of its kernel
    (``exponential_sum``, ``hbar_exponential_sum``) with the exact lag rows
    inside one block.  The legacy-weight rows stop one lag short of T: a
    lag of exactly T never occurs inside the march, and a tapering Pareto
    weight may be singular there.  The local coefficient ``coef`` of
    ``a^(g/(g-1))`` is minus the A1 margin ``1 + w lambda - gamma M``.
    """

    def __init__(self, spec: ModelSpec, N: int):
        T = spec.horizon
        prefs, ins = spec.prefs, spec.insurance
        gamma = self.gamma = prefs.gamma
        self.pow_inv = 1.0 / (gamma - 1.0)
        K = constant_K(spec.market, gamma)
        self.epsilon = -T / N
        self.times = np.linspace(T, 0.0, N + 1)
        lags = np.linspace(0.0, T, N + 1)  # k * T/N
        step = T / N

        h_log = spec.discount.log_derivative(lags)
        c = float(h_log[0])
        d = h_log - c
        # m'/m + (h_hat'/h_hat - c): an h_hat equal to h leaves m'/m unrounded
        dbar = prefs.m_weight.log_derivative(lags[:N]) + (prefs.bequest_discount.log_derivative(lags[:N]) - c)
        lam = spec.mortality.rate(self.times)
        # the legacy-kernel scaling w/m(0) from U((a/m)^(1/(g-1)) Y); 1 at m(0) = 1
        q_weight = legacy_hazard_weight(prefs) / prefs.m0
        live_d = memoryview(d) if np.any(d) else None  # an exponential h: the d k row alone
        self.parts = []
        # per part: (kept, exponential-sum terms, kernel, offsets, per-node
        # multiplier); the terms and kernel values are computed for a kept part only
        for kept, terms_of, value, offset, weight in (
            (np.any(d), lambda: spec.discount.exponential_sum(T, step), spec.discount.value, d, np.ones(N + 1)),
            ((np.any(d) or np.any(dbar)) and np.any(lam), lambda: spec.hbar_exponential_sum(step),
             spec.hbar_value, dbar, q_weight * lam),
        ):
            if kept:
                # the lag rows [k, d k] inside one block
                n_lags = min(_BLOCK, offset.size)
                values = value(lags[:n_lags])
                rows = np.stack([values, offset[:n_lags] * values])
                self.parts.append(_ExponentialSum(*terms_of(), c, step, N, rows, live_d, memoryview(weight)))

        M = weight_M(prefs, ins, self.times)
        inv_l = ins.payout.inverse(self.times)
        psi = K * self.times + gamma * ins.eta * ins.payout.integrated_inverse(self.times)
        e = psi - spec.mortality.cumulative(self.times)
        # per-node tables seen through memoryviews, whose items are Python
        # floats: the march reads them one at a time, and numpy scalars would
        # cost about 3x as much per read
        self.coef = memoryview(-a1_margin(spec, self.times))
        self.drift = memoryview(lam - h_log - K - gamma * ins.eta * inv_l)
        self.M = memoryview(M)
        self.e = memoryview(e - e[0])  # only differences of e enter; e = 0 at t = T


def _check_preconditions(spec: ModelSpec, N: int) -> None:
    _check_grid_size(N, 2, "solve_a")
    a1 = check_assumption_a1(spec)
    if not a1.holds:
        raise AssumptionViolatedError(
            f"positivity assumption fails: min(1 + w lambda(t) - gamma M(t)) = {a1.min_value:.6g} < 0 "
            "with w = m(0)^(1/(1-gamma))"
        )


# Above this local stiffness ``step |coef_n| a_n^(1/(gamma-1))`` of a step
# solve_a refuses the grid.  Measured: at most 0.0085 on the configs at
# their grid.N and 1.0 over the test suite's solves, against 1.4e10 at
# N = 1000 and 8.5e8 at N = 1.6e4 on experiment with gamma = 0.9.
_MAX_STIFFNESS = 10.0


def solve_a(spec: ModelSpec, N: int) -> SolutionGrid:
    """March the explicit scheme backward from a(T) = n, A(T) = 1.

    Any gamma < 1 is marched, gamma = 0 included: there the equation is
    log utility's, with K = 0 and A = 1 at every node, and
    ``a(t) log(x + b(t))`` is the value up to a term in t alone.

    Refuses to run when the positivity assumption fails; raises
    :class:`SchemeBreakdownError` if an iterate leaves the positive cone or
    overflows, and, once the march has ended, if the local stiffness
    ``step |coef_n| a_n^(1/(gamma-1))`` of some step exceeds
    ``_MAX_STIFFNESS``: a terminal layer too steep for the grid, which the
    march would cross with a large, silent error (experiment with
    gamma = 0.9 reads 1.4e10 at N = 1000).  Step n calls each memory part
    once, for its bracket over nodes 0..n-1: the earlier nodes of its block
    in Python and K states updated once per block of ``_BLOCK`` nodes, so
    a solve costs O(N K); without a part it makes no call.  a and log A
    stay in Python lists until the march ends, and no step allocates an
    array, except the first of each block of a part.
    """
    _check_preconditions(spec, N)
    tab = _SchemeTables(spec, N)
    eps, gamma, pow_inv = tab.epsilon, tab.gamma, tab.pow_inv
    coef, drift, M, e, parts = tab.coef, tab.drift, tab.M, tab.e, tab.parts
    exp, log1p, inf = math.exp, math.log1p, math.inf

    a_n, log_A_n = float(spec.prefs.n), 0.0
    a, log_A = [a_n], [log_A_n]
    ref = memory = 0.0  # memory stays 0 without a memory part
    # an overflow shows as a non-finite iterate, which the breakdown test
    # below reports; one errstate per step would cost about 35 ms at N = 1.6e4
    with np.errstate(over="ignore"):
        for n in range(N):
            try:
                rate = a_n**pow_inv  # the consumption rate a^(1/(g-1))
            except OverflowError:
                rate = inf
            a_pow = a_n * rate
            if parts:
                # sum_j L(t_j, t_n) a_j^(g/(g-1)) A_j/A_n over j < n; f_n = e^(e_n - ref) a_n^(g/(g-1)) A_n
                log_scale = e[n] + log_A_n
                if abs(log_scale - ref) > _MAX_LOG_DRIFT:
                    shift = exp(ref - log_scale)
                    for part in parts:
                        part.rescale(shift)
                    ref = log_scale
                scale = exp(log_scale - ref)
                f_n = scale * a_pow
                bracket = 0.0
                for part in parts:
                    bracket += part.bracket(n, f_n)
                memory = bracket / scale
            a_next = a_n + eps * (coef[n] * a_pow + drift[n] * a_n - eps * memory)
            # A_(n+1) = A_n (1 - decay)
            decay = gamma * eps * rate * M[n]
            if not (0.0 < a_next < inf and -inf < decay < 1.0):
                finite = math.isfinite(a_next) and math.isfinite(decay)
                raise SchemeBreakdownError(
                    f"scheme breakdown at step {n + 1} (t = {tab.times[n + 1]:.6g}): "
                    f"a = {a_next:.6g}, A = {np.power(math.e, log_A_n) * (1.0 - decay):.6g}; "
                    + ("increase N" if finite else "overflow: the iterate is not finite")
                )
            a_n = a_next
            log_A_n += log1p(-decay)
            a.append(a_n)
            log_A.append(log_A_n)
        a = np.array(a)
        A = np.exp(log_A)
        stiffness = -eps * np.abs(np.asarray(coef)[:N]) * a[:N] ** pow_inv
    n = int(np.argmax(stiffness))
    if not stiffness[n] <= _MAX_STIFFNESS:
        raise SchemeBreakdownError(
            f"stiff terminal layer at step {n + 1} (t = {tab.times[n + 1]:.6g}): "
            f"step |coef| a^(1/(gamma-1)) = {stiffness[n]:.6g} > {_MAX_STIFFNESS:g}; increase N"
        )
    return SolutionGrid(times=tab.times, a_values=a, A_values=A, N=N, epsilon=eps)


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


def _max_err(spec: ModelSpec, N: int, exact: bool) -> float:
    """Max-node error of the solve at N against the closed form (``exact``)
    or against a solve at 4N, whose every 4th node is a coarse node."""
    grid = solve_a(spec, N)
    ref = closed_form.a_exponential(spec, grid.times) if exact else solve_a(spec, 4 * N).a_values[::4]
    return float(np.max(np.abs(grid.a_values - ref)))


def convergence_report(spec: ModelSpec, N: int) -> ConvergenceReport:
    """Empirical order check: error at N over error at 2N.

    Exponential instances are compared against the closed form; otherwise
    each resolution is compared against its own 4x refinement.
    """
    _check_grid_size(N, 4, "convergence_report")
    exact = closed_form.exponential_applies(spec)
    err_coarse, err_fine = _max_err(spec, N, exact), _max_err(spec, 2 * N, exact)
    ratio = err_coarse / err_fine if err_fine > 0.0 else float("inf")
    return ConvergenceReport(
        err_coarse=err_coarse, err_fine=err_fine, ratio=ratio, reference="closed_form" if exact else "self_4x"
    )


# ---------------------------------------------------------------------------
# A-priori comparison bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Comparison constants and the two Bernoulli envelope curves.

    a(t) satisfies ``a' <= -C1 a^(g/(g-1)) + C0 a`` and
    ``a' >= -D1 a^(g/(g-1)) - D0 a``; integrating the equalities backward
    from a(T) = n yields curves with lower(t) <= a(t) <= upper(t), which
    refuse a time outside [0, T], NaN included.  The
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

    def _curve(self, c_lin: float, c_const: float, t):
        # w' = (c_lin w + c_const)/(1-g) solved backward from w(T) = n^(1/(1-g))
        one_mg = 1.0 - self.gamma
        lin, const, w_T = c_lin / one_mg, c_const / one_mg, self.terminal ** (1.0 / one_mg)

        def envelope(t):
            with np.errstate(over="ignore"):
                return np.maximum(closed_form._linear_closed_form(lin, const, w_T, self.horizon - t), 0.0) ** one_mg

        return _on_times(envelope, t, "BoundsReport", self.horizon)

    def lower_curve(self, t):
        return self._curve(self.c0, -self.c1, t)

    def upper_curve(self, t):
        return self._curve(-self.d0, -self.d1, t)


_BOUNDS_GRID_POINTS = 10_000


def a_priori_bounds(spec: ModelSpec) -> BoundsReport:
    """Grid-search the comparison constants and build the envelope curves.

    Refuses when C1 < 0 (the positivity assumption fails and a(t) may hit
    zero).  The legacy-weight log-derivative is scanned on [0, T) since a
    tapering Pareto weight is singular at T itself.
    """
    t_closed = np.linspace(0.0, spec.horizon, _BOUNDS_GRID_POINTS)
    t_open = np.linspace(0.0, spec.horizon, _BOUNDS_GRID_POINTS, endpoint=False)
    gamma = spec.prefs.gamma
    K = constant_K(spec.market, gamma)

    lam = spec.mortality.rate(t_closed)
    margin = a1_margin(spec, t_closed)
    rho = max(
        float(np.max(np.abs(spec.discount.log_derivative(t_closed)))),
        float(np.max(np.abs(spec.hbar_log_derivative(t_open)))),
    )
    rho_prime = float(np.max(np.abs(gamma * spec.insurance.eta * spec.insurance.payout.inverse(t_closed))))

    c1 = float(np.min(margin))
    if c1 < 0.0:
        raise AssumptionViolatedError(f"a_priori_bounds: C1 = {c1:.6g} < 0; a(t) may reach zero")
    c0 = float(np.max(lam)) + 3.0 * rho - K + rho_prime
    d0 = float(np.max(lam)) + K + 3.0 * rho + rho_prime
    d1 = float(np.max(margin))
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
