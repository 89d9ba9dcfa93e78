"""Monte Carlo verification of the value-function fixed point.

Simulates equilibrium wealth paths and estimates the intertemporal
criterion J two independent ways: via the mortality-adjusted kernels
(integrating Q and q over the full horizon) and via explicit death-time
sampling.  Both must reproduce ``v(t0, x0) = a(t0) U_gamma(x0 + b(t0))``
within Monte Carlo error — that equality is the defining property of the
equilibrium, not an optimality statement.

Randomness is fully deterministic: each path owns a fixed range of Philox
counter blocks keyed by (seed, stream) and each path is reduced to its
sample on its own, so results are bit-identical for identical (seed, paths,
dt, scheme) whatever the block size or the number of worker threads.

Paths are built and reduced in blocks of ``_BLOCK_PATHS`` on one worker
thread per available CPU, with at most one block per worker in flight.
Writing ``U(r y) = r^gamma/gamma y^gamma`` (``log r + log y`` at
gamma = 0) folds the trapezoid weights, the kernels and the feedback rates
into one node-weight vector per call, so a block costs one exp and one
mat-vec on its log-wealth paths.
"""

from __future__ import annotations

import contextvars
import math
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .model import ModelSpec, ValidationError, crra_utility, kernel_Q, kernel_q, weight_M
from .policy import feedback_rates, value_function

__all__ = [
    "EXACT_Y",
    "EULER",
    "SimConfig",
    "EstimateReport",
    "WealthEnsemble",
    "FixedPointReport",
    "simulate_wealth",
    "estimate_J_kernel",
    "estimate_J_mortality",
    "verify_fixed_point",
]

EXACT_Y = "exact_y"
EULER = "euler"

# Paths per block, and one worker thread per CPU this process may run on.
# Both are read at call time so tests can vary them; results do not depend
# on them because each path owns fixed counter blocks and is reduced alone.
_BLOCK_PATHS = 4096
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_STREAM_BROWNIAN = 0
_STREAM_DEATH = 1
_U_FLOOR = 2.0**-64  # uniforms of exactly 0 would map to -inf normals


@dataclass(frozen=True)
class SimConfig:
    """Path count, seed, Euler step and discretization scheme."""

    paths: int
    seed: int
    dt: float
    scheme: str = EXACT_Y

    def __post_init__(self):
        if self.paths < 1:
            raise ValidationError("SimConfig: paths must be >= 1")
        if not self.dt > 0.0:
            raise ValidationError("SimConfig: dt must be > 0")
        if self.scheme not in (EXACT_Y, EULER):
            raise ValidationError(f"SimConfig: unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    std_error: float
    paths_used: int


@dataclass(frozen=True)
class WealthEnsemble:
    """Simulated wealth paths; rejected Euler paths are NaN after exit."""

    times: np.ndarray
    wealth: np.ndarray
    alive: np.ndarray
    scheme: str
    rejected_fraction: float


@dataclass(frozen=True)
class FixedPointReport:
    v_value: float
    j_estimate: EstimateReport
    z_score: float
    passed: bool


# ---------------------------------------------------------------------------
# Counter-based substreams
# ---------------------------------------------------------------------------


def _stream_key(seed: int, stream: int) -> int:
    return (stream << 64) | (seed & 0xFFFFFFFFFFFFFFFF)


def _path_normals(seed: int, first_path: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Standard normals for paths [first_path, first_path + n_paths).

    Path i consumes the Philox counter blocks [i*bpp, (i+1)*bpp) of the
    Brownian stream, where bpp = ceil(n_steps/4) blocks of four draws, so
    a path's increments depend only on (seed, path index).
    """
    blocks_per_path = (n_steps + 3) // 4
    bg = np.random.Philox(key=_stream_key(seed, _STREAM_BROWNIAN))
    bg.advance(first_path * blocks_per_path)
    u = np.random.Generator(bg).random((n_paths, 4 * blocks_per_path))[:, :n_steps]
    np.maximum(u, _U_FLOOR, out=u)
    return ndtri(u, out=u)


def _path_death_uniforms(seed: int, first_path: int, n_paths: int) -> np.ndarray:
    """One uniform per path from the death stream; path i owns block i."""
    bg = np.random.Philox(key=_stream_key(seed, _STREAM_DEATH))
    bg.advance(first_path)
    u = np.random.Generator(bg).random((n_paths, 4))[:, 0]
    return np.maximum(u, _U_FLOOR)


# ---------------------------------------------------------------------------
# Grid and coefficient tables
# ---------------------------------------------------------------------------


class _SimContext:
    """Time grid and node-level coefficients shared by all paths."""

    def __init__(self, spec: ModelSpec, a_curve, b_curve, t0: float, x0: float, cfg: SimConfig):
        T = spec.horizon
        if not 0.0 <= t0 < T:
            raise ValidationError("simulation start t0 must lie in [0, T)")
        if cfg.dt > T / 10.0:
            raise ValidationError("SimConfig: dt must be <= horizon/10")
        self.spec = spec
        self.cfg = cfg
        self.t0 = t0
        self.x0 = x0
        n_steps = max(1, int(math.ceil((T - t0) / cfg.dt - 1e-9)))
        self.n_steps = n_steps
        self.h = (T - t0) / n_steps
        self.times = np.linspace(t0, T, n_steps + 1)

        market, ins = spec.market, spec.insurance
        self.gamma = spec.prefs.gamma
        self.b = np.asarray(b_curve(self.times), dtype=float)
        self.rates = rates = feedback_rates(spec, a_curve(self.times), self.times)
        self.y0 = x0 + self.b[0]
        if self.y0 <= 0.0:
            raise ValidationError("wealth below human-capital floor: x0 + b(t0) <= 0")

        self.kappa = market.sigma * rates.merton
        M = np.asarray(weight_M(spec.prefs, ins, self.times), dtype=float)
        # geometric drift of Y = X + b and its log-space counterpart
        self.nu = market.r + ins.eta * rates.inv_l + market.mu * rates.merton - rates.consumption * M
        g = self.nu - 0.5 * self.kappa**2
        self.log_drift_prefix = np.concatenate(
            [[0.0], np.cumsum(0.5 * self.h * (g[:-1] + g[1:]))]
        )
        self.a_curve = a_curve

    # -- path blocks ------------------------------------------------------

    def exact_y_block(self, normals: np.ndarray) -> np.ndarray:
        """log Y of shifted-wealth paths by exact Gaussian increments, built in one array."""
        log_y = np.empty((normals.shape[0], self.n_steps + 1))
        log_y[:, 0] = 0.0
        np.cumsum(normals, axis=1, out=log_y[:, 1:])
        log_y *= math.sqrt(self.h)
        log_y *= self.kappa
        log_y += math.log(self.y0) + self.log_drift_prefix
        return log_y

    def euler_block(self, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Euler-Maruyama wealth paths; returns (Y, alive).

        Paths are rejected (NaN from the violation onward) when the
        shifted wealth X + b leaves the positive cone.
        """
        market, income = self.spec.market, self.spec.insurance.income
        B = normals.shape[0]
        sq_h = math.sqrt(self.h)
        x = np.empty((B, self.n_steps + 1))
        x[:, 0] = self.x0
        alive = np.ones(B, dtype=bool)
        for k in range(self.n_steps):
            xk = x[:, k]
            y = xk + self.b[k]
            rates = self.rates.node(k)
            f1 = rates.merton * y
            drift = (
                market.r * xk + market.mu * f1 - rates.consumption * y
                - rates.premium(xk, self.b[k]) + income
            )
            with np.errstate(invalid="ignore"):
                x_next = xk + drift * self.h + market.sigma * f1 * sq_h * normals[:, k]
                dead_now = alive & ~(x_next + self.b[k + 1] > 0.0)
            alive &= ~dead_now
            x[:, k + 1] = np.where(alive, x_next, np.nan)
        x += self.b
        return x, alive

    def path_block(self, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``(log Y, alive)`` of paths [start, start + count); rejected rows are NaN."""
        normals = _path_normals(self.cfg.seed, start, count, self.n_steps)
        if self.cfg.scheme == EXACT_Y:
            return self.exact_y_block(normals), np.ones(count, dtype=bool)
        y, alive = self.euler_block(normals)
        return np.log(y, out=y), alive

    def map_blocks(self, reduce) -> list:
        """``reduce(start, log_y, alive)`` of every block of paths, in path order.

        Each block is built and reduced on one worker thread, at most one
        block per worker in flight, in a copy of the caller's context (so
        numpy's error state carries over).  ``reduce`` may overwrite
        ``log_y``; it must not call the module's kernel functions, which
        belong to the calling thread.
        """
        def work(start, count):
            return reduce(start, *self.path_block(start, count))

        paths = self.cfg.paths
        ranges = [(start, min(_BLOCK_PATHS, paths - start)) for start in range(0, paths, _BLOCK_PATHS)]
        workers = min(_WORKERS, len(ranges))
        results, pending = [], deque()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for start, count in ranges:
                if len(pending) == workers:
                    results.append(pending.popleft().result())
                pending.append(pool.submit(contextvars.copy_context().run, work, start, count))
            results.extend(f.result() for f in pending)
        return results


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def simulate_wealth(spec, a_curve, b_curve, t0, x0, cfg: SimConfig) -> WealthEnsemble:
    """Simulate equilibrium wealth paths on [t0, T].

    The exact scheme simulates log(X + b) by Gaussian increments with the
    trapezoid-integrated deterministic drift, keeping X + b > 0 by
    construction; Euler-Maruyama discretizes the wealth SDE directly and
    rejects paths whose shifted wealth exits the positive cone (a warning
    is issued above 1% rejection).  Memory is paths x (steps+1) doubles.
    """
    ctx = _SimContext(spec, a_curve, b_curve, t0, x0, cfg)
    wealth = np.empty((cfg.paths, ctx.n_steps + 1))
    alive = np.empty(cfg.paths, dtype=bool)

    def reduce(start, log_y, ok):
        rows = slice(start, start + ok.size)
        np.exp(log_y, out=wealth[rows])
        wealth[rows] -= ctx.b
        alive[rows] = ok

    ctx.map_blocks(reduce)
    rejected = _rejected_fraction(int(alive.sum()), cfg.paths)
    return WealthEnsemble(
        times=ctx.times, wealth=wealth, alive=alive, scheme=cfg.scheme, rejected_fraction=rejected
    )


def _rejected_fraction(used: int, requested: int) -> float:
    """Share of rejected paths; above 1% it warns, pointing at the public function's caller."""
    rejected = 1.0 - used / requested
    if rejected > 0.01:
        warnings.warn(f"Euler rejection fraction {rejected:.2%} exceeds 1%", stacklevel=3)
    return rejected


def _report_from_samples(samples: np.ndarray) -> EstimateReport:
    n = samples.size
    if n == 0:
        return EstimateReport(mean=float("nan"), std_error=float("inf"), paths_used=0)
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return EstimateReport(mean=mean, std_error=se, paths_used=n)


def _utility_terms(rate, gamma: float):
    """``(scale, shift)`` with ``U(rate y) = scale phi(y) + shift``.

    ``phi(y) = y^gamma``, or ``log y`` at gamma = 0.
    """
    rate = np.asarray(rate, dtype=float)
    if gamma == 0.0:
        return np.ones_like(rate), np.log(rate)
    return rate**gamma / gamma, np.zeros_like(rate)


def _node_weights(ctx: _SimContext, parts, terminal: float) -> tuple[np.ndarray, float]:
    """``(weights, offset)`` with ``phi(Y) @ weights + offset`` equal to the
    trapezoid sum of ``sum(coef U(rate Y) for coef, rate in parts)`` on the
    grid plus ``terminal U(Y(T))``."""
    trapezoid = np.full(ctx.n_steps + 1, ctx.h)
    trapezoid[[0, -1]] *= 0.5
    scale = shift = 0.0
    for coef, rate in parts:
        s, c = _utility_terms(rate, ctx.gamma)
        scale = scale + coef * s
        shift = shift + coef * c
    weights = trapezoid * scale
    weights[-1] += terminal * _utility_terms(1.0, ctx.gamma)[0]
    return weights, float(trapezoid @ shift)


def _kernel_weights(ctx: _SimContext) -> tuple[np.ndarray, float]:
    """Node weights of the kernel estimator: ``Q U(c Y) + q U(z Y)`` plus ``n Q(T) U(Y(T))``."""
    Qv = np.asarray(kernel_Q(ctx.spec, ctx.times, ctx.t0), dtype=float)
    qv = np.asarray(kernel_q(ctx.spec, ctx.times, ctx.t0), dtype=float)
    rates = ctx.rates
    return _node_weights(ctx, ((Qv, rates.consumption), (qv, rates.bequest)), ctx.spec.prefs.n * Qv[-1])


def _node_sum(log_y: np.ndarray, gamma: float, weights: np.ndarray, offset: float) -> np.ndarray:
    """``phi(Y) @ weights + offset`` per path; overwrites ``log_y``.

    ``einsum`` sums each row on its own; BLAS gemv (``@``) rounds a row's
    sum differently depending on the rows around it, which would make the
    samples depend on the block size.
    """
    if gamma != 0.0:
        log_y *= gamma
        np.exp(log_y, out=log_y)
    return np.einsum("ij,j->i", log_y, weights) + offset


def estimate_J_kernel(spec, a_curve, b_curve, t0, x0, cfg: SimConfig) -> EstimateReport:
    """Estimate J by integrating the survival-adjusted kernels Q and q.

    Per path, the time integral of ``Q(s,t0) U(consumption) +
    q(s,t0) U(legacy)`` is a trapezoid sum on the simulation grid plus the
    terminal term ``n Q(T,t0) U(X(T))``, taken as one weighted sum of
    ``Y^gamma`` (``log Y`` at gamma = 0) over the nodes.
    """
    ctx = _SimContext(spec, a_curve, b_curve, t0, x0, cfg)
    weights, offset = _kernel_weights(ctx)

    def reduce(start, log_y, ok):
        with np.errstate(invalid="ignore", divide="ignore"):
            return _node_sum(log_y, ctx.gamma, weights, offset)[ok]

    samples = np.concatenate(ctx.map_blocks(reduce))
    _rejected_fraction(samples.size, cfg.paths)
    return _report_from_samples(samples)


def _sample_death_times(spec: ModelSpec, t0: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF death times conditional on survival to t0.

    Solves ``Lambda(tau) = Lambda(t0) + E`` with E ~ Exp(1) using the
    closed-form integrated hazard (linear or quadratic); tau = inf when
    the hazard is identically zero.
    """
    e = -np.log(u)
    target = spec.mortality.cumulative(t0) + e
    lam0 = spec.mortality.lambda0
    lam1 = getattr(spec.mortality, "lambda1", 0.0)
    if lam1 == 0.0:
        if lam0 == 0.0:
            return np.full_like(u, np.inf)
        return target / lam0
    disc = lam0 * lam0 + 2.0 * lam1 * target
    return (-lam0 + np.sqrt(disc)) / lam1


def estimate_J_mortality(spec, a_curve, b_curve, t0, x0, cfg: SimConfig) -> EstimateReport:
    """Estimate J by sampling the death time explicitly.

    Per path: consumption utility discounted by h up to min(T, tau), the
    weighted legacy utility at tau if death comes before T, else the
    terminal-wealth term.  Death times use an independent substream, so
    this estimator and the kernel one must agree within Monte Carlo error.
    """
    ctx = _SimContext(spec, a_curve, b_curve, t0, x0, cfg)
    hval = np.asarray(spec.discount.value(ctx.times - t0), dtype=float)
    h_T = float(spec.discount.value(spec.horizon - t0))
    weights, offset = _node_weights(ctx, ((hval, ctx.rates.consumption),), spec.prefs.n * h_T)

    def reduce(start, log_y, ok):
        tau = _sample_death_times(spec, t0, _path_death_uniforms(cfg.seed, start, ok.size))
        rows = np.nonzero(tau <= spec.horizon)[0]
        y_died = np.exp(log_y[rows])  # taken before _node_sum overwrites log_y
        with np.errstate(invalid="ignore", divide="ignore"):
            j = _node_sum(log_y, ctx.gamma, weights, offset)
            if rows.size:
                j[rows] = _died_samples(ctx, hval, tau[rows], y_died)
        return j[ok]

    samples = np.concatenate(ctx.map_blocks(reduce))
    _rejected_fraction(samples.size, cfg.paths)
    return _report_from_samples(samples)


def _died_samples(ctx: _SimContext, hval: np.ndarray, tau: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Samples of the paths ``y`` that die at ``tau <= T``.

    Consumption utility discounted by h up to tau (the grid's trapezoid sum
    plus a last partial panel) and the weighted legacy utility at tau.
    """
    spec, t0, h, gamma = ctx.spec, ctx.t0, ctx.h, ctx.gamma
    f = hval * crra_utility(ctx.rates.consumption * y, gamma)
    prefix = np.concatenate(
        [np.zeros((y.shape[0], 1)), np.cumsum(0.5 * h * (f[:, :-1] + f[:, 1:]), axis=1)], axis=1
    )
    rows = np.arange(y.shape[0])
    k = np.minimum(((tau - t0) / h).astype(int), ctx.n_steps - 1)
    frac = (tau - ctx.times[k]) / h
    # geometric interpolation keeps Y positive between nodes
    y_tau = y[rows, k] ** (1.0 - frac) * y[rows, k + 1] ** frac
    rates_tau = feedback_rates(spec, ctx.a_curve(tau), tau)
    f_tau = np.asarray(spec.discount.value(tau - t0)) * crra_utility(rates_tau.consumption * y_tau, gamma)
    j_cons = prefix[rows, k] + 0.5 * (f[rows, k] + f_tau) * (tau - ctx.times[k])
    legacy_w = np.asarray(spec.hbar_value(tau - t0), dtype=float)
    return j_cons + legacy_w * crra_utility(rates_tau.bequest * y_tau, gamma)


def verify_fixed_point(spec, a_curve, b_curve, t0, x0, cfg: SimConfig) -> FixedPointReport:
    """z-test of ``v(t0, x0)`` against the kernel Monte Carlo estimate of J.

    Without evidence (fewer than 2 used paths, or a standard error that is
    not finite and positive) the z-score is NaN and the test fails.
    """
    if spec.prefs.is_log:
        raise ValidationError(
            "verify_fixed_point: log utility value omits an additive term; policies only"
        )
    v = value_function(a_curve, b_curve, spec.prefs.gamma, t0, x0)
    est = estimate_J_kernel(spec, a_curve, b_curve, t0, x0, cfg)
    evidence = est.paths_used >= 2 and 0.0 < est.std_error < math.inf
    z = (est.mean - v) / est.std_error if evidence else math.nan
    return FixedPointReport(v_value=v, j_estimate=est, z_score=z, passed=evidence and abs(z) <= 3.0)
