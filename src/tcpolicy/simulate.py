"""Monte Carlo verification of the value-function fixed point.

Simulates equilibrium wealth paths and estimates the intertemporal
criterion J two independent ways: via the mortality-adjusted kernels
(integrating Q and q over the full horizon) and via explicit death-time
sampling.  Both must reproduce ``v(t0, x0) = a(t0) U_gamma(x0 + b(t0))``
within Monte Carlo error — that equality is the defining property of the
equilibrium, not an optimality statement.

Randomness is fully deterministic: each path owns a fixed range of Philox
counter blocks keyed by (seed, stream), so results are bit-identical for
identical (seed, paths, dt, scheme) regardless of internal chunking.
"""

from __future__ import annotations

import math
import warnings
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

_BLOCK_PATHS = 4096
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
    return ndtri(np.maximum(u, _U_FLOOR))


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
        """Shifted-wealth paths Y > 0 by exact Gaussian increments of log Y."""
        w = np.concatenate(
            [np.zeros((normals.shape[0], 1)), np.cumsum(normals, axis=1) * math.sqrt(self.h)],
            axis=1,
        )
        log_y = math.log(self.y0) + self.log_drift_prefix + self.kappa * w
        return np.exp(log_y)

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
        return x + self.b[np.newaxis, :], alive

    def blocks(self):
        """Yield ``(start, Y, alive)`` for each block of paths, in path order."""
        for start, count in _block_ranges(self.cfg.paths):
            normals = _path_normals(self.cfg.seed, start, count, self.n_steps)
            if self.cfg.scheme == EXACT_Y:
                block = start, self.exact_y_block(normals), np.ones(count, dtype=bool)
            else:
                block = start, *self.euler_block(normals)
            del normals  # the paused generator would keep a paths x steps array alive
            yield block


def _block_ranges(total: int):
    # _BLOCK_PATHS is read at call time so tests can shrink it; results do
    # not depend on it because each path owns fixed counter blocks
    for start in range(0, total, _BLOCK_PATHS):
        yield start, min(_BLOCK_PATHS, total - start)


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
    for start, y, ok in ctx.blocks():
        wealth[start : start + ok.size] = y - ctx.b[np.newaxis, :]
        alive[start : start + ok.size] = ok
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


def estimate_J_kernel(spec, a_curve, b_curve, t0, x0, cfg: SimConfig) -> EstimateReport:
    """Estimate J by integrating the survival-adjusted kernels Q and q.

    Per path, the time integral of ``Q(s,t0) U(consumption) +
    q(s,t0) U(legacy)`` is a trapezoid sum on the simulation grid plus the
    terminal term ``n Q(T,t0) U(X(T))``.
    """
    ctx = _SimContext(spec, a_curve, b_curve, t0, x0, cfg)
    times = ctx.times
    Qv = np.asarray(kernel_Q(spec, times, t0), dtype=float)
    qv = np.asarray(kernel_q(spec, times, t0), dtype=float)
    n_weight = spec.prefs.n
    gamma, rates = ctx.gamma, ctx.rates

    samples = []
    for _, y, ok in ctx.blocks():
        with np.errstate(invalid="ignore", divide="ignore"):
            f = Qv * crra_utility(rates.consumption * y, gamma) + qv * crra_utility(rates.bequest * y, gamma)
            j = np.sum(0.5 * ctx.h * (f[:, :-1] + f[:, 1:]), axis=1)
            j += n_weight * Qv[-1] * crra_utility(y[:, -1], gamma)
        samples.append(j[ok])
    samples = np.concatenate(samples)
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
    spec_T = spec.horizon
    times = ctx.times
    gamma = ctx.gamma
    hval = np.asarray(spec.discount.value(times - t0), dtype=float)
    h_T = float(spec.discount.value(spec_T - t0))
    n_weight = spec.prefs.n

    samples = []
    for start, y, ok in ctx.blocks():
        count = ok.size
        u = _path_death_uniforms(cfg.seed, start, count)
        tau = _sample_death_times(spec, t0, u)

        with np.errstate(invalid="ignore", divide="ignore"):
            f = hval * crra_utility(ctx.rates.consumption * y, gamma)
            prefix = np.concatenate(
                [np.zeros((count, 1)), np.cumsum(0.5 * ctx.h * (f[:, :-1] + f[:, 1:]), axis=1)],
                axis=1,
            )
            j = prefix[:, -1] + n_weight * h_T * crra_utility(y[:, -1], gamma)

            died = tau <= spec_T
            if np.any(died):
                rows = np.nonzero(died)[0]
                tau_d = tau[rows]
                k = np.minimum(((tau_d - t0) / ctx.h).astype(int), ctx.n_steps - 1)
                frac = (tau_d - times[k]) / ctx.h
                # geometric interpolation keeps Y positive between nodes
                y_tau = y[rows, k] ** (1.0 - frac) * y[rows, k + 1] ** frac
                rates_tau = feedback_rates(spec, ctx.a_curve(tau_d), tau_d)
                c_tau = rates_tau.consumption * y_tau
                z_tau = rates_tau.bequest * y_tau
                f_tau = np.asarray(spec.discount.value(tau_d - t0)) * crra_utility(c_tau, gamma)
                j_cons = prefix[rows, k] + 0.5 * (f[rows, k] + f_tau) * (tau_d - times[k])
                legacy_w = np.asarray(spec.hbar_value(tau_d - t0), dtype=float)
                j[rows] = j_cons + legacy_w * crra_utility(z_tau, gamma)
        samples.append(j[ok])
    samples = np.concatenate(samples)
    _rejected_fraction(samples.size, cfg.paths)
    return _report_from_samples(samples)


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
