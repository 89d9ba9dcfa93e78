"""Monte Carlo verification of the value-function fixed point.

Simulates equilibrium wealth paths and estimates the intertemporal
criterion J two independent ways: via the mortality-adjusted kernels
(integrating Q and q over the full horizon) and via explicit death-time
sampling, which inverts the integrated hazard with the mortality model's
own ``inverse_cumulative``.  Both must reproduce ``v(t0, x0) = a(t0)
U_gamma(x0 + b(t0))`` within Monte Carlo error — that equality is the
defining property of the equilibrium, not an optimality statement.

Both schemes build paths of the shifted wealth ``Y = X + b``, whose drift
and volatility under the feedback policy are ``nu Y`` and ``kappa Y``:
``exact_y`` draws exact Gaussian increments of log Y, and ``euler`` steps
``y_{k+1} = y_k (1 + nu_k h + kappa sqrt(h) z_k) + e_k``.  That is the
Euler-Maruyama step of the wealth SDE in X shifted by b, because the X
drift ``r x + mu f1 - c y - premium + i`` equals ``nu y - ((r + eta/l) b - i)``;
``e_k`` is what b's own Euler step misses (0 without income).

Randomness is fully deterministic.  The Brownian increments and the
death times each have their own PCG64DXSM stream, seeded by
``SeedSequence(seed, spawn_key=(stream,))``.  The Brownian stream is cut
into chunks of ``C = max(1, 2**16 // n_steps)`` consecutive paths: chunk c
jumps the stream to its draw ``c << 64`` with ``advance`` and fills its C
paths' rows, in order, from one call of numpy's ziggurat
``standard_normal``.  The ziggurat takes about one 64-bit draw per normal,
so a chunk of about 2**16 normals stays far inside its 2**64 draws.  Path i
owns the death draw i.  A block starts on a chunk boundary and each path
is reduced to its sample on its own, so a path's sample depends only on
(seed, dt, scheme, path index), and results are bit-identical for
identical (seed, paths, dt, scheme) whatever the block size or the number
of worker threads.  A last, partial chunk takes a prefix of its chunk's
normals, so the first k paths are the same whatever the number of paths.

Paths are built and reduced in blocks of about ``_BLOCK_BYTES`` per
array, a whole number of chunks, whatever the horizon and dt, on one
worker thread per available CPU.  Each worker reuses one pair of scratch
arrays that the calling thread allocates for the pass, so the working set
is two such arrays per worker and no block allocates a paths x steps
array.  Writing ``U(r y) = r^gamma/gamma y^gamma`` (``log r + log y`` at
gamma = 0) folds the trapezoid weights, the kernels and the feedback rates
into one node-weight vector per estimator, so a block costs one exp and
two row-wise mat-vecs on its log-wealth paths.  Both estimators come from
this one pass: the kernel and mortality samples of the last
``(spec, a_curve, b_curve, t0, x0, cfg)`` are kept, so a kernel and a
mortality estimate with equal arguments draw each path's normals once.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import queue
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import EULER, EXACT_Y, ModelSpec, SimConfig, ValidationError, crra_utility, kernel_Q, kernel_q, weight_M
from .policy import _shifted_wealth, feedback_rates, value_function

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

# Bytes per scratch array of a block, rounded down to whole chunks: 1040
# paths at 1000 steps and 256 at 4000 (the Monte Carlo passes ran faster at
# 8 MiB than at 4 or 16).  One worker thread per CPU this process may run
# on.  Both are read at call time so tests can vary them; results do not
# depend on them because each block is a whole number of chunks, each chunk
# owns a fixed substream of the Brownian stream and each path is reduced
# alone.
_BLOCK_BYTES = 8 << 20
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_STREAM_BROWNIAN = 0
_STREAM_DEATH = 1
_U_FLOOR = 2.0**-64  # death uniforms of exactly 0 would map to infinite Exp(1) draws


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
# Per-path substreams
# ---------------------------------------------------------------------------


def _stream(seed: int, stream: int, first_draw: int) -> np.random.Generator:
    """The generator of ``stream`` at ``seed``, advanced to its draw ``first_draw``."""
    bg = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(stream,)))
    bg.advance(first_draw)
    return np.random.Generator(bg)


def _chunk_paths(n_steps: int) -> int:
    """Paths per chunk of the Brownian stream: about 2**16 normals."""
    return max(1, 2**16 // n_steps)


def _path_normals(seed: int, first_path: int, n_steps: int, out: np.ndarray) -> np.ndarray:
    """Standard normals for paths [first_path, first_path + len(out)), drawn into ``out``.

    ``out`` is a C-contiguous (paths, n_steps) array and ``first_path`` a
    multiple of the chunk ``_chunk_paths(n_steps)``.  Chunk c's paths take
    consecutive rows of ziggurat normals from the Brownian stream advanced
    to its draw ``c << 64``, so a path's increments depend only on (seed,
    n_steps, path index).  Returns ``out``.
    """
    chunk = _chunk_paths(n_steps)
    if first_path % chunk:
        raise ValueError(f"first path {first_path} does not start a chunk of {chunk} paths")
    for row in range(0, len(out), chunk):
        substream = _stream(seed, _STREAM_BROWNIAN, (first_path + row) // chunk << 64)
        substream.standard_normal(out=out[row : row + chunk])
    return out


def _path_death_uniforms(seed: int, first_path: int, n_paths: int) -> np.ndarray:
    """One uniform per path from the death stream; path i owns draw i."""
    return np.maximum(_stream(seed, _STREAM_DEATH, first_path).random(n_paths), _U_FLOOR)


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
        self.y0 = _shifted_wealth(x0, self.b[0])

        self.kappa = market.sigma * rates.merton
        self.vol_step = self.kappa * math.sqrt(self.h)  # kappa sqrt(h), a step's log-volatility
        M = weight_M(spec.prefs, ins, self.times)
        # geometric drift of Y = X + b and its log-space counterpart
        self.nu = market.r + ins.eta * rates.inv_l + market.mu * rates.merton - rates.consumption * M
        g = self.nu - 0.5 * self.kappa**2
        self.log_drift_prefix = np.concatenate(
            [[0.0], np.cumsum(0.5 * self.h * (g[:-1] + g[1:]))]
        )
        self.a_curve = a_curve
        if cfg.scheme == EULER:
            # euler_block's 1 + nu_k h, and its e_k as 0-d arrays, which
            # ufuncs take faster than floats; built here, on the calling
            # thread, so that a worker allocates only its block's arrays
            self.euler_growth = (1.0 + self.nu[:-1] * self.h)[:, None]
            b_drift = (market.r + ins.eta * rates.inv_l) * self.b - ins.income
            shift = self.b[1:] - self.b[:-1] - self.h * b_drift[:-1]
            self.euler_shift = list(map(np.asarray, shift.tolist()))
        # a scratch row holds either a path's normals or its steps + 1 nodes
        self.row_bytes = 8 * (n_steps + 1)

    # -- path blocks ------------------------------------------------------

    def exact_y_block(self, normals: np.ndarray, log_y: np.ndarray) -> np.ndarray:
        """log Y of shifted-wealth paths by exact Gaussian increments, built in ``log_y``."""
        log_y[:, 0] = 0.0
        np.cumsum(normals, axis=1, out=log_y[:, 1:])
        log_y *= self.vol_step
        log_y += math.log(self.y0) + self.log_drift_prefix
        return log_y

    def euler_block(self, normals: np.ndarray, factors: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Euler-Maruyama paths of Y = X + b, step-major; returns ``(y, alive)``.

        Each step is ``y_{k+1} = y_k (1 + nu_k h + kappa sqrt(h) z_k) + e_k``,
        where ``e_k = b_{k+1} - b_k - h ((r + eta/l_k) b_k - i)`` is what b's
        own Euler step misses, exactly 0 without income.  ``normals`` holds
        one row per path; the growth factors are built in ``factors``, one
        row per step, and Y in ``y``, one row per node, so each step reads
        and writes contiguous rows.  A path is rejected (NaN from then on)
        at the step where Y reaches 0 or below.
        """
        np.multiply(normals.T, self.vol_step, out=factors)
        factors += self.euler_growth
        multiply, add, less_equal, copyto = np.multiply, np.add, np.less_equal, np.copyto
        zero, nan = np.asarray(0.0), np.asarray(np.nan)
        crossed = np.empty(y.shape[1], dtype=bool)
        y[0] = self.y0
        with np.errstate(invalid="ignore"):
            for k, shift in enumerate(self.euler_shift):
                y_next = y[k + 1]
                multiply(y[k], factors[k], out=y_next)
                add(y_next, shift, out=y_next)
                # a path that crosses is NaN from here on, and NaN
                # propagates: a path is alive iff its last node is a number
                less_equal(y_next, zero, out=crossed)
                copyto(y_next, nan, where=crossed)
        return y, ~np.isnan(y[-1])

    def scratch(self, paths: int) -> tuple[np.ndarray, np.ndarray]:
        """The pair of flat arrays that ``path_block`` builds up to ``paths`` paths in."""
        return np.empty(paths * self.row_bytes // 8), np.empty(paths * self.row_bytes // 8)

    def path_block(self, start: int, count: int, scratch) -> tuple[np.ndarray, np.ndarray]:
        """``(log Y, alive)`` of paths [start, start + count); rejected rows are NaN.

        ``start`` is a multiple of the chunk.  ``scratch`` is a pair from
        ``scratch(n)``, n >= count: the normals are drawn into the first
        array and log Y is built in the second, whose view is returned.
        """
        draws, paths = scratch
        steps, nodes = self.n_steps, self.n_steps + 1
        normals = _path_normals(self.cfg.seed, start, steps, draws[: count * steps].reshape(count, steps))
        log_y = paths[: count * nodes].reshape(count, nodes)
        if self.cfg.scheme == EXACT_Y:
            return self.exact_y_block(normals, log_y), np.ones(count, dtype=bool)
        # step-major Euler: the growth factors go to the second array,
        # transposed, and the rows of Y are built in the first
        factors = paths[: steps * count].reshape(steps, count)
        y, alive = self.euler_block(normals, factors, draws[: nodes * count].reshape(nodes, count))
        return np.log(y.T, out=log_y), alive

    def map_blocks(self, reduce) -> None:
        """``reduce(start, log_y, alive)`` on every block of paths.

        A block holds ``_BLOCK_BYTES // row_bytes`` paths rounded down to a
        positive multiple of the chunk, so every block starts a chunk of
        the Brownian stream and draws the same normals for a path whatever
        the block size.  Each block is built and reduced on one worker
        thread, so at most one block per worker is in flight, in a copy of
        the caller's context (so numpy's error state carries over).  The
        calling thread allocates one pair of scratch arrays per worker and
        the blocks take them from a queue: ``log_y`` is a view into that
        scratch, valid only during the ``reduce`` call, which may overwrite
        it.  ``reduce`` writes its results into the caller's arrays; it must
        not call the module's kernel functions, which belong to the calling
        thread.
        """
        # numpy.random is loaded here, on the calling thread: a module that a
        # worker imports first lands in that worker's malloc arena (so
        # scipy.special raised the peak RSS of perfbench's mc_verify from 218
        # to 249 MiB), and loaded with this module it would add about 2 MiB
        # to a process that imports it and runs no pass
        import numpy.random  # noqa: F401

        paths, chunk = self.cfg.paths, _chunk_paths(self.n_steps)
        block = min(paths, max(1, _BLOCK_BYTES // self.row_bytes // chunk) * chunk)
        ranges = [(start, min(block, paths - start)) for start in range(0, paths, block)]
        workers = min(_WORKERS, len(ranges))
        # allocated here, not on the workers, whose own malloc arenas would
        # hold the arrays and raise the peak RSS
        free = queue.SimpleQueue()
        for _ in range(workers):
            free.put(self.scratch(block))

        def work(start, count):
            scratch = free.get()
            try:
                reduce(start, *self.path_block(start, count, scratch))
            finally:
                free.put(scratch)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(contextvars.copy_context().run, work, start, count) for start, count in ranges]
            for future in futures:
                future.result()


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def simulate_wealth(spec, a_curve, b_curve, t0, x0, cfg: SimConfig) -> WealthEnsemble:
    """Simulate equilibrium wealth paths on [t0, T].

    The exact scheme simulates log(X + b) by Gaussian increments with the
    trapezoid-integrated deterministic drift, keeping X + b > 0 by
    construction; Euler-Maruyama steps Y = X + b and rejects paths whose
    shifted wealth exits the positive cone (a warning is issued above 1%
    rejection).  Every path starts at exactly ``x0``.  The result holds
    paths x (steps+1) doubles; each block's paths are copied into it from
    the worker's scratch, which adds two arrays of ``_BLOCK_BYTES`` per
    worker.
    """
    ctx = _SimContext(spec, a_curve, b_curve, t0, x0, cfg)
    wealth = np.empty((cfg.paths, ctx.n_steps + 1))
    alive = np.empty(cfg.paths, dtype=bool)

    def reduce(start, log_y, ok):
        rows = slice(start, start + ok.size)
        np.exp(log_y, out=wealth[rows])
        wealth[rows] -= ctx.b
        wealth[rows, 0] = x0  # exp(log(x0 + b)) - b may round off x0
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
    # np.std squares the deviations, which overflow for samples beyond about
    # 1e154; such samples are scaled by a power of two first, which is exact
    exp2 = int(np.frexp(max(samples.max(), -samples.min()))[1])
    if exp2 <= 256:
        exp2 = 0
    scaled = np.ldexp(samples, -exp2) if exp2 else samples
    mean = float(np.ldexp(np.mean(scaled), exp2))
    se = float(np.ldexp(np.std(scaled, ddof=1), exp2) / math.sqrt(n)) if n > 1 else float("inf")
    return EstimateReport(mean=mean, std_error=se, paths_used=n)


def _utility_terms(rate, gamma: float):
    """``(scale, shift)`` with ``U(rate y) = scale phi(y) + shift``.

    ``phi(y) = y^gamma``, or ``log y`` at gamma = 0: the scale is
    ``U(rate)`` and the shift 0, or the scale 1 and the shift ``U(rate)``.
    """
    u = crra_utility(rate, gamma)
    return (np.ones_like(u), u) if gamma == 0.0 else (u, np.zeros_like(u))


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
    Qv = kernel_Q(ctx.spec, ctx.times, ctx.t0)
    qv = kernel_q(ctx.spec, ctx.times, ctx.t0)
    rates = ctx.rates
    return _node_weights(ctx, ((Qv, rates.consumption), (qv, rates.bequest)), ctx.spec.prefs.n * Qv[-1])


@functools.lru_cache(maxsize=1)
def _samples(spec, a_curve, b_curve, t0, x0, cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only kernel and mortality samples of the used paths, from one pass.

    The samples are a bit-reproducible function of the arguments, so the
    last call's are kept and returned again for arguments that hash and
    compare ``==`` alike.  That is identity for functions and bound methods:
    ``a_curve`` and ``b_curve`` are taken to be pure.  The memo holds
    2 x paths doubles.
    """
    ctx = _SimContext(spec, a_curve, b_curve, t0, x0, cfg)
    k_weights, k_offset = _kernel_weights(ctx)
    hval = spec.discount.value(ctx.times - t0)
    m_weights, m_offset = _node_weights(ctx, ((hval, ctx.rates.consumption),), spec.prefs.n * hval[-1])

    # blocks write into the caller's arrays: per-block results kept until the
    # end would fragment the workers' malloc arenas, and raised the peak RSS
    # by a block's 33 MB or more in about half of the mc_verify runs
    kernel, mortality = np.empty(cfg.paths), np.empty(cfg.paths)
    used = np.empty(cfg.paths, dtype=bool)

    def reduce(start, log_y, ok):
        rows = slice(start, start + ok.size)
        tau = _sample_death_times(spec, t0, _path_death_uniforms(cfg.seed, start, ok.size))
        died = np.nonzero(tau <= spec.horizon)[0]
        y_died = np.exp(log_y[died])  # taken before phi(Y) overwrites log_y
        with np.errstate(invalid="ignore", divide="ignore"):
            if ctx.gamma != 0.0:  # phi(Y) = Y^gamma; log Y at gamma = 0
                log_y *= ctx.gamma
                np.exp(log_y, out=log_y)
            # einsum sums each row on its own; BLAS gemv (``@``), or one
            # 2-column product, would round a row's sum depending on the
            # rows or columns around it
            kernel[rows] = np.einsum("ij,j->i", log_y, k_weights) + k_offset
            mortality[rows] = np.einsum("ij,j->i", log_y, m_weights) + m_offset
            if died.size:
                mortality[start + died] = _died_samples(ctx, hval, tau[died], y_died)
        used[rows] = ok

    ctx.map_blocks(reduce)
    result = (kernel[used], mortality[used])
    for samples in result:
        samples.flags.writeable = False
    return result


def estimate_J_kernel(spec, a_curve, b_curve, t0, x0, cfg: SimConfig) -> EstimateReport:
    """Estimate J by integrating the survival-adjusted kernels Q and q.

    Per path, the time integral of ``Q(s,t0) U(consumption) +
    q(s,t0) U(legacy)`` is a trapezoid sum on the simulation grid plus the
    terminal term ``n Q(T,t0) U(X(T))``, taken as one weighted sum of
    ``Y^gamma`` (``log Y`` at gamma = 0) over the nodes.  The same pass
    yields the mortality samples, kept for ``estimate_J_mortality``.
    """
    samples = _samples(spec, a_curve, b_curve, t0, x0, cfg)[0]
    _rejected_fraction(samples.size, cfg.paths)
    return _report_from_samples(samples)


def _sample_death_times(spec: ModelSpec, t0: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF death times conditional on survival to t0: ``Lambda(tau)
    = Lambda(t0) + E`` with E = -log u ~ Exp(1); tau = inf where the hazard
    never integrates that far."""
    return spec.mortality.inverse_cumulative(spec.mortality.cumulative(t0) - np.log(u))


def estimate_J_mortality(spec, a_curve, b_curve, t0, x0, cfg: SimConfig) -> EstimateReport:
    """Estimate J by sampling the death time explicitly.

    Per path: consumption utility discounted by h up to min(T, tau), the
    weighted legacy utility at tau if death comes before T, else the
    terminal-wealth term.  Death times use an independent substream, so
    this estimator and the kernel one must agree within Monte Carlo error.
    Both come from one pass over the paths.
    """
    samples = _samples(spec, a_curve, b_curve, t0, x0, cfg)[1]
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
    f_tau = spec.discount.value(tau - t0) * crra_utility(rates_tau.consumption * y_tau, gamma)
    j_cons = prefix[rows, k] + 0.5 * (f[rows, k] + f_tau) * (tau - ctx.times[k])
    legacy_w = spec.hbar_value(tau - t0)
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
