"""Seeded Monte Carlo: determinism, estimator agreement, sampling laws."""

import dataclasses
import math
import operator
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tcpolicy import (
    ConstantHazard,
    ConstantPayout,
    ConstantWeight,
    Exponential,
    InsuranceIncomeSpec,
    MarketParams,
    ModelSpec,
    PreferenceParams,
    ValidationError,
)
from tcpolicy.closed_form import a_log, b_function
from tcpolicy.ie_solver import solve_a
from tcpolicy.model import crra_utility, kernel_Q, kernel_q
from tcpolicy.policy import feedback_rates
from tcpolicy.simulate import (
    EULER,
    EXACT_Y,
    SimConfig,
    _path_death_uniforms,
    _path_normals,
    _sample_death_times,
    estimate_J_kernel,
    estimate_J_mortality,
    simulate_wealth,
    verify_fixed_point,
)
import tcpolicy.simulate as sim_module


@pytest.fixture(scope="module")
def exp1_solution(exp1_spec):
    grid = solve_a(exp1_spec, 1000)
    return grid.a_curve, b_function(exp1_spec)


CFG = SimConfig(paths=8000, seed=424242, dt=2e-3)


# ---------------------------------------------------------------------------
# Determinism and substreams
# ---------------------------------------------------------------------------


def test_estimates_bit_identical_across_runs(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    r1 = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, CFG)
    r2 = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, CFG)
    assert r1 == r2


def _same_ensemble(e1, e2):
    return np.array_equal(e1.wealth, e2.wealth, equal_nan=True) and np.array_equal(e1.alive, e2.alive)


@pytest.mark.parametrize(
    "run, same",
    [(estimate_J_kernel, operator.eq), (estimate_J_mortality, operator.eq), (simulate_wealth, _same_ensemble)],
    ids=["kernel", "mortality", "wealth"],
)
def test_estimates_independent_of_chunking(exp1_spec, exp1_solution, monkeypatch, run, same):
    # neither the block size nor the number of worker threads moves a bit of
    # any path's sample; a short switch interval makes the threads interleave
    a_curve, b_curve = exp1_solution
    samples = []
    report = sim_module._report_from_samples
    monkeypatch.setattr(sim_module, "_report_from_samples", lambda s: samples.append(s) or report(s))
    base = run(exp1_spec, a_curve, b_curve, 0.0, 1.0, CFG)
    monkeypatch.setattr(sim_module, "_BLOCK_PATHS", 37)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 3):
            monkeypatch.setattr(sim_module, "_WORKERS", workers)
            chunked = run(exp1_spec, a_curve, b_curve, 0.0, 1.0, CFG)
            assert same(base, chunked), f"{workers} workers"
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(samples[0], s) for s in samples[1:])


def test_blocks_run_in_the_callers_error_state(exp1_spec, exp1_solution, monkeypatch):
    a_curve, b_curve = exp1_solution
    monkeypatch.setattr(sim_module, "_BLOCK_PATHS", 16)
    ctx = sim_module._SimContext(exp1_spec, a_curve, b_curve, 0.0, 1.0, SimConfig(64, 1, 0.1))
    with np.errstate(over="raise"):
        states = ctx.map_blocks(lambda start, log_y, ok: np.geterr()["over"])
    assert states == ["raise"] * 4


def test_path_normals_are_per_path_substreams():
    # path i's increments do not depend on how many paths are drawn
    a = _path_normals(7, 0, 10, 25)
    b = _path_normals(7, 3, 4, 25)
    assert np.array_equal(a[3:7], b)
    assert np.array_equal(_path_death_uniforms(7, 2, 5), _path_death_uniforms(7, 0, 10)[2:7])


def test_streams_differ_by_purpose():
    n = _path_normals(7, 0, 4, 8)
    m = _path_normals(8, 0, 4, 8)
    assert not np.array_equal(n, m)


def test_wealth_ensemble_deterministic(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    cfg = SimConfig(paths=64, seed=5, dt=1e-2)
    e1 = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    e2 = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert np.array_equal(e1.wealth, e2.wealth)


# ---------------------------------------------------------------------------
# Path laws
# ---------------------------------------------------------------------------


def test_exact_y_paths_stay_above_floor(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    cfg = SimConfig(paths=500, seed=11, dt=5e-3)
    ens = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    floor = np.asarray(b_curve(ens.times))
    assert np.all(ens.wealth + floor > 0.0)
    assert ens.rejected_fraction == 0.0


def test_exact_vs_euler_terminal_mean(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    cfg_x = SimConfig(paths=20000, seed=3, dt=1e-3, scheme=EXACT_Y)
    cfg_e = SimConfig(paths=20000, seed=3, dt=1e-3, scheme=EULER)
    wx = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg_x).wealth[:, -1]
    ens = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg_e)
    we = ens.wealth[ens.alive, -1]
    se = math.hypot(wx.std(ddof=1) / math.sqrt(wx.size), we.std(ddof=1) / math.sqrt(we.size))
    assert abs(wx.mean() - we.mean()) <= 3.0 * se


def test_degenerate_diffusion_matches_ode(market):
    # vanishing excess return and volatility turn the wealth SDE into an ODE
    tiny = MarketParams(r=0.05, alpha=0.05 + 1e-12, sigma=1e-3)
    spec = ModelSpec(
        market=tiny,
        mortality=ConstantHazard(0.02),
        discount=Exponential(0.1),
        prefs=PreferenceParams(
            gamma=-1.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(50.0), eta=1.0, income=0.5),
        horizon=1.0,
    )
    grid = solve_a(spec, 400)
    a_curve, b_curve = grid.a_curve, b_function(spec)

    def ode(t, y):
        x = y[0]
        yy = x + b_curve(t)
        crate = a_curve(t) ** -0.5
        zrate = (a_curve(t) / 1.0) ** -0.5
        f2 = crate * yy
        f3 = (1.0 / 50.0) * ((zrate - 1.0) * x + zrate * b_curve(t))
        return [0.05 * x - f2 - f3 + 0.5]

    ref = solve_ivp(ode, [0.0, 1.0], [1.0], rtol=1e-10, atol=1e-12).y[0, -1]
    for scheme in (EXACT_Y, EULER):
        cfg = SimConfig(paths=4, seed=1, dt=1e-3, scheme=scheme)
        ens = simulate_wealth(spec, a_curve, b_curve, 0.0, 1.0, cfg)
        assert ens.wealth[:, -1] == pytest.approx(ref, rel=2e-3)


def test_martingale_of_raw_increments():
    # stub dynamics dX = zeta sigma dW (r = 0, no consumption/premium/income):
    # the running mean stays at x0 within Monte Carlo error
    paths, steps, h = 4000, 50, 0.02
    z = _path_normals(99, 0, paths, steps)
    x = 1.0 + 0.3 * math.sqrt(h) * np.cumsum(z, axis=1)
    means = x.mean(axis=0)
    ses = x.std(axis=0, ddof=1) / math.sqrt(paths)
    assert np.all(np.abs(means - 1.0) <= 3.0 * ses)


def test_euler_rejection_counted_and_warned(exp1_spec):
    # an artificially tiny value coefficient forces huge consumption and
    # drives shifted wealth through the floor
    a_curve = lambda t: np.full_like(np.asarray(t, dtype=float), 1e-8)
    b_curve = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    cfg = SimConfig(paths=200, seed=2, dt=5e-3, scheme=EULER)
    with pytest.warns(UserWarning, match="rejection"):
        ens = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert ens.rejected_fraction > 0.5
    with pytest.warns(UserWarning, match="rejection"):
        est = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert est.paths_used == int(round((1.0 - ens.rejected_fraction) * cfg.paths))


# ---------------------------------------------------------------------------
# Death-time sampling
# ---------------------------------------------------------------------------


def test_death_times_constant_hazard_mean(exp1_spec):
    lam0 = 0.5
    spec = ModelSpec(
        market=exp1_spec.market,
        mortality=ConstantHazard(lam0),
        discount=exp1_spec.discount,
        prefs=exp1_spec.prefs,
        insurance=exp1_spec.insurance,
        horizon=1.0,
    )
    u = _path_death_uniforms(31, 0, 40000)
    tau = _sample_death_times(spec, 0.0, u)
    se = tau.std(ddof=1) / math.sqrt(tau.size)
    assert abs(tau.mean() - 1.0 / lam0) <= 3.0 * se


def test_death_times_affine_hazard_transform(experiment_spec):
    # Lambda(tau) - Lambda(t0) must be unit exponential
    t0 = 0.5
    u = _path_death_uniforms(32, 0, 40000)
    tau = _sample_death_times(experiment_spec, t0, u)
    assert np.all(tau > t0)
    e = experiment_spec.mortality.cumulative(tau) - experiment_spec.mortality.cumulative(t0)
    se = e.std(ddof=1) / math.sqrt(e.size)
    assert abs(e.mean() - 1.0) <= 3.0 * se


def test_death_times_zero_hazard_infinite(log_spec):
    u = _path_death_uniforms(33, 0, 100)
    tau = _sample_death_times(log_spec, 0.0, u)
    assert np.all(np.isinf(tau))


# ---------------------------------------------------------------------------
# J estimators
# ---------------------------------------------------------------------------


def test_zero_hazard_estimators_coincide(market):
    spec = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(0.1),
        prefs=PreferenceParams(
            gamma=-1.0, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=1.0,
    )
    grid = solve_a(spec, 400)
    b = b_function(spec)
    cfg = SimConfig(paths=3000, seed=8, dt=2e-3)
    jk = estimate_J_kernel(spec, grid.a_curve, b, 0.0, 1.0, cfg)
    jm = estimate_J_mortality(spec, grid.a_curve, b, 0.0, 1.0, cfg)
    assert jm.mean == pytest.approx(jk.mean, rel=1e-12)
    assert jm.std_error == pytest.approx(jk.std_error, rel=1e-12)


def test_zero_noise_kernel_estimate_matches_quadrature(exp1_spec, exp1_solution, monkeypatch):
    # with the Brownian draws stubbed to zero every path is the same
    # deterministic curve, so the per-path trapezoid must reproduce an
    # independent quadrature of Q U(c) + q U(Z) plus the terminal term
    from scipy.integrate import quad

    from tcpolicy import kernel_Q, kernel_q
    from tcpolicy.model import crra_utility, weight_M

    a_curve, b_curve = exp1_solution
    monkeypatch.setattr(
        sim_module, "_path_normals", lambda seed, first, n, steps: np.zeros((n, steps))
    )
    cfg = SimConfig(paths=3, seed=1, dt=1e-3)
    est = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)

    spec = exp1_spec
    mkt = spec.market
    kappa = mkt.mu / (mkt.sigma * 2.0)

    def log_growth(u):
        crate = a_curve(u) ** -0.5
        nu = mkt.r + 1.0 / 50.0 + mkt.mu**2 / (mkt.sigma**2 * 2.0) - crate * weight_M(
            spec.prefs, spec.insurance, u
        )
        return nu - 0.5 * kappa**2

    def y_of(s):
        g, _ = quad(log_growth, 0.0, s, limit=200)
        return math.exp(g)  # y0 = 1 + b(0) = 1

    def integrand(s):
        y = y_of(s)
        c = a_curve(s) ** -0.5 * y
        z = a_curve(s) ** -0.5 * y  # m(0) = 1
        return kernel_Q(spec, s, 0.0) * crra_utility(c, -1.0) + kernel_q(
            spec, s, 0.0
        ) * crra_utility(z, -1.0)

    expected, _ = quad(integrand, 0.0, 1.0, limit=200)
    expected += spec.prefs.n * kernel_Q(spec, 1.0, 0.0) * crra_utility(y_of(1.0), -1.0)
    assert est.mean == pytest.approx(expected, rel=1e-4)
    assert est.std_error < 1e-12  # identical paths up to summation rounding


def test_kernel_and_mortality_estimators_agree(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    jk = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, CFG)
    jm = estimate_J_mortality(exp1_spec, a_curve, b_curve, 0.0, 1.0, CFG)
    combined = math.hypot(jk.std_error, jm.std_error)
    assert abs(jk.mean - jm.mean) <= 3.0 * combined


def test_kernel_and_mortality_agree_on_experiment(experiment_spec):
    grid = solve_a(experiment_spec, 400)
    b = b_function(experiment_spec)
    cfg = SimConfig(paths=6000, seed=12, dt=8e-3)
    jk = estimate_J_kernel(experiment_spec, grid.a_curve, b, 0.0, 1.0, cfg)
    jm = estimate_J_mortality(experiment_spec, grid.a_curve, b, 0.0, 1.0, cfg)
    combined = math.hypot(jk.std_error, jm.std_error)
    assert abs(jk.mean - jm.mean) <= 3.0 * combined


def test_stderr_scales_with_paths(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    r1 = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, SimConfig(8000, 77, 2e-3))
    r2 = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, SimConfig(16000, 77, 2e-3))
    assert 1.3 <= r1.std_error / r2.std_error <= 1.5


# Reference estimators: the utilities evaluated at every node, then a pairwise
# trapezoid sum.  The node-weight estimators must match them per sample.


def _reference_kernel_samples(spec, ctx, y, alive):
    t0, gamma, rates = ctx.t0, ctx.gamma, ctx.rates
    Qv = np.asarray(kernel_Q(spec, ctx.times, t0), dtype=float)
    qv = np.asarray(kernel_q(spec, ctx.times, t0), dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = Qv * crra_utility(rates.consumption * y, gamma) + qv * crra_utility(rates.bequest * y, gamma)
        j = np.sum(0.5 * ctx.h * (f[:, :-1] + f[:, 1:]), axis=1)
        j += spec.prefs.n * Qv[-1] * crra_utility(y[:, -1], gamma)
    return j[alive]


def _reference_mortality_samples(spec, ctx, y, alive, seed):
    t0, gamma, times = ctx.t0, ctx.gamma, ctx.times
    hval = np.asarray(spec.discount.value(times - t0), dtype=float)
    h_T = float(spec.discount.value(spec.horizon - t0))
    tau = _sample_death_times(spec, t0, _path_death_uniforms(seed, 0, y.shape[0]))
    with np.errstate(invalid="ignore", divide="ignore"):
        f = hval * crra_utility(ctx.rates.consumption * y, gamma)
        prefix = np.concatenate(
            [np.zeros((y.shape[0], 1)), np.cumsum(0.5 * ctx.h * (f[:, :-1] + f[:, 1:]), axis=1)], axis=1
        )
        j = prefix[:, -1] + spec.prefs.n * h_T * crra_utility(y[:, -1], gamma)
        rows = np.nonzero(tau <= spec.horizon)[0]
        tau_d = tau[rows]
        k = np.minimum(((tau_d - t0) / ctx.h).astype(int), ctx.n_steps - 1)
        frac = (tau_d - times[k]) / ctx.h
        y_tau = y[rows, k] ** (1.0 - frac) * y[rows, k + 1] ** frac
        rates_tau = feedback_rates(spec, ctx.a_curve(tau_d), tau_d)
        f_tau = np.asarray(spec.discount.value(tau_d - t0)) * crra_utility(rates_tau.consumption * y_tau, gamma)
        j_cons = prefix[rows, k] + 0.5 * (f[rows, k] + f_tau) * (tau_d - times[k])
        legacy_w = np.asarray(spec.hbar_value(tau_d - t0), dtype=float)
        j[rows] = j_cons + legacy_w * crra_utility(rates_tau.bequest * y_tau, gamma)
    return j[alive], rows.size


def _reference_paths(ctx, cfg):
    normals = _path_normals(cfg.seed, 0, cfg.paths, ctx.n_steps)
    if cfg.scheme == EULER:
        return ctx.euler_block(normals)
    w = np.concatenate(
        [np.zeros((cfg.paths, 1)), np.cumsum(normals, axis=1) * math.sqrt(ctx.h)], axis=1
    )
    y = np.exp(math.log(ctx.y0) + ctx.log_drift_prefix + ctx.kappa * w)
    return y, np.ones(cfg.paths, dtype=bool)


def _log_utility_case(exp1_spec):
    spec = dataclasses.replace(exp1_spec, prefs=dataclasses.replace(exp1_spec.prefs, gamma=0.0))
    nodes = np.linspace(0.0, spec.horizon, 11)
    a_nodes = [a_log(spec, t) for t in nodes]
    return spec, lambda t: np.interp(t, nodes, a_nodes), b_function(spec)


def _equivalence_case(name, exp1_spec, experiment_spec):
    if name == "log_utility":
        return (*_log_utility_case(exp1_spec), SimConfig(paths=5000, seed=21, dt=2e-3), ("kernel",))
    if name == "euler_rejected":
        # a Merton fraction of 87.5 and coarse steps: some Euler paths cross
        # the floor, and the survivors' utilities stay moderate
        spec = dataclasses.replace(exp1_spec, market=MarketParams(r=0.05, alpha=0.12, sigma=0.02))
        a_curve = lambda t: np.ones_like(np.asarray(t, dtype=float))
        b_curve = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        cfg = SimConfig(paths=1000, seed=2, dt=0.1, scheme=EULER)
        return spec, a_curve, b_curve, cfg, ("kernel", "mortality")
    spec = exp1_spec if name == "exp1" else experiment_spec
    grid = solve_a(spec, 400)
    cfg = SimConfig(paths=5000, seed=21, dt=2e-3 if name == "exp1" else 8e-3)
    return spec, grid.a_curve, b_function(spec), cfg, ("kernel", "mortality")


@pytest.mark.parametrize("name", ["exp1", "experiment", "log_utility", "euler_rejected"])
def test_node_weight_estimators_match_per_node_formulas(exp1_spec, experiment_spec, monkeypatch, name):
    spec, a_curve, b_curve, cfg, estimators = _equivalence_case(name, exp1_spec, experiment_spec)
    captured = []
    report = sim_module._report_from_samples
    monkeypatch.setattr(sim_module, "_report_from_samples", lambda s: captured.append(s) or report(s))
    ctx = sim_module._SimContext(spec, a_curve, b_curve, 0.0, 1.0, cfg)
    y, alive = _reference_paths(ctx, cfg)
    if cfg.scheme == EXACT_Y:
        assert np.array_equal(np.exp(ctx.path_block(0, cfg.paths)[0]), y)  # the paths are unchanged
    else:
        assert 0.0 < alive.mean() < 1.0
    expected = {"kernel": _reference_kernel_samples(spec, ctx, y, alive)}
    expected["mortality"], died = _reference_mortality_samples(spec, ctx, y, alive, cfg.seed)
    assert died > 0
    run = {"kernel": estimate_J_kernel, "mortality": estimate_J_mortality}
    for estimator in estimators:
        captured.clear()
        if cfg.scheme == EULER:
            with pytest.warns(UserWarning, match="rejection"):
                run[estimator](spec, a_curve, b_curve, 0.0, 1.0, cfg)
        else:
            run[estimator](spec, a_curve, b_curve, 0.0, 1.0, cfg)
        (got,) = captured
        ref = expected[estimator]
        assert got.shape == ref.shape and np.all(np.isfinite(ref))
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13, estimator


@pytest.mark.parametrize("name, dt", [("exp1", 1e-3), ("experiment", 4e-3)])
def test_kernel_mean_matches_moment_oracle(exp1_spec, experiment_spec, name, dt):
    # Under exact_y, log Y_k is normal with mean log y0 + D_k and variance
    # kappa^2 tau_k, so E[Y_k^gamma] = y0^gamma exp(gamma D_k + gamma^2 kappa^2 tau_k / 2)
    # and the estimator's mean is the node-weighted sum of these moments.
    spec = exp1_spec if name == "exp1" else experiment_spec
    grid = solve_a(spec, 1000)
    b = b_function(spec)
    cfg = SimConfig(100_000, 20240901, dt)
    ctx = sim_module._SimContext(spec, grid.a_curve, b, 0.0, 1.0, cfg)
    weights, offset = sim_module._kernel_weights(ctx)
    g, tau = ctx.gamma, ctx.times - ctx.t0
    moments = ctx.y0**g * np.exp(g * ctx.log_drift_prefix + 0.5 * g * g * ctx.kappa**2 * tau)
    oracle = offset + weights @ moments
    est = estimate_J_kernel(spec, grid.a_curve, b, 0.0, 1.0, cfg)
    assert abs(est.mean - oracle) <= 3.0 * est.std_error, (est.mean, oracle, est.std_error)


def test_fixed_point_smoke(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    rep = verify_fixed_point(exp1_spec, a_curve, b_curve, 0.0, 1.0, CFG)
    assert abs(rep.z_score) <= 4.0  # loose at unit-test path counts
    assert rep.j_estimate.paths_used == CFG.paths


def test_fixed_point_single_path_is_no_evidence(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    rep = verify_fixed_point(exp1_spec, a_curve, b_curve, 0.0, 1.0, SimConfig(1, 424242, 2e-3))
    assert rep.j_estimate.paths_used == 1
    assert math.isnan(rep.z_score)
    assert not rep.passed


def test_fixed_point_refuses_log_branch(log_spec):
    with pytest.raises(ValidationError, match="polic"):
        verify_fixed_point(log_spec, lambda t: 1.0, lambda t: 0.0, 0.0, 1.0, CFG)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(paths=0, seed=1, dt=1e-3)
    with pytest.raises(ValidationError):
        SimConfig(paths=10, seed=1, dt=0.0)
    with pytest.raises(ValidationError):
        SimConfig(paths=10, seed=1, dt=1e-3, scheme="milstein")


def test_start_state_validation(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    with pytest.raises(ValidationError, match="floor"):
        simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 0.0, CFG)  # x0 + b = 0
    with pytest.raises(ValidationError, match="dt"):
        simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, SimConfig(10, 1, 0.2))
    with pytest.raises(ValidationError):
        simulate_wealth(exp1_spec, a_curve, b_curve, 1.0, 1.0, CFG)  # t0 = T
