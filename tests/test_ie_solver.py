"""Backward scheme, interpolation, convergence, and comparison bounds."""

import dataclasses
import math
import warnings
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcpolicy import (
    AffineExponential,
    AffineHazard,
    ConstantHazard,
    ConstantPayout,
    ConstantWeight,
    Exponential,
    Hyperbolic,
    InsuranceIncomeSpec,
    LogTaperWeight,
    MarketParams,
    ModelSpec,
    PreferenceParams,
    SumOfExponentials,
    ValidationError,
    check_assumption_a1,
    constant_K,
    weight_M,
)
from tcpolicy import closed_form
from tcpolicy.cli import parse_config
from tcpolicy.closed_form import a_exponential
from tcpolicy.ie_solver import (
    _BLOCK,
    _MAX_LOG_DRIFT,
    _MAX_STIFFNESS,
    AssumptionViolatedError,
    BoundsReport,
    SchemeBreakdownError,
    _ExponentialSum,
    _SchemeTables,
    a_priori_bounds,
    convergence_report,
    solve_a,
)
from tcpolicy.model import legacy_hazard_weight

from conftest import make_hyperbolic_spec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _no_insurance_spec(market, rho=0.1, gamma=-1.0, n=1.0, horizon=1.0):
    return ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(rho),
        prefs=PreferenceParams(
            gamma=gamma, n=n, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(rho)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# solve_a
# ---------------------------------------------------------------------------


def test_terminal_values_bit_exact(exp1_spec):
    grid = solve_a(exp1_spec, 64)
    assert grid.a_values[0] == exp1_spec.prefs.n
    assert grid.A_values[0] == 1.0
    assert grid.times[0] == exp1_spec.horizon
    assert grid.times[-1] == 0.0
    assert grid.epsilon == -exp1_spec.horizon / 64


def test_solution_grid_arrays_read_only(exp1_spec):
    grid = solve_a(exp1_spec, 16)
    for values in (grid.times, grid.a_values, grid.A_values):
        with pytest.raises(ValueError, match="read-only"):
            values[1] = 0.5


def test_exp1_matches_closed_form(exp1_spec):
    grid = solve_a(exp1_spec, 500)
    ref = a_exponential(exp1_spec, grid.times)
    assert np.max(np.abs(grid.a_values - ref) / ref) < 5e-3


def test_no_insurance_matches_closed_form(market):
    spec = _no_insurance_spec(market)
    grid = solve_a(spec, 500)
    ref = a_exponential(spec, grid.times)
    assert np.max(np.abs(grid.a_values - ref) / ref) < 5e-3


# max relative error against a_log at t = 0, T/4, T/2, 3T/4, T measured at N = 1000
@pytest.mark.parametrize("config, err_1000", [("exp1", 2.59e-5), ("experiment", 3.12e-4), ("hump_k5_n10", 6.98e-3)])
def test_log_utility_converges_to_a_log(config, err_1000):
    # at gamma = 0 the march solves log utility's equation: K = 0, A = 1
    spec = parse_config((CONFIGS / f"{config}.cfg").read_text()).spec
    spec = dataclasses.replace(spec, prefs=dataclasses.replace(spec.prefs, gamma=0.0))
    times = spec.horizon * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    ref = np.array([closed_form.a_log(spec, t) for t in times])
    grids = [solve_a(spec, N) for N in (1000, 2000, 4000)]
    err = [float(np.max(np.abs(grid.interpolate(times) - ref) / ref)) for grid in grids]
    assert err[0] <= 1.5 * err_1000
    assert 1.9 <= err[0] / err[1] <= 2.1 and 1.9 <= err[1] / err[2] <= 2.1
    grid = grids[0]
    assert np.all(grid.A_values == 1.0)
    rep = a_priori_bounds(spec)
    assert np.all(rep.lower_curve(grid.times) <= grid.a_values)
    assert np.all(grid.a_values <= rep.upper_curve(grid.times))


def test_experiment_runs_positive(experiment_spec):
    grid = solve_a(experiment_spec, 200)
    assert np.all(grid.a_values > 0.0)
    assert np.all(grid.A_values > 0.0)


def test_all_iterates_positive(exp1_spec):
    grid = solve_a(exp1_spec, 128)
    assert np.all(grid.a_values > 0.0)
    assert np.all(grid.A_values > 0.0)


def test_refusals(exp1_spec, market):
    with pytest.raises(ValidationError):
        solve_a(exp1_spec, 1)
    failing = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(0.1),
        prefs=PreferenceParams(
            gamma=0.9, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(5.0)),
        horizon=1.0,
    )
    with pytest.raises(AssumptionViolatedError, match="min"):
        solve_a(failing, 100)


def test_a1_refusal_prints_the_a1_margin(exp1_spec):
    # m(0) = 2 at gamma = 0.9: w = m(0)^10 = 1024 weighs the hazard, and the
    # message named the margin "1 - gamma M + lambda"
    prefs = dataclasses.replace(exp1_spec.prefs, gamma=0.9, m_weight=ConstantWeight(2.0))
    insurance = InsuranceIncomeSpec(payout=ConstantPayout(5.0))
    spec = dataclasses.replace(exp1_spec, prefs=prefs, insurance=insurance)
    margin = check_assumption_a1(spec).min_value
    assert margin < 0.0 and margin != 1.0 - 0.9 * weight_M(prefs, insurance, 0.0) + 0.02
    with pytest.raises(AssumptionViolatedError) as err:
        solve_a(spec, 100)
    assert str(err.value) == (
        f"positivity assumption fails: min(1 + w lambda(t) - gamma M(t)) = {margin:.6g} < 0 "
        "with w = m(0)^(1/(1-gamma))"
    )


@pytest.mark.parametrize(
    "call, N, minimum",
    [
        (solve_a, 1000.0, 2),
        (solve_a, 2.5, 2),
        (closed_form.solve_b, 2.5, 2),
        (closed_form.b_function, 1, 2),
        (closed_form.b_function, 2.5, 2),
        (convergence_report, 4.0, 4),
        (convergence_report, 3, 4),
    ],
)
def test_grid_size_must_be_an_integer(exp1_spec, call, N, minimum):
    # a float N raised TypeError from range or linspace, and b_function,
    # exact on exp1, never looked at its N
    with pytest.raises(ValidationError, match=rf"{call.__name__}: N must be an integer >= {minimum}"):
        call(exp1_spec, N)


def test_grid_size_accepts_numpy_integers(exp1_spec):
    assert np.array_equal(solve_a(exp1_spec, np.int64(100)).a_values, solve_a(exp1_spec, 100).a_values)
    assert closed_form.b_function(exp1_spec, np.int32(2))(0.5) == closed_form.b_function(exp1_spec)(0.5)


def test_scheme_breakdown_reports_increase_N(market):
    # large step against a strong outflow drives the iterate negative
    spec = _no_insurance_spec(market, rho=2.0, horizon=50.0)
    with pytest.raises(SchemeBreakdownError, match="increase N"):
        solve_a(spec, 2)


def test_A_recursion_matches_trapezoid(exp1_spec):
    N = 400
    grid = solve_a(exp1_spec, N)
    gamma = exp1_spec.prefs.gamma
    from tcpolicy.model import weight_M

    g = gamma * grid.a_values ** (1.0 / (gamma - 1.0)) * weight_M(
        exp1_spec.prefs, exp1_spec.insurance, grid.times
    )
    h = exp1_spec.horizon / N
    # int_{t_n}^T with times decreasing: trapezoid over the first n panels
    integral = np.concatenate([[0.0], np.cumsum(0.5 * h * (g[:-1] + g[1:]))])
    expected = np.exp(integral)
    assert np.max(np.abs(grid.A_values - expected) / expected) < 5.0 / N


# ---------------------------------------------------------------------------
# The factored memory sum against the per-pair sum it replaced
# ---------------------------------------------------------------------------


def _per_pair_march(spec, N):
    """Reference march: the memory kernel L(t_j, t_n) formed pair by pair
    over j = 0..n-1 at every step, with the survival and Psi factors taken
    as ratios of exponentials (the form the factored sums replaced)."""
    T = spec.horizon
    prefs, ins = spec.prefs, spec.insurance
    gamma = prefs.gamma
    pow_ratio = gamma / (gamma - 1.0)
    pow_inv = 1.0 / (gamma - 1.0)
    K = constant_K(spec.market, gamma)
    eps = -T / N
    lam_weight = legacy_hazard_weight(prefs)
    q_weight = lam_weight / prefs.m0
    times = np.linspace(T, 0.0, N + 1)
    lags = np.linspace(0.0, T, N + 1)
    h_log = np.asarray(spec.discount.log_derivative(lags), dtype=float)
    h_val = np.asarray(spec.discount.value(lags), dtype=float)
    hbar_log = np.asarray(spec.hbar_log_derivative(lags[:N]), dtype=float)
    hbar_val = np.asarray(spec.hbar_value(lags[:N]), dtype=float)
    lam = np.asarray(spec.mortality.rate(times), dtype=float)
    M = np.asarray(weight_M(prefs, ins, times), dtype=float)
    inv_l = np.asarray(ins.payout.inverse(times), dtype=float)
    exp_neg_cumhaz = np.exp(-np.asarray(spec.mortality.cumulative(times), dtype=float))
    psi = K * times + gamma * ins.eta * np.asarray(ins.payout.integrated_inverse(times), dtype=float)
    exp_psi = np.exp(psi)

    a = np.empty(N + 1)
    A = np.empty(N + 1)
    a_pow = np.empty(N + 1)
    a[0] = prefs.n
    A[0] = 1.0
    for n in range(N):
        a_pow[n] = a[n] ** pow_ratio
        memory = 0.0
        if n > 0:
            surv = exp_neg_cumhaz[:n] / exp_neg_cumhaz[n]
            Q = h_val[n:0:-1] * surv
            q = q_weight * hbar_val[n:0:-1] * lam[:n] * surv
            bracket = (h_log[n] - h_log[n:0:-1]) * Q + (h_log[n] - hbar_log[n:0:-1]) * q
            L = bracket * (exp_psi[:n] / exp_psi[n])
            memory = float(np.sum(L * a_pow[:n] * (A[:n] / A[n])))
        drift = lam[n] - h_log[n] - K - gamma * ins.eta * inv_l[n]
        local = (gamma * M[n] - lam_weight * lam[n] - 1.0) * a_pow[n] + drift * a[n]
        a[n + 1] = a[n] + eps * (local + -eps * memory)
        A[n + 1] = A[n] - gamma * eps * a[n] ** pow_inv * M[n] * A[n]
    return a, A


def _mixed_kernel_spec():
    # distinct consumption and bequest kernels and m != 1: hbar != h and q_weight != 1
    hazard = AffineHazard(lambda0=0.01, lambda1=0.004)
    return ModelSpec(
        market=MarketParams(r=0.04, alpha=0.1, sigma=0.25),
        mortality=hazard,
        discount=SumOfExponentials(weight=0.4, r1=0.05, r2=0.6),
        prefs=PreferenceParams(
            gamma=-2.0,
            n=3.0,
            m_weight=ConstantWeight(2.0),
            bequest_discount=AffineExponential(a_coef=0.2, r_rate=0.5),
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(30.0), eta=0.8, income=0.0),
        horizon=5.0,
    )


# every (Pareto weight, h_hat) pair, the h part exponential, and an
# affine-exponential h, on the mixed spec's market, hazard and insurance
_WEIGHTS = {"constant": ConstantWeight(2.0), "log_taper": LogTaperWeight(5.0)}
_BEQUESTS = {
    "exponential": Exponential(0.3),
    "two_rate": SumOfExponentials(0.4, 0.05, 0.6),
    "hyperbolic": Hyperbolic.from_unit_value(5.0, 0.3),
    "affine": AffineExponential(0.2, 0.5),
}
_PAIRS = [f"{weight}-{bequest}" for weight in _WEIGHTS for bequest in _BEQUESTS] + ["affine_h"]


def _pair_spec(pair):
    spec = _mixed_kernel_spec()
    if pair == "affine_h":
        return dataclasses.replace(spec, discount=AffineExponential(0.3, 0.4))
    weight, bequest = pair.split("-")
    prefs = dataclasses.replace(spec.prefs, m_weight=_WEIGHTS[weight], bequest_discount=_BEQUESTS[bequest])
    return dataclasses.replace(spec, discount=Exponential(0.1), prefs=prefs)


@pytest.mark.parametrize(
    "config, N",
    [(config, N) for config in ("exp1", "experiment", "hump_k5_n10", "mixed") for N in (400, 4000)]
    + [(pair, 400) for pair in _PAIRS],
)
def test_factored_memory_matches_per_pair_sum(config, N):
    if config == "mixed":
        spec = _mixed_kernel_spec()
        assert legacy_hazard_weight(spec.prefs) / spec.prefs.m0 != 1.0  # q_weight
    elif config in _PAIRS:
        spec = _pair_spec(config)
        assert _SchemeTables(spec, N).parts
    else:
        spec = parse_config((CONFIGS / f"{config}.cfg").read_text()).spec
    ref_a, ref_A = _per_pair_march(spec, N)
    grid = solve_a(spec, N)
    # the pairs measured at most 1.6e-15 for a and 6.0e-15 for A, the log
    # taper times the hyperbolic h_hat (36 432 terms) included
    assert np.max(np.abs(grid.a_values - ref_a) / ref_a) <= 1e-13
    assert np.max(np.abs(grid.A_values - ref_A) / ref_A) <= 1e-13


def _on_horizon(spec, horizon):
    """The spec on another horizon, a log taper's with it."""
    m_weight = spec.prefs.m_weight
    if isinstance(m_weight, LogTaperWeight):
        m_weight = dataclasses.replace(m_weight, horizon=horizon)
    return dataclasses.replace(spec, horizon=horizon, prefs=dataclasses.replace(spec.prefs, m_weight=m_weight))


@pytest.mark.parametrize("N", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("config", ["experiment", "hump_k5_n10", "mixed"])
def test_block_edges_match_per_pair_sum(config, N):
    # grids shorter than a block, ending on a block edge or next to one,
    # and with a last, partial block; each takes N steps of the config's
    # own T/1000 (its whole horizon in two steps breaks down)
    spec = _mixed_kernel_spec() if config == "mixed" else parse_config((CONFIGS / f"{config}.cfg").read_text()).spec
    spec = _on_horizon(spec, N * spec.horizon / 1000)
    assert any(isinstance(part, _ExponentialSum) for part in _SchemeTables(spec, N).parts)
    ref_a, ref_A = _per_pair_march(spec, N)
    grid = solve_a(spec, N)
    assert np.max(np.abs(grid.a_values - ref_a) / ref_a) <= 1e-13
    assert np.max(np.abs(grid.A_values - ref_A) / ref_A) <= 1e-13


def _offsets(spec, N):
    """The node offsets d = h'/h - h'/h(0) at lags 0..N, and h'/h(0)."""
    h_log = np.asarray(spec.discount.log_derivative(np.linspace(0.0, spec.horizon, N + 1)), dtype=float)
    return h_log - h_log[0], float(h_log[0])


def _hbar_offsets(spec, lags, c):
    """dbar = m'/m + (h_hat'/h_hat - c) at the lags, as the scheme tables
    form it: an h_hat equal to h leaves m'/m unrounded."""
    return spec.prefs.m_weight.log_derivative(lags) + (spec.prefs.bequest_discount.log_derivative(lags) - c)


@pytest.mark.parametrize(
    "config, h_part, hbar_part",
    [
        ("exp1", None, None),  # h = h_hat exponential: both parts vanish
        ("experiment", None, _ExponentialSum),  # log taper times an exponential h_hat
        ("hump_k5_n10", _ExponentialSum, None),  # no hazard: the hbar part vanishes
        ("mixed", _ExponentialSum, _ExponentialSum),  # two-rate h, affine-exponential h_hat
    ],
)
def test_memory_part_representations(config, h_part, hbar_part):
    if config == "mixed":
        spec = _mixed_kernel_spec()
    else:
        spec = parse_config((CONFIGS / f"{config}.cfg").read_text()).spec
    N = 100
    tab = _SchemeTables(spec, N)
    T, step = spec.horizon, spec.horizon / N
    lags = np.linspace(0.0, T, N + 1)
    d, c = _offsets(spec, N)
    # an exponential sum keeps the k row only where d does not vanish
    live_d = memoryview(d) if np.any(d) else None
    ones = memoryview(np.ones(N + 1))
    q_lam = memoryview(legacy_hazard_weight(spec.prefs) / spec.prefs.m0 * spec.mortality.rate(tab.times))
    # what each part would be built from, and its per-node multiplier; an
    # exponential sum's near rows are the exact lag rows inside one block
    expected = []
    h_val = spec.discount.value(lags)
    h_rows = np.stack([h_val, d * h_val])
    if h_part is _ExponentialSum:
        terms = spec.discount.exponential_sum(T, step)
        expected.append(_ExponentialSum(*terms, c, step, N, h_rows[:, :_BLOCK], live_d, ones))
    hbar_val = spec.hbar_value(lags[:N])
    hbar_rows = np.stack([hbar_val, _hbar_offsets(spec, lags[:N], c) * hbar_val])
    if hbar_part is _ExponentialSum:
        terms = spec.hbar_exponential_sum(step)
        expected.append(_ExponentialSum(*terms, c, step, N, hbar_rows[:, :_BLOCK], live_d, q_lam))
    assert len(tab.parts) == len(expected)
    for part, want in zip(tab.parts, expected):
        assert type(part) is type(want)
        assert np.array_equal(part.rows, want.rows)
        assert np.array_equal(np.array(part.weight), np.array(want.weight))
        if live_d is not None:
            assert np.array_equal(np.array(part.d), d)
        assert part.near == want.near
        assert np.array_equal(part.spread, want.spread)
        # experiment's h is exponential: d = 0 leaves the d k row alone
        assert (part.d is None) == (config == "experiment")
        width = _BLOCK if part.d is None else 2 * _BLOCK
        assert part.spread.shape == (part.rate.size, width) and len(part.far) == width
        assert np.array_equal(part.spread, part._spread(_BLOCK)[:, part.columns])


def test_exponential_d_weights_exactly_zero():
    # h'/h - c = 0 at every lag: the d row and the far sums it gives are 0
    nodes = memoryview(np.zeros(101))
    for rho in (0.0, 0.1, 0.8, 3.7):
        terms = Exponential(rho).exponential_sum(1.0, 0.01)
        part = _ExponentialSum(*terms, -rho, 0.01, 100, np.zeros((2, _BLOCK)), nodes, nodes)
        assert part.rows.shape == (2, 1) and part.rows[1, 0] == 0.0
        assert np.all(part.spread[:, 1::2] == 0.0)


# ---------------------------------------------------------------------------
# The march against the driver it replaced: each part read through sums and
# add, with both lag rows, and the memory step written apart from the loop
# ---------------------------------------------------------------------------


class _ReferenceExponentialSum:
    def __init__(self, w, r, c, step, N, near):
        B = _BLOCK
        self.rows = np.stack([w, w * (-r - c)])
        self.rate, self.step, self.N = r, step, N
        # a term grows or decays with the lag by the sign of Re r
        grows = self.grows = r.real < 0.0
        self.growth = np.where(grows, r, 0.0) if np.any(grows) else None
        m = np.arange(B)
        rate = r[:, None]
        self.carry = np.exp(-np.where(grows, 0.0, r) * (B * step))
        self.fold = np.exp(np.where(grows[:, None], rate * m, -rate * (B - m)) * step)
        self.spread = self._spread(B)
        self.state = np.zeros(r.size, self.rows.dtype)
        self.near = [(near[0, p:0:-1].tolist(), near[1, p:0:-1].tolist()) for p in range(min(B, near.shape[1]))]
        self.block = [0.0] * B
        self.far = [0.0] * (2 * B)

    def _spread(self, q):
        m = np.arange(q)
        rate = self.rate[:, None]
        factor = np.exp(np.where(self.grows[:, None], rate * (q - 1 - m), -rate * m) * self.step)
        return (factor[:, :, None] * self.rows.T[:, None, :]).reshape(self.rate.size, 2 * q)

    def _start_block(self, b):
        taken = self.fold @ self.block
        q = min(_BLOCK, self.N - b)
        state = self.state
        state *= self.carry
        if self.growth is None:
            state += taken
        else:
            state += np.exp(self.growth * ((b - _BLOCK) * self.step)) * taken
            state = state * np.exp(self.growth * ((self.N - b - q + 1) * self.step))
        self.far = (state @ (self.spread if q == _BLOCK else self._spread(q))).real.tolist()

    def sums(self, n):
        p = n % _BLOCK
        if not p:
            self._start_block(n)
        k, dk = self.near[p]
        x, far = self.block, self.far
        return far[2 * p] + sum(map(mul, k, x)), far[2 * p + 1] + sum(map(mul, dk, x))

    def add(self, n, x):
        self.block[n % _BLOCK] = x

    def rescale(self, shift):
        self.state *= shift
        self.block = [x * shift for x in self.block]
        self.far = [v * shift for v in self.far]


def _reference_parts(spec, N):
    """The parts the march keeps, each with both lag rows, paired with its
    per-node multiplier."""
    T, step = spec.horizon, spec.horizon / N
    lags = np.linspace(0.0, T, N + 1)
    d, c = _offsets(spec, N)
    dbar = _hbar_offsets(spec, lags[:N], c)
    lam = np.asarray(spec.mortality.rate(np.linspace(T, 0.0, N + 1)), dtype=float)
    q_weight = legacy_hazard_weight(spec.prefs) / spec.prefs.m0
    parts = []
    for kept, terms_of, value, offset, weight in (
        (np.any(d), lambda: spec.discount.exponential_sum(T, step), spec.discount.value, d, np.ones(N + 1)),
        ((np.any(d) or np.any(dbar)) and np.any(lam), lambda: spec.hbar_exponential_sum(step),
         spec.hbar_value, dbar, q_weight * lam),
    ):
        if kept:
            n_lags = min(_BLOCK, offset.size)
            values = np.asarray(value(lags[:n_lags]), dtype=float)
            rows = np.stack([values, offset[:n_lags] * values])
            parts.append((_ReferenceExponentialSum(*terms_of(), c, step, N, rows), memoryview(weight)))
    return parts, memoryview(d)


def _reference_march(spec, N):
    """a and A from the node tables of ``_SchemeTables`` and the parts of
    ``_reference_parts``, the memory sum taken by a step of its own."""
    tab = _SchemeTables(spec, N)
    parts, d = _reference_parts(spec, N)
    ref = 0.0

    def step(n, a_pow_n, log_A_n):
        nonlocal ref
        if not parts:
            return 0.0
        log_scale = tab.e[n] + log_A_n
        if abs(log_scale - ref) > _MAX_LOG_DRIFT:
            shift = math.exp(ref - log_scale)
            for part, _ in parts:
                part.rescale(shift)
            ref = log_scale
        scale = math.exp(log_scale - ref)
        f_n = scale * a_pow_n
        bracket = 0.0
        for part, weight in parts:
            if n:
                k, dk = part.sums(n)
                bracket += d[n] * k - dk
            part.add(n, weight[n] * f_n)
        return bracket / scale

    eps, gamma = tab.epsilon, tab.gamma
    a = np.empty(N + 1)
    log_A = np.empty(N + 1)
    a_n = a[0] = float(spec.prefs.n)
    log_A_n = log_A[0] = 0.0
    for n in range(N):
        rate = a_n**tab.pow_inv
        a_pow = a_n * rate
        memory = step(n, a_pow, log_A_n)
        a_n = a[n + 1] = a_n + eps * (tab.coef[n] * a_pow + tab.drift[n] * a_n - eps * memory)
        log_A_n = log_A[n + 1] = log_A_n + math.log1p(-(gamma * eps * rate * tab.M[n]))
    return a, np.exp(log_A)


def _assert_bit_identical(spec, N):
    grid = solve_a(spec, N)
    ref_a, ref_A = _reference_march(spec, N)
    assert np.array_equal(grid.a_values, ref_a)
    assert np.array_equal(grid.A_values, ref_A)


@pytest.mark.parametrize("N", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 1000])
@pytest.mark.parametrize("config", ["exp1", "experiment", "hump_k5_n10", "mixed"])
def test_march_bit_identical_to_reference_driver(config, N):
    # each part's bracket, experiment's d k row alone, and the loop's own
    # memory step leave every addition and product as the reference makes
    # it; each grid takes N steps of the config's own T/1000
    spec = _mixed_kernel_spec() if config == "mixed" else parse_config((CONFIGS / f"{config}.cfg").read_text()).spec
    _assert_bit_identical(_on_horizon(spec, N * spec.horizon / 1000), N)


@pytest.mark.parametrize("bequest, N", [(Exponential(0.1), 2010), (AffineExponential(0.05, 0.1), 2000)])
def test_rescaled_march_bit_identical_to_reference_driver(market, bequest, N):
    # the log taper's exponential sum, d k row alone and rescaled mid-block,
    # times an exponential h_hat and times an affine-exponential one, whose
    # terms are complex, on T = 100 with hazard 2
    _assert_bit_identical(_tapering_long_horizon(market, bequest), N)


@pytest.mark.parametrize("q", range(1, _BLOCK + 1))
def test_d_k_row_alone_brackets_as_both_rows(experiment_spec, q):
    # experiment's hbar part with d = 0 on the grid, kept with its d k row
    # alone and with both rows, over three whole blocks and a last one of q
    # nodes: every bracket is the same, -d k against 0 k - d k
    N = 3 * _BLOCK + q
    spec = _on_horizon(experiment_spec, N * experiment_spec.horizon / 1000)
    step = spec.horizon / N
    lags = np.linspace(0.0, spec.horizon, N + 1)[:_BLOCK]
    d, c = _offsets(spec, N)
    assert not np.any(d)
    hbar = spec.hbar_value(lags)
    rows = np.stack([hbar, (spec.hbar_log_derivative(lags) - c) * hbar])
    weight = memoryview(np.linspace(0.5, 1.5, N + 1))
    terms = spec.hbar_exponential_sum(step)
    alone = _ExponentialSum(*terms, c, step, N, rows, None, weight)
    both = _ExponentialSum(*terms, c, step, N, rows, memoryview(d), weight)
    assert alone.spread.shape[1] == _BLOCK and both.spread.shape[1] == 2 * _BLOCK
    f = np.exp(np.sin(np.arange(N))).tolist()
    for n in range(N):
        assert alone.bracket(n, f[n]) == both.bracket(n, f[n])


@pytest.mark.parametrize("N", [1000, 100_000])
@pytest.mark.parametrize("horizon", [1.0, 4.0, 400.0])
@pytest.mark.parametrize(
    "k1, h1",
    [pytest.param(k1, 0.3, id=str(k1)) for k1 in (0.5, 5.0, 50.0)] + [pytest.param(50.0, 0.9, id="50.0-0.9")],
)
def test_hyperbolic_exponential_sum_fits_lag_grid(k1, h1, horizon, N):
    # h(1) = 0.3 gives p = k2/k1 = 2.97, 0.67 and 0.31, and h(1) = 0.9 at
    # k1 = 50 gives p = 0.027, whose flat tail of nodes merges into one
    # rate-0 term.  d h is the difference of terms of size |h'/h(0)| h, so
    # its error is measured against that size; it vanishes at lag 0.
    kernel = Hyperbolic.from_unit_value(k1, h1)
    step = horizon / N
    w, r = kernel.exponential_sum(horizon, step)
    c = -kernel.k2  # h'/h(0)
    p = kernel.k2 / k1
    lags = np.linspace(0.0, horizon, N + 1)[1:]
    for chunk in np.array_split(lags, max(1, N // 2000)):
        decay = np.exp(-np.outer(chunk, r))
        h = decay @ w
        dh = decay @ (w * (-r - c))
        h_ref = (1.0 + k1 * chunk) ** -p
        dh_ref = kernel.k2 * (h_ref - (1.0 + k1 * chunk) ** (-p - 1.0))
        assert np.max(np.abs(h - h_ref) / h_ref) <= 1e-14
        assert np.max(np.abs(dh - dh_ref) / (kernel.k2 * h_ref)) <= 1e-14


def test_hyperbolic_flat_tail_is_one_term():
    # p = k2/k1 = 0.027 puts thousands of nodes left of x = -42.7, each with
    # r T < 2^-54, where e^(-r t) rounds to 1: they merge into one rate-0
    # term, 5 887 -> 192 terms, and the log taper's product 1 183 287 -> 38 592
    kernel = Hyperbolic.from_unit_value(50.0, 0.9)
    w, r = kernel.exponential_sum(4.0, 0.004)
    assert w.size <= 250 and r[0] == 0.0 and np.all(r[1:] * 4.0 >= 2.0**-54)
    prefs = PreferenceParams(gamma=-1.0, n=1.0, m_weight=LogTaperWeight(4.0), bequest_discount=kernel)
    spec = ModelSpec(
        MarketParams(r=0.05, alpha=0.12, sigma=0.2), ConstantHazard(0.02), kernel, prefs,
        InsuranceIncomeSpec(payout=ConstantPayout(math.inf)), 4.0,
    )
    assert spec.hbar_exponential_sum(0.004)[0].size <= 45_000


def test_hyperbolic_large_k1_matches_per_pair_sum():
    # a draw of the property below that missed its old 2e-13 bound for
    # hyperbolic kernels at 3.4e-13 (1.42e-13 from these rounded values),
    # rounding spread over some 440 000 equal flat-tail terms: 1.58e-14 with
    # them merged
    kernel = Hyperbolic(30.42, 2.165)
    prefs = PreferenceParams(gamma=0.4528, n=6.139, m_weight=LogTaperWeight(6.98), bequest_discount=kernel)
    spec = ModelSpec(
        MarketParams(r=0.04, alpha=0.1, sigma=0.25), AffineHazard(0.0445, 0.0), kernel, prefs,
        InsuranceIncomeSpec(payout=ConstantPayout(60.28), eta=1.026), 6.98,
    )
    ref_a, ref_A = _per_pair_march(spec, 343)
    grid = solve_a(spec, 343)
    assert np.max(np.abs(grid.a_values - ref_a) / ref_a) <= 5e-14
    assert np.max(np.abs(grid.A_values - ref_A) / ref_A) <= 5e-14


@pytest.mark.parametrize("N", [1000, 100_000])
@pytest.mark.parametrize("horizon", [1.0, 4.0, 400.0])
@pytest.mark.parametrize("eps", [1e-15, 1e-6])
@pytest.mark.parametrize("rho", [0.0, 0.8, 5.0])
def test_log_taper_exponential_sum_fits_lag_grid(market, rho, eps, horizon, N):
    # hbar = m h_hat with the log taper m and h_hat = h = e^(-rho t), read
    # as the march reads it: a term of rate r < 0 as w e^(r (T - t)), so
    # that no factor exceeds 1, even at rho T = 2000.  Both sums are dot
    # products whose rounding scales with the size of their terms: for
    # hbar, the constant of about 39 + log(T/eps) cancels the node terms
    # down to m, as small as log(1 + step/eps) next to lag T; d hbar is
    # the difference of terms of size hbar/x and |c| hbar.  And e^(-rho t),
    # in the sum and the reference alike, carries the rounding of its
    # exponent, about rho t ulp.  Measured at most 1.0e-15 for hbar and
    # 6.7e-16 for d hbar against those sizes.
    h = Exponential(rho)
    prefs = PreferenceParams(gamma=-1.0, n=1.0, m_weight=LogTaperWeight(horizon, eps), bequest_discount=h)
    payout = InsuranceIncomeSpec(payout=ConstantPayout(math.inf))
    spec = ModelSpec(market, ConstantHazard(0.02), h, prefs, payout, horizon)
    step = horizon / N
    w, r = spec.hbar_exponential_sum(step)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(r))
    c = -rho  # h'/h(0)
    lags = np.linspace(0.0, horizon, N + 1)[1:N]  # the hbar rows stop one lag short of T
    for chunk in np.array_split(lags, max(1, N // 2000)):
        t = chunk[:, None]
        factor = np.exp(np.where(r < 0.0, r * (horizon - t), -r * t))
        assert np.all(factor <= 1.0)
        hbar = factor @ w
        dhbar = factor @ (w * (-r - c))
        x = (horizon - chunk) + eps
        h_ref = np.exp(-rho * chunk)
        hbar_ref = np.log(x / eps) * h_ref
        dhbar_ref = -h_ref / x  # (m h)' - c m h with c = -rho
        assert np.all(np.isfinite(hbar)) and np.all(np.isfinite(dhbar))
        normal = hbar_ref >= np.finfo(float).tiny  # e^(-rho t) underflows past rho t = 708
        if not np.any(normal):
            continue
        exponent = 1.0 + rho * chunk[normal]
        hbar_size = exponent * (factor[normal] @ np.abs(w))
        dhbar_size = exponent * (np.abs(dhbar_ref[normal]) + abs(c) * hbar_ref[normal])
        assert np.max(np.abs(hbar - hbar_ref)[normal] / hbar_size) <= 2e-15
        assert np.max(np.abs(dhbar - dhbar_ref)[normal] / dhbar_size) <= 2e-15


def _between(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_KERNELS = (
    st.builds(Exponential, _between(0.0, 2.0))
    | st.builds(SumOfExponentials, _between(0.0, 1.0), _between(0.0, 2.0), _between(0.0, 2.0))
    | st.builds(Hyperbolic.from_unit_value, _between(0.5, 50.0), _between(0.1, 0.9))
    | st.builds(lambda rate, u: AffineExponential(rate * u, rate), _between(0.0, 2.0), _between(0.0, 1.0))
)


@st.composite
def _marches(draw):
    """A spec with kernels of the four families and a constant or tapering
    Pareto weight, and a grid of at most 400 steps, each at most 0.05 long
    and at most 0.05 over the largest discount rate and over the rate
    |gamma| M n^(1/(gamma-1)) at which A starts to decay (the explicit step
    is stable), and fine enough that the error (step/2) int rate^2 of log A,
    taken at that rate, is at most 0.1: a larger error on A inflates the
    ratios A_j/A_n of the memory term until a turns negative.  With that
    rate as a_decay the bound is N >= 5 (T a_decay)^2, so at most 400 steps
    need T a_decay <= sqrt(80).  Log utility (gamma = 0) is drawn too; its A
    does not decay, so a_decay = 0 bounds no horizon."""
    discount = draw(_KERNELS)
    bequest = draw(st.just(discount) | _KERNELS)
    r = draw(_between(0.0, 0.08))
    market = MarketParams(r=r, alpha=r + draw(_between(0.02, 0.15)), sigma=draw(_between(0.1, 0.4)))
    mortality = draw(
        st.builds(ConstantHazard, _between(0.0, 0.1))
        | st.builds(AffineHazard, _between(0.0, 0.05), _between(0.0, 0.01))
    )
    gamma = draw(_between(-3.0, -0.05) | st.just(0.0) | _between(0.05, 0.5))
    n = draw(_between(0.5, 10.0))
    m0 = draw(_between(0.5, 2.0) | st.none())  # None: a tapering weight, m(0) < 38 for T <= 20
    payout = draw(st.builds(ConstantPayout, _between(1.0, 100.0)) | st.just(ConstantPayout(math.inf)))
    insurance = InsuranceIncomeSpec(payout=payout, eta=draw(_between(0.5, 1.5)))
    M = 1.0 + payout.inverse(0.0) * (38.0 if m0 is None else m0) ** (1.0 / (1.0 - gamma))
    a_decay = abs(gamma) * M * n ** (1.0 / (gamma - 1.0))
    rate = max(1.0, -discount.log_derivative(0.0), -bequest.log_derivative(0.0), a_decay)
    horizon = min(draw(_between(0.5, 20.0)) / rate, math.sqrt(80.0) / a_decay if a_decay else math.inf)
    m_weight = LogTaperWeight(horizon) if m0 is None else ConstantWeight(m0)
    prefs = PreferenceParams(gamma=gamma, n=n, m_weight=m_weight, bequest_discount=bequest)
    spec = ModelSpec(market, mortality, discount, prefs, insurance, horizon)
    n_min = max(50, math.ceil(20.0 * horizon * rate), math.ceil(5.0 * (horizon * a_decay) ** 2))
    return spec, draw(st.integers(min(400, n_min), 400))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_marches())
def test_march_matches_per_pair_sum_property(case):
    # measured over 2000 generation-only draws, 656 of them with a
    # hyperbolic kernel: at most 8.1e-14 with a hyperbolic kernel, whose
    # flat tail of nodes is one rate-0 term (5.8e-13 while it was thousands
    # of equal terms), and 1.5e-14 for the others; the largest miss of
    # another 2000 draws, 8.9e-14, is in A and the same before the merge.
    # Run for 2000 draws, this generation reads at most 3.6e-14 in a and
    # 1.9e-14 in A, margins of 2.7x and 5.1x; the 8.9e-14 leaves 1.1x.  The
    # error in A is the rounding of the march's running sum of log1p terms,
    # up to half an ulp of log A per step: at that 1.9e-14 (log A = 36.4,
    # N = 381) the march's A is 2.7e-14 off a 40-digit product of its own
    # steps, all of it in that sum, and the reference's 7.2e-15.
    # The envelopes hold up to 3.0 times the first-order error estimate
    # |a_N - a_2N| (the lower one is the exact solution when rho = lambda = 0)
    spec, N = case
    assume(check_assumption_a1(spec).holds)
    grid = solve_a(spec, N)
    assert np.all(grid.a_values > 0.0) and np.all(grid.A_values > 0.0)
    ref_a, ref_A = _per_pair_march(spec, N)
    assert np.max(np.abs(grid.a_values - ref_a) / ref_a) <= 1e-13
    assert np.max(np.abs(grid.A_values - ref_A) / ref_A) <= 1e-13
    rep = a_priori_bounds(spec)
    tol = 10.0 * np.abs(grid.a_values - solve_a(spec, 2 * N).a_values[::2]) + 1e-12 * grid.a_values
    assert np.all(grid.a_values >= rep.lower_curve(grid.times) - tol)
    with np.errstate(over="ignore"):
        assert np.all(grid.a_values <= rep.upper_curve(grid.times) + tol)


def test_march_breaks_down_when_log_A_error_is_large():
    # a draw that bounding step x rate alone admits: a two-rate kernel with
    # a non-decaying tail of weight 1e-5 while A falls to e^-13.7, so the
    # memory term's ratios A_j/A_n reach 1e6.  At N = 382 the error
    # (step/2) int rate^2 of log A is about 0.3 and a turns negative; at the
    # N >= 5 (T a_decay)^2 that bounds it by 0.1 the march solves
    kernel = SumOfExponentials(0.99999, 1.263, 0.0)
    prefs = PreferenceParams(gamma=-1.95, n=5.62, m_weight=ConstantWeight(1.0), bequest_discount=kernel)
    market = MarketParams(r=0.04, alpha=0.12, sigma=0.2)
    insurance = InsuranceIncomeSpec(payout=ConstantPayout(math.inf))
    spec = ModelSpec(market, ConstantHazard(0.046), kernel, prefs, insurance, 14.37)
    a_decay = 1.95 * 5.62 ** (1.0 / (-1.95 - 1.0))
    assert check_assumption_a1(spec).holds and 382 >= 20.0 * 14.37 * max(1.263, a_decay)
    with pytest.raises(SchemeBreakdownError, match="increase N"):
        solve_a(spec, 382)
    grid = solve_a(spec, math.ceil(5.0 * (14.37 * a_decay) ** 2))
    assert np.all(grid.a_values > 0.0) and np.all(grid.A_values > 0.0)


# ---------------------------------------------------------------------------
# Long horizons: the exponential factors stay in log space
# ---------------------------------------------------------------------------


def _long_horizon(spec, horizon, hazard, discount=None):
    discount = discount or spec.discount
    return dataclasses.replace(
        spec,
        horizon=horizon,
        mortality=ConstantHazard(hazard),
        discount=discount,
        prefs=dataclasses.replace(spec.prefs, bequest_discount=discount),
    )


@pytest.mark.parametrize("horizon, hazard", [(400.0, 2.0), (1000.0, 1.0), (400.0, 4.0)])
def test_long_horizon_matches_closed_form(exp1_spec, horizon, hazard):
    # Lambda(T) = 800, 1000, 1600: e^(-Lambda) underflows.  exp1 keeps no
    # memory part, so no node weight is formed and none is rescaled here
    # (see test_affine_taper_sum_rescaled_on_long_horizon).  The first-order error
    # measures 0.13, 0.07 and 0.21 T/N.
    spec = _long_horizon(exp1_spec, horizon, hazard)
    N = 4000
    grid = solve_a(spec, N)
    ref = a_exponential(spec, grid.times)
    assert np.max(np.abs(grid.a_values - ref) / ref) <= 0.3 * horizon / N
    assert np.all(grid.A_values > 0.0)


def _tapering_long_horizon(market, bequest):
    # hazard 2 over T = 100: the node weights' exponent e + log A drifts past
    # _MAX_LOG_DRIFT, so the memory parts are rescaled during the march
    return ModelSpec(
        market=market,
        mortality=ConstantHazard(2.0),
        discount=Exponential(0.1),
        prefs=PreferenceParams(gamma=-1.0, n=1.0, m_weight=LogTaperWeight(100.0), bequest_discount=bequest),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=100.0,
    )


def _spy_rescale(monkeypatch, part_type):
    # the node n of each rescale: step n rescales a part after its brackets
    # of nodes 0..n-1 and before that of node n
    calls, bracketed = [], {}
    rescale, bracket = part_type.rescale, part_type.bracket

    def spy_bracket(self, n, f_n):
        bracketed[id(self)] = n + 1
        return bracket(self, n, f_n)

    def spy_rescale(self, shift):
        calls.append(bracketed[id(self)])
        rescale(self, shift)

    monkeypatch.setattr(part_type, "bracket", spy_bracket)
    monkeypatch.setattr(part_type, "rescale", spy_rescale)
    return calls


def test_affine_taper_sum_rescaled_on_long_horizon(market, monkeypatch):
    # the log taper times an affine-exponential h_hat: an exponential sum
    # with complex rates, rescaled once, at the node a lag table of every
    # lag was rescaled at
    spec = _tapering_long_horizon(market, AffineExponential(0.05, 0.1))
    (part,) = _SchemeTables(spec, 2000).parts
    assert np.iscomplexobj(part.rate)
    calls = _spy_rescale(monkeypatch, _ExponentialSum)
    N = 2000
    grid = solve_a(spec, N)
    assert calls == [1038]
    ref_a, ref_A = _per_pair_march(spec, N)
    # measured 1.1e-15 for a and 5.2e-13 for A: the reference multiplies A
    # in value space, one rounding per step over 2000 steps (4.4e-13), where
    # the march adds log1p terms
    assert np.max(np.abs(grid.a_values - ref_a) / ref_a) <= 1e-13
    assert np.max(np.abs(grid.A_values - ref_A) / ref_A) <= 1e-12


def test_log_taper_sum_rescaled_mid_block_on_long_horizon(market, monkeypatch):
    # the log taper times an exponential h_hat is an exponential sum with
    # growing terms; at N = 2010 the rescale lands at node 1045, inside a
    # block, where the states, the block's far sums and its stored nodes
    # are all scaled
    spec = _tapering_long_horizon(market, Exponential(0.1))
    calls = _spy_rescale(monkeypatch, _ExponentialSum)
    N = 2010
    grid = solve_a(spec, N)
    assert calls and any(n % _BLOCK for n in calls)
    ref_a, ref_A = _per_pair_march(spec, N)
    # measured 3.2e-16 for a and 4.4e-13 for A (A as in the affine test above)
    assert np.max(np.abs(grid.a_values - ref_a) / ref_a) <= 1e-13
    assert np.max(np.abs(grid.A_values - ref_A) / ref_A) <= 1e-12


def test_long_horizon_hyperbolic_inside_envelopes(exp1_spec):
    spec = _long_horizon(exp1_spec, 400.0, 2.0, Hyperbolic.from_unit_value(5.0, 0.3))
    grid = solve_a(spec, 4000)
    assert np.all(np.isfinite(grid.a_values)) and np.all(grid.a_values > 0.0)
    rep = a_priori_bounds(spec)
    tol = 1e-12 * grid.a_values
    assert np.all(grid.a_values >= rep.lower_curve(grid.times) - tol)
    assert np.all(grid.a_values <= rep.upper_curve(grid.times) + tol)


def test_long_horizon_two_rate_inside_envelopes(exp1_spec):
    # exp1 at T = 400 with h = h_hat = (e^(-2t) + e^(-3t))/2: both sums of
    # h'/h underflowed past a lag of 373, the march broke down at step 3722
    # with a nan and the envelopes read rho = nan
    spec = _long_horizon(exp1_spec, 400.0, 0.02, SumOfExponentials(0.5, 2.0, 3.0))
    grid = solve_a(spec, 4000)
    assert np.all(np.isfinite(grid.a_values)) and np.all(grid.a_values > 0.0)
    rep = a_priori_bounds(spec)
    assert rep.rho == 2.5
    assert np.all(grid.a_values >= rep.lower_curve(grid.times))
    assert np.all(grid.a_values <= rep.upper_curve(grid.times))


def test_long_horizon_A_underflow_leaves_a_unchanged():
    # hump_k5_n10 at hazard 1: A(0) underflows the double range at T = 2000.
    # The march depends only on T - t, so doubling T at the same step must
    # repeat the shorter march node for node, and a(0) may move only by the
    # plateau's own drift (3.8e-4).  Carried as a value, A sticks at the
    # subnormal 2e-323 and a(0) comes out 18% high.
    spec = parse_config((CONFIGS / "hump_k5_n10.cfg").read_text()).spec
    spec = dataclasses.replace(spec, mortality=ConstantHazard(1.0))
    short = solve_a(dataclasses.replace(spec, horizon=1000.0), 4000)
    long = solve_a(dataclasses.replace(spec, horizon=2000.0), 8000)
    assert np.max(np.abs(long.a_values[:4001] / short.a_values - 1.0)) <= 1e-12
    assert abs(long.a_values[-1] / short.a_values[-1] - 1.0) <= 1e-3


@pytest.mark.parametrize("N, value", [(1000, r"1\.36\d*e\+10"), (16000, r"8\.5\d*e\+08")])
def test_stiff_terminal_layer_refused(experiment_spec, N, value):
    # gamma = 0.9: w = m(0)^10 = 3.6e15 puts the A1 margin near 3e12, and
    # the first step carried a from 1 to 1.4e10 (a(0) = 6.0e9 at N = 1000,
    # against envelopes of [9.55, 31.7] at t = 3.996) with no breakdown
    spec = dataclasses.replace(experiment_spec, prefs=dataclasses.replace(experiment_spec.prefs, gamma=0.9))
    assert check_assumption_a1(spec).holds
    with pytest.raises(SchemeBreakdownError, match=rf"stiff terminal layer at step 1 \(t = .*= {value} > 10; increase N"):
        solve_a(spec, N)


def test_configs_and_acceptance_specs_not_stiff(market):
    # the largest step |coef| a^(1/(g-1)) measured at the configs' grid.N:
    # 0.0020 (exp1, stationary), 0.0085 (experiment), 0.0034 (hump_k5_n10),
    # at most 0.0035 on the c6 specs; at most 1.0 over every solve of the suite
    cases = []
    for name in ("exp1", "experiment", "hump_k5_n10", "stationary"):
        rc = parse_config((CONFIGS / f"{name}.cfg").read_text())
        cases.append((rc.spec, rc.grid_n))
    cases += [(make_hyperbolic_spec(market, k1, n), 1000) for k1 in (5.0, 10.0, 15.0) for n in (10.0, 30.0)]
    cases.append((_no_insurance_spec(market, rho=0.8, n=10.0, horizon=4.0), 1000))  # c6's control
    for spec, N in cases:
        grid = solve_a(spec, N)
        tab = _SchemeTables(spec, N)
        stiffness = spec.horizon / N * np.abs(np.asarray(tab.coef)[:N]) * grid.a_values[:N] ** tab.pow_inv
        assert np.max(stiffness) <= 1e-3 * _MAX_STIFFNESS


def test_nonfinite_iterate_reported_as_overflow():
    # gamma = 0.5 with a tiny volatility: K = 24.5, so a(t) grows like
    # e^(24.4 (T - t)) and leaves the double range well before t = 0
    h = Exponential(0.1)
    spec = ModelSpec(
        market=MarketParams(r=0.05, alpha=0.12, sigma=0.01),
        mortality=ConstantHazard(0.0),
        discount=h,
        prefs=PreferenceParams(gamma=0.5, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=h),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=40.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the breakdown is the report, not a numpy warning
        with pytest.raises(SchemeBreakdownError, match="overflow") as info:
            solve_a(spec, 4000)
    # stopped at the first infinite iterate, not at a nan it leads to later
    assert "a = inf" in str(info.value) and "increase N" not in str(info.value)


def test_overflowing_power_reported_as_overflow():
    # a(T) = n = 1e-40 with gamma = 0.9: n^(1/(gamma-1)) = 1e400 leaves the
    # double range at the first step
    h = Exponential(0.1)
    spec = ModelSpec(
        market=MarketParams(r=0.05, alpha=0.12, sigma=0.2),
        mortality=ConstantHazard(0.0),
        discount=h,
        prefs=PreferenceParams(gamma=0.9, n=1e-40, m_weight=ConstantWeight(1.0), bequest_discount=h),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=1.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemeBreakdownError, match="step 1 .*A = inf; overflow"):
            solve_a(spec, 100)


# ---------------------------------------------------------------------------
# The discrete derivative: the march's step quotient
# ---------------------------------------------------------------------------


def _first_step_quotient(grid):
    return (grid.a_values[1] - grid.a_values[0]) / grid.epsilon


def test_rhs_terminal_node_formula(exp1_spec):
    # empty memory sum at t = T: only the local terms remain
    got = _first_step_quotient(solve_a(exp1_spec, 50))
    gamma, n = -1.0, 1.0
    K = constant_K(exp1_spec.market, gamma)
    lam, M, inv_l = 0.02, 1.02, 1.0 / 50.0
    expected = (gamma * M - lam - 1.0) * n ** (gamma / (gamma - 1.0))
    expected += (lam - (-0.1) - K - gamma * inv_l) * n
    assert got == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(-2.04 + 0.220625, abs=1e-12)


def test_rhs_matches_finite_difference_of_closed_form(exp1_spec):
    grid = solve_a(exp1_spec, 200)
    h = 1e-5
    T = exp1_spec.horizon
    fd = (a_exponential(exp1_spec, T) - a_exponential(exp1_spec, T - h)) / h
    assert _first_step_quotient(grid) == pytest.approx(fd, abs=1e-4)


def _part_with_both_rows(spec, N, terms, value, offset, weight):
    """An exponential-sum part of the kernel ``value`` kept with both lag
    rows, d included, whether or not d vanishes on the grid."""
    step = spec.horizon / N
    d, c = _offsets(spec, N)
    values = value(np.linspace(0.0, spec.horizon, N + 1)[:_BLOCK])
    rows = np.stack([values, offset[:_BLOCK] * values])
    return _ExponentialSum(*terms, c, step, N, rows, memoryview(d), memoryview(weight))


def test_exponential_kernel_degeneracy(exp1_spec):
    # h = h_hat exponential with constant m: the memory kernel L vanishes,
    # so the march keeps no memory part and makes no call for one; built
    # anyway, with both lag rows, both parts bracket to exactly 0 at every step
    N = 200
    grid = solve_a(exp1_spec, N)
    assert _SchemeTables(exp1_spec, N).parts == []
    gamma, T, step = exp1_spec.prefs.gamma, exp1_spec.horizon, exp1_spec.horizon / N
    lags = np.linspace(0.0, T, N + 1)
    d, c = _offsets(exp1_spec, N)
    dbar = np.asarray(exp1_spec.hbar_log_derivative(lags[:N])) - c
    assert not np.any(d) and not np.any(dbar)
    parts = [
        _part_with_both_rows(exp1_spec, N, exp1_spec.discount.exponential_sum(T, step), exp1_spec.discount.value, d,
                             np.ones(N + 1)),
        _part_with_both_rows(exp1_spec, N, exp1_spec.hbar_exponential_sum(step), exp1_spec.hbar_value, dbar,
                             exp1_spec.mortality.rate(lags)),
    ]
    f = (grid.a_values ** (gamma / (gamma - 1.0)) * grid.A_values).tolist()
    for n in range(N):
        assert all(part.bracket(n, f[n]) == 0.0 for part in parts)


def test_experiment_h_part_vanishes(experiment_spec):
    # h exponential: d = 0 at every lag, so the h part of L is exactly zero
    # and is skipped; built with both lag rows it brackets to 0.0 at every step
    N = 200
    grid = solve_a(experiment_spec, N)
    (hbar_part,) = _SchemeTables(experiment_spec, N).parts
    assert isinstance(hbar_part, _ExponentialSum) and len(hbar_part.near) == _BLOCK  # lags 0..B-1
    gamma, T = experiment_spec.prefs.gamma, experiment_spec.horizon
    d, _ = _offsets(experiment_spec, N)
    terms = experiment_spec.discount.exponential_sum(T, T / N)
    part = _part_with_both_rows(experiment_spec, N, terms, experiment_spec.discount.value, d, np.ones(N + 1))
    f = (grid.a_values ** (gamma / (gamma - 1.0)) * grid.A_values).tolist()
    for n in range(N):
        assert part.bracket(n, f[n]) == 0.0


def test_taper_dbar_rows_exact_when_h_hat_equals_h(market):
    # h = h_hat = e^(-5t) under the log taper: dbar = m'/m exactly, so the
    # d k row is m'/m m h_hat = -e^(-5t)/x with x = T + eps - t; forming
    # hbar'/hbar - c rounded m'/m against 5 and read 6.9e-12 off
    T, N, h = 400.0, 1000, Exponential(5.0)
    spec = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.02),
        discount=h,
        prefs=PreferenceParams(gamma=-1.0, n=1.0, m_weight=LogTaperWeight(T), bequest_discount=h),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=T,
    )
    (hbar_part,) = _SchemeTables(spec, N).parts
    assert hbar_part.d is None  # the d k row alone, at lags B-1, ..., 1 for the block's last node
    t = np.arange(1, _BLOCK) * (T / N)
    exact = -np.exp(-5.0 * t) / ((T - t) + 1e-15)
    assert np.max(np.abs(np.array(hbar_part.near[-1][::-1]) / exact - 1.0)) <= 1e-15


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def test_interpolation_nodes_and_midpoints(exp1_spec):
    grid = solve_a(exp1_spec, 32)
    assert grid.interpolate(exp1_spec.horizon) == exp1_spec.prefs.n
    k = 7
    assert grid.interpolate(grid.times[k]) == grid.a_values[k]
    mid = 0.5 * (grid.times[k] + grid.times[k + 1])
    assert grid.interpolate(mid) == pytest.approx(
        0.5 * (grid.a_values[k] + grid.a_values[k + 1]), rel=1e-14
    )
    with pytest.raises(ValidationError):
        grid.interpolate(-0.01)
    with pytest.raises(ValidationError):
        grid.interpolate(exp1_spec.horizon + 0.01)
    # NaN is outside [0, T] too, alone or among valid times
    with pytest.raises(ValidationError, match="outside"):
        grid.interpolate(math.nan)
    with pytest.raises(ValidationError, match="outside"):
        grid.interpolate(np.array([0.5, math.nan]))


# ---------------------------------------------------------------------------
# Convergence
# ---------------------------------------------------------------------------


def test_convergence_first_order_exp1(exp1_spec):
    report = convergence_report(exp1_spec, 125)
    assert report.reference == "closed_form"
    assert 1.6 <= report.ratio <= 2.4


def test_convergence_evaluates_the_oracle_once_per_grid(exp1_spec, monkeypatch):
    sizes = []
    oracle = closed_form.a_exponential
    monkeypatch.setattr(closed_form, "a_exponential", lambda spec, t: sizes.append(np.size(t)) or oracle(spec, t))
    convergence_report(exp1_spec, 125)
    assert sizes == [126, 251]


def test_convergence_self_reference(experiment_spec):
    report = convergence_report(experiment_spec, 64)
    assert report.reference == "self_4x"
    assert 1.5 <= report.ratio <= 2.5


def test_convergence_exact_on_engineered_constant(market):
    # (gamma-1) n^(g/(g-1)) + (rho-K) n = 0 at n = ((rho-K)/(1-gamma))^(gamma-1),
    # so a == n solves the equation and the scheme is exact at any N
    rho = 0.1
    K = constant_K(market, -1.0)
    n = ((rho - K) / 2.0) ** -2
    spec = _no_insurance_spec(market, rho=rho, n=n)
    report = convergence_report(spec, 8)
    assert report.err_coarse < 1e-8
    assert report.err_fine < 1e-8


# ---------------------------------------------------------------------------
# A-priori bounds
# ---------------------------------------------------------------------------


def test_bounds_constants_exp1(exp1_spec):
    rep = a_priori_bounds(exp1_spec)
    # constant coefficients make the grid extrema exact
    assert rep.c1 == pytest.approx(2.04, abs=1e-12)
    assert rep.rho == pytest.approx(0.1, abs=1e-12)
    assert rep.rho_prime == pytest.approx(0.02, abs=1e-12)
    assert rep.c0 == pytest.approx(0.02 + 0.3 + 0.080625 + 0.02, abs=1e-12)
    assert rep.d1 == pytest.approx(2.04, abs=1e-12)


def test_bounds_refuse_times_outside_horizon(exp1_spec):
    # upper_curve(1e9) read 61.9 and lower_curve(nan) read nan
    rep = a_priori_bounds(exp1_spec)
    for curve in (rep.lower_curve, rep.upper_curve):
        for t in (1e9, -0.5, math.nan, np.array([0.5, math.nan]), np.array([0.0, exp1_spec.horizon + 1e-9])):
            with pytest.raises(ValidationError, match="outside"):
                curve(t)
        assert np.all(np.isfinite(curve(np.linspace(0.0, exp1_spec.horizon, 11))))


def test_bounds_terminal_value(exp1_spec):
    rep = a_priori_bounds(exp1_spec)
    assert rep.lower_curve(exp1_spec.horizon) == pytest.approx(1.0, rel=1e-12)
    assert rep.upper_curve(exp1_spec.horizon) == pytest.approx(1.0, rel=1e-12)


def test_bounds_small_linear_coefficient_does_not_cancel():
    # |l| = 1e-12 against |c| = 1: (w_T + c/l) e^x - c/l would lose about
    # 12 digits; the curves must still end at n and follow the l -> 0 line
    gamma, n, T = -3.0, 0.76, 2.448
    rep = BoundsReport(
        c0=1e-12, c1=1.0, d0=1e-12, d1=1.0, rho=0.0, rho_prime=0.0, terminal=n, gamma=gamma, horizon=T
    )
    ulp = math.ulp(n)
    assert abs(rep.lower_curve(T) - n) <= 4 * ulp
    assert abs(rep.upper_curve(T) - n) <= 4 * ulp
    # at l = 0 both curves are w(t) = w_T + c1 (T - t)/(1 - gamma) with c1 = d1 = 1
    tau = 1.0
    line = (n ** (1.0 / (1.0 - gamma)) + tau / (1.0 - gamma)) ** (1.0 - gamma)
    assert rep.lower_curve(T - tau) == pytest.approx(line, rel=1e-10)
    assert rep.upper_curve(T - tau) == pytest.approx(line, rel=1e-10)


def test_bounds_constant_only_and_linear_only_envelopes():
    # the c_lin == 0 and c_const == 0 branches of the backward integration
    gamma, n, T = -1.0, 2.0, 3.0
    t = np.linspace(0.0, T, 7)
    tau = T - t
    no_c0 = BoundsReport(c0=0.0, c1=0.5, d0=0.3, d1=2.0, rho=0.0, rho_prime=0.0, terminal=n, gamma=gamma, horizon=T)
    lower = (n ** (1.0 / (1.0 - gamma)) + 0.5 * tau / (1.0 - gamma)) ** (1.0 - gamma)
    # measured at most 4.4e-16 (2 ulp) relative
    assert np.max(np.abs(no_c0.lower_curve(t) / lower - 1.0)) <= 1e-15
    no_c1 = BoundsReport(c0=0.4, c1=0.0, d0=0.3, d1=0.0, rho=0.0, rho_prime=0.0, terminal=n, gamma=gamma, horizon=T)
    assert np.max(np.abs(no_c1.lower_curve(t) / (n * np.exp(-0.4 * tau)) - 1.0)) <= 1e-15
    assert np.max(np.abs(no_c1.upper_curve(t) / (n * np.exp(0.3 * tau)) - 1.0)) <= 1e-15


def test_bounds_contain_solution(exp1_spec):
    grid = solve_a(exp1_spec, 500)
    rep = a_priori_bounds(exp1_spec)
    err = convergence_report(exp1_spec, 125).err_fine
    tol = 10.0 * err
    lower = rep.lower_curve(grid.times)
    upper = rep.upper_curve(grid.times)
    assert np.all(grid.a_values >= lower - tol)
    assert np.all(grid.a_values <= upper + tol)
    assert np.all(lower > 0.0)


def test_bounds_refuse_negative_c1(market):
    failing = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(0.1),
        prefs=PreferenceParams(
            gamma=0.9, n=1.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.1)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(5.0)),
        horizon=1.0,
    )
    with pytest.raises(AssumptionViolatedError):
        a_priori_bounds(failing)
