"""Acceptance gate: oracle equivalences, convergence order, fixed-point checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces the stated tolerance and runtime budget.  The heavy Monte
Carlo criteria use 1e5 paths and take about 11 s in total on 2 cores.
"""

import math
import time

import numpy as np
import pytest

from tcpolicy import (
    ConstantHazard,
    ConstantPayout,
    ConstantWeight,
    Exponential,
    InsuranceIncomeSpec,
    ModelSpec,
    PreferenceParams,
)
from tcpolicy.closed_form import a_exponential, a_log, b_function, solve_stationary
from tcpolicy.ie_solver import a_priori_bounds, convergence_report, solve_a
from tcpolicy.policy import consumption_rate, find_satiation
from tcpolicy.simulate import (
    SimConfig,
    estimate_J_kernel,
    estimate_J_mortality,
    verify_fixed_point,
)

from conftest import make_hyperbolic_spec

SEED = 20240901


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def exp1_grid(exp1_spec):
    return solve_a(exp1_spec, 1000)


@pytest.fixture(scope="module")
def experiment_grid(experiment_spec):
    return solve_a(experiment_spec, 1000)


def test_c1_exponential_oracle_agreement(exp1_spec, exp1_grid):
    t0 = time.monotonic()
    ref = np.array([a_exponential(exp1_spec, t) for t in exp1_grid.times])
    gap = float(np.max(np.abs(exp1_grid.a_values - ref) / ref))
    elapsed = time.monotonic() - t0
    _report(
        gap <= 5e-3 and elapsed < 10.0,
        "criterion 1 (exponential oracle, N=1000)",
        f"max relative gap {gap:.3e} (<= 5e-3), {elapsed:.1f}s (< 10s)",
    )


def test_c2_first_order_convergence(exp1_spec):
    t0 = time.monotonic()
    ratios = {n: convergence_report(exp1_spec, n).ratio for n in (125, 250, 500)}
    elapsed = time.monotonic() - t0
    ok = all(1.6 <= r <= 2.4 for r in ratios.values()) and elapsed < 30.0
    _report(
        ok,
        "criterion 2 (first-order convergence)",
        f"error ratios {({k: round(v, 3) for k, v in ratios.items()})} in [1.6, 2.4], "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_c3_stationary_solver(stationary_fixture):
    t0 = time.monotonic()
    sol = solve_stationary(stationary_fixture)
    elapsed = time.monotonic() - t0
    # closed form: equal rates collapse the equation to a linear one
    alpha = 0.02 + 0.1 + 0.080625 + 0.02
    a_exact = (alpha / (1.0 + 0.02 + 1.02)) ** 2
    ok = (
        sol.residual < 1e-10
        and sol.tc1 > 0.0
        and sol.tc2 > 0.0
        and abs(sol.a - a_exact) < 1e-9
        and elapsed < 1.0
    )
    _report(
        ok,
        "criterion 3 (stationary solver)",
        f"a = {sol.a:.10f} (closed form {a_exact:.10f}), residual {sol.residual:.2e}, "
        f"tc = ({sol.tc1:.6f}, {sol.tc2:.6f}), {elapsed:.2f}s (< 1s)",
    )


def test_c4_fixed_point_verification(exp1_spec, exp1_grid, experiment_spec, experiment_grid):
    t0 = time.monotonic()
    b1 = b_function(exp1_spec)
    rep1 = verify_fixed_point(
        exp1_spec, exp1_grid.a_curve, b1, 0.0, 1.0, SimConfig(100_000, SEED, 1e-3)
    )
    b6 = b_function(experiment_spec)
    rep6 = verify_fixed_point(
        experiment_spec, experiment_grid.a_curve, b6, 0.0, 1.0, SimConfig(100_000, SEED, 4e-3)
    )
    perturbed = lambda t: 1.1 * exp1_grid.interpolate(t)
    rep_neg = verify_fixed_point(
        exp1_spec, perturbed, b1, 0.0, 1.0, SimConfig(100_000, SEED, 1e-3)
    )
    elapsed = time.monotonic() - t0
    ok = (
        abs(rep1.z_score) <= 3.0
        and abs(rep6.z_score) <= 3.0
        and abs(rep_neg.z_score) > 3.0
        and elapsed < 300.0
    )
    _report(
        ok,
        "criterion 4 (fixed-point verification, 1e5 paths)",
        f"z(EXP-1) = {rep1.z_score:.2f}, z(experiment) = {rep6.z_score:.2f} (|z| <= 3), "
        f"perturbed control z = {rep_neg.z_score:.1f} (|z| > 3), {elapsed:.0f}s (< 300s)",
    )


def test_c5_kernel_mortality_equivalence(exp1_spec, exp1_grid):
    t0 = time.monotonic()
    b1 = b_function(exp1_spec)
    cfg = SimConfig(100_000, SEED, 1e-3)
    jk = estimate_J_kernel(exp1_spec, exp1_grid.a_curve, b1, 0.0, 1.0, cfg)
    jm = estimate_J_mortality(exp1_spec, exp1_grid.a_curve, b1, 0.0, 1.0, cfg)
    combined = math.hypot(jk.std_error, jm.std_error)
    gap_z = abs(jk.mean - jm.mean) / combined
    elapsed = time.monotonic() - t0
    _report(
        gap_z <= 3.0 and elapsed < 300.0,
        "criterion 5 (kernel/mortality equivalence, 1e5 paths)",
        f"|gap| = {abs(jk.mean - jm.mean):.2e} = {gap_z:.2f} combined SEs (<= 3), "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_c6_consumption_hump(market):
    satiation = {}
    for k1 in (5.0, 10.0, 15.0):
        for n in (10.0, 30.0):
            spec = make_hyperbolic_spec(market, k1, n)
            grid = solve_a(spec, 1000)
            t = grid.times[::-1]
            rate = consumption_rate(grid.a_curve, spec.prefs.gamma, t)
            satiation[(k1, n)] = find_satiation(np.column_stack([t, rate]))
    control = ModelSpec(
        market=market,
        mortality=ConstantHazard(0.0),
        discount=Exponential(0.8),
        prefs=PreferenceParams(
            gamma=-1.0, n=10.0, m_weight=ConstantWeight(1.0), bequest_discount=Exponential(0.8)
        ),
        insurance=InsuranceIncomeSpec(payout=ConstantPayout(math.inf)),
        horizon=4.0,
    )
    grid_c = solve_a(control, 1000)
    t = grid_c.times[::-1]
    rate_c = consumption_rate(grid_c.a_curve, -1.0, t)
    sat_control = find_satiation(np.column_stack([t, rate_c]))

    all_interior = all(s is not None for s in satiation.values())
    earlier = satiation[(5.0, 30.0)] <= satiation[(5.0, 10.0)] if all_interior else False
    ok = all_interior and earlier and sat_control is None
    _report(
        ok,
        "criterion 6 (consumption hump)",
        f"interior satiation at all (k1, n): { {k: round(v, 3) for k, v in satiation.items()} }; "
        f"n=30 earlier than n=10 at k1=5: {earlier}; exponential control: {sat_control}",
    )


def test_c7_bounds_containment(exp1_spec, exp1_grid, experiment_spec, experiment_grid, market):
    cases = [
        ("EXP-1", exp1_spec, exp1_grid, 125),
        ("experiment", experiment_spec, experiment_grid, 250),
        ("hyperbolic k1=5 n=10", make_hyperbolic_spec(market, 5.0, 10.0), None, 250),
        ("hyperbolic k1=15 n=30", make_hyperbolic_spec(market, 15.0, 30.0), None, 250),
    ]
    details = []
    ok = True
    for label, spec, grid, n_conv in cases:
        if grid is None:
            grid = solve_a(spec, 1000)
        tol = 10.0 * convergence_report(spec, n_conv).err_fine
        rep = a_priori_bounds(spec)
        lower = rep.lower_curve(grid.times)
        with np.errstate(over="ignore"):
            upper = rep.upper_curve(grid.times)
        contained = bool(
            np.all(grid.a_values >= lower - tol) and np.all(grid.a_values <= upper + tol)
        )
        ok = ok and contained
        details.append(f"{label}: {'in' if contained else 'OUT OF'} envelope (tol {tol:.1e})")
    _report(ok, "criterion 7 (a-priori bounds containment)", "; ".join(details))


def test_c8_log_utility_oracle(log_spec, market):
    got = a_log(log_spec, 0.0)
    exact = (1.0 - math.exp(-0.1)) / 0.1 + math.exp(-0.1)
    gap_exact = abs(got - exact)

    brackets = {}
    for gamma in (1e-4, -1e-4):
        spec = ModelSpec(
            market=market,
            mortality=log_spec.mortality,
            discount=log_spec.discount,
            prefs=PreferenceParams(
                gamma=gamma,
                n=1.0,
                m_weight=ConstantWeight(1.0),
                bequest_discount=log_spec.prefs.bequest_discount,
            ),
            insurance=log_spec.insurance,
            horizon=log_spec.horizon,
        )
        brackets[gamma] = a_exponential(spec, 0.0)
    gap_limit = max(abs(v - got) for v in brackets.values())
    straddles = (brackets[1e-4] - got) * (brackets[-1e-4] - got) < 0.0
    ok = gap_exact <= 1e-6 and gap_limit <= 1e-3 and straddles
    _report(
        ok,
        "criterion 8 (log-utility oracle)",
        f"|a_log - closed form| = {gap_exact:.2e} (<= 1e-6); gamma = +-1e-4 brackets within "
        f"{gap_limit:.2e} (<= 1e-3, straddling: {straddles})",
    )
