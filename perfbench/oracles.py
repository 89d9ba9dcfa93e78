"""Independent checks of the program's outputs.

Each check takes plain values and returns a list of failure messages; an
empty list is a pass.  The benchmark counts an operation as failed when
any of its checks returns a message, so a fast wrong answer is a failure,
not a speed-up.  The tests in ``test_perfbench_oracles.py`` show that
every check fires on a perturbed input.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

Z_LIMIT = 3.0
ORDER_RATIO = (3.5, 4.5)  # (a_N - a_4N)/(a_4N - a_16N) of a first-order scheme is 4
CONVERGE_RATIO = (1.6, 2.4)  # err(N)/err(2N) of a first-order scheme is 2
EXP_NODES = np.linspace(0.0, 1.0, 11)  # exp1 has T = 1, so these are nodes of every N used

# Documented CSV headers of each CLI command (README, "Command line").
CSV_HEADERS = {
    "solve": ["t", "a", "A", "b"],
    "policies": ["t", "consumption_rate", "merton_fraction", "insurance_x_coef", "insurance_b_coef"],
    "hump": ["t", "rate"],
    "stationary": ["a", "b", "x", "alpha1", "alpha2", "beta", "tc1", "tc2"],
    "converge": ["N", "err", "ratio"],
}


def _finite_positive(name: str, values) -> list[str]:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        return [f"{name}: non-finite values"]
    if not np.all(values > 0.0):
        return [f"{name}: non-positive values (min {values.min():.6g})"]
    return []


# ---------------------------------------------------------------------------
# Backward march
# ---------------------------------------------------------------------------


def check_terminal(times, a_values, n_terminal: float) -> list[str]:
    """a > 0 everywhere and a(T) = n exactly."""
    failures = _finite_positive("a(t)", a_values)
    if failures:
        return failures
    terminal = np.asarray(a_values)[np.argmax(times)]
    if terminal != n_terminal:
        failures.append(f"a(T) = {terminal!r}, expected n = {n_terminal!r}")
    return failures


def check_envelope(times, a_values, lower, upper, n_terminal: float, N: int) -> list[str]:
    """a(T) = n, a > 0, and a lies between the a-priori envelopes.

    The envelopes bound the exact a; the discrete iterate may cross them by
    the scheme's O(1/N) error, so the slack is |a|/N.
    """
    failures = check_terminal(times, a_values, n_terminal)
    if failures:
        return failures
    a = np.asarray(a_values, dtype=float)
    t = np.asarray(times, dtype=float)
    slack = np.abs(a) / N
    low = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    if np.any(a < low - slack):
        i = int(np.argmax(low - slack - a))
        failures.append(f"a below lower envelope at t = {t[i]:.6g}: {a[i]:.10g} < {low[i]:.10g}")
    if np.any(a > up + slack):
        i = int(np.argmax(a - up - slack))
        failures.append(f"a above upper envelope at t = {t[i]:.6g}: {a[i]:.10g} > {up[i]:.10g}")
    return failures


def exp_relative_error(a_at_nodes, reference) -> float:
    """Max relative error of a(t) against the exponential closed form."""
    a = np.asarray(a_at_nodes, dtype=float)
    ref = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(a - ref) / np.abs(ref)))


def check_exp_oracle(a_at_nodes, reference, N: int) -> list[str]:
    """The first-order error of exp1 is about 0.22/N; allow 1/N."""
    err = exp_relative_error(a_at_nodes, reference)
    if not err <= 1.0 / N:
        return [f"exp1 max relative error {err:.3e} vs a_exponential exceeds 1/N = {1.0 / N:.3e}"]
    return []


def check_first_order(a0_coarse: float, a0_mid: float, a0_fine: float) -> list[str]:
    """a(0) at N, 4N and 16N: successive differences shrink by 4."""
    denom = a0_mid - a0_fine
    ratio = (a0_coarse - a0_mid) / denom if denom != 0.0 else math.inf
    lo, hi = ORDER_RATIO
    if not lo <= ratio <= hi:
        return [f"order ratio (a_N - a_4N)/(a_4N - a_16N) = {ratio:.4g} outside [{lo}, {hi}]"]
    return []


def check_b(times, b_values, horizon: float, income: float) -> list[str]:
    """b(T) = 0, and b vanishes identically without income."""
    b = np.asarray(b_values, dtype=float)
    t = np.asarray(times, dtype=float)
    if b.shape != t.shape or not np.all(np.isfinite(b)):
        return [f"b: shape {b.shape} or non-finite values on {t.size} nodes"]
    failures = []
    if b[np.argmax(t)] != 0.0 or t.max() != horizon:
        failures.append("b(T) != 0")
    if income == 0.0 and np.any(b != 0.0):
        failures.append("b != 0 without income")
    if income > 0.0 and np.any(b[t < horizon] <= 0.0):
        failures.append("b <= 0 before T with positive income")
    return failures


def check_bounds(lower, upper) -> list[str]:
    low = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    if not np.all(np.isfinite(low)) or np.any(low < 0.0):
        return ["lower envelope negative or non-finite"]
    if np.any(low > up):
        return ["lower envelope above upper envelope"]
    return []


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def value(a_t0: float, b_t0: float, x0: float, gamma: float) -> float:
    """v(t0, x0) = a(t0) U(x0 + b(t0)) for CRRA gamma != 0."""
    return a_t0 * (x0 + b_t0) ** gamma / gamma


def check_estimate_quality(label: str, est) -> list[str]:
    """A finite mean and positive finite standard error from >= 2 paths."""
    if est.paths_used < 2:
        return [f"{label}: {est.paths_used} paths used (< 2)"]
    if not (math.isfinite(est.mean) and math.isfinite(est.std_error) and est.std_error > 0.0):
        return [f"{label}: mean {est.mean!r}, SE {est.std_error!r} not finite and positive"]
    return []


def check_estimate(label: str, est, v: float) -> list[str]:
    """|z| <= 3 against v, with a finite standard error from >= 2 paths."""
    failures = check_estimate_quality(label, est)
    if failures:
        return failures
    mean, std_error = est.mean, est.std_error
    z = (mean - v) / std_error
    if not abs(z) <= Z_LIMIT:
        return [f"{label}: z = {z:.3f} (|z| > {Z_LIMIT}), J = {mean:.10g} +- {std_error:.3g}, v = {v:.10g}"]
    return []


def check_fixed_point(report, v: float) -> list[str]:
    """Recompute z from the report's estimate; never trust ``passed`` alone."""
    failures = check_estimate("fixed point", report.j_estimate, v)
    if not math.isclose(report.v_value, v, rel_tol=1e-12):
        failures.append(f"fixed point: v = {report.v_value!r}, independent v = {v!r}")
    if report.passed != (abs(report.z_score) <= Z_LIMIT) or (report.passed and failures):
        failures.append(f"fixed point: passed = {report.passed} contradicts z = {report.z_score!r}")
    return failures


def check_agreement(kernel, mortality) -> list[str]:
    """The kernel and mortality estimators of J agree within 3 combined SEs."""
    combined = math.hypot(kernel.std_error, mortality.std_error)
    gap = abs(kernel.mean - mortality.mean)
    if not gap <= Z_LIMIT * combined:
        return [f"kernel/mortality gap {gap:.3e} exceeds {Z_LIMIT} combined SEs ({combined:.3e})"]
    return []


def check_wealth(wealth, alive, b_values, x0: float, paths: int, steps: int) -> list[str]:
    """Shape, start value and positive shifted wealth of surviving paths."""
    w = np.asarray(wealth)
    if w.shape != (paths, steps + 1):
        return [f"wealth shape {w.shape}, expected {(paths, steps + 1)}"]
    if not np.all(w[:, 0] == x0):
        return ["wealth paths do not start at x0"]
    return _finite_positive("shifted wealth", w[np.asarray(alive)] + np.asarray(b_values))


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------


def read_csv(text: str, command: str, rows: int) -> tuple[list[str], np.ndarray]:
    """Parse a CLI CSV, checking its documented header and row count.

    Raises ValueError with the reason when either differs.
    """
    lines = list(csv.reader(io.StringIO(text)))
    header = CSV_HEADERS[command]
    if not lines or lines[0] != header:
        raise ValueError(f"{command}: header {lines[0] if lines else None}, expected {header}")
    body = lines[1:]
    if len(body) != rows or any(len(r) != len(header) for r in body):
        raise ValueError(f"{command}: {len(body)} rows, expected {rows} of {len(header)} fields")
    return header, np.array([[float(c) for c in r] for r in body])


def check_solution_csv(text: str, rows: int, bounds, n_terminal: float, N: int) -> list[str]:
    try:
        _, table = read_csv(text, "solve", rows)
    except ValueError as exc:
        return [str(exc)]
    t, a = table[:, 0], table[:, 1]
    return check_envelope(t, a, bounds.lower_curve(t), upper_curve(bounds, t), n_terminal, N)


def upper_curve(bounds, t):
    with np.errstate(over="ignore"):
        return bounds.upper_curve(t)


def check_policies_csv(text: str, rows: int, solution_text: str, gamma: float) -> list[str]:
    """consumption_rate = a^(1/(gamma-1)) with a from solution.csv."""
    try:
        _, pol = read_csv(text, "policies", rows)
        _, sol = read_csv(solution_text, "solve", rows)
    except ValueError as exc:
        return [str(exc)]
    expected = sol[:, 1] ** (1.0 / (gamma - 1.0))
    if not np.array_equal(pol[:, 0], sol[:, 0]) or not np.allclose(pol[:, 1], expected, rtol=1e-12, atol=0):
        return ["policies: consumption_rate != a^(1/(gamma-1)) from solution.csv"]
    return []


def check_hump_csv(text: str, rows: int) -> list[str]:
    try:
        _, table = read_csv(text, "hump", rows)
    except ValueError as exc:
        return [str(exc)]
    return _finite_positive("hump rate", table[:, 1])


def check_converge_csv(text: str, N: int) -> list[str]:
    """Rows at N and 2N; err(N)/err(2N) near 2 for a first-order scheme."""
    try:
        _, table = read_csv(text, "converge", 2)
    except ValueError as exc:
        return [str(exc)]
    failures = []
    if list(table[:, 0]) != [N, 2 * N]:
        failures.append(f"converge: N column {list(table[:, 0])}, expected {[N, 2 * N]}")
    err_coarse, err_fine = table[:, 1]
    if not (err_coarse > 0.0 and err_fine > 0.0):
        return failures + ["converge: errors must be positive"]
    ratio = err_coarse / err_fine
    lo, hi = CONVERGE_RATIO
    if not lo <= ratio <= hi or not math.isclose(table[0, 2], ratio, rel_tol=1e-12):
        failures.append(f"converge: ratio {table[0, 2]!r} (err ratio {ratio:.4g}) outside [{lo}, {hi}]")
    return failures


def stationary_equal_rates(spec) -> tuple[float, float]:
    """(a, b) of the stationary instance when both kernel rates are equal.

    With alpha1 = alpha2 = alpha the fixed-point equation is linear in
    x = a^(1/(1-gamma)): x = alpha / (1 + lambda w - gamma beta), with
    w = m^(1/(1-gamma)) and beta = 1 + w/l; and b = i/(r + eta/l).
    Equal rates make this independent of which kernel rate is r1.
    """
    rho = spec.discount.rho
    if spec.prefs.bequest_discount.rho != rho:
        raise ValueError("closed form needs equal kernel rates")
    gamma = spec.prefs.gamma
    market, ins = spec.market, spec.insurance
    lam = spec.mortality.lambda0
    inv_l = 1.0 / ins.payout.payout
    K = gamma * (market.r + market.mu**2 / (2.0 * (1.0 - gamma) * market.sigma**2))
    w = spec.prefs.m0 ** (1.0 / (1.0 - gamma))
    alpha = lam + rho - K - gamma * ins.eta * inv_l
    beta = 1.0 + w * inv_l
    x = alpha / (1.0 + lam * w - gamma * beta)
    return x ** (1.0 - gamma), ins.income / (market.r + ins.eta * inv_l)


def check_stationary_csv(text: str, spec) -> list[str]:
    try:
        _, table = read_csv(text, "stationary", 1)
    except ValueError as exc:
        return [str(exc)]
    a, b, tc1, tc2 = table[0, 0], table[0, 1], table[0, 6], table[0, 7]
    a_ref, b_ref = stationary_equal_rates(spec)
    failures = []
    if not math.isclose(a, a_ref, rel_tol=1e-9) or not math.isclose(b, b_ref, rel_tol=1e-12):
        failures.append(f"stationary: (a, b) = ({a!r}, {b!r}), closed form ({a_ref!r}, {b_ref!r})")
    if not (tc1 > 0.0 and tc2 > 0.0):
        failures.append(f"stationary: transversality ({tc1!r}, {tc2!r}) not positive")
    return failures


def check_svg(text: str) -> list[str]:
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>") and "<polyline" in text):
        return ["svg: not a complete chart"]
    return []


def check_identical(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Artifact digests of two passes of the same inputs must match byte for byte."""
    return [f"{name}: bytes differ between passes" for name in sorted(first) if again.get(name) != first[name]] + [
        f"{name}: written in one pass only" for name in sorted(set(again) - set(first))
    ]
