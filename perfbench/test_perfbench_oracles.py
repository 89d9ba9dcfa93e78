"""Every benchmark oracle passes on the program's real output and fires on a
perturbed copy of it; the tracer accounts for time; BENCHMARK.json lists
exactly the metrics the benchmark reports.

Run with ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import CONFIGS, ROOT, SRC, generate_config  # noqa: E402

sys.path.insert(0, str(SRC))

from tcpolicy import cli, closed_form, ie_solver, model, policy, simulate  # noqa: E402

MODULES = {"cli": cli, "closed_form": closed_form, "ie_solver": ie_solver, "model": model,
           "policy": policy, "simulate": simulate}


def _rc(name: str, seed: int = 7):
    return cli.parse_config(generate_config(name, seed))


@pytest.fixture(scope="module")
def exp1():
    rc = _rc("exp1")
    grid = ie_solver.solve_a(rc.spec, 200)
    ref = np.array([closed_form.a_exponential(rc.spec, t) for t in oracles.EXP_NODES])
    return rc, grid, ref


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------


def test_generated_config_changes_only_seed_and_output_directory():
    for path in sorted(CONFIGS.glob("*.cfg")):
        shipped = cli.parse_config(path.read_text())
        generated = cli.parse_config(generate_config(path.stem, 12345))
        assert generated.spec == shipped.spec and generated.grid_n == shipped.grid_n
        assert generated.emit_svg == shipped.emit_svg
        assert generated.mc == dataclasses.replace(
            shipped.mc, seed=12345 if "mc.seed" in path.read_text() else shipped.mc.seed
        )
        assert generated.output_dir == "out"  # the default; the benchmark always passes --out


# ---------------------------------------------------------------------------
# Backward march
# ---------------------------------------------------------------------------


def test_exp_oracle_and_envelope_fire_on_scaled_a(exp1):
    rc, grid, ref = exp1
    bounds = ie_solver.a_priori_bounds(rc.spec)
    lower, upper = bounds.lower_curve(grid.times), oracles.upper_curve(bounds, grid.times)
    at_nodes = grid.interpolate(oracles.EXP_NODES)
    assert oracles.check_exp_oracle(at_nodes, ref, 200) == []
    assert oracles.check_envelope(grid.times, grid.a_values, lower, upper, 1.0, 200) == []

    assert oracles.check_exp_oracle(1.01 * at_nodes, ref, 200)
    assert oracles.check_envelope(grid.times, 1.01 * grid.a_values, lower, upper, 1.0, 200)
    dipped = grid.a_values.copy()
    dipped[1:] = 0.5 * lower[1:]
    assert oracles.check_envelope(grid.times, dipped, lower, upper, 1.0, 200)
    assert oracles.check_terminal(grid.times, -grid.a_values, 1.0)


def test_first_order_check_fires_on_other_orders():
    assert oracles.check_first_order(*(1.0 + 1.0 / n for n in (1000, 4000, 16000))) == []
    assert oracles.check_first_order(*(1.0 + 1.0 / n**2 for n in (1000, 4000, 16000)))
    assert oracles.check_first_order(1.0, 1.0, 1.0)


def test_b_and_bounds_checks_fire():
    times = np.linspace(1.0, 0.0, 11)
    assert oracles.check_b(times, np.zeros(11), 1.0, 0.0) == []
    assert oracles.check_b(times, np.full(11, 1e-9), 1.0, 0.0)
    assert oracles.check_b(times, np.zeros(10), 1.0, 0.0)
    assert oracles.check_b(times, np.zeros(11), 1.0, 1.0)
    assert oracles.check_bounds([1.0, 2.0], [2.0, 3.0]) == []
    assert oracles.check_bounds([1.0, 4.0], [2.0, 3.0])
    assert oracles.check_bounds([-1.0, 2.0], [2.0, 3.0])


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_fixed_point_check_on_real_and_scaled_a_curve(exp1):
    rc, grid, _ = exp1
    b = closed_form.b_function(rc.spec)
    cfg = dataclasses.replace(rc.mc, paths=20_000, dt=0.01)
    v = oracles.value(grid.interpolate(0.0), b(0.0), 1.0, rc.spec.prefs.gamma)
    report = simulate.verify_fixed_point(rc.spec, grid.a_curve, b, 0.0, 1.0, cfg)
    assert oracles.check_fixed_point(report, v) == []

    scaled = simulate.verify_fixed_point(rc.spec, lambda t: 1.1 * grid.interpolate(t), b, 0.0, 1.0, cfg)
    assert oracles.check_fixed_point(scaled, 1.1 * v)


def test_fixed_point_check_does_not_trust_passed():
    one_path = simulate.FixedPointReport(
        v_value=-1.0, j_estimate=simulate.EstimateReport(-1.0, math.inf, 1), z_score=0.0, passed=True
    )
    assert oracles.check_fixed_point(one_path, -1.0)
    contradicts = simulate.FixedPointReport(
        v_value=-1.0, j_estimate=simulate.EstimateReport(-1.1, 0.01, 100), z_score=-10.0, passed=True
    )
    assert oracles.check_fixed_point(contradicts, -1.0)
    other_v = simulate.FixedPointReport(
        v_value=-1.0, j_estimate=simulate.EstimateReport(-1.0, 0.01, 100), z_score=0.0, passed=True
    )
    assert oracles.check_fixed_point(other_v, -1.0) == []
    assert oracles.check_fixed_point(other_v, -1.001)


def test_estimate_and_agreement_checks_fire():
    est = simulate.EstimateReport(mean=-1.0, std_error=0.01, paths_used=100)
    assert oracles.check_estimate("e", est, -1.02) == []
    assert oracles.check_estimate("e", est, -1.04)
    assert oracles.check_estimate("e", dataclasses.replace(est, paths_used=1), -1.0)
    assert oracles.check_estimate_quality("e", dataclasses.replace(est, std_error=math.inf))
    other = simulate.EstimateReport(mean=-1.03, std_error=0.01, paths_used=100)
    assert oracles.check_agreement(est, other) == []
    assert oracles.check_agreement(est, dataclasses.replace(other, mean=-1.05))


def test_wealth_check_fires():
    wealth = np.ones((4, 6))
    alive = np.ones(4, dtype=bool)
    assert oracles.check_wealth(wealth, alive, np.zeros(6), 1.0, 4, 5) == []
    assert oracles.check_wealth(wealth[:3], alive[:3], np.zeros(6), 1.0, 4, 5)
    assert oracles.check_wealth(wealth, alive, np.zeros(6), 2.0, 4, 5)
    negative = wealth.copy()
    negative[2, 3] = -0.5
    assert oracles.check_wealth(negative, alive, np.zeros(6), 1.0, 4, 5)


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    paths = {}
    for command, cfg in (("solve", "experiment"), ("policies", "experiment"),
                         ("hump", "hump_k5_n10"), ("stationary", "stationary")):
        config = out / f"{cfg}.cfg"
        config.write_text(generate_config(cfg, 7))
        cli.run(command, str(config), str(out / command))
        paths[command] = out / command
    return paths


def _truncated(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def test_solution_and_policies_checks_fire(cli_outputs):
    rc = _rc("experiment")
    bounds = ie_solver.a_priori_bounds(rc.spec)
    solution = (cli_outputs["solve"] / "solution.csv").read_text()
    policies = (cli_outputs["policies"] / "policies.csv").read_text()
    assert oracles.check_solution_csv(solution, 1001, bounds, 1.0, 1000) == []
    assert oracles.check_policies_csv(policies, 1001, solution, -1.0) == []
    assert oracles.check_svg((cli_outputs["solve"] / "solution.svg").read_text()) == []

    assert oracles.check_solution_csv(_truncated(solution), 1001, bounds, 1.0, 1000)
    assert oracles.check_solution_csv(solution.replace("t,a,A,b", "t,a,b,A", 1), 1001, bounds, 1.0, 1000)
    header, table = oracles.read_csv(solution, "solve", 1001)
    table[:, 1] *= 3.0
    scaled = ",".join(header) + "\n" + "".join(",".join(repr(x) for x in row) + "\n" for row in table)
    assert oracles.check_solution_csv(scaled, 1001, bounds, 1.0, 1000)
    assert oracles.check_policies_csv(policies, 1001, scaled, -1.0)
    assert oracles.check_svg(_truncated((cli_outputs["solve"] / "solution.svg").read_text()))


def test_hump_stationary_and_converge_checks_fire(cli_outputs):
    hump = (cli_outputs["hump"] / "hump.csv").read_text()
    assert oracles.check_hump_csv(hump, 1001) == []
    assert oracles.check_hump_csv(_truncated(hump), 1001)
    lines = hump.splitlines()
    lines[5] = lines[5].split(",")[0] + ",-0.1"
    assert oracles.check_hump_csv("\n".join(lines) + "\n", 1001)

    spec = _rc("stationary").spec
    stationary = (cli_outputs["stationary"] / "stationary.csv").read_text()
    assert oracles.check_stationary_csv(stationary, spec) == []
    header, row = stationary.splitlines()
    cells = row.split(",")
    cells[0] = repr(float(cells[0]) * (1.0 + 1e-6))
    assert oracles.check_stationary_csv(f"{header}\n{','.join(cells)}\n", spec)
    with pytest.raises(ValueError):
        oracles.stationary_equal_rates(
            dataclasses.replace(spec, prefs=dataclasses.replace(spec.prefs, bequest_discount=model.Exponential(0.3)))
        )

    first_order = "N,err,ratio\n1000,0.002,2.0\n2000,0.001,nan\n"
    assert oracles.check_converge_csv(first_order, 1000) == []
    assert oracles.check_converge_csv("N,err,ratio\n1000,0.004,4.0\n2000,0.001,nan\n", 1000)
    assert oracles.check_converge_csv(_truncated(first_order), 1000)
    assert oracles.check_converge_csv(first_order, 500)


def test_identical_bytes_check_fires():
    digests = {"a.csv": "00", "b.csv": "11"}
    assert oracles.check_identical(digests, dict(digests)) == []
    assert oracles.check_identical(digests, {"a.csv": "00", "b.csv": "12"})
    assert oracles.check_identical(digests, {"a.csv": "00"})
    assert oracles.check_identical(digests, {**digests, "c.csv": "22"})


# ---------------------------------------------------------------------------
# Tracing and the benchmark definition
# ---------------------------------------------------------------------------


def test_self_times_account_for_nested_spans():
    tracer = tracing.Tracer("t")
    tracer.spans = [
        tracing.Span("a", 0.0, 10.0, None, "t"),
        tracing.Span("b", 1.0, 4.0, 0, "t"),
        tracing.Span("c", 2.0, 3.0, 1, "t"),
        tracing.Span("d", 5.0, 6.0, 0, "t"),
        tracing.Span("e", 11.0, 12.0, None, "t"),
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0, 1.0]
    assert tracer.top_level_seconds() == sum(tracer.self_times()) == 11.0


def test_merged_spans_keep_their_nesting():
    child = tracing.Tracer("t")
    child.spans = [tracing.Span("a", 0.0, 4.0, None, "t"), tracing.Span("b", 1.0, 2.0, 0, "t")]
    child.count("ie_solver.memory_terms", 3)
    tracer = tracing.Tracer("t")
    for _ in range(2):
        tracer.merge(child.span_records(), dict(child.counts))
    assert [s.parent for s in tracer.spans] == [None, 0, None, 2]
    assert tracer.self_times() == [3.0, 1.0, 3.0, 1.0]
    assert tracer.layer_metrics()["ie_solver.memory_terms"] == 6


def test_traced_wraps_callers_lookups_and_restores(exp1):
    rc, _, _ = exp1
    originals = {(m, a): getattr(MODULES[m], a) for m, a, _, _ in tracing._WRAPPED}
    tracer = tracing.Tracer("t")
    with tracing.traced(tracer, MODULES):
        ie_solver.solve_a(rc.spec, 100)
        simulate.estimate_J_kernel(
            rc.spec, lambda t: np.ones_like(t), lambda t: np.zeros_like(t), 0.0, 1.0,
            simulate.SimConfig(paths=8, seed=1, dt=0.1, scheme="euler"),
        )
    assert all(getattr(MODULES[m], a) is f for (m, a), f in originals.items())
    metrics = tracer.layer_metrics()
    assert metrics["ie_solver.solve_a.calls"] == 1
    assert metrics["model.check_assumption_a1.calls"] == 1  # looked up in ie_solver
    assert metrics["ie_solver.memory_terms"] == 100 * 99 // 2
    assert metrics["simulate.euler.estimate_J_kernel.calls"] == 1
    assert metrics["model.kernel_Q.calls"] == 1  # looked up in simulate
    assert metrics["simulate.path_steps"] == 8 * 10
    assert [s.name for s in tracer.spans if s.parent is None] == [
        "ie_solver.solve_a@exponential.N100", "simulate.euler.estimate_J_kernel"]


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
