"""The three benchmark workloads: solve_sweep, mc_verify and cli_suite.

Each workload runs the shipped ``configs/`` through the public functions
of ``tcpolicy`` (or its CLI), one pass at a time.  ``run_pass`` is the
timed part and returns the raw outputs; ``check`` runs the oracles of
``oracles.py`` on them afterwards and returns one entry per operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

import oracles
from tracing import SOLVE_SWEEP_N, Tracer, simulation_steps

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

CHILD_TIMEOUT_S = 150
# Paths of the Euler kernel estimate on exp1: two simulator blocks, about 3%
# of an mc_verify pass, and enough for a finite SE with z near 0.
EULER_PATHS = 8192
# Paths of the simulate_wealth slice on exp1: one simulator block, whose
# paths x (steps + 1) output is 33 MB.
WEALTH_PATHS = 4096

# Fresh-interpreter set-up: import the package and the CLI, then parse the
# workload's configs.  Prints import and parse seconds.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import tcpolicy, tcpolicy.cli
t1 = time.perf_counter()
for path in sys.argv[1:]:
    with open(path) as f:
        tcpolicy.cli.parse_config(f.read(), source=path)
print(t1 - t0, time.perf_counter() - t1)
"""

IMPORT_GROUPS = ("numpy", "scipy", "tcpolicy", "other")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_groups(stderr: str) -> dict[str, float]:
    """Self seconds of ``-X importtime`` output, summed by top-level package."""
    groups = dict.fromkeys(IMPORT_GROUPS, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, module = (part.strip() for part in line[len("import time:") :].split("|"))
        top = module.split(".")[0]
        groups[top if top in groups else "other"] += int(self_us) * 1e-6
    return groups


def generate_config(name: str, seed: int) -> str:
    """A shipped config with output.directory dropped and mc.seed set to ``seed``."""
    lines = []
    for line in (CONFIGS / f"{name}.cfg").read_text().splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key == "output.directory":
            continue
        if key == "mc.seed":
            line = f"mc.seed = {seed}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _attempt(fn):
    """(result, None) or (None, error text) for one operation."""
    try:
        return fn(), None
    except Exception:  # noqa: BLE001 - every failure of an operation is counted, not fatal
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]


def _op(name: str, error: str | None, failures=()) -> tuple[str, list[str]]:
    return name, [error] if error else list(failures)


class Workload:
    """Generated configs and parsed models shared by every pass of a run."""

    name = ""
    configs: tuple[str, ...] = ()
    min_passes = 1
    # Run each config's share of a pass in a fresh interpreter of its own.
    process_per_config = False

    def __init__(self, modules: dict, seed: int, run_dir: Path, configs: tuple[str, ...] | None = None):
        if configs is not None:
            self.configs = configs
        self.m = modules
        self.run_dir = run_dir
        self.config_paths = {}
        self.rcs = {}
        (run_dir / "configs").mkdir(parents=True, exist_ok=True)
        for cfg in self.configs:
            path = run_dir / "configs" / f"{cfg}.cfg"
            path.write_text(generate_config(cfg, seed))
            self.config_paths[cfg] = path
            self.rcs[cfg] = modules["cli"].parse_config(path.read_text(), source=str(path))
        exp1 = self.rcs.get("exp1")
        self.exp_reference = None
        if exp1 is not None:
            a_exponential = modules["closed_form"].a_exponential
            self.exp_reference = np.array([a_exponential(exp1.spec, t) for t in oracles.EXP_NODES])
        self.a_rel_err = float("nan")
        self.mc_rel_se = 0.0
        self.import_seconds: list[dict[str, float]] = []

    def measure_setup(self, reps: int, importtime: bool) -> list[tuple[float, dict[str, float]]]:
        """Set-up seconds (import + parse) of ``reps`` fresh interpreters, one at a time."""
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += ["-c", _SETUP_CHILD] + [str(p) for p in self.config_paths.values()]
        results = []
        for _ in range(reps):
            proc = subprocess.run(
                cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
            )
            import_s, parse_s = (float(x) for x in proc.stdout.split())
            groups = import_groups(proc.stderr) if importtime else {}
            results.append((import_s + parse_s, {"import_s": import_s, **groups}))
        return results

    def run_pass(self, index: int, tracer: Tracer | None):
        raise NotImplementedError

    def check(self, index: int, outputs) -> list[tuple[str, list[str]]]:
        raise NotImplementedError


class SolveSweep(Workload):
    """solve_a at N = 1e3, 4e3, 1.6e4 on three kernel families, with b and envelopes.

    At N = 1.6e4 the memory sum's temporaries are freed at the top of the
    heap, glibc trims it and the next step faults the pages back in.  How
    often depends on the heap layout the interpreter started with, which
    varies from process to process (hash seed, address-space layout) and
    stays fixed within one.  A pass in a single process would time one
    layout: 0.9 to 2.2 million faults per pass, and up to 30% in wall time.
    So every config of a pass runs in a fresh interpreter, and a run's
    passes sample as many layouts as it has passes times configs.
    """

    name = "solve_sweep"
    configs = ("exp1", "experiment", "hump_k5_n10")
    process_per_config = True

    def run_pass(self, index, tracer):
        ie_solver, closed_form = self.m["ie_solver"], self.m["closed_form"]
        out = {}
        for cfg in self.configs:
            spec = self.rcs[cfg].spec
            for n in SOLVE_SWEEP_N:
                out[cfg, "solve_a", n] = _attempt(lambda: ie_solver.solve_a(spec, n))
                out[cfg, "solve_b", n] = _attempt(lambda: closed_form.solve_b(spec, n))
            out[cfg, "a_priori_bounds"] = _attempt(lambda: ie_solver.a_priori_bounds(spec))
        return out

    def check(self, index, out):
        ops = []
        for cfg in self.configs:
            spec = self.rcs[cfg].spec
            bounds, bounds_error = out[cfg, "a_priori_bounds"]
            t_check = np.linspace(0.0, spec.horizon, 1001)
            if bounds_error:
                ops.append(_op(f"{cfg}.a_priori_bounds", bounds_error))
            else:
                ops.append(
                    _op(f"{cfg}.a_priori_bounds", None, oracles.check_bounds(
                        bounds.lower_curve(t_check), oracles.upper_curve(bounds, t_check)))
                )
            a0 = {}
            for n in SOLVE_SWEEP_N:
                grid, error = out[cfg, "solve_a", n]
                failures = []
                if not error:
                    if bounds_error:
                        failures.append("no envelopes to check against")
                    else:
                        failures += oracles.check_envelope(
                            grid.times, grid.a_values, bounds.lower_curve(grid.times),
                            oracles.upper_curve(bounds, grid.times), spec.prefs.n, n,
                        )
                    if cfg == "exp1":
                        at_nodes = grid.interpolate(oracles.EXP_NODES)
                        failures += oracles.check_exp_oracle(at_nodes, self.exp_reference, n)
                        self.a_rel_err = oracles.exp_relative_error(at_nodes, self.exp_reference)
                    a0[n] = grid.a_values[-1]
                if n == SOLVE_SWEEP_N[-1] and len(a0) == len(SOLVE_SWEEP_N):
                    failures += oracles.check_first_order(*(a0[k] for k in SOLVE_SWEEP_N))
                ops.append(_op(f"{cfg}.solve_a.N{n}", error, failures))

                b, error = out[cfg, "solve_b", n]
                times = np.linspace(spec.horizon, 0.0, n + 1)
                ops.append(_op(f"{cfg}.solve_b.N{n}", error, () if error else oracles.check_b(
                    times, b, spec.horizon, spec.insurance.income)))
        return ops


class McVerify(Workload):
    """Fixed-point verification and both J estimators at each config's mc block."""

    name = "mc_verify"
    configs = ("exp1", "experiment")

    def run_pass(self, index, tracer):
        ie_solver, closed_form, simulate = self.m["ie_solver"], self.m["closed_form"], self.m["simulate"]
        out = {}
        for cfg in self.configs:
            rc = self.rcs[cfg]
            grid, grid_error = out[cfg, "solve_a"] = _attempt(lambda: ie_solver.solve_a(rc.spec, rc.grid_n))
            b, b_error = out[cfg, "b_function"] = _attempt(lambda: closed_form.b_function(rc.spec, rc.grid_n))
            if grid_error or b_error:
                continue
            args = (rc.spec, grid.a_curve, b, rc.t0, rc.x0)
            out[cfg, "verify"] = _attempt(lambda: simulate.verify_fixed_point(*args, rc.mc))
            out[cfg, "mortality"] = _attempt(lambda: simulate.estimate_J_mortality(*args, rc.mc))
            if cfg == "exp1":
                euler = dataclasses.replace(rc.mc, paths=EULER_PATHS, scheme="euler")
                out[cfg, "euler"] = _attempt(lambda: simulate.estimate_J_kernel(*args, euler))
                wealth = dataclasses.replace(rc.mc, paths=WEALTH_PATHS)
                out[cfg, "wealth"] = _attempt(lambda: simulate.simulate_wealth(*args, wealth))
        return out

    def check(self, index, out):
        ops = []
        rel_se = []
        for cfg in self.configs:
            rc = self.rcs[cfg]
            spec = rc.spec
            grid, grid_error = out[cfg, "solve_a"]
            b, b_error = out[cfg, "b_function"]
            failures = []
            if not grid_error:
                failures = oracles.check_terminal(grid.times, grid.a_values, spec.prefs.n)
                if cfg == "exp1":
                    at_nodes = grid.interpolate(oracles.EXP_NODES)
                    failures += oracles.check_exp_oracle(at_nodes, self.exp_reference, rc.grid_n)
                    self.a_rel_err = oracles.exp_relative_error(at_nodes, self.exp_reference)
            ops.append(_op(f"{cfg}.solve_a", grid_error, failures))
            dependents = ["verify", "mortality"] + (["euler", "wealth"] if cfg == "exp1" else [])
            if b_error:
                ops.append(_op(f"{cfg}.b_function", b_error))
            else:
                times = np.linspace(spec.horizon, 0.0, rc.grid_n + 1)
                ops.append(_op(f"{cfg}.b_function", None, oracles.check_b(
                    times, b(times), spec.horizon, spec.insurance.income)))
            if grid_error or b_error:
                ops += [_op(f"{cfg}.{d}", "not run: solve failed") for d in dependents]
                continue

            v = oracles.value(grid.interpolate(rc.t0), b(rc.t0), rc.x0, spec.prefs.gamma)
            report, error = out[cfg, "verify"]
            ops.append(_op(f"{cfg}.verify_fixed_point", error, () if error else oracles.check_fixed_point(report, v)))
            mortality, m_error = out[cfg, "mortality"]
            failures = []
            if not m_error:
                failures = oracles.check_estimate_quality("mortality", mortality)
                if not error:
                    failures += oracles.check_agreement(report.j_estimate, mortality)
                    rel_se.append(report.j_estimate.std_error / abs(v))
            ops.append(_op(f"{cfg}.estimate_J_mortality", m_error, failures))
            if cfg == "exp1":
                euler, error = out[cfg, "euler"]
                ops.append(_op(f"{cfg}.euler.estimate_J_kernel", error, () if error else oracles.check_estimate(
                    "euler", euler, v)))
                ens, error = out[cfg, "wealth"]
                steps = simulation_steps(spec, rc.t0, rc.mc.dt)
                ops.append(_op(f"{cfg}.simulate_wealth", error, () if error else oracles.check_wealth(
                    ens.wealth, ens.alive, b(ens.times), rc.x0, WEALTH_PATHS, steps)))
        self.mc_rel_se = max(rel_se, default=0.0)
        return ops


CLI_COMMANDS = (
    ("solve", "experiment"),
    ("policies", "experiment"),
    ("hump", "hump_k5_n10"),
    ("stationary", "stationary"),
    ("converge", "exp1"),
    ("converge", "experiment"),
    ("converge", "hump_k5_n10"),
)
_CSV_NAMES = {
    "solve": "solution.csv",
    "policies": "policies.csv",
    "hump": "hump.csv",
    "stationary": "stationary.csv",
    "converge": "convergence.csv",
}
_SVG_COMMANDS = ("solve", "policies", "hump")


class CliSuite(Workload):
    """One fresh ``python -m tcpolicy.cli`` per command, one after another.

    The traced pass runs ``cli.run`` in-process instead, preceded by a fresh
    ``-X importtime`` import of the CLI, so the import every command pays is
    still in the pass and shows as the ``setup.import`` layer.
    """

    name = "cli_suite"
    configs = ("experiment", "hump_k5_n10", "stationary", "exp1")
    min_passes = 2  # the CSVs of two passes are compared byte for byte

    def __init__(self, *args):
        super().__init__(*args)
        self.first_digests: dict[str, str] | None = None

    def _out_dir(self, index: int, command: str, cfg: str) -> Path:
        return self.run_dir / f"pass{index}" / f"{command}-{cfg}"

    def run_pass(self, index, tracer):
        out = {}
        for command, cfg in CLI_COMMANDS:
            out_dir = self._out_dir(index, command, cfg)
            config = str(self.config_paths[cfg])
            if tracer is None:
                proc = subprocess.run(
                    [sys.executable, "-m", "tcpolicy.cli", command, "--config", config, "--out", str(out_dir)],
                    env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                )
                error = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()}"
            else:
                with tracer.span("setup.import"):
                    proc = subprocess.run(
                        [sys.executable, "-X", "importtime", "-c", "import tcpolicy.cli"],
                        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
                    )
                self.import_seconds.append(import_groups(proc.stderr))
                with contextlib.redirect_stdout(io.StringIO()):
                    _, error = _attempt(lambda: self.m["cli"].run(command, config, str(out_dir)))
            out[command, cfg] = error
        return out

    def check(self, index, out):
        ops = []
        digests = {}
        for command, cfg in CLI_COMMANDS:
            rc = self.rcs[cfg]
            error = out[command, cfg]
            out_dir = self._out_dir(index, command, cfg)
            csv_path = out_dir / _CSV_NAMES[command]
            if error or not csv_path.is_file():
                ops.append(_op(f"{command}.{cfg}", error or f"{csv_path.name} not written"))
                continue
            data = csv_path.read_bytes()
            digests[f"{command}-{cfg}/{csv_path.name}"] = hashlib.sha256(data).hexdigest()
            text = data.decode()
            rows = rc.grid_n + 1
            if command == "solve":
                bounds = self.m["ie_solver"].a_priori_bounds(rc.spec)
                failures = oracles.check_solution_csv(text, rows, bounds, rc.spec.prefs.n, rc.grid_n)
            elif command == "policies":
                solution = self._out_dir(index, "solve", cfg) / "solution.csv"
                failures = (
                    oracles.check_policies_csv(text, rows, solution.read_text(), rc.spec.prefs.gamma)
                    if solution.is_file() else ["no solution.csv from this pass to compare with"]
                )
            elif command == "hump":
                failures = oracles.check_hump_csv(text, rows)
            elif command == "stationary":
                failures = oracles.check_stationary_csv(text, rc.spec)
            else:
                failures = oracles.check_converge_csv(text, rc.grid_n)
                if cfg == "exp1" and not failures:
                    _, table = oracles.read_csv(text, "converge", 2)
                    # max-abs error at 2N over min a: an upper bound on the max relative error
                    self.a_rel_err = float(table[1, 1] / np.min(self.exp_reference))
            if command in _SVG_COMMANDS and rc.emit_svg:
                svg = out_dir / (csv_path.stem + ".svg")
                failures += oracles.check_svg(svg.read_text()) if svg.is_file() else [f"{svg.name} not written"]
            ops.append(_op(f"{command}.{cfg}", None, failures))
        if self.first_digests is None:
            self.first_digests = digests
        else:
            ops.append(_op("csv_bytes_identical", None, oracles.check_identical(self.first_digests, digests)))
        shutil.rmtree(self.run_dir / f"pass{index}", ignore_errors=True)
        return ops


WORKLOADS = {w.name: w for w in (SolveSweep, McVerify, CliSuite)}

