"""In-memory spans around calls into the public functions of ``tcpolicy``.

The program itself carries no tracing code: :func:`traced` replaces each
wrapped name on the module object where its caller looks it up, records one
span per call, and restores the original functions on exit.  Spans nest on
a stack (the benchmark is single-threaded), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

FAMILIES = ("exponential", "log_taper", "hyperbolic")
SOLVE_SWEEP_N = (1000, 4000, 16000)

# Every span name a traced run reports, with or without calls in a workload.
FUNCTIONS = (
    "ie_solver.solve_a",
    "ie_solver.convergence_report",
    "ie_solver.a_priori_bounds",
    "closed_form.a_exponential",
    "closed_form.solve_b",
    "closed_form.b_function",
    "closed_form.solve_stationary",
    "model.check_assumption_a1",
    "model.kernel_Q",
    "model.kernel_q",
    "policy.consumption_rate",
    "policy.find_satiation",
    "simulate.verify_fixed_point",
    "simulate.estimate_J_kernel",
    "simulate.estimate_J_mortality",
    "simulate.euler.estimate_J_kernel",
    "simulate.simulate_wealth",
    "cli.parse_config",
    "cli.emit_csv",
    "cli.emit_svg_plot",
    "cli.run",
)

COUNTS = (
    "ie_solver.memory_terms",
    "simulate.path_steps",
    "simulate.normals_bytes",
    "simulate.euler.paths_attempted",
    "simulate.euler.paths_used",
    "cli.bytes_written",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def merge(self, records: list[dict], counts: dict[str, float]) -> None:
        """Append the spans and counts another process recorded for this pass."""
        offset = len(self.spans)
        for r in records:
            parent = None if r["parent"] is None else r["parent"] + offset
            self.spans.append(Span(r["name"], r["start"], r["end"], parent, r["run_id"]))
        for name, amount in counts.items():
            self.count(name, amount)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def top_level_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, total seconds and self seconds per function, plus counts.

        Spans of other names (``setup.import``) report calls and seconds
        only.  A span named ``fn@row`` also adds its duration to the row metric
        ``fn_s.row`` when that row is one of the reported ones.
        """
        out: dict[str, float] = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = 0.0
            out[f"{fn}_s"] = 0.0
            out[f"{fn}.self_s"] = 0.0
        for family in FAMILIES:
            for n in SOLVE_SWEEP_N:
                out[f"ie_solver.solve_a_s.{family}.N{n}"] = 0.0
        own = self.self_times()
        for i, s in enumerate(self.spans):
            fn, _, row = s.name.partition("@")
            out[f"{fn}.calls"] = out.get(f"{fn}.calls", 0.0) + 1
            out[f"{fn}_s"] = out.get(f"{fn}_s", 0.0) + s.end - s.start
            if f"{fn}.self_s" in out:
                out[f"{fn}.self_s"] += own[i]
            if f"{fn}_s.{row}" in out:
                out[f"{fn}_s.{row}"] += s.end - s.start
        for name in COUNTS:
            out[name] = self.counts.get(name, 0.0)
        return out

    def span_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def kernel_family(spec) -> str:
    """The kernel-family label of a solve_a row: what the march's memory sum depends on."""
    if type(spec.discount).__name__ == "Hyperbolic":
        return "hyperbolic"
    if type(spec.prefs.m_weight).__name__ == "LogTaperWeight":
        return "log_taper"
    return type(spec.discount).__name__.lower()


def simulation_steps(spec, t0: float, dt: float) -> int:
    """Steps of one simulated path on [t0, T], as the simulator grids them."""
    return max(1, int(math.ceil((spec.horizon - t0) / dt - 1e-9)))


def _wrap(tracer: Tracer, fn, name_of, after=None):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        with tracer.span(name_of(bound)):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, bound, result)
        return result

    return wrapper


def _after_solve_a(tracer, bound, result):
    n = bound["N"]
    tracer.count("ie_solver.memory_terms", n * (n - 1) // 2)


def _after_estimator(tracer, bound, result):
    cfg = bound["cfg"]
    steps = simulation_steps(bound["spec"], bound["t0"], cfg.dt)
    tracer.count("simulate.path_steps", cfg.paths * steps)
    tracer.count("simulate.normals_bytes", cfg.paths * steps * 8)
    if cfg.scheme == "euler" and hasattr(result, "paths_used"):
        tracer.count("simulate.euler.paths_attempted", cfg.paths)
        tracer.count("simulate.euler.paths_used", result.paths_used)


def _after_emit(tracer, bound, result):
    tracer.count("cli.bytes_written", Path(bound["path"]).stat().st_size)


def _solve_a_name(bound) -> str:
    return f"ie_solver.solve_a@{kernel_family(bound['spec'])}.N{bound['N']}"


def _estimate_J_kernel_name(bound) -> str:
    if bound["cfg"].scheme == "euler":
        return "simulate.euler.estimate_J_kernel"
    return "simulate.estimate_J_kernel"


# (module, attribute, span name, hook run after each call) for every wrapped
# public function.  The model functions appear once per module that imports
# them by name, because that is where their callers look them up.
_WRAPPED = (
    ("ie_solver", "solve_a", _solve_a_name, _after_solve_a),
    ("ie_solver", "convergence_report", "ie_solver.convergence_report", None),
    ("ie_solver", "a_priori_bounds", "ie_solver.a_priori_bounds", None),
    ("ie_solver", "check_assumption_a1", "model.check_assumption_a1", None),
    ("model", "check_assumption_a1", "model.check_assumption_a1", None),
    ("closed_form", "a_exponential", "closed_form.a_exponential", None),
    ("closed_form", "solve_b", "closed_form.solve_b", None),
    ("closed_form", "b_function", "closed_form.b_function", None),
    ("closed_form", "solve_stationary", "closed_form.solve_stationary", None),
    ("closed_form", "kernel_Q", "model.kernel_Q", None),
    ("closed_form", "kernel_q", "model.kernel_q", None),
    ("simulate", "kernel_Q", "model.kernel_Q", None),
    ("simulate", "kernel_q", "model.kernel_q", None),
    ("policy", "consumption_rate", "policy.consumption_rate", None),
    ("policy", "find_satiation", "policy.find_satiation", None),
    ("simulate", "verify_fixed_point", "simulate.verify_fixed_point", None),
    ("simulate", "estimate_J_kernel", _estimate_J_kernel_name, _after_estimator),
    ("simulate", "estimate_J_mortality", "simulate.estimate_J_mortality", _after_estimator),
    ("simulate", "simulate_wealth", "simulate.simulate_wealth", _after_estimator),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "emit_csv", "cli.emit_csv", _after_emit),
    ("cli", "emit_svg_plot", "cli.emit_svg_plot", _after_emit),
    ("cli", "run", "cli.run", None),
)


@contextmanager
def traced(tracer: Tracer, modules: dict):
    """Wrap the public functions of ``modules`` (name -> module) for the block."""
    saved = []
    try:
        for module, attr, name, after in _WRAPPED:
            target = modules[module]
            original = getattr(target, attr)
            saved.append((target, attr, original))
            name_of = name if callable(name) else lambda bound, name=name: name
            setattr(target, attr, _wrap(tracer, original, name_of, after))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
