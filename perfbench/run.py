"""Benchmark of tcpolicy: one workload per run, or every workload in turn.

Run one workload (the last line of standard output is the JSON result)::

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from wrapped calls into each module, plus the tracing
overhead against untraced passes of the same run.  Run every workload,
untraced and traced, print every metric with its unit, and exit non-zero
when any oracle check fails::

    python3 perfbench/run.py --workload all

A run repeats whole passes of its workload until the next pass would end
after ``--seconds`` (at least ``min_passes``), and reports medians.  A
workload with ``process_per_config`` runs each config's share of a pass in
a fresh interpreter: this script again, with the hidden ``--child-config``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import FAMILIES, FUNCTIONS, SOLVE_SWEEP_N, Tracer, traced  # noqa: E402
from workloads import CHILD_TIMEOUT_S, CONFIGS, IMPORT_GROUPS, SRC, WORKLOADS  # noqa: E402

SCRATCH = HERE / "scratch"
SETUP_REPS = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "a_rel_err": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for fn in FUNCTIONS:
        units.update({f"{fn}_s": "s", f"{fn}.self_s": "s", f"{fn}.calls": "count"})
    for family in FAMILIES:
        for n in SOLVE_SWEEP_N:
            units[f"ie_solver.solve_a_s.{family}.N{n}"] = "s"
    units.update(
        {
            "ie_solver.memory_terms": "count",
            "simulate.path_steps": "count",
            "simulate.normals_bytes": "B",
            "simulate.euler.paths_used_frac": "ratio",
            "simulate.mc_rel_se": "ratio",
            "cli.bytes_written": "B",
            "setup.import_s": "s",
            "setup.import.calls": "count",
        }
    )
    units.update({f"setup.import.{group}_s": "s" for group in IMPORT_GROUPS})
    units.update(
        {
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s",
            "trace.remainder_s": "s",
            "trace.accounted_frac": "ratio",
        }
    )
    return units


def _one_pass(workload, index: int, tracer: Tracer | None):
    """Wall seconds of one pass (traced only inside it), and its checked operations."""
    with traced(tracer, workload.m) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        outputs = workload.run_pass(index, tracer)
        wall = time.perf_counter() - start
    return wall, workload.check(index, outputs)


def _pass_in_processes(workload, index: int, tracer: Tracer | None, seed: int, run_id: str):
    """One pass as a fresh interpreter per config, one at a time; walls, ops and spans summed."""
    wall, ops = 0.0, []
    for cfg in workload.configs:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name, "--seed", str(seed),
               "--trace", str(int(tracer is not None)), "--child-config", cfg, "--child-pass", str(index),
               "--run-id", run_id]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            ops.append((f"{cfg}.pass", [f"no result within {CHILD_TIMEOUT_S} s"]))
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ops.append((f"{cfg}.pass", [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]))
            continue
        result = json.loads(lines[-1])
        wall += result["wall"]
        ops += [(op, failures) for op, failures in result["ops"]]
        if result["a_rel_err"] is not None:
            workload.a_rel_err = result["a_rel_err"]
        if tracer is not None:
            tracer.merge(result["spans"], result["counts"])
    return wall, ops


def _median_dict(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _layer_metrics(workload, tracers, traced_walls, walls, setup) -> dict[str, float]:
    per_pass = []
    for tracer, wall in zip(tracers, traced_walls):
        m = tracer.layer_metrics()
        remainder = wall - tracer.top_level_seconds()
        m["trace.remainder_s"] = remainder
        m["trace.accounted_frac"] = (sum(tracer.self_times()) + remainder) / wall
        per_pass.append(m)
    layer = _median_dict(per_pass)
    if workload.import_seconds:  # cli_suite: every command imports in the pass
        layer.update({f"setup.import.{g}_s": sum(d[g] for d in workload.import_seconds) / len(tracers)
                      for g in IMPORT_GROUPS})
    else:  # in-process workloads import once, in set-up
        layer["setup.import_s"] = statistics.median(extra["import_s"] for _, extra in setup)
        layer["setup.import.calls"] = 1.0
        layer.update({f"setup.import.{g}_s": statistics.median(extra[g] for _, extra in setup)
                      for g in IMPORT_GROUPS})
    attempted = layer["simulate.euler.paths_attempted"]
    layer["simulate.euler.paths_used_frac"] = layer["simulate.euler.paths_used"] / attempted if attempted else 0.0
    layer["simulate.mc_rel_se"] = workload.mc_rel_se
    layer["trace.wall_s"] = statistics.median(traced_walls)
    layer["trace.untraced_wall_s"] = statistics.median(walls)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
    return {name: layer[name] for name in per_layer_units()}


def _program_modules() -> dict | None:
    """The tcpolicy modules a workload drives, or None when the sources are missing."""
    missing = [str(p) for p in (SRC / "tcpolicy" / "__init__.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(missing)}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    from tcpolicy import cli, closed_form, ie_solver, model, policy, simulate

    return {"cli": cli, "closed_form": closed_form, "ie_solver": ie_solver, "model": model,
            "policy": policy, "simulate": simulate}


def run_child(name: str, seed: int, trace: bool, cfg: str, index: int, run_id: str) -> int:
    """One config's share of pass ``index``; prints its wall, ops and spans as JSON."""
    modules = _program_modules()
    if modules is None:
        return 2
    run_dir = SCRATCH / run_id / f"pass{index}-{cfg}"
    try:
        workload = WORKLOADS[name](modules, seed, run_dir, configs=(cfg,))
        tracer = Tracer(f"{run_id}-pass{index}") if trace else None
        wall, ops = _one_pass(workload, index, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    a_rel_err = workload.a_rel_err
    print(json.dumps({
        "wall": wall,
        "ops": ops,
        "a_rel_err": a_rel_err if a_rel_err == a_rel_err else None,
        "spans": tracer.span_records() if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
    }))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    modules = _program_modules()
    if modules is None:
        return 2
    run_id = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir = SCRATCH / run_id
    try:
        workload = WORKLOADS[name](modules, seed, run_dir)
        one_pass = (functools.partial(_pass_in_processes, seed=seed, run_id=run_id)
                    if workload.process_per_config else _one_pass)
        setup = workload.measure_setup(SETUP_REPS, importtime=trace)
        walls, traced_walls, tracers, ops = [], [], [], []
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            wall, checked = one_pass(workload, len(walls) + len(tracers), None)
            walls.append(wall)
            ops += checked
            if trace:
                tracer = Tracer(f"{run_id}-pass{len(walls) + len(tracers)}")
                wall, checked = one_pass(workload, len(walls) + len(tracers), tracer)
                traced_walls.append(wall)
                tracers.append(tracer)
                ops += checked
            now = time.perf_counter()
            if len(walls) + len(tracers) >= workload.min_passes and now - start + now - cycle_start > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [(op, failures) for op, failures in ops if failures]
    for op, failures in failed[:20]:
        print(f"FAILED {name}.{op}: {'; '.join(failures)}", file=sys.stderr)
    if trace:
        trace_file = SCRATCH / "traces" / f"{run_id}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps([r for t in tracers for r in t.span_records()]) + "\n")
        metrics = _layer_metrics(workload, tracers, traced_walls, walls, setup)
        units = per_layer_units()
    else:
        in_children = name == "cli_suite" or workload.process_per_config
        rss_who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
        a_rel_err = workload.a_rel_err
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(total for total, _ in setup),
            "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024.0,
            # 1.0 (all of a) when the exp1 oracle could not run; the run then fails anyway
            "a_rel_err": a_rel_err if a_rel_err == a_rel_err else 1.0,
        }
        units = END_TO_END
    print(f"{name}: untraced passes {[round(w, 3) for w in walls]} s, traced passes "
          f"{[round(w, 3) for w in traced_walls]} s, {len(ops)} operations, {len(failed)} failed",
          file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process, untraced then traced, one at a time."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}, no result")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            frac = result["failed"] / result["attempted"]
            print(f"{name} trace={trace} correct={str(result['correct']).lower()} "
                  f"ops_failed_frac={frac:.6g} ({result['failed']}/{result['attempted']})")
            for metric, m in result["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-config", help=argparse.SUPPRESS)
    parser.add_argument("--child-pass", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--run-id", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child_config:
        return run_child(args.workload, args.seed, bool(args.trace), args.child_config, args.child_pass, args.run_id)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
