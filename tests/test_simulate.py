"""Seeded Monte Carlo: determinism, estimator agreement, sampling laws."""

import dataclasses
import json
import math
import operator
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tcpolicy import (
    AffineHazard,
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
from tcpolicy.policy import FeedbackRates, feedback_rates
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
    sim_module._samples.cache_clear()  # the second run recomputes every path
    r2 = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, CFG)
    assert r1 == r2


def _same_ensemble(e1, e2):
    return np.array_equal(e1.wealth, e2.wealth, equal_nan=True) and np.array_equal(e1.alive, e2.alive)


def _chunk(spec, cfg):
    """The chunk of the Brownian stream for ``spec`` and ``cfg``, in paths."""
    return sim_module._chunk_paths(sim_module._SimContext(spec, *_constant_curves(1.0), 0.0, 1.0, cfg).n_steps)


def _block_bytes(chunks, spec, cfg):
    """The ``_BLOCK_BYTES`` that makes blocks of ``chunks`` chunks for ``spec`` and ``cfg``."""
    ctx = sim_module._SimContext(spec, *_constant_curves(1.0), 0.0, 1.0, cfg)
    return chunks * sim_module._chunk_paths(ctx.n_steps) * ctx.row_bytes


def _rejecting_euler_case(exp1_spec):
    """A Merton fraction of 87.5 and coarse steps (10, not a multiple of 4):
    2.3% of the 1000 Euler paths cross the floor."""
    spec = dataclasses.replace(exp1_spec, market=MarketParams(r=0.05, alpha=0.12, sigma=0.02))
    return (spec, *_constant_curves(1.0), SimConfig(paths=1000, seed=2, dt=0.1, scheme=EULER))


_RUNS = {"kernel": (estimate_J_kernel, operator.eq), "mortality": (estimate_J_mortality, operator.eq),
         "wealth": (simulate_wealth, _same_ensemble)}


@pytest.mark.filterwarnings("ignore:Euler rejection")
@pytest.mark.parametrize(
    "run, same, case",
    [pytest.param(*_RUNS[name], "exp1", id=name) for name in _RUNS]
    + [pytest.param(*_RUNS[name], "euler_rejected", id=f"euler_rejected-{name}") for name in _RUNS],
)
def test_estimates_independent_of_chunking(exp1_spec, exp1_solution, monkeypatch, run, same, case):
    # neither the block size nor the number of worker threads moves a bit of
    # any path's sample; a short switch interval makes the threads interleave.
    # Blocks of 1, 2 and 7 chunks leave a last, partial block and chunk: at
    # 500 steps the chunk is 131 paths and 8000 = 61 x 131 + 9; at 10 steps
    # it is 6553 and 20000 = 3 x 6553 + 341.  The last block must not read
    # the scratch rows of the last full block
    if case == "exp1":
        spec, (a_curve, b_curve), cfg = exp1_spec, exp1_solution, CFG
    else:
        spec, a_curve, b_curve, cfg = _rejecting_euler_case(exp1_spec)
        cfg = dataclasses.replace(cfg, paths=20_000)
    samples = []
    report = sim_module._report_from_samples
    monkeypatch.setattr(sim_module, "_report_from_samples", lambda s: samples.append(s) or report(s))
    base = run(spec, a_curve, b_curve, 0.0, 1.0, cfg)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for chunks in (1, 2, 7):
            monkeypatch.setattr(sim_module, "_BLOCK_BYTES", _block_bytes(chunks, spec, cfg))
            for workers in (1, 2, 3):
                monkeypatch.setattr(sim_module, "_WORKERS", workers)
                sim_module._samples.cache_clear()  # recompute at this block size and thread count
                chunked = run(spec, a_curve, b_curve, 0.0, 1.0, cfg)
                assert same(base, chunked), f"blocks of {chunks} chunks, {workers} workers"
    finally:
        sys.setswitchinterval(interval)
    assert len(samples) == (0 if run is simulate_wealth else 10)
    assert all(np.array_equal(samples[0], s) for s in samples[1:])


@pytest.mark.parametrize("scheme", [EXACT_Y, EULER])
def test_first_paths_independent_of_path_count(exp1_spec, exp1_solution, monkeypatch, scheme):
    # a last, partial chunk takes a prefix of its chunk's normals, so the
    # first k paths' samples are the same at k and k + 50 paths: at 1000
    # steps the chunk is 65 paths and k = 100 is not a multiple of it, and
    # blocks of one chunk make both counts end in a partial block
    a_curve, b_curve = exp1_solution
    k, cfg = 100, SimConfig(paths=100, seed=31, dt=1e-3, scheme=scheme)
    monkeypatch.setattr(sim_module, "_BLOCK_BYTES", _block_bytes(1, exp1_spec, cfg))
    assert k % _chunk(exp1_spec, cfg)
    kernel, mortality = sim_module._samples(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    more = sim_module._samples(exp1_spec, a_curve, b_curve, 0.0, 1.0, dataclasses.replace(cfg, paths=k + 50))
    assert kernel.size == mortality.size == k
    assert np.array_equal(more[0][:k], kernel) and np.array_equal(more[1][:k], mortality)
    wealth = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    more_wealth = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, dataclasses.replace(cfg, paths=k + 50))
    assert np.array_equal(more_wealth.wealth[:k], wealth.wealth)


def test_blocks_run_in_the_callers_error_state(exp1_spec, exp1_solution, monkeypatch):
    # 10000 steps make chunks of 6 paths, and blocks of one chunk make 4
    a_curve, b_curve = exp1_solution
    ctx = sim_module._SimContext(exp1_spec, a_curve, b_curve, 0.0, 1.0, SimConfig(24, 1, 1e-4))
    assert sim_module._chunk_paths(ctx.n_steps) == 6
    monkeypatch.setattr(sim_module, "_BLOCK_BYTES", 6 * ctx.row_bytes)
    states = [None] * 4

    def reduce(start, log_y, ok):
        states[start // 6] = np.geterr()["over"]

    with np.errstate(over="raise"):
        ctx.map_blocks(reduce)
    assert states == ["raise"] * 4


@pytest.mark.parametrize("scheme", [EXACT_Y, EULER])
def test_working_set_bounded_per_worker(exp1_spec, exp1_solution, monkeypatch, scheme):
    # tracemalloc sees numpy's buffers.  A pass holds two scratch arrays of
    # _BLOCK_BYTES per worker and the 2 x paths samples; the bound's extra
    # half array per worker covers each block's small arrays and the tables
    # that grow with the steps (the Euler shifts e_k, one 0-d array a node).
    # Measured on 2 workers at 8 MiB: 33.1 / 34.1 MiB (exact_y) and
    # 33.2 / 34.3 MiB (euler) at 1000 / 4000 steps, against a bound of
    # 40.1 MiB; blocks of 4096 paths in fresh arrays peaked at 125 and 501
    import tracemalloc

    a_curve, b_curve = exp1_solution
    monkeypatch.setattr(sim_module, "_WORKERS", 2)
    paths, peaks = 8192, []
    for dt in (1e-3, 2.5e-4):  # 1000 and 4000 steps
        sim_module._samples.cache_clear()
        tracemalloc.start()
        try:
            estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, SimConfig(paths, 1, dt, scheme))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 2.5 * 2 * sim_module._BLOCK_BYTES + 2 * 8 * paths, peaks
    assert peaks[1] - peaks[0] <= 4 << 20, peaks


_WORKER_IMPORT_PROBE = """\
import json, sys, threading
import tcpolicy as tc
from tcpolicy import simulate

random_on_import = "numpy.random" in sys.modules
spec = tc.ModelSpec(
    market=tc.MarketParams(r=0.05, alpha=0.12, sigma=0.2),
    mortality=tc.ConstantHazard(0.02),
    discount=tc.Exponential(0.1),
    prefs=tc.PreferenceParams(gamma=-1.0, n=1.0, m_weight=tc.ConstantWeight(1.0),
                              bequest_discount=tc.Exponential(0.1)),
    insurance=tc.InsuranceIncomeSpec(payout=tc.ConstantPayout(50.0)),
    horizon=1.0,
)
grid, b = tc.solve_a(spec, N=200), tc.b_function(spec)
off_main, block_threads = [], []

def hook(event, args):
    if event == "import" and threading.current_thread() is not threading.main_thread():
        off_main.append(args[0])

sys.addaudithook(hook)
draw = simulate._path_normals
simulate._path_normals = lambda *args: block_threads.append(threading.get_ident()) or draw(*args)
simulate._WORKERS, simulate._BLOCK_BYTES = 2, 65 * 8 * 1001  # blocks of one chunk, 65 paths of 1001 nodes
tc.verify_fixed_point(spec, grid.a_curve, b, 0.0, 1.0, tc.SimConfig(paths=260, seed=1, dt=1e-3))
print(json.dumps({"off_main": off_main, "random_on_import": random_on_import,
                  "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"],
                  "blocks": len(block_threads), "main": threading.main_thread().ident in block_threads}))
"""


def test_no_module_is_first_imported_on_a_worker_thread():
    # a module imported first by a worker thread lands in that thread's
    # malloc arena: scipy.special, which the normals once needed, raised the
    # peak RSS of perfbench's mc_verify from 218 to 249 MiB in 3 of 3 runs
    # that way.  numpy.random, which the draws need, is imported by the pass
    # on the calling thread, not with the module (it adds about 2 MiB to a
    # process that runs no pass), and the pass loads no scipy at all
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _WORKER_IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(result.stdout.splitlines()[-1])
    assert probe["off_main"] == []
    assert not probe["random_on_import"]
    assert probe["scipy"] == []
    assert probe["blocks"] == 4 and not probe["main"]


# ---------------------------------------------------------------------------
# One pass for both estimators
# ---------------------------------------------------------------------------


def _count_normal_draws(monkeypatch):
    """Patch ``_path_normals`` to count its calls; returns the counter list."""
    calls = []
    draw = sim_module._path_normals
    monkeypatch.setattr(sim_module, "_path_normals", lambda *args: calls.append(args) or draw(*args))
    return calls


def test_kernel_and_mortality_draw_each_block_once(exp1_spec, exp1_solution, monkeypatch):
    # at 1000 steps the chunk is 65 paths: blocks of two chunks, 130 paths
    a_curve, b_curve = exp1_solution
    cfg = SimConfig(paths=450, seed=9, dt=1e-3)
    monkeypatch.setattr(sim_module, "_BLOCK_BYTES", _block_bytes(2, exp1_spec, cfg))
    calls = _count_normal_draws(monkeypatch)
    estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    estimate_J_mortality(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert sorted(start for _, start, _, _ in calls) == [0, 130, 260, 390]
    # the bound method compares equal to itself under another name
    grid = solve_a(exp1_spec, 1000)
    assert grid.interpolate == grid.a_curve
    calls.clear()
    verify_fixed_point(exp1_spec, grid.a_curve, b_curve, 0.0, 1.0, cfg)
    estimate_J_mortality(exp1_spec, grid.interpolate, b_curve, 0.0, 1.0, cfg)
    assert len(calls) == 4


@pytest.mark.parametrize("scheme", [EXACT_Y, EULER])
@pytest.mark.parametrize("first", ["kernel", "mortality"])
def test_memo_hit_equals_fresh_pass(exp1_spec, exp1_solution, scheme, first):
    a_curve, b_curve = exp1_solution
    cfg = SimConfig(paths=2000, seed=17, dt=5e-3, scheme=scheme)
    run = {"kernel": estimate_J_kernel, "mortality": estimate_J_mortality}
    second = "mortality" if first == "kernel" else "kernel"
    run[first](exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    hit = run[second](exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    sim_module._samples.cache_clear()
    fresh = run[second](exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert hit == fresh and hit.paths_used == cfg.paths


def test_memo_misses_on_any_key_change(exp1_spec, exp1_solution, monkeypatch):
    a_curve, b_curve = exp1_solution
    cfg = SimConfig(paths=300, seed=4, dt=1e-2)
    base = (exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    other_spec = dataclasses.replace(exp1_spec, mortality=ConstantHazard(0.03))
    same_values = lambda t: a_curve(t)  # another object with the same values
    changes = ({"seed": 5}, {"paths": 301}, {"dt": 2e-2}, {"scheme": EULER})
    variants = [base[:5] + (dataclasses.replace(cfg, **change),) for change in changes]
    variants += [
        (exp1_spec, a_curve, b_curve, 0.1, 1.0, cfg),
        (exp1_spec, a_curve, b_curve, 0.0, 1.5, cfg),
        (other_spec, a_curve, b_curve, 0.0, 1.0, cfg),
        (exp1_spec, same_values, b_curve, 0.0, 1.0, cfg),
        (exp1_spec, a_curve, lambda t: b_curve(t), 0.0, 1.0, cfg),
    ]
    calls = _count_normal_draws(monkeypatch)
    for args in variants:
        estimate_J_kernel(*base)
        calls.clear()
        estimate_J_mortality(*base)
        assert not calls  # the control: equal arguments hit
        estimate_J_mortality(*args)
        assert calls, args


def test_memo_hit_still_warns_on_euler_rejection(exp1_spec, monkeypatch):
    spec = dataclasses.replace(exp1_spec, market=MarketParams(r=0.05, alpha=0.12, sigma=0.02))
    a_curve, b_curve = _constant_curves(1.0)
    cfg = SimConfig(paths=1000, seed=2, dt=0.1, scheme=EULER)
    with pytest.warns(UserWarning, match="rejection"):
        jk = estimate_J_kernel(spec, a_curve, b_curve, 0.0, 1.0, cfg)
    calls = _count_normal_draws(monkeypatch)
    with pytest.warns(UserWarning, match="rejection"):
        jm = estimate_J_mortality(spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert not calls
    assert jm.paths_used == jk.paths_used < cfg.paths


def _normals(seed, first_path, paths, steps):
    """``_path_normals`` of ``paths`` paths, drawn into an array of their own
    (one row of ``steps`` Brownian draws per path)."""
    return _path_normals(seed, first_path, steps, np.empty((paths, steps)))


def _brownian_uniforms(seed, draws):
    """The first ``draws`` uniforms of the Brownian stream, in one contiguous
    draw from the stream's documented construction."""
    bg = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(sim_module._STREAM_BROWNIAN,)))
    return np.random.Generator(bg).random(draws)


def _chunk_normals(seed, chunk, paths, steps):
    """``paths`` rows of ``steps`` ziggurat normals from the Brownian stream
    jumped to draw ``chunk << 64``, from the stream's documented construction."""
    bg = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(sim_module._STREAM_BROWNIAN,)))
    bg.advance(chunk << 64)
    return np.random.Generator(bg).standard_normal((paths, steps))


def test_path_normals_are_per_path_substreams():
    # path i's increments depend neither on how many paths are drawn nor on
    # which chunk the draw starts at: 1001 steps make chunks of 65 paths
    a = _normals(7, 0, 200, 1001)
    assert np.array_equal(_normals(7, 65, 100, 1001), a[65:165])
    assert np.array_equal(_normals(7, 130, 1, 1001), a[130:131])
    assert np.array_equal(_path_death_uniforms(7, 2, 5), _path_death_uniforms(7, 0, 10)[2:7])


@pytest.mark.parametrize("steps", [25, 1001, 2**16 + 1])  # chunks of 2621, 65 and 1 paths
def test_path_normals_draw_each_chunk_from_its_substream(steps):
    # chunk c's rows are one standard_normal draw of the Brownian stream
    # jumped to draw c << 64, and a last, partial chunk is a prefix of it;
    # a draw that starts at any chunk reproduces the same rows
    chunk = sim_module._chunk_paths(steps)
    assert chunk == max(1, 2**16 // steps)
    paths = 2 * chunk + (chunk + 1) // 2
    full = _normals(11, 0, paths, steps)
    for c, first in enumerate(range(0, paths, chunk)):
        rows = full[first : first + chunk]
        assert np.array_equal(rows, _chunk_normals(11, c, chunk, steps)[: len(rows)]), c
        assert np.array_equal(_normals(11, first, paths - first, steps), full[first:]), c
        assert np.array_equal(_normals(11, first, 1, steps), full[first : first + 1]), c


@pytest.mark.parametrize("steps, first", [(1001, 1), (1001, 64), (1001, 66), (25, 2620), (25, 1)])
def test_path_normals_refuse_a_misaligned_first_path(steps, first):
    with pytest.raises(ValueError, match="does not start a chunk"):
        _normals(3, first, 1, steps)


def test_path_normals_are_standard_normal():
    # 1e6 normals: mean within 5 SE (1/sqrt(n)) of 0 and variance within 5 SE
    # (sqrt(2/n)) of 1
    z = _normals(5, 0, 1000, 1000).ravel()
    n = z.size
    assert abs(z.mean()) <= 5.0 / math.sqrt(n)
    assert abs(z.var(ddof=1) - 1.0) <= 5.0 * math.sqrt(2.0 / n)


def test_streams_differ_by_purpose():
    # at one seed the Brownian and death streams are two streams, not one
    # read twice: no draw repeats across them, and over 1e5 paths their
    # uniforms correlate by no more than 4 standard errors (1/sqrt(n))
    n = 100_000
    brownian = _brownian_uniforms(7, n)
    death = _path_death_uniforms(7, 0, n)
    assert not np.any(brownian == death)
    assert abs(np.corrcoef(brownian, death)[0, 1]) <= 4.0 / math.sqrt(n)
    assert not np.array_equal(_normals(7, 0, 4, 8), _normals(8, 0, 4, 8))


def test_wealth_ensemble_deterministic(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    cfg = SimConfig(paths=64, seed=5, dt=1e-2)
    e1 = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    e2 = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert np.array_equal(e1.wealth, e2.wealth)


@pytest.mark.parametrize("scheme", [EXACT_Y, EULER])
def test_wealth_paths_start_at_x0(experiment_spec, scheme):
    # with income, b(t0) > 0 and exp(log(x0 + b(t0))) - b(t0) read x0 - 4.4e-16
    insurance = dataclasses.replace(experiment_spec.insurance, income=0.3)
    spec = dataclasses.replace(experiment_spec, insurance=insurance)
    cfg = SimConfig(paths=16, seed=5, dt=0.1, scheme=scheme)
    ens = simulate_wealth(spec, _constant_curves(1.0)[0], b_function(spec), 0.0, 2.3, cfg)
    assert np.all(ens.wealth[:, 0] == 2.3)


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
    z = _normals(99, 0, paths, steps)
    x = 1.0 + 0.3 * math.sqrt(h) * np.cumsum(z, axis=1)
    means = x.mean(axis=0)
    ses = x.std(axis=0, ddof=1) / math.sqrt(paths)
    assert np.all(np.abs(means - 1.0) <= 3.0 * ses)


def _constant_curves(a):
    a_curve = lambda t: np.full_like(np.asarray(t, dtype=float), a)
    b_curve = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return a_curve, b_curve


def test_euler_rejection_counted_and_warned(exp1_spec):
    # a Merton fraction of 87.5 and coarse steps: a few percent of the
    # Euler paths cross the floor
    spec = dataclasses.replace(exp1_spec, market=MarketParams(r=0.05, alpha=0.12, sigma=0.02))
    a_curve, b_curve = _constant_curves(1.0)
    cfg = SimConfig(paths=1000, seed=2, dt=0.1, scheme=EULER)
    with pytest.warns(UserWarning, match="rejection"):
        ens = simulate_wealth(spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert 0.01 < ens.rejected_fraction < 0.99
    with pytest.warns(UserWarning, match="rejection"):
        est = estimate_J_kernel(spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert est.paths_used == int(ens.alive.sum()) > 0
    assert est.paths_used == round((1.0 - ens.rejected_fraction) * cfg.paths)
    assert math.isfinite(est.mean) and 0.0 < est.std_error < math.inf


def test_euler_all_paths_rejected(exp1_spec):
    # an artificially tiny value coefficient forces huge consumption and
    # drives shifted wealth through the floor on every path
    a_curve, b_curve = _constant_curves(1e-8)
    cfg = SimConfig(paths=200, seed=2, dt=5e-3, scheme=EULER)
    with pytest.warns(UserWarning, match="rejection"):
        ens = simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert ens.rejected_fraction == 1.0 and not ens.alive.any()
    with pytest.warns(UserWarning, match="rejection"):
        est = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert est.paths_used == 0 and math.isnan(est.mean) and est.std_error == math.inf


def test_standard_error_scales_exactly():
    samples = np.random.default_rng(5).normal(-3.0, 2.0, 1000)
    base = sim_module._report_from_samples(samples)
    big = sim_module._report_from_samples(samples * 2.0**600)  # squares beyond the double range
    assert math.isfinite(big.std_error)
    assert big.std_error == base.std_error * 2.0**600
    assert big.mean == base.mean * 2.0**600


def test_euler_huge_samples_give_finite_standard_error(exp1_spec):
    # a = 2.8e-5 just above the all-rejected range: surviving paths give
    # samples near 1e301, whose squares overflow unless scaled first
    a_curve, b_curve = _constant_curves(2.8e-5)
    cfg = SimConfig(paths=1000, seed=2, dt=5e-3, scheme=EULER)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.warns(UserWarning, match="rejection"):
            est = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, cfg)
    assert est.paths_used > 0
    assert 1e250 < abs(est.mean) < math.inf
    assert 0.0 < est.std_error < math.inf


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
        sim_module, "_path_normals", lambda seed, first, steps, out: np.zeros((len(out), steps))
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


@pytest.mark.parametrize("hazard, horizon", [(AffineHazard(0.05, -0.01), 1.0), (AffineHazard(0.4, -0.1), 4.0)])
def test_kernel_and_mortality_agree_under_decreasing_hazard(exp1_spec, hazard, horizon):
    # a decreasing hazard integrates to at most lambda0^2 / (2 |lambda1|)
    # (0.125 and 0.8 here): a path whose Exp(1) draw lies above (88% and
    # 45% of them) never dies; the second hazard falls to 0 at T
    spec = dataclasses.replace(exp1_spec, mortality=hazard, horizon=horizon)
    grid = solve_a(spec, 400)
    b = b_function(spec)
    cfg = SimConfig(paths=20_000, seed=3, dt=4e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jk = estimate_J_kernel(spec, grid.interpolate, b, 0.0, 1.0, cfg)
        jm = estimate_J_mortality(spec, grid.interpolate, b, 0.0, 1.0, cfg)
    assert abs(jk.mean - jm.mean) <= 3.0 * math.hypot(jk.std_error, jm.std_error)


def test_stderr_scales_with_paths(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    r1 = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, SimConfig(8000, 77, 2e-3))
    r2 = estimate_J_kernel(exp1_spec, a_curve, b_curve, 0.0, 1.0, SimConfig(16000, 77, 2e-3))
    assert 1.3 <= r1.std_error / r2.std_error <= 1.5


# Reference estimators: the utilities evaluated at every node, then a pairwise
# trapezoid sum.  The node-weight estimators must match them per sample.


def _reference_kernel_samples(spec, ctx, y, alive):
    """The kernel samples and, per sample, the sum of the magnitudes of the
    terms it adds up: each node's trapezoid-weighted ``Q U(c Y)`` and
    ``q U(z Y)``, and the terminal ``n Q(T) U(Y(T))``."""
    t0, gamma, rates = ctx.t0, ctx.gamma, ctx.rates
    Qv = np.asarray(kernel_Q(spec, ctx.times, t0), dtype=float)
    qv = np.asarray(kernel_q(spec, ctx.times, t0), dtype=float)
    trapezoid = np.full(ctx.n_steps + 1, ctx.h)
    trapezoid[[0, -1]] *= 0.5
    with np.errstate(invalid="ignore", divide="ignore"):
        consumption = Qv * crra_utility(rates.consumption * y, gamma)
        bequest = qv * crra_utility(rates.bequest * y, gamma)
        terminal = spec.prefs.n * Qv[-1] * crra_utility(y[:, -1], gamma)
        f = consumption + bequest
        j = np.sum(0.5 * ctx.h * (f[:, :-1] + f[:, 1:]), axis=1) + terminal
        size = (np.abs(consumption) + np.abs(bequest)) @ trapezoid + np.abs(terminal)
    return j[alive], size[alive]


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


def _reference_euler(ctx, normals):
    """Euler-Maruyama ``(Y, alive)`` one step at a time over path-major rows,
    with the feedback map of each node built afresh."""
    market, income = ctx.spec.market, ctx.spec.insurance.income
    B = normals.shape[0]
    sq_h = math.sqrt(ctx.h)
    x = np.empty((B, ctx.n_steps + 1))
    x[:, 0] = ctx.x0
    alive = np.ones(B, dtype=bool)
    for k in range(ctx.n_steps):
        xk = x[:, k]
        y = xk + ctx.b[k]
        full = ctx.rates
        rates = FeedbackRates(full.merton, full.consumption[k], full.bequest[k], full.inv_l[k], full.eta)
        f1 = rates.merton * y
        drift = (
            market.r * xk + market.mu * f1 - rates.consumption * y
            - rates.premium(xk, ctx.b[k]) + income
        )
        with np.errstate(invalid="ignore"):
            x_next = xk + drift * ctx.h + market.sigma * f1 * sq_h * normals[:, k]
            dead_now = alive & ~(x_next + ctx.b[k + 1] > 0.0)
        alive &= ~dead_now
        x[:, k + 1] = np.where(alive, x_next, np.nan)
    x += ctx.b
    return x, alive


def _reference_euler_y(ctx, normals):
    """Euler-Maruyama ``(Y, alive)`` of Y = X + b one step at a time over
    path-major rows: the float operations of ``euler_block``, in its order."""
    market, ins, h = ctx.spec.market, ctx.spec.insurance, ctx.h
    inv_l = np.broadcast_to(ctx.rates.inv_l, ctx.b.shape)
    scale = ctx.kappa * math.sqrt(h)
    y = np.empty((normals.shape[0], ctx.n_steps + 1))
    y[:, 0] = ctx.y0
    for k in range(ctx.n_steps):
        shift = ctx.b[k + 1] - ctx.b[k] - h * ((market.r + ins.eta * inv_l[k]) * ctx.b[k] - ins.income)
        y_next = y[:, k] * (normals[:, k] * scale + (1.0 + ctx.nu[k] * h)) + shift
        with np.errstate(invalid="ignore"):
            y[:, k + 1] = np.where(y_next > 0.0, y_next, np.nan)
    return y, ~np.isnan(y[:, -1])


def _income_rejecting_euler_case(experiment_spec):
    """Experiment with a constant Pareto weight, income 0.3, a Merton fraction
    of 87.5 and coarse steps, from x0 = 0.2: b's own Euler step misses b by up
    to 8.9e-5 a step, and 10.3% of the 1000 Euler paths cross the floor."""
    spec = dataclasses.replace(
        experiment_spec,
        market=MarketParams(r=0.05, alpha=0.12, sigma=0.02),
        prefs=dataclasses.replace(experiment_spec.prefs, m_weight=ConstantWeight(1.0)),
        insurance=dataclasses.replace(experiment_spec.insurance, income=0.3),
    )
    cfg = SimConfig(paths=1000, seed=2, dt=0.1, scheme=EULER)
    return spec, _constant_curves(1.0)[0], b_function(spec), cfg, 0.2


_EULER_CASES = ["exp1", "experiment", "experiment_income", "exp1_sigma", "euler_rejected", "income_rejected"]


def _euler_case(name, exp1_spec, experiment_spec):
    """``(spec, a_curve, b_curve, cfg, x0)``; the last two cases reject paths."""
    if name == "euler_rejected":
        return (*_rejecting_euler_case(exp1_spec), 1.0)
    if name == "income_rejected":
        return _income_rejecting_euler_case(experiment_spec)
    spec = exp1_spec if name.startswith("exp1") else experiment_spec
    if name == "experiment_income":
        spec = dataclasses.replace(spec, insurance=dataclasses.replace(spec.insurance, income=0.3))
    if name == "exp1_sigma":
        spec = dataclasses.replace(spec, market=MarketParams(r=0.05, alpha=0.12, sigma=0.6))
    grid = solve_a(spec, 400)
    return spec, grid.interpolate, b_function(spec), SimConfig(paths=700, seed=23, dt=4e-3, scheme=EULER), 1.0


def _euler_paths(name, exp1_spec, experiment_spec):
    """The case's context, its normals and ``euler_block``'s ``(Y, alive)``, Y path-major."""
    spec, a_curve, b_curve, cfg, x0 = _euler_case(name, exp1_spec, experiment_spec)
    ctx = sim_module._SimContext(spec, a_curve, b_curve, 0.0, x0, cfg)
    normals = _normals(cfg.seed, 0, cfg.paths, ctx.n_steps)
    factors = np.empty((ctx.n_steps, cfg.paths))
    y, alive = ctx.euler_block(normals, factors, np.empty((ctx.n_steps + 1, cfg.paths)))
    assert alive.all() == (not name.endswith("rejected"))  # only the last two cases reject paths
    return ctx, normals, y.T, alive


@pytest.mark.parametrize("name", _EULER_CASES)
def test_step_major_euler_matches_per_step_reference(exp1_spec, experiment_spec, name):
    # the step-major loop applies the same float operations in the same order
    # to each path, so Y, its NaN rows and alive agree bit for bit
    ctx, normals, y, alive = _euler_paths(name, exp1_spec, experiment_spec)
    y_ref, alive_ref = _reference_euler_y(ctx, normals)
    assert y.tobytes() == y_ref.tobytes()
    assert np.array_equal(alive, alive_ref)
    assert np.isnan(y_ref[~alive_ref, -1]).all()


@pytest.mark.parametrize("name", _EULER_CASES)
def test_euler_in_y_matches_wealth_sde_in_x(exp1_spec, experiment_spec, name):
    # the Y step is the X-form Euler step of the wealth SDE shifted by b, so
    # the two reject the same paths at the same steps and agree to rounding.
    # Largest relative differences measured on alive nodes: 5.2e-15 (exp1),
    # 9.5e-15 (experiment), 9.2e-15 (experiment_income), 5.1e-15
    # (exp1_sigma), 2.1e-13 (euler_rejected) and 8.2e-14 (income_rejected);
    # a path that nears the floor, where the step factor nears 0, loses
    # relative digits in either form
    ctx, normals, y, alive = _euler_paths(name, exp1_spec, experiment_spec)
    y_x, alive_x = _reference_euler(ctx, normals)
    assert np.array_equal(alive, alive_x)
    assert np.array_equal(np.isnan(y), np.isnan(y_x))
    nodes = ~np.isnan(y_x)
    bound = 1e-12 if name.endswith("rejected") else 1e-13
    assert np.max(np.abs(y[nodes] - y_x[nodes]) / y_x[nodes]) <= bound


def _reference_paths(ctx, cfg):
    normals = _normals(cfg.seed, 0, cfg.paths, ctx.n_steps)
    if cfg.scheme == EULER:
        return _reference_euler_y(ctx, normals)
    # one multiply by the step's volatility kappa sqrt(h), as the sampler does
    log_noise = np.concatenate(
        [np.zeros((cfg.paths, 1)), np.cumsum(normals, axis=1) * (ctx.kappa * math.sqrt(ctx.h))], axis=1
    )
    y = np.exp(math.log(ctx.y0) + ctx.log_drift_prefix + log_noise)
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
        return (*_rejecting_euler_case(exp1_spec), ("kernel", "mortality"))
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
        log_y = ctx.path_block(0, cfg.paths, ctx.scratch(cfg.paths))[0]
        assert np.array_equal(np.exp(log_y), y)  # the paths are unchanged
    else:
        assert 0.0 < alive.mean() < 1.0
    expected = {}
    expected["kernel"], kernel_sizes = _reference_kernel_samples(spec, ctx, y, alive)
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
        if name == "log_utility":
            # log Y takes both signs, so a sample's terms can cancel (one
            # sample of -5.5e-4 sums terms of order 1) and its rounding is
            # bounded against the sum of their magnitudes; measured at most
            # 1.6e-15 of it
            assert np.max(np.abs(got - ref) / kernel_sizes) <= 1e-14, estimator
        else:
            # U(c Y) has one sign for power utility: the terms never cancel
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


@pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
def test_sim_config_refuses_seed_outside_64_bits(seed):
    # the stream key masked the seed to 64 bits: seeds -1 and 2^64 - 1 gave
    # the same estimate, and so did 5 and 5 + 2^64
    with pytest.raises(ValidationError, match="seed"):
        SimConfig(paths=10, seed=seed, dt=1e-3)
    assert SimConfig(paths=10, seed=2**64 - 1, dt=1e-3).seed == 2**64 - 1


def test_sim_config_refuses_fractional_paths():
    with pytest.raises(ValidationError, match="paths"):
        SimConfig(paths=1.5, seed=1, dt=1e-3)


@pytest.mark.parametrize("x0", [math.nan, math.inf])
@pytest.mark.parametrize("run", [estimate_J_kernel, estimate_J_mortality, simulate_wealth])
def test_nonfinite_start_wealth_refused(exp1_spec, exp1_solution, run, x0):
    # x0 = nan gave NaN estimates and x0 = inf gave 0.0 +- 0.0
    a_curve, b_curve = exp1_solution
    with pytest.raises(ValidationError, match="floor"):
        run(exp1_spec, a_curve, b_curve, 0.0, x0, SimConfig(paths=50, seed=1, dt=0.01))


def test_start_state_validation(exp1_spec, exp1_solution):
    a_curve, b_curve = exp1_solution
    with pytest.raises(ValidationError, match="floor"):
        simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 0.0, CFG)  # x0 + b = 0
    with pytest.raises(ValidationError, match="dt"):
        simulate_wealth(exp1_spec, a_curve, b_curve, 0.0, 1.0, SimConfig(10, 1, 0.2))
    with pytest.raises(ValidationError):
        simulate_wealth(exp1_spec, a_curve, b_curve, 1.0, 1.0, CFG)  # t0 = T
