"""Config parsing, artifact emission, command dispatch, exit codes."""

import csv
import dataclasses
import json
import math
import os
import re
import string
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpolicy.cli import (
    _FAMILIES,
    _solved_curves,
    ConfigError,
    RunConfig,
    emit_csv,
    emit_svg_plot,
    main,
    parse_config,
    serialize_config,
)
from tcpolicy.closed_form import b_function
from tcpolicy.ie_solver import solve_a
from tcpolicy.model import (
    AffineExponential,
    AffineHazard,
    ConstantHazard,
    ConstantPayout,
    ConstantWeight,
    Exponential,
    Hyperbolic,
    InsuranceIncomeSpec,
    InverseHazardPayout,
    LogTaperWeight,
    MarketParams,
    ModelSpec,
    PreferenceParams,
    SumOfExponentials,
)
from tcpolicy.policy import policy_at
from tcpolicy.simulate import EULER, EXACT_Y, SimConfig

from conftest import long_income_config_text

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

EXP1_TEXT = """\
# exponential reference instance
horizon = 1.0
market.r = 0.05
market.alpha = 0.12
market.sigma = 0.2
mortality.family = constant
mortality.lambda0 = 0.02
discount.family = exponential
discount.rho = 0.1
insurance.payout.family = constant
insurance.payout.value = 50
insurance.eta = 1.0
income.rate = 0.0
preferences.gamma = -1
preferences.n = 1
preferences.m.family = constant
preferences.m.value = 1.0
grid.N = 200
mc.paths = 500
mc.seed = 7
mc.dt = 0.005
mc.scheme = exact_y
output.directory = out
output.emit_svg = true
"""

EXPERIMENT_TEXT = """\
horizon = 4.0
market.r = 0.05
market.alpha = 0.12
market.sigma = 0.2
mortality.family = affine
mortality.lambda0 = 0.005
mortality.lambda1 = 0.001125
discount.family = exponential
discount.rho = 0.8
insurance.payout.family = inverse_hazard
preferences.gamma = -1
preferences.n = 1
preferences.m.family = log_taper
grid.N = 150
mc.paths = 400
mc.seed = 9
mc.dt = 0.02
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_exp1_matches_fixture(exp1_spec):
    rc = parse_config(EXP1_TEXT)
    assert rc.spec == exp1_spec
    assert rc.grid_n == 200
    assert rc.mc.paths == 500 and rc.mc.seed == 7


def test_parse_experiment_matches_fixture(experiment_spec):
    rc = parse_config(EXPERIMENT_TEXT)
    assert rc.spec == experiment_spec


def test_unknown_key_reports_line():
    bad = EXP1_TEXT + "market.beta = 3\n"
    line = len(EXP1_TEXT.splitlines()) + 1
    with pytest.raises(ConfigError, match=rf":{line}: unknown key 'market.beta'"):
        parse_config(bad)


def test_wrong_family_key_is_unknown():
    # lambda1 under a constant hazard family is left unconsumed
    bad = EXP1_TEXT.replace(
        "mortality.lambda0 = 0.02", "mortality.lambda0 = 0.02\nmortality.lambda1 = 0.1"
    )
    with pytest.raises(ConfigError, match="unknown key 'mortality.lambda1'"):
        parse_config(bad)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key 'preferences.gamma'"):
        parse_config(EXP1_TEXT.replace("preferences.gamma = -1\n", ""))


def test_malformed_line_and_duplicate():
    with pytest.raises(ConfigError, match=":1: expected"):
        parse_config("not a key value pair\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("horizon = 1\nhorizon = 2\n")


def test_bad_value_conversion():
    with pytest.raises(ConfigError, match="bad value for 'grid.N'"):
        parse_config(EXP1_TEXT.replace("grid.N = 200", "grid.N = many"))


def test_hyperbolic_h1_target():
    text = EXP1_TEXT.replace(
        "discount.family = exponential\ndiscount.rho = 0.1",
        "discount.family = hyperbolic\ndiscount.k1 = 5\ndiscount.h1_target = 0.3",
    )
    rc = parse_config(text)
    assert rc.spec.discount == Hyperbolic.from_unit_value(5.0, 0.3)


@pytest.mark.parametrize("section", ["discount", "bequest_discount"])
def test_hyperbolic_k2_and_h1_target_refused(tmp_path, capsys, section):
    # both keys give k2: the refusal names the two, not "unknown key" on k2
    keys = f"{section}.family = hyperbolic\n{section}.k1 = 5\n{section}.k2 = 2\n{section}.h1_target = 0.3\n"
    if section == "discount":
        text = EXP1_TEXT.replace("discount.family = exponential\ndiscount.rho = 0.1\n", keys)
    else:
        text = EXP1_TEXT + keys
    cfg = _write(tmp_path, text)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--no-svg"]) == 2
    err = capsys.readouterr().err
    assert f"'{section}.k2'" in err and f"'{section}.h1_target'" in err
    assert "unknown key" not in err


def test_bequest_kernel_defaults_to_discount():
    rc = parse_config(EXP1_TEXT)
    assert rc.spec.prefs.bequest_discount == rc.spec.discount
    text = EXP1_TEXT + "bequest_discount.family = exponential\nbequest_discount.rho = 0.3\n"
    rc2 = parse_config(text)
    assert rc2.spec.prefs.bequest_discount.rho == 0.3


def test_config_round_trip():
    for text in (EXP1_TEXT, EXPERIMENT_TEXT):
        rc = parse_config(text)
        rc2 = parse_config(serialize_config(rc))
        assert rc2.spec == rc.spec
        assert rc2.grid_n == rc.grid_n and rc2.mc == rc.mc
        assert (rc2.t0, rc2.x0, rc2.output_dir, rc2.emit_svg) == (
            rc.t0,
            rc.x0,
            rc.output_dir,
            rc.emit_svg,
        )


@pytest.mark.parametrize("output_dir", ["runs#1", "runs\n1", "runs\r1", " runs", "runs ", "runs\t", ""])
def test_serialize_refuses_unreadable_output_dir(output_dir):
    # "runs#1" used to come back as "runs"; a line break made the text unparseable
    rc = dataclasses.replace(parse_config(EXP1_TEXT), output_dir=output_dir)
    with pytest.raises(ConfigError, match="output.directory"):
        serialize_config(rc)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_output_dir_round_trips_or_is_refused(output_dir):
    rc = dataclasses.replace(parse_config(EXP1_TEXT), output_dir=output_dir)
    try:
        text = serialize_config(rc)
    except ConfigError:
        return
    assert parse_config(text) == rc


SCALAR_FLOAT_KEYS = [
    "horizon",
    "market.r",
    "market.alpha",
    "market.sigma",
    "insurance.eta",
    "income.rate",
    "preferences.gamma",
    "preferences.n",
    "mc.dt",
    "mc.t0",
    "mc.x0",
]

# valid values for every key of every family class in the tables
FAMILY_VALUES = {
    Exponential: {"rho": 0.1},
    Hyperbolic: {"k1": 5.0, "k2": 3.0},
    SumOfExponentials: {"weight": 0.5, "r1": 0.1, "r2": 0.3},
    AffineExponential: {"a_coef": 0.1, "r_rate": 0.2},
    ConstantHazard: {"lambda0": 0.02},
    AffineHazard: {"lambda0": 0.005, "lambda1": 0.001},
    ConstantPayout: {"value": 50.0},
    InverseHazardPayout: {},
    ConstantWeight: {"value": 1.0},
    LogTaperWeight: {"eps": 1e-15},
}


def _with_family(section, family, values):
    """EXP1_TEXT with the section switched to the family and its values."""
    lines = [ln for ln in EXP1_TEXT.splitlines() if not ln.startswith(section + ".")]
    return lines + [f"{section}.family = {family}"] + [f"{section}.{k} = {v!r}" for k, v in values.items()]


def _set_key(lines, key, value):
    """Set ``key = value`` in config lines, appending if absent; return its line number."""
    for i, line in enumerate(lines):
        if line.partition("=")[0].strip() == key:
            lines[i] = f"{key} = {value}"
            return i + 1
    lines.append(f"{key} = {value}")
    return len(lines)


def _float_key_cases():
    for key in SCALAR_FLOAT_KEYS:
        yield pytest.param(EXP1_TEXT.splitlines(), key, id=key)
    for section, table in _FAMILIES.items():
        for family, (cls, keys) in table.items():
            assert set(FAMILY_VALUES[cls]) == {key for key, _, _ in keys}
            lines = _with_family(section, family, FAMILY_VALUES[cls])
            for key, _, _ in keys:
                yield pytest.param(lines, f"{section}.{key}", id=f"{section}.{key}-{family}")
    for section in ("discount", "bequest_discount"):
        lines = _with_family(section, "hyperbolic", {"k1": 5.0, "h1_target": 0.3})
        for key in ("k1", "h1_target"):
            yield pytest.param(lines, f"{section}.{key}", id=f"{section}.{key}-h1_target")


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("lines, key", _float_key_cases())
def test_nonfinite_float_rejected_with_line(lines, key, bad):
    lines = list(lines)
    parse_config("\n".join(lines) + "\n")  # valid until the bad value goes in
    line = _set_key(lines, key, bad)
    text = "\n".join(lines) + "\n"
    if key == "insurance.payout.value" and bad == "inf":
        # documented as "no insurance offered"
        assert parse_config(text).spec.insurance.payout == ConstantPayout(math.inf)
        return
    with pytest.raises(ConfigError, match=rf":{line}: bad value for '{re.escape(key)}': must be finite"):
        parse_config(text)


_SAFE_DIR = st.text(string.ascii_letters + string.digits + "_-./", min_size=1, max_size=20)


def _between(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    horizon = draw(_between(0.1, 50.0))
    r = draw(_between(-0.05, 0.1))
    market = MarketParams(r=r, alpha=r + draw(_between(1e-3, 0.2)), sigma=draw(_between(0.01, 1.0)))
    mortality = draw(
        st.builds(ConstantHazard, _between(0.0, 0.1))
        | st.builds(AffineHazard, _between(0.0, 0.1), _between(0.0, 0.01))
    )
    kernels = (
        st.builds(Exponential, _between(0.0, 2.0))
        | st.builds(Hyperbolic, _between(0.01, 10.0), _between(0.01, 5.0))
        | st.builds(SumOfExponentials, _between(0.0, 1.0), _between(0.0, 2.0), _between(0.0, 2.0))
        | st.builds(lambda rate, u: AffineExponential(rate * u, rate), _between(0.0, 2.0), _between(0.0, 1.0))
    )
    discount = draw(kernels)
    payout = draw(
        st.builds(ConstantPayout, _between(0.1, 1e3) | st.just(math.inf)) | st.just(InverseHazardPayout(mortality))
    )
    m_weight = draw(
        st.builds(ConstantWeight, _between(0.1, 5.0))
        | st.builds(LogTaperWeight, st.just(horizon), _between(1e-16, 1e-3))
    )
    prefs = PreferenceParams(
        gamma=draw(st.just(0.0) | _between(-5.0, 0.9)),
        n=draw(_between(0.1, 30.0)),
        m_weight=m_weight,
        bequest_discount=draw(st.just(discount) | kernels),
    )
    insurance = InsuranceIncomeSpec(payout=payout, eta=draw(_between(0.1, 2.0)), income=draw(_between(0.0, 2.0)))
    mc = SimConfig(
        paths=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**63)),
        dt=draw(_between(1e-4, 0.1)),
        scheme=draw(st.sampled_from([EXACT_Y, EULER])),
    )
    return RunConfig(
        spec=ModelSpec(market, mortality, discount, prefs, insurance, horizon),
        grid_n=draw(st.integers(2, 10**5)),
        mc=mc,
        t0=draw(_between(0.0, horizon)),
        x0=draw(_between(-1e3, 1e3)),
        output_dir=draw(_SAFE_DIR),
        emit_svg=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(run_configs())
def test_config_round_trip_property(rc):
    text = serialize_config(rc)
    assert parse_config(text) == rc
    assert serialize_config(parse_config(text)) == text


def test_readme_lists_every_family_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    missing = [
        f"{section}.{key}"
        for section, table in _FAMILIES.items()
        for _, keys in table.values()
        for key, _, _ in keys
        if not re.search(rf"(?<![\w.]){re.escape(section)}\.{key}\b", readme)
    ]
    missing += [f"family {name}" for table in _FAMILIES.values() for name in table if f"`{name}`" not in readme]
    assert not missing


def test_readme_library_block_runs():
    # the documented API, run as written (1e5 Monte Carlo paths, about 3.5 s)
    root = Path(__file__).resolve().parent.parent
    blocks = re.findall(r"^## Library\n\n```python\n(.*?)^```", (root / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[0]]
    result = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# CSV / SVG emission
# ---------------------------------------------------------------------------


def test_csv_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    emit_csv([], ["t", "a"], p)
    assert p.read_text() == "t,a\n"


def test_csv_single_row_bytes(tmp_path):
    p = tmp_path / "one.csv"
    emit_csv([(0, 1.5)], ["t", "a"], p)
    assert p.read_text() == "t,a\n0,1.5\n"


def test_csv_floats_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.standard_normal(50) * 10.0**rng.integers(-8, 8, 50), [0.0]])
    p = tmp_path / "rt.csv"
    emit_csv([(v,) for v in values], ["x"], p)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    parsed = np.array([float(r[0]) for r in rows[1:]])
    assert np.array_equal(parsed, values)


def test_csv_uses_lf_endings(tmp_path):
    p = tmp_path / "lf.csv"
    emit_csv([(1.0, 2.0)], ["a", "b"], p)
    raw = p.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_svg_two_point_series(tmp_path):
    p = tmp_path / "plot.svg"
    emit_svg_plot([(np.array([0.0, 1.0]), np.array([1.0, 2.0]))], ["a"], p)
    root = ET.parse(p).getroot()
    polys = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polys) == 1
    assert len(polys[0].attrib["points"].split()) == 2


def test_svg_two_series_distinct_strokes(tmp_path):
    p = tmp_path / "plot2.svg"
    t = np.linspace(0.0, 1.0, 5)
    emit_svg_plot([(t, t), (t, t**2)], ["lin", "sq"], p)
    root = ET.parse(p).getroot()
    strokes = [e.attrib["stroke"] for e in root.iter() if e.tag.endswith("polyline")]
    assert len(strokes) == 2 and strokes[0] != strokes[1]


def test_svg_rejects_nonfinite(tmp_path):
    with pytest.raises(Exception, match="non-finite"):
        emit_svg_plot([(np.array([0.0, 1.0]), np.array([1.0, math.nan]))], ["a"], tmp_path / "x.svg")


def test_svg_large_series_under_1mb(tmp_path):
    p = tmp_path / "big.svg"
    t = np.linspace(0.0, 4.0, 1001)
    emit_svg_plot([(t, np.sin(t))], ["rate"], p)
    assert p.stat().st_size < 1_000_000
    ET.parse(p)  # well-formed


# ---------------------------------------------------------------------------
# Commands end to end
# ---------------------------------------------------------------------------


def test_solve_command(tmp_path, capsys):
    cfg = _write(tmp_path, EXP1_TEXT)
    out = tmp_path / "artifacts"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "a", "A", "b"]
    assert len(rows) == 202  # header + N + 1 nodes
    a_col = np.array([float(r[1]) for r in rows[1:]])
    assert np.all(a_col > 0.0)
    assert (out / "solution.svg").exists()


def test_solve_reproducible_bytes(tmp_path):
    cfg = _write(tmp_path, EXP1_TEXT)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_solve_long_horizon_income_b_finite(tmp_path):
    # exp(int_0^T (r + eta/l)) exceeds the double range here; every b that
    # solve writes must still be a finite number
    cfg = _write(tmp_path, long_income_config_text())
    out = tmp_path / "long"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 0
    with open(out / "solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    b = np.array([float(r[3]) for r in rows[1:]])
    assert b.size == 4001 and np.all(np.isfinite(b))


def test_no_svg_flag(tmp_path):
    cfg = _write(tmp_path, EXP1_TEXT)
    out = tmp_path / "nosvg"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 0
    assert not (out / "solution.svg").exists()


def test_policies_command(tmp_path):
    # actuarial payout and tapering weight: 1/l varies along the grid
    cfg = CONFIGS / "experiment.cfg"
    out = tmp_path / "pol"
    assert main(["policies", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 0
    with open(out / "policies.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "consumption_rate", "merton_fraction", "insurance_x_coef", "insurance_b_coef"]
    merton = {float(r[2]) for r in rows[1:]}
    assert all(abs(v - 0.875) < 1e-12 for v in merton)

    # every row is the scalar feedback triple at its node, at x = 1
    rc = parse_config(cfg.read_text())
    grid = solve_a(rc.spec, rc.grid_n)
    b_curve = b_function(rc.spec, rc.grid_n)
    assert len(rows) == rc.grid_n + 2
    for row in rows[1:]:
        t, rate, merton, x_coef, b_coef = map(float, row)
        trip = policy_at(grid.interpolate, b_curve, rc.spec, t, 1.0)
        y = 1.0 + b_curve(t)
        assert rate * y == pytest.approx(trip.consumption, rel=1e-12)
        assert merton * y == pytest.approx(trip.stock_amount, rel=1e-12)
        assert x_coef * 1.0 + b_coef == pytest.approx(trip.insurance_premium, rel=1e-12)


def test_simulate_command(tmp_path, capsys):
    cfg = _write(tmp_path, EXP1_TEXT)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 0
    with open(out / "fixedpoint.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t0", "x0", "v", "j_mean", "j_stderr", "z", "jm_mean", "jm_stderr"]
    assert len(rows) == 2
    # the two estimators of J agree within Monte Carlo error
    j, j_se, jm, jm_se = (float(rows[1][i]) for i in (3, 4, 6, 7))
    assert abs(j - jm) <= 3.0 * math.hypot(j_se, jm_se)
    out_text = capsys.readouterr().out
    assert "fixed point" in out_text and f"mortality j={jm:.8g}" in out_text


def test_simulate_exit_3_without_evidence(tmp_path, capsys):
    # one path gives no standard error, so the check fails; the CSV is still written
    cfg = _write(tmp_path, EXP1_TEXT.replace("mc.paths = 500", "mc.paths = 1"))
    out = tmp_path / "sim1"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 3
    with open(out / "fixedpoint.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][5] == "nan" and rows[1][7] == "inf"
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "failed" in captured.err


def test_stationary_command(tmp_path, capsys):
    text = EXP1_TEXT.replace("income.rate = 0.0", "income.rate = 1.0")
    cfg = _write(tmp_path, text)
    out = tmp_path / "stat"
    assert main(["stationary", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 0
    with open(out / "stationary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b", "x", "alpha1", "alpha2", "beta", "tc1", "tc2"]
    vals = dict(zip(rows[0], map(float, rows[1])))
    assert vals["a"] == pytest.approx(0.0116963, abs=1e-6)
    assert vals["b"] == pytest.approx(1.0 / 0.07, rel=1e-10)
    assert vals["tc1"] > 0.0 and vals["tc2"] > 0.0


@pytest.mark.parametrize("rho_c, rho_b, m", [(0.1, 0.3, 1.0), (0.3, 0.1, 1.0), (0.1, 0.3, 2.0)])
def test_stationary_matches_long_horizon_solve(tmp_path, rho_c, rho_b, m):
    # stationary a is the reciprocal of a(0) from a long-horizon backward solve
    text = (
        EXP1_TEXT.replace("horizon = 1.0", "horizon = 100.0")
        .replace(
            "discount.rho = 0.1",
            f"discount.rho = {rho_c}\nbequest_discount.family = exponential\nbequest_discount.rho = {rho_b}",
        )
        .replace("preferences.m.value = 1.0", f"preferences.m.value = {m}")
        .replace("grid.N = 200", "grid.N = 4000")
    )
    cfg = _write(tmp_path, text)
    out = tmp_path / "stat"
    assert main(["stationary", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 0
    with open(out / "stationary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rc = parse_config(text)
    a0 = solve_a(rc.spec, rc.grid_n).a_values[-1]
    assert float(rows[1][0]) == pytest.approx(1.0 / a0, rel=1e-2)


@pytest.mark.parametrize("payout, gamma, status", [(50, -1, 0), (20, 0.3, 2)])
def test_stationary_equal_rates_spurious_root(tmp_path, capsys, payout, gamma, status):
    # lambda = r1 = r2 = 0.005 puts the root alpha + gamma beta x = 0 that
    # clearing denominators adds at a positive x with tc rounding to > 0
    text = (
        (CONFIGS / "stationary.cfg").read_text()
        .replace("mortality.lambda0 = 0.02", "mortality.lambda0 = 0.005")
        .replace("discount.rho = 0.1", "discount.rho = 0.005")
        .replace("insurance.payout.value = 50", f"insurance.payout.value = {payout}")
        .replace("preferences.gamma = -1", f"preferences.gamma = {gamma}")
    )
    cfg = _write(tmp_path, text)
    out = tmp_path / "stat"
    assert main(["stationary", "--config", str(cfg), "--out", str(out), "--no-svg"]) == status
    if status:
        assert "refused" in capsys.readouterr().err
        return
    with open(out / "stationary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # alpha = 0.005 + 0.005 + 0.080625 + 0.02, x = alpha/(1 + lambda - gamma beta)
    assert float(rows[1][0]) == pytest.approx((0.110625 / 2.025) ** 2, rel=1e-12)


_STATIONARY_REFUSALS = [
    pytest.param(
        "mortality.family = constant\n",
        "mortality.family = affine\nmortality.lambda1 = 0.001\n",
        "constant mortality",
        id="affine-mortality",
    ),
    pytest.param("mortality.lambda0 = 0.02", "mortality.lambda0 = 0", "lambda0 > 0", id="zero-hazard"),
    pytest.param(
        "preferences.m.family = constant\npreferences.m.value = 1.0\n",
        "preferences.m.family = log_taper\n",
        "a constant Pareto weight",
        id="log-taper-weight",
    ),
    pytest.param(
        "insurance.payout.family = constant\ninsurance.payout.value = 50\n",
        "insurance.payout.family = inverse_hazard\n",
        "a constant payout ratio",
        id="inverse-hazard-payout",
    ),
    pytest.param(
        "discount.family = exponential\ndiscount.rho = 0.1\n",
        "discount.family = hyperbolic\ndiscount.k1 = 5\ndiscount.h1_target = 0.3\n",
        "exponential discount kernels",
        id="hyperbolic-discount",
    ),
    pytest.param(
        "discount.rho = 0.1\n",
        "discount.rho = 0.1\nbequest_discount.family = hyperbolic\nbequest_discount.k1 = 5\n"
        "bequest_discount.h1_target = 0.3\n",
        "exponential discount kernels",
        id="hyperbolic-bequest-discount",
    ),
]


@pytest.mark.parametrize("old, new, message", _STATIONARY_REFUSALS)
def test_stationary_refuses_non_stationary_model(tmp_path, capsys, old, new, message):
    assert EXP1_TEXT.count(old) == 1
    cfg = _write(tmp_path, EXP1_TEXT.replace(old, new))
    assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path / "o"), "--no-svg"]) == 2
    assert capsys.readouterr().err == f"refused: stationary: requires {message}\n"
    assert not (tmp_path / "o" / "stationary.csv").exists()


_SCIPY_PROBE = """\
import json, sys
import tcpolicy, tcpolicy.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded, status = [scipy_modules()], []
for command in ("solve", "policies", "hump", "stationary", "converge"):
    status.append(tcpolicy.cli.main([command, "--config", sys.argv[1], "--out", sys.argv[3], "--no-svg"]))
loaded.append(scipy_modules())
masked = "numpy.ma" in sys.modules
status.append(tcpolicy.cli.main(["simulate", "--config", sys.argv[2], "--out", sys.argv[3], "--no-svg"]))
print(json.dumps({"loaded": loaded, "masked": masked, "special": "scipy.special" in sys.modules, "status": status}))
"""


def test_cli_loads_scipy_only_for_simulate(tmp_path):
    # importing scipy.special took about 0.3 s of every CLI start, and only
    # simulate's normals use it (ndtri); one fresh interpreter runs the
    # commands in turn, with simulate's paths cut down.  numpy.ma (about
    # 17 ms), which np.unique imports, is not loaded by the five commands
    # either, converge's closed form included
    sim_cfg = _write(tmp_path, (CONFIGS / "exp1.cfg").read_text().replace("mc.paths = 100000", "mc.paths = 2000"))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    args = [str(CONFIGS / "exp1.cfg"), str(sim_cfg), str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *args], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(result.stdout.splitlines()[-1])
    assert probe["loaded"] == [[], []]
    assert not probe["masked"]
    assert probe["special"]
    assert probe["status"] == [0] * 6


_LOAD_PROBE = """\
import json, sys
case, config, out = sys.argv[1:]
import tcpolicy
if case != "package":
    import tcpolicy.cli
    if case == "parse":
        with open(config) as fh:
            tcpolicy.cli.parse_config(fh.read(), source=config)
    elif tcpolicy.cli.main([case, "--config", config, "--out", out, "--no-svg"]) != 0:
        sys.exit("command failed")
print(json.dumps(sorted(sys.modules)))
"""

# the tcpolicy modules each case loads: what it runs and nothing more
_LOADED = {
    "package": [],
    "parse": ["cli", "model"],
    "solve": ["cli", "closed_form", "ie_solver", "model"],
    "policies": ["cli", "closed_form", "ie_solver", "model", "policy"],
    "hump": ["cli", "closed_form", "ie_solver", "model", "policy"],
    "stationary": ["cli", "closed_form", "model"],
    "converge": ["cli", "closed_form", "ie_solver", "model"],
}


@pytest.mark.parametrize("case", _LOADED)
def test_each_command_loads_only_what_it_runs(tmp_path, case):
    # one fresh interpreter per case: import tcpolicy loads no submodule,
    # parsing a config needs only the model, and no command but simulate
    # loads the Monte Carlo pass, its thread pool or scipy
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    args = [case, str(CONFIGS / "exp1.cfg"), str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, *args], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(result.stdout.splitlines()[-1])
    ours = [m for m in loaded if m.split(".")[0] == "tcpolicy"]
    assert ours == ["tcpolicy"] + [f"tcpolicy.{m}" for m in _LOADED[case]]
    assert "concurrent.futures" not in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
    if case in ("package", "parse"):
        assert "argparse" not in loaded


def test_converge_command(tmp_path):
    text = EXP1_TEXT.replace("grid.N = 200", "grid.N = 50")
    cfg = _write(tmp_path, text)
    out = tmp_path / "conv"
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 0
    with open(out / "convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "err", "ratio"]
    assert float(rows[1][2]) == pytest.approx(2.0, abs=0.4)


def test_converge_exit_1_on_overflowed_oracle(tmp_path, capsys):
    # the closed form's w = a^10 overflows on T = 400 while the march stays
    # finite: converge reported err = inf and ratio = nan and exited 0
    text = EXP1_TEXT
    for old, new in (
        ("horizon = 1.0", "horizon = 400.0"),
        ("preferences.gamma = -1", "preferences.gamma = 0.9"),
        ("grid.N = 200", "grid.N = 4000"),
    ):
        assert old in text
        text = text.replace(old, new)
    cfg = _write(tmp_path, text)
    out = tmp_path / "conv"
    assert main(["converge", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 1
    assert "overflow: w = a^(1/(1-gamma)) is not finite" in capsys.readouterr().err
    assert not (out / "convergence.csv").exists()


def test_hump_command(tmp_path, capsys):
    text = EXPERIMENT_TEXT.replace(
        "discount.family = exponential\ndiscount.rho = 0.8",
        "discount.family = hyperbolic\ndiscount.k1 = 5\ndiscount.h1_target = 0.3",
    ).replace("preferences.n = 1", "preferences.n = 10")
    # no insurance/mortality in the hump experiment
    text = text.replace("mortality.family = affine", "mortality.family = constant")
    text = text.replace("mortality.lambda0 = 0.005\nmortality.lambda1 = 0.001125", "mortality.lambda0 = 0")
    text = text.replace("insurance.payout.family = inverse_hazard", "insurance.payout.family = constant")
    text = text.replace("preferences.m.family = log_taper", "preferences.m.family = constant")
    cfg = _write(tmp_path, text)
    out = tmp_path / "hump"
    assert main(["hump", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 0
    printed = capsys.readouterr().out
    assert "satiation_time = " in printed
    assert "none" not in printed
    with open(out / "hump.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "rate"]


def test_hump_rate_is_the_policies_consumption_rate(tmp_path):
    # hump re-interpolated a(t) through consumption_rate; both commands now
    # take the rate from feedback_rates at the solver's nodes
    cfg = CONFIGS / "hump_k5_n10.cfg"
    for command in ("hump", "policies"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path), "--no-svg"]) == 0
    hump = [line.split(",")[:2] for line in (tmp_path / "hump.csv").read_text().splitlines()[1:]]
    policies = [line.split(",")[:2] for line in (tmp_path / "policies.csv").read_text().splitlines()[1:]]
    assert len(hump) == 1001 and hump == policies


@pytest.mark.parametrize("config", ["exp1", "hump_k5_n10"])
def test_solved_curves_are_ascending_contiguous_copies(config):
    # a ** p on a reversed view takes numpy's strided loop, which rounds
    # differently from the contiguous one the policies are written with
    rc = parse_config((CONFIGS / f"{config}.cfg").read_text())
    curves = _solved_curves(rc)
    grid = solve_a(rc.spec, rc.grid_n)
    assert np.all(np.diff(curves[0]) > 0.0)
    for curve, backward in zip(curves, (grid.times, grid.a_values, grid.A_values)):
        assert np.array_equal(curve, backward[::-1])
    for curve in curves:
        assert curve.flags.c_contiguous and curve.flags.owndata


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_shipped_experiment_config_solution_rows(tmp_path):
    # the full experiment config at N = 1000 produces 1001 positive rows
    from pathlib import Path

    cfg = Path(__file__).resolve().parent.parent / "configs" / "experiment.cfg"
    out = tmp_path / "exp"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--no-svg"]) == 0
    with open(out / "solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1002  # header + 1001 nodes
    assert all(float(r[1]) > 0.0 for r in rows[1:])


def test_exit_2_on_parse_error(tmp_path, capsys):
    cfg = _write(tmp_path, EXP1_TEXT + "bogus.key = 1\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_exit_2_on_missing_file(capsys):
    assert main(["solve", "--config", "/nonexistent/x.cfg"]) == 2


def test_exit_2_on_assumption_violation(tmp_path, capsys):
    text = EXP1_TEXT.replace("preferences.gamma = -1", "preferences.gamma = 0.9")
    text = text.replace("insurance.payout.value = 50", "insurance.payout.value = 5")
    cfg = _write(tmp_path, text)
    assert main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and "min" in err


def test_exit_1_on_scheme_breakdown(tmp_path, capsys):
    text = EXP1_TEXT.replace("horizon = 1.0", "horizon = 50.0")
    text = text.replace("discount.rho = 0.1", "discount.rho = 2.0")
    text = text.replace("grid.N = 200", "grid.N = 2")
    text = text.replace("mc.dt = 0.005", "mc.dt = 0.5")
    cfg = _write(tmp_path, text)
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "increase N" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "converge"])
def test_exit_1_on_stiff_terminal_layer(tmp_path, capsys, command):
    # experiment at gamma = 0.9 wrote a(0) = 6.0e9 and converged with ratio 2.000
    text = (CONFIGS / "experiment.cfg").read_text()
    assert "preferences.gamma = -1\n" in text
    cfg = _write(tmp_path, text.replace("preferences.gamma = -1\n", "preferences.gamma = 0.9\n"))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--no-svg"]) == 1
    err = capsys.readouterr().err
    assert "stiff terminal layer at step 1" in err and "increase N" in err
    assert not list(out.glob("*.csv"))


def test_exit_1_on_overflow_without_numpy_warning(tmp_path, capsys):
    # a(t) grows like e^(24.4 (T - t)) and leaves the double range
    text = EXP1_TEXT
    for old, new in (
        ("horizon = 1.0", "horizon = 40.0"),
        ("market.sigma = 0.2", "market.sigma = 0.01"),
        ("mortality.lambda0 = 0.02", "mortality.lambda0 = 0"),
        ("insurance.payout.value = 50", "insurance.payout.value = inf"),
        ("preferences.gamma = -1", "preferences.gamma = 0.5"),
        ("grid.N = 200", "grid.N = 4000"),
    ):
        assert old in text
        text = text.replace(old, new)
    cfg = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--no-svg"]) == 1
    assert "overflow: the iterate is not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, status",
    [("solve", 2), ("policies", 2), ("simulate", 2), ("hump", 2), ("converge", 2), ("stationary", 0)],
)
def test_log_utility_served_by_stationary_only(tmp_path, capsys, command, status):
    # gamma = 0 has no backward scheme; only the stationary closed form takes it
    text = (CONFIGS / "exp1.cfg").read_text().replace("preferences.gamma = -1", "preferences.gamma = 0")
    cfg = _write(tmp_path, text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--no-svg"]) == status
    if status == 2:
        assert "gamma = 0 is served by the log-utility closed form" in capsys.readouterr().err


def test_exit_2_on_nonfinite_value(tmp_path, capsys):
    # an infinite volatility used to solve to a zero Merton fraction
    cfg = _write(tmp_path, EXP1_TEXT.replace("market.sigma = 0.2", "market.sigma = inf"))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert ":5: bad value for 'market.sigma': must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("k1", ["0", "-1"])
def test_exit_2_on_nonpositive_hyperbolic_k1(tmp_path, capsys, k1):
    text = EXP1_TEXT.replace(
        "discount.family = exponential\ndiscount.rho = 0.1",
        f"discount.family = hyperbolic\ndiscount.k1 = {k1}\ndiscount.h1_target = 0.3",
    )
    cfg = _write(tmp_path, text)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "refused" in capsys.readouterr().err


def test_exit_2_on_negative_seed(tmp_path, capsys):
    # a seed of -1 was masked to 2^64 - 1 and ran
    cfg = _write(tmp_path, EXP1_TEXT.replace("mc.seed = 7", "mc.seed = -1"))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--no-svg"]) == 2
    assert "seed" in capsys.readouterr().err


def test_exit_2_on_invalid_model_value(tmp_path, capsys):
    text = EXP1_TEXT.replace("market.sigma = 0.2", "market.sigma = -0.2")
    cfg = _write(tmp_path, text)
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "sigma" in capsys.readouterr().err


def test_cli_digests_tool_hashes_every_run(tmp_path):
    # tools/cli_digests.py on one small config: six runs, each digested as
    # the in-process command writes it
    import hashlib
    import importlib.util

    root = CONFIGS.parent
    loader = importlib.util.spec_from_file_location("cli_digests", root / "tools" / "cli_digests.py")
    tool = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tool)
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "small.cfg").write_text(EXP1_TEXT)
    runs = tool.digest_runs(root / "src", configs)
    assert sorted(runs) == sorted(f"{command}/small" for command in tool.COMMANDS)
    assert main(["solve", "--config", str(configs / "small.cfg"), "--out", str(tmp_path / "o")]) == 0
    solve = runs["solve/small"]
    assert solve["exit"] == 0 and solve["stderr"] == ""
    assert solve["artifacts"] == {
        name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest() for name in ("solution.csv", "solution.svg")
    }
    assert runs["stationary/small"]["stdout"].startswith("stationary: a=")
