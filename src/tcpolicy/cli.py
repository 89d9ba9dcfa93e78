"""Command-line driver: config ingestion, experiments, CSV/SVG artifacts.

Usage::

    tcpolicy <command> --config <path> [--out <dir>] [--no-svg]

with command one of ``solve``, ``policies``, ``simulate``, ``stationary``,
``converge``, ``hump``.  Configs are flat ``key = value`` text with dotted
sections (``market.r = 0.05``); unknown keys and non-finite numbers (bar
``insurance.payout.value = inf``) are rejected with their line number.
Exit status 0 on success, 2 on a validation refusal (bad config
or violated model assumption), 3 when ``simulate`` fails its fixed-point
check (``fixedpoint.csv`` is still written), 1 on a runtime failure.

Each command imports only the solver modules it runs: at module level the
CLI loads the model, numpy and the standard library it needs to parse
configs and write artifacts, so only ``simulate`` loads the Monte Carlo
pass and scipy, and ``stationary`` loads no backward march.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .model import (
    EXACT_Y, AffineExponential, AffineHazard, ConstantHazard, ConstantPayout, ConstantWeight, Exponential,
    Hyperbolic, InsuranceIncomeSpec, InverseHazardPayout, LogTaperWeight, MarketParams, ModelSpec,
    PreferenceParams, SimConfig, SumOfExponentials, ValidationError,
)

__all__ = ["main", "run", "parse_config", "serialize_config", "emit_csv", "emit_svg_plot", "ConfigError", "RunConfig"]

class ConfigError(ValidationError):
    """Malformed or inconsistent run configuration."""


class VerificationFailed(Exception):
    """The Monte Carlo fixed-point check failed; its artifacts are written."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _Config:
    """Key/value store with line tracking and strict key consumption."""

    def __init__(self, pairs: dict[str, tuple[str, int]], source: str):
        self._pairs = dict(pairs)
        self._source = source

    def take(self, key: str, convert, default=_REQUIRED):
        if key in self._pairs:
            raw, line = self._pairs.pop(key)
            try:
                return convert(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{self._source}:{line}: bad value for '{key}': {exc}") from exc
        if default is _REQUIRED:
            raise ConfigError(f"{self._source}: missing required key '{key}'")
        return default

    def has(self, key: str) -> bool:
        return key in self._pairs

    def finish(self) -> None:
        if self._pairs:
            key, (_, line) = min(self._pairs.items(), key=lambda kv: kv[1][1])
            raise ConfigError(f"{self._source}:{line}: unknown key '{key}'")


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError("expected 'true' or 'false'")


def _to_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _to_float_or_inf(raw: str) -> float:
    return math.inf if float(raw) == math.inf else _to_float(raw)


def _read_pairs(text: str, source: str) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value'")
        if key in pairs:
            raise ConfigError(f"{source}:{line_no}: duplicate key '{key}'")
        pairs[key] = (value, line_no)
    return pairs


# One table per family section: family name -> (model class, keys), each
# key a (config key, dataclass field, default).  parse_config and
# serialize_config both read these tables.  Dataclass fields a table does
# not name (LogTaperWeight.horizon, InverseHazardPayout.hazard) come from
# the model parsed so far.  A key whose default is inf also accepts inf
# (insurance.payout.value: no insurance offered).
_KERNELS = {
    "exponential": (Exponential, (("rho", "rho", _REQUIRED),)),
    "hyperbolic": (Hyperbolic, (("k1", "k1", _REQUIRED), ("k2", "k2", _REQUIRED))),
    "sum_of_exponentials": (
        SumOfExponentials,
        (("weight", "weight", _REQUIRED), ("r1", "r1", _REQUIRED), ("r2", "r2", _REQUIRED)),
    ),
    "affine_exponential": (
        AffineExponential,
        (("a_coef", "a_coef", _REQUIRED), ("r_rate", "r_rate", _REQUIRED)),
    ),
}

_FAMILIES = {
    "mortality": {
        "constant": (ConstantHazard, (("lambda0", "lambda0", 0.0),)),
        "affine": (AffineHazard, (("lambda0", "lambda0", _REQUIRED), ("lambda1", "lambda1", _REQUIRED))),
    },
    "discount": _KERNELS,
    "bequest_discount": _KERNELS,
    "insurance.payout": {
        "constant": (ConstantPayout, (("value", "payout", math.inf),)),
        "inverse_hazard": (InverseHazardPayout, ()),
    },
    "preferences.m": {
        "constant": (ConstantWeight, (("value", "m0", 1.0),)),
        "log_taper": (LogTaperWeight, (("eps", "eps", 1e-15),)),
    },
}


def _parse_family(cfg: _Config, section: str, default=_REQUIRED, **context):
    """Build the model object that ``<section>.family`` names from its keys."""
    table = _FAMILIES[section]

    def known(name: str) -> str:
        if name not in table:
            raise ValueError(f"unknown family '{name}' (expected one of {', '.join(table)})")
        return name

    family = cfg.take(f"{section}.family", known, default)
    if family == "hyperbolic" and cfg.has(f"{section}.h1_target"):
        # h(1) = h1_target is another way to give k2
        if cfg.has(f"{section}.k2"):
            raise ConfigError(f"{cfg._source}: '{section}.k2' and '{section}.h1_target' both give k2; keep one")
        k1 = cfg.take(f"{section}.k1", _to_float)
        return Hyperbolic.from_unit_value(k1, cfg.take(f"{section}.h1_target", _to_float))
    cls, keys = table[family]
    values = {
        field: cfg.take(f"{section}.{key}", _to_float_or_inf if fallback == math.inf else _to_float, fallback)
        for key, field, fallback in keys
    }
    values.update((f.name, context[f.name]) for f in fields(cls) if f.name not in values)
    return cls(**values)


def _family_lines(section: str, obj) -> list[str]:
    for family, (cls, keys) in _FAMILIES[section].items():
        if isinstance(obj, cls):
            return [f"{section}.family = {family}"] + [
                f"{section}.{key} = {getattr(obj, field)!r}" for key, field, _ in keys
            ]
    raise ConfigError(f"cannot serialize {section} {obj!r}")


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: the model plus command-specific blocks."""

    spec: ModelSpec
    grid_n: int
    mc: SimConfig
    t0: float
    x0: float
    output_dir: str
    emit_svg: bool


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse flat key = value text into a validated RunConfig."""
    cfg = _Config(_read_pairs(text, source), source)

    horizon = cfg.take("horizon", _to_float)
    market = MarketParams(
        r=cfg.take("market.r", _to_float),
        alpha=cfg.take("market.alpha", _to_float),
        sigma=cfg.take("market.sigma", _to_float),
    )
    mortality = _parse_family(cfg, "mortality", default="constant")
    discount = _parse_family(cfg, "discount")
    bequest = _parse_family(cfg, "bequest_discount") if cfg.has("bequest_discount.family") else discount
    insurance = InsuranceIncomeSpec(
        payout=_parse_family(cfg, "insurance.payout", default="constant", hazard=mortality),
        eta=cfg.take("insurance.eta", _to_float, default=1.0),
        income=cfg.take("income.rate", _to_float, default=0.0),
    )
    prefs = PreferenceParams(
        gamma=cfg.take("preferences.gamma", _to_float),
        n=cfg.take("preferences.n", _to_float),
        m_weight=_parse_family(cfg, "preferences.m", default="constant", horizon=horizon),
        bequest_discount=bequest,
    )
    spec = ModelSpec(
        market=market,
        mortality=mortality,
        discount=discount,
        prefs=prefs,
        insurance=insurance,
        horizon=horizon,
    )

    grid_n = cfg.take("grid.N", int, default=1000)
    mc = SimConfig(
        paths=cfg.take("mc.paths", int, default=100_000),
        seed=cfg.take("mc.seed", int, default=20240901),
        dt=cfg.take("mc.dt", _to_float, default=1e-3),
        scheme=cfg.take("mc.scheme", str, default=EXACT_Y),
    )
    t0 = cfg.take("mc.t0", _to_float, default=0.0)
    x0 = cfg.take("mc.x0", _to_float, default=1.0)
    output_dir = cfg.take("output.directory", str, default="out")
    emit_svg = cfg.take("output.emit_svg", _to_bool, default=True)
    cfg.finish()
    return RunConfig(
        spec=spec, grid_n=grid_n, mc=mc, t0=t0, x0=x0, output_dir=output_dir, emit_svg=emit_svg
    )


def serialize_config(rc: RunConfig) -> str:
    """Render a RunConfig back to config text; parsing it again reproduces
    the same RunConfig.

    Refuses an ``output_dir`` the parser would read back differently: one
    that is empty, holds ``#`` or a line break, or has leading or trailing
    whitespace.
    """
    out = rc.output_dir
    if out.splitlines() != [out] or "#" in out or out != out.strip():
        raise ConfigError(f"output.directory {out!r} cannot be written as config text")
    spec = rc.spec
    lines = [
        f"horizon = {spec.horizon!r}",
        f"market.r = {spec.market.r!r}",
        f"market.alpha = {spec.market.alpha!r}",
        f"market.sigma = {spec.market.sigma!r}",
        *_family_lines("mortality", spec.mortality),
        *_family_lines("discount", spec.discount),
        *_family_lines("bequest_discount", spec.prefs.bequest_discount),
        *_family_lines("insurance.payout", spec.insurance.payout),
        f"insurance.eta = {spec.insurance.eta!r}",
        f"income.rate = {spec.insurance.income!r}",
        f"preferences.gamma = {spec.prefs.gamma!r}",
        f"preferences.n = {spec.prefs.n!r}",
        *_family_lines("preferences.m", spec.prefs.m_weight),
        f"grid.N = {rc.grid_n}",
        f"mc.paths = {rc.mc.paths}",
        f"mc.seed = {rc.mc.seed}",
        f"mc.dt = {rc.mc.dt!r}",
        f"mc.scheme = {rc.mc.scheme}",
        f"mc.t0 = {rc.t0!r}",
        f"mc.x0 = {rc.x0!r}",
        f"output.directory = {rc.output_dir}",
        f"output.emit_svg = {str(rc.emit_svg).lower()}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def emit_csv(rows, header, path) -> None:
    """Write an RFC-4180-style CSV with 17-significant-digit floats."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValidationError("emit_csv: ragged row")
        lines.append(",".join(_format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_svg_plot(series, labels, path, title: str = "") -> None:
    """Render one or more (t, value) series as a standalone SVG line chart.

    Fixed 800x600 viewport, linear scales, one polyline per series with a
    distinct stroke.  Non-finite values are rejected.
    """
    if len(series) != len(labels):
        raise ValidationError("emit_svg_plot: one label per series required")
    cleaned = []
    for t, v in series:
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        if t.size < 2 or t.size != v.size:
            raise ValidationError("emit_svg_plot: each series needs >= 2 points")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValidationError("emit_svg_plot: non-finite values rejected")
        cleaned.append((t, v))

    width, height = 800, 600
    left, right, top, bottom = 70, 20, 30, 50
    t_min = min(float(t.min()) for t, _ in cleaned)
    t_max = max(float(t.max()) for t, _ in cleaned)
    v_min = min(float(v.min()) for _, v in cleaned)
    v_max = max(float(v.max()) for _, v in cleaned)
    t_span = t_max - t_min or 1.0
    v_span = v_max - v_min or 1.0

    def sx(t):
        return left + (t - t_min) / t_span * (width - left - right)

    def sy(v):
        return height - bottom - (v - v_min) / v_span * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle">{title}</text>')
    for i in range(5):
        tv = t_min + t_span * i / 4
        vv = v_min + v_span * i / 4
        parts.append(
            f'<text x="{sx(tv):.1f}" y="{height - bottom + 18}" text-anchor="middle" '
            f'font-size="11">{tv:.4g}</text>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{sy(vv) + 4:.1f}" text-anchor="end" font-size="11">{vv:.4g}</text>'
        )
    for idx, ((t, v), label) in enumerate(zip(cleaned, labels)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(ti):.2f},{sy(vi):.2f}" for ti, vi in zip(t, v))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width - right - 6}" y="{top + 16 * (idx + 1)}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", newline="\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _solved_curves(rc: RunConfig):
    """t, a, A and b at the solver's nodes, in ascending t.

    The solvers march back from T; each curve is reversed into a contiguous
    copy, because ``a ** p`` on a reversed view takes numpy's strided loop,
    which rounds differently.
    """
    from . import closed_form, ie_solver

    grid = ie_solver.solve_a(rc.spec, rc.grid_n)
    curves = grid.times, grid.a_values, grid.A_values, closed_form.solve_b(rc.spec, rc.grid_n)
    return [np.ascontiguousarray(x[::-1]) for x in curves]


def _cmd_solve(rc: RunConfig, out: Path, svg: bool) -> None:
    t, a, A, b = _solved_curves(rc)
    emit_csv(zip(t, a, A, b), ["t", "a", "A", "b"], out / "solution.csv")
    if svg:
        emit_svg_plot([(t, a), (t, b)], ["a", "b"], out / "solution.svg", title="value coefficient and income floor")


def _cmd_policies(rc: RunConfig, out: Path, svg: bool) -> None:
    from . import policy

    t, a, _, b = _solved_curves(rc)
    rates = policy.feedback_rates(rc.spec, a, t)
    rate, x_coef = rates.consumption, rates.premium_x
    rows = zip(t, rate, np.full_like(t, rates.merton), x_coef, rates.premium_b * b)
    emit_csv(
        rows,
        ["t", "consumption_rate", "merton_fraction", "insurance_x_coef", "insurance_b_coef"],
        out / "policies.csv",
    )
    if svg:
        emit_svg_plot(
            [(t, rate), (t, x_coef)],
            ["consumption_rate", "insurance_x_coef"],
            out / "policies.svg",
            title="equilibrium policy maps",
        )


def _cmd_simulate(rc: RunConfig, out: Path, svg: bool) -> None:
    from . import closed_form, ie_solver, simulate

    spec = rc.spec
    grid = ie_solver.solve_a(spec, rc.grid_n)
    b_curve = closed_form.b_function(spec, rc.grid_n)
    report = simulate.verify_fixed_point(spec, grid.interpolate, b_curve, rc.t0, rc.x0, rc.mc)
    # the second estimator of J, reported only: it reuses the paths of the first
    jm = simulate.estimate_J_mortality(spec, grid.interpolate, b_curve, rc.t0, rc.x0, rc.mc)
    emit_csv(
        [
            (
                rc.t0,
                rc.x0,
                report.v_value,
                report.j_estimate.mean,
                report.j_estimate.std_error,
                report.z_score,
                jm.mean,
                jm.std_error,
            )
        ],
        ["t0", "x0", "v", "j_mean", "j_stderr", "z", "jm_mean", "jm_stderr"],
        out / "fixedpoint.csv",
    )
    print(
        f"fixed point at (t0={rc.t0}, x0={rc.x0}): v={report.v_value:.8g} "
        f"j={report.j_estimate.mean:.8g} +- {report.j_estimate.std_error:.3g} "
        f"z={report.z_score:.3f} ({'pass' if report.passed else 'FAIL'}); "
        f"mortality j={jm.mean:.8g} +- {jm.std_error:.3g}"
    )
    if not report.passed:
        raise VerificationFailed(f"fixed-point check failed (z = {report.z_score:.3f})")


def _cmd_stationary(rc: RunConfig, out: Path, svg: bool) -> None:
    from . import closed_form

    sol = closed_form.solve_stationary(rc.spec)
    emit_csv(
        [(sol.a, sol.b, sol.x, sol.alpha1, sol.alpha2, sol.beta, sol.tc1, sol.tc2)],
        ["a", "b", "x", "alpha1", "alpha2", "beta", "tc1", "tc2"],
        out / "stationary.csv",
    )
    print(f"stationary: a={sol.a:.10g} b={sol.b:.10g} residual={sol.residual:.3g}")


def _cmd_converge(rc: RunConfig, out: Path, svg: bool) -> None:
    from . import ie_solver

    report = ie_solver.convergence_report(rc.spec, rc.grid_n)
    rows = [
        (rc.grid_n, report.err_coarse, report.ratio),
        (2 * rc.grid_n, report.err_fine, float("nan")),
    ]
    emit_csv(rows, ["N", "err", "ratio"], out / "convergence.csv")
    print(
        f"convergence vs {report.reference}: err({rc.grid_n})={report.err_coarse:.3e} "
        f"err({2 * rc.grid_n})={report.err_fine:.3e} ratio={report.ratio:.3f}"
    )


def _cmd_hump(rc: RunConfig, out: Path, svg: bool) -> None:
    from . import policy

    t, a, _, _ = _solved_curves(rc)
    rate = policy.feedback_rates(rc.spec, a, t).consumption
    emit_csv(zip(t, rate), ["t", "rate"], out / "hump.csv")
    satiation = policy.find_satiation(np.column_stack([t, rate]))
    print(f"satiation_time = {'none' if satiation is None else f'{satiation:.10g}'}")
    if svg:
        emit_svg_plot([(t, rate)], ["consumption_rate"], out / "hump.svg", title="consumption rate")


_DISPATCH = {
    "solve": _cmd_solve,
    "policies": _cmd_policies,
    "simulate": _cmd_simulate,
    "stationary": _cmd_stationary,
    "converge": _cmd_converge,
    "hump": _cmd_hump,
}


def run(command: str, config_path: str, out_dir: str | None = None, emit_svg: bool | None = None) -> None:
    """Execute one command against a config file; raises on any failure."""
    path = Path(config_path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    rc = parse_config(path.read_text(), source=str(config_path))
    out = Path(out_dir) if out_dir is not None else Path(rc.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    svg = rc.emit_svg if emit_svg is None else emit_svg
    _DISPATCH[command](rc, out, svg)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="tcpolicy",
        description="Time-consistent investment, consumption and life-insurance policies",
    )
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default=None, help="output directory (overrides output.directory)")
    parser.add_argument("--no-svg", action="store_true", help="suppress SVG artifacts")
    args = parser.parse_args(argv)
    try:
        run(args.command, args.config, args.out, emit_svg=False if args.no_svg else None)
    except ValidationError as exc:  # includes ConfigError and assumption refusals
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
