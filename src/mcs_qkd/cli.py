"""Command-line front end: rate tables, figure reproductions, oracle checks.

Subcommands
    rate     breakdown rows for explicit (source parameter, distance) points
    figure1  rate-vs-source-parameter curves at a fixed distance (CSV + SVG)
    figure2  optimal rate vs distance with cutoffs (CSV + SVG, log rate axis)
    verify   closed forms against the brute-force oracles (CSV report)

Configuration comes from a flat ``key = value`` file (``--config``) with CLI
flags taking precedence; defaults reproduce the KTH15 parameter set.  CSV
output is deterministic byte for byte for a fixed configuration: floats are
written with 17 significant digits, '.' decimal separator and LF line endings.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from itertools import product, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DomainError, TruncationError
from .fock_oracle import (
    DEFAULT_ALPHAS,
    DEFAULT_ETAS,
    DEFAULT_FOCK_N_MAX,
    DEFAULT_NUS,
    DEFAULT_QUAD_NODES,
    max_abs_diff_by_formula,
    verify_closed_forms,
)
from .key_rate import ChannelModel, ConstantF, DetectorModel, TableF
from .optimizer import Scenario, SourceFamily, rate_at, sweep_distance
from .svgplot import render_line_chart

__all__ = ["RunConfig", "build_config", "main", "parse_f_policy"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclass
class RunConfig:
    """Run configuration; field names double as the config-file keys."""

    # channel and detector (KTH15 defaults)
    loss_coeff_a: float = 0.2  # dB/km
    receiver_loss_L: float = 1.0  # dB
    detector_eff: float = 0.18
    dark_prob_Pd: float = 2e-4
    baseline_error_c: float = 0.01
    # rate formula
    f_policy: str = "const:1.16"
    paper_literal_sign: bool = False
    # geometry
    distance_km: float = 5.0
    l_max_km: float = 100.0  # extends past the longest default cutoff (~78 km)
    l_step_km: float = 1.0
    # source parameters for the `rate` command (no safe defaults)
    family: str | None = None
    alpha2: float | None = None
    nu: float | None = None
    # optimizer search
    param_min: float = 1e-5
    param_max: float = 4.0
    grid_points: int = 200
    golden_rtol: float = 1e-5
    cutoff_resolution_km: float = 0.01
    # figure-1 parameter scan
    fig1_param_max: float = 0.6
    fig1_points: int = 201
    # oracle verification
    oracle_fock_n_max: int = DEFAULT_FOCK_N_MAX
    oracle_quad_nodes: int = DEFAULT_QUAD_NODES
    verify_alphas: tuple[float, ...] = DEFAULT_ALPHAS
    verify_nus: tuple[float, ...] = DEFAULT_NUS
    verify_etas: tuple[float, ...] = DEFAULT_ETAS
    # output
    out_dir: str = "."


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in {"true", "1", "yes", "on"}:
        return True
    if lowered in {"false", "0", "no", "off"}:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    return values


#: Config-value parsers by annotated field type; an optional field parses as its base type.
_PARSERS = {"str": str, "float": float, "int": int, "bool": _parse_bool,
            "tuple[float, ...]": _parse_float_list}
_COERCERS = {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(RunConfig)}


def load_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigurationError(f"cannot read config file {path}: {err}") from err
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        entries[key.strip()] = value.strip()
    return entries


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by CLI flags."""
    cfg = RunConfig()
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in load_config_file(config_path).items():
            if key not in _COERCERS:
                raise ConfigurationError(f"unknown config key '{key}'")
            try:
                setattr(cfg, key, _COERCERS[key](raw))
            except ValueError as err:
                raise ConfigurationError(f"config key '{key}': {err}") from err
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    if getattr(args, "f_policy", None) is not None:
        cfg.f_policy = args.f_policy
    if getattr(args, "paper_literal_sign", None) is not None:
        cfg.paper_literal_sign = True
    return cfg


def parse_f_policy(spec: str) -> ConstantF | TableF:
    """Parse ``const:F`` or ``table:PATH`` into a policy object."""
    kind, sep, rest = spec.partition(":")
    if kind == "const" and sep:
        try:
            return ConstantF(float(rest))
        except ValueError as err:
            raise ConfigurationError(f"f_policy '{spec}': {err}") from err
    if kind == "table" and sep:
        return TableF(_read_f_table(rest))
    raise ConfigurationError(f"f_policy must be 'const:F' or 'table:PATH', got '{spec}'")


def _read_f_table(path: str) -> tuple[tuple[float, float], ...]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigurationError(f"cannot read f_policy table {path}: {err}") from err
    lines = [
        (lineno, raw, [part.strip() for part in raw.split(",")])
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() and not raw.strip().startswith("#")
    ]
    if lines and lines[0][2][:2] == ["e", "f"]:
        lines = lines[1:]  # optional header row
    knots: list[tuple[float, float]] = []
    for lineno, raw, parts in lines:
        if len(parts) != 2:
            raise ConfigurationError(f"{path}:{lineno}: expected 'e,f', got {raw!r}")
        try:
            knots.append((float(parts[0]), float(parts[1])))
        except ValueError as err:
            raise ConfigurationError(f"{path}:{lineno}: {err}") from err
    return tuple(knots)


def _scenario(cfg: RunConfig, family: SourceFamily, distance_km: float, f_policy) -> Scenario:
    channel = ChannelModel(
        loss_coeff_a=cfg.loss_coeff_a,
        distance_l=distance_km,
        receiver_loss_L=cfg.receiver_loss_L,
        detector_eff=cfg.detector_eff,
    )
    detector = DetectorModel(dark_prob_Pd=cfg.dark_prob_Pd, baseline_error_c=cfg.baseline_error_c)
    return Scenario(
        source_family=family,
        channel=channel,
        detector=detector,
        f_policy=f_policy,
        paper_literal_sign=cfg.paper_literal_sign,
    )


def _search_kwargs(cfg: RunConfig) -> dict:
    return {
        "param_min": cfg.param_min,
        "param_max": cfg.param_max,
        "grid_points": cfg.grid_points,
        "rtol": cfg.golden_rtol,
    }


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(comments: Sequence[str], header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sign_note(cfg: RunConfig) -> str:
    return "sign = " + ("paper-literal" if cfg.paper_literal_sign else "corrected")


def _family_label(family: SourceFamily) -> str:
    return f"{family.value} ({family.param_name})"


RATE_HEADER = (
    "family", "l", "eta", "param",
    "p_s", "p_s_bar", "p_m", "e", "rho", "tau", "h", "f", "R", "R_raw",
)
FIGURE1_HEADER = ("family", "param", "p_s", "p_s_bar", "p_m", "e", "rho", "tau", "R")
FIGURE2_HEADER = (
    "family", "l", "eta", "param",
    "p_s", "p_s_bar", "p_m", "e", "rho", "tau", "R", "cutoff_km",
)
VERIFY_HEADER = (
    "formula", "alpha", "nu", "eta", "method", "resolution",
    "closed_form", "oracle", "abs_diff", "within_tol",
)


def cmd_rate(cfg: RunConfig, args: argparse.Namespace) -> int:
    family_name = args.family or cfg.family
    if not family_name:
        raise ConfigurationError("missing 'family' (flag --family or config key family)")
    try:
        family = SourceFamily(family_name)
    except ValueError as err:
        raise ConfigurationError(f"unknown family '{family_name}'") from err
    if family is SourceFamily.COHERENT_BB84:
        if args.nu:
            raise ConfigurationError("'nu' does not apply to coherent-bb84; set alpha2")
        params = args.alpha2 or ([cfg.alpha2] if cfg.alpha2 is not None else None)
        if params is None:
            raise ConfigurationError("missing 'alpha2' (flag --alpha2 or config key alpha2)")
    else:
        if args.alpha2:
            raise ConfigurationError(f"'alpha2' does not apply to {family.value}; set nu")
        params = args.nu or ([cfg.nu] if cfg.nu is not None else None)
        if params is None:
            raise ConfigurationError("missing 'nu' (flag --nu or config key nu)")
    distances = args.l or [cfg.distance_km]
    f_policy = parse_f_policy(cfg.f_policy)
    rows = []
    for distance in distances:
        scenario = _scenario(cfg, family, distance, f_policy)
        eta = scenario.channel.total_eta()
        b = rate_at(scenario, params)
        if not np.all(b.p_s_bar > 0.0):
            raise DegenerateInputError(
                f"{family.value} at l = {distance:g} km: no detection events (no signal "
                "and no dark counts), so the error rate is undefined"
            )
        columns = (b.p_s, b.p_s_bar, b.p_m, b.e, b.rho, b.tau, b.h, b.f, b.R, b.R_raw)
        for param, *values in zip(params, *(column.tolist() for column in columns)):
            rows.append((family.value, distance, eta, param, *values))
    comments = (_sign_note(cfg), f"f_policy = {cfg.f_policy}")
    sys.stdout.write(_csv_text(comments, RATE_HEADER, rows))
    return EXIT_OK


def cmd_figure1(cfg: RunConfig, args: argparse.Namespace) -> int:
    distance = args.l if args.l is not None else cfg.distance_km
    if cfg.fig1_points < 2 or cfg.fig1_param_max <= 0.0:
        raise ConfigurationError("need fig1_points >= 2 and fig1_param_max > 0")
    f_policy = parse_f_policy(cfg.f_policy)
    params = np.array(
        [cfg.fig1_param_max * i / (cfg.fig1_points - 1) for i in range(cfg.fig1_points)]
    )
    eta = _scenario(cfg, SourceFamily.COHERENT_BB84, distance, f_policy).channel.total_eta()
    rows = []
    curves = []
    for family in SourceFamily:
        b = rate_at(_scenario(cfg, family, distance, f_policy), params)
        # a vacuum source with zero dark counts has no detection events: no row
        detected = b.p_s_bar > 0.0
        columns = (params, b.p_s, b.p_s_bar, b.p_m, b.e, b.rho, b.tau, b.R)
        family_rows = list(zip(repeat(family.value), *(c[detected].tolist() for c in columns)))
        rows.extend(family_rows)
        curves.append((_family_label(family), [(row[1], row[-1]) for row in family_rows]))
    eta_db = 10.0 * math.log10(eta)
    comments = (
        f"distance_km = {_fmt(distance)}",
        f"eta_db = {_fmt(eta_db)}",
        _sign_note(cfg),
        f"f_policy = {cfg.f_policy}",
    )
    out = _out_dir(cfg)
    _write_text(out / "figure1.csv", _csv_text(comments, FIGURE1_HEADER, rows))
    _write_text(
        out / "figure1.svg",
        render_line_chart(
            curves,
            title=f"Secure rate vs source parameter at l = {distance:g} km",
            x_label="source parameter (mean photon number alpha2 or squeeze nu)",
            y_label="secure rate per slot",
        ),
    )
    print(f"figure1: eta = {eta_db:.2f} dB at l = {distance:g} km")
    print(f"wrote {out / 'figure1.csv'} and {out / 'figure1.svg'}")
    return EXIT_OK


def cmd_figure2(cfg: RunConfig, args: argparse.Namespace) -> int:
    l_max = args.l_max if args.l_max is not None else cfg.l_max_km
    l_step = args.l_step if args.l_step is not None else cfg.l_step_km
    if l_max <= 0.0 or l_step <= 0.0:
        raise ConfigurationError("need l_max_km > 0 and l_step_km > 0")
    f_policy = parse_f_policy(cfg.f_policy)
    l_grid = [float(l) for l in np.arange(0.0, l_max + 0.5 * l_step, l_step)]
    search = _search_kwargs(cfg)
    rows = []
    curves = []
    cutoffs: dict[str, float | None] = {}
    for family in SourceFamily:
        scenario = _scenario(cfg, family, 0.0, f_policy)
        sweep = sweep_distance(
            scenario, l_grid, cutoff_resolution_km=cfg.cutoff_resolution_km, **search
        )
        cutoffs[family.value] = sweep.cutoff_l
        cutoff_cell = sweep.cutoff_l if sweep.cutoff_l is not None else ""
        points = []
        for distance, optimum in sweep.points:
            if optimum is None:
                continue
            b = optimum.breakdown
            eta = scenario.channel.at_distance(distance).total_eta()
            rows.append(
                (family.value, distance, eta, optimum.param_value, b.p_s, b.p_s_bar,
                 b.p_m, b.e, b.rho, b.tau, b.R, cutoff_cell)
            )
            points.append((distance, b.R))
        curves.append((_family_label(family), points))
    comments = (
        f"l_max_km = {_fmt(l_max)}",
        f"l_step_km = {_fmt(l_step)}",
        _sign_note(cfg),
        f"f_policy = {cfg.f_policy}",
    )
    out = _out_dir(cfg)
    _write_text(out / "figure2.csv", _csv_text(comments, FIGURE2_HEADER, rows))
    _write_text(
        out / "figure2.svg",
        render_line_chart(
            curves,
            title="Optimal secure rate vs transmission distance",
            x_label="distance (km)",
            y_label="optimal secure rate per slot",
            log_y=True,
        ),
    )
    for family in SourceFamily:
        cutoff = cutoffs[family.value]
        if cutoff is None:
            print(f"cutoff[{family.value}]: none within {l_max:g} km")
        else:
            print(f"cutoff[{family.value}]: {cutoff:.2f} km")
    print(f"wrote {out / 'figure2.csv'} and {out / 'figure2.svg'}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    n_max = args.fock_n_max if args.fock_n_max is not None else cfg.oracle_fock_n_max
    nodes = args.quad_nodes if args.quad_nodes is not None else cfg.oracle_quad_nodes
    grid = product(cfg.verify_alphas, cfg.verify_nus, cfg.verify_etas)
    reports = verify_closed_forms(grid, fock_n_max=n_max, quad_nodes=nodes)
    rows = [
        (r.formula, r.alpha, r.nu, r.eta, r.method, r.resolution,
         r.closed_form_value, r.oracle_value, r.abs_diff, r.within_tolerance)
        for r in reports
    ]
    comments = (_sign_note(cfg), f"fock_n_max = {n_max}", f"quad_nodes = {nodes}")
    out = _out_dir(cfg)
    _write_text(out / "verify.csv", _csv_text(comments, VERIFY_HEADER, rows))
    for (formula, method), diff in max_abs_diff_by_formula(reports).items():
        print(f"{formula} [{method}]: max |closed - oracle| = {diff:.3e}")
    failures = [r for r in reports if not r.within_tolerance]
    print(f"wrote {out / 'verify.csv'}")
    if failures:
        print(f"verification FAILED at {len(failures)} check(s):")
        for r in failures:
            print(
                f"  {r.formula} [{r.method}] alpha={r.alpha:g} nu={r.nu:g} eta={r.eta:g}: "
                f"|diff| = {r.abs_diff:.3e} > {r.tolerance:g}"
            )
        return EXIT_VERIFY_FAILED
    print("verification passed: all closed forms within tolerance")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH", default=argparse.SUPPRESS,
        help="flat 'key = value' configuration file",
    )
    common.add_argument(
        "--out", metavar="DIR", default=argparse.SUPPRESS,
        help="output directory for generated files (default '.')",
    )
    common.add_argument(
        "--paper-literal-sign", action="store_const", const=True, default=argparse.SUPPRESS,
        help="use the additive error-correction sign found in some printed "
        "statements of the rate formula (comparison runs only)",
    )
    common.add_argument(
        "--f-policy", metavar="SPEC", default=argparse.SUPPRESS,
        help="error-correction inefficiency: 'const:F' or 'table:PATH' (default const:1.16)",
    )

    parser = argparse.ArgumentParser(
        prog="mcs-qkd",
        parents=[common],
        description="Secure key rates for coherent and modified-coherent-state QKD sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser(
        "rate", parents=[common], help="rate breakdown at explicit operating points"
    )
    p_rate.add_argument("--family", choices=[f.value for f in SourceFamily])
    p_rate.add_argument("--alpha2", type=float, action="append",
                        help="mean photon number for coherent-bb84 (repeatable)")
    p_rate.add_argument("--nu", type=float, action="append",
                        help="squeeze magnitude for mcs families (repeatable)")
    p_rate.add_argument("--l", type=float, action="append", help="distance in km (repeatable)")
    p_rate.set_defaults(func=cmd_rate)

    p_fig1 = sub.add_parser(
        "figure1", parents=[common], help="rate-vs-parameter curves at fixed distance"
    )
    p_fig1.add_argument("--l", type=float, default=None, help="distance in km (default 5)")
    p_fig1.set_defaults(func=cmd_figure1)

    p_fig2 = sub.add_parser(
        "figure2", parents=[common], help="optimal rate vs distance plus cutoffs"
    )
    p_fig2.add_argument("--l-max", dest="l_max", type=float, default=None,
                        help="largest distance in km (default 100)")
    p_fig2.add_argument("--l-step", dest="l_step", type=float, default=None,
                        help="distance grid step in km (default 1)")
    p_fig2.set_defaults(func=cmd_figure2)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="check closed forms against brute-force oracles"
    )
    p_verify.add_argument("--fock-n-max", dest="fock_n_max", type=int, default=None,
                          help="truncation order of the Fock-sum oracle (default 128)")
    p_verify.add_argument("--quad-nodes", dest="quad_nodes", type=int, default=None,
                          help="quadrature nodes per axis (default 96)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return args.func(cfg, args)
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, DegenerateInputError) as err:
        # invalid physical parameters and inputs without any detection events
        # are reachable only through configuration
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationError as err:
        # the Fock oracle's truncation order is a configuration value
        print(f"config error: {err}; raise fock_n_max", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
