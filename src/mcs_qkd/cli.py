"""Command-line front end: rate tables, figure reproductions, oracle checks.

Subcommands
    rate     breakdown rows for explicit (source parameter, distance) points
    figure1  rate-vs-source-parameter curves at a fixed distance (CSV + SVG)
    figure2  optimal rate vs distance with cutoffs (CSV + SVG, log rate axis)
    verify   closed forms against the brute-force oracles (CSV report)

Configuration comes from a flat ``key = value`` file (``--config``) with CLI
flags taking precedence; defaults reproduce the KTH15 parameter set.  CSV
output is deterministic byte for byte for a fixed configuration: floats have
17 significant digits, flags read true/false, a family without a cutoff has an
empty ``cutoff_km`` cell, and lines end in LF.

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
    DEFAULT_ALPHAS, DEFAULT_ETAS, DEFAULT_FOCK_N_MAX, DEFAULT_NUS, DEFAULT_QUAD_NODES,
    max_abs_diff_by_formula, verify_closed_forms,
)
from .key_rate import (
    DEFAULT_F_POLICY, KTH15_CHANNEL, KTH15_DETECTOR,
    ChannelModel, ConstantF, DetectorModel, RateBreakdown, TableF,
)
from .optimizer import (
    DEFAULT_CUTOFF_RESOLUTION_KM, DEFAULT_GRID_POINTS, DEFAULT_PARAM_MAX, DEFAULT_PARAM_MIN,
    DEFAULT_RTOL, Scenario, SourceFamily, rate_at, sweep_distance,
)
from .svgplot import render_line_chart

__all__ = ["RunConfig", "build_config", "main", "parse_f_policy"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

#: Most distances a figure2 range, and most points a figure1 scan, may hold.
_MAX_POINTS = 100_000


@dataclass
class RunConfig:
    """Run configuration; field names double as the config-file keys."""

    # channel and detector (KTH15 defaults)
    loss_coeff_a: float = KTH15_CHANNEL.loss_coeff_a  # dB/km
    receiver_loss_L: float = KTH15_CHANNEL.receiver_loss_L  # dB
    detector_eff: float = KTH15_CHANNEL.detector_eff
    dark_prob_Pd: float = KTH15_DETECTOR.dark_prob_Pd
    baseline_error_c: float = KTH15_DETECTOR.baseline_error_c
    # rate formula
    f_policy: str = f"const:{DEFAULT_F_POLICY.f0}"
    paper_literal_sign: bool = False
    # geometry
    distance_km: float = KTH15_CHANNEL.distance_l
    l_max_km: float = 100.0  # extends past the longest default cutoff (~78 km)
    l_step_km: float = 1.0
    # source parameters for the `rate` command (no safe defaults)
    family: str | None = None
    alpha2: float | None = None
    nu: float | None = None
    # optimizer search
    param_min: float = DEFAULT_PARAM_MIN
    param_max: float = DEFAULT_PARAM_MAX
    grid_points: int = DEFAULT_GRID_POINTS
    golden_rtol: float = DEFAULT_RTOL
    cutoff_resolution_km: float = DEFAULT_CUTOFF_RESOLUTION_KM
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


def _content_lines(path: str, what: str) -> list[tuple[int, str]]:
    """Numbered lines of the flat file ``path``, without blank and '#' comment lines."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigurationError(f"cannot read {what} {path}: {err}") from err
    return [
        (lineno, raw)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() and not raw.strip().startswith("#")
    ]


def load_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment line."""
    entries: dict[str, str] = {}
    for lineno, raw in _content_lines(path, "config file"):
        key, sep, value = raw.partition("=")
        if not sep:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        entries[key.strip()] = value.strip()
    return entries


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by CLI flags.

    A flag that overrides a config key stores under that key's name and is
    absent from ``args`` unless given.
    """
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
    for key, value in vars(args).items():
        if key in _COERCERS:
            setattr(cfg, key, value)
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
    lines = [
        (lineno, raw, [part.strip() for part in raw.split(",")])
        for lineno, raw in _content_lines(path, "f_policy table")
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
    channel = ChannelModel(loss_coeff_a=cfg.loss_coeff_a, distance_l=distance_km,
                           receiver_loss_L=cfg.receiver_loss_L, detector_eff=cfg.detector_eff)
    detector = DetectorModel(dark_prob_Pd=cfg.dark_prob_Pd, baseline_error_c=cfg.baseline_error_c)
    return Scenario(source_family=family, channel=channel, detector=detector,
                    f_policy=f_policy, paper_literal_sign=cfg.paper_literal_sign)


def _fmt(value: float) -> str:
    return format(value, ".17g")


#: Text columns (``cutoff_km`` and ``within_tol`` arrive formatted) and integer columns.
_CELL_FORMATS = {"family": "%s", "formula": "%s", "method": "%s", "cutoff_km": "%s",
                 "within_tol": "%s", "resolution": "%d"}


def _row_format(header: Sequence[str]) -> str:
    return ",".join(_CELL_FORMATS.get(name, "%.17g") for name in header)


def _csv_text(comments: Sequence[str], header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Comment lines, the header, then each row in one ``%``-format built from the header."""
    row_format = _row_format(header)
    return _csv_join(comments, header, [row_format % tuple(row) for row in rows])


def _csv_join(comments: Sequence[str], header: Sequence[str], lines: list[str]) -> str:
    """Comment lines, the header, then the already formatted row ``lines``."""
    return "\n".join([*(f"# {comment}" for comment in comments), ",".join(header), *lines]) + "\n"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_figure(cfg: RunConfig, name: str, comments, header, rows, curves, **chart) -> str:
    """Write ``name``.csv, then ``name``.svg charting ``curves``; returns the line saying so."""
    out = _out_dir(cfg)
    csv_path, svg_path = out / f"{name}.csv", out / f"{name}.svg"
    _write_text(csv_path, _csv_text(comments, header, rows))
    _write_text(svg_path, render_line_chart(curves, **chart))
    return f"wrote {csv_path} and {svg_path}"


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
_BREAKDOWN_FIELDS = frozenset(field.name for field in fields(RateBreakdown))


def _breakdown_values(b: RateBreakdown, header: Sequence[str]) -> list:
    """The fields of ``b`` that ``header`` names, in header order."""
    return [getattr(b, name) for name in header if name in _BREAKDOWN_FIELDS]


def cmd_rate(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not cfg.family:
        raise ConfigurationError("missing 'family' (flag --family or config key family)")
    try:
        family = SourceFamily(cfg.family)
    except ValueError as err:
        raise ConfigurationError(f"unknown family '{cfg.family}'") from err
    name = family.param_name
    other = "nu" if name == "alpha2" else "alpha2"
    if getattr(args, f"{other}_points"):
        raise ConfigurationError(f"'{other}' does not apply to {family.value}; set {name}")
    params = getattr(args, f"{name}_points") or [getattr(cfg, name)]
    if params == [None]:
        raise ConfigurationError(f"missing '{name}' (flag --{name} or config key {name})")
    distances = args.distances or [cfg.distance_km]
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
        columns = (column.tolist() for column in _breakdown_values(b, RATE_HEADER))
        rows.extend(zip(repeat(family.value), repeat(distance), repeat(eta), params, *columns))
    comments = (_sign_note(cfg), f"f_policy = {cfg.f_policy}")
    sys.stdout.write(_csv_text(comments, RATE_HEADER, rows))
    return EXIT_OK


def cmd_figure1(cfg: RunConfig, _args: argparse.Namespace) -> int:
    distance = cfg.distance_km
    if cfg.fig1_points < 2 or not cfg.fig1_param_max > 0.0:
        raise ConfigurationError("need fig1_points >= 2 and fig1_param_max > 0")
    if cfg.fig1_points > _MAX_POINTS or not math.isfinite(cfg.fig1_param_max):
        raise ConfigurationError(f"need fig1_points <= {_MAX_POINTS} and a finite fig1_param_max")
    f_policy = parse_f_policy(cfg.f_policy)
    params = np.array(
        [cfg.fig1_param_max * i / (cfg.fig1_points - 1) for i in range(cfg.fig1_points)]
    )
    eta = _scenario(cfg, SourceFamily.COHERENT_BB84, distance, f_policy).channel.total_eta()
    if eta == 0.0:  # its dB value for the CSV header would be -inf
        raise ConfigurationError(f"total efficiency underflows to 0 at l = {distance:g} km")
    rows = []
    curves = []
    for family in SourceFamily:
        b = rate_at(_scenario(cfg, family, distance, f_policy), params)
        # a vacuum source with zero dark counts has no detection events: no row
        detected = b.p_s_bar > 0.0
        columns = [c[detected].tolist() for c in (params, *_breakdown_values(b, FIGURE1_HEADER))]
        rows.extend(zip(repeat(family.value), *columns))
        curves.append((_family_label(family), list(zip(columns[0], columns[-1]))))
    eta_db = 10.0 * math.log10(eta)
    comments = (f"distance_km = {_fmt(distance)}", f"eta_db = {_fmt(eta_db)}",
                _sign_note(cfg), f"f_policy = {cfg.f_policy}")
    wrote = _write_figure(
        cfg, "figure1", comments, FIGURE1_HEADER, rows, curves,
        title=f"Secure rate vs source parameter at l = {distance:g} km",
        x_label="source parameter (mean photon number alpha2 or squeeze nu)",
        y_label="secure rate per slot",
    )
    print(f"figure1: eta = {eta_db:.2f} dB at l = {distance:g} km")
    print(wrote)
    return EXIT_OK


def cmd_figure2(cfg: RunConfig, _args: argparse.Namespace) -> int:
    l_max, l_step = cfg.l_max_km, cfg.l_step_km
    if not (l_max > 0.0 and l_step > 0.0):
        raise ConfigurationError("need l_max_km > 0 and l_step_km > 0")
    # np.arange below makes ceil(span) distances; span is compared as a float, as it may be inf
    span = (l_max + 0.5 * l_step) / l_step
    if not (math.isfinite(l_max) and math.isfinite(l_step) and span <= _MAX_POINTS):
        raise ConfigurationError(f"need finite l_max_km, l_step_km and <= {_MAX_POINTS} distances")
    f_policy = parse_f_policy(cfg.f_policy)
    l_grid = [float(l) for l in np.arange(0.0, l_max + 0.5 * l_step, l_step)]
    settings = dict(param_min=cfg.param_min, param_max=cfg.param_max, grid_points=cfg.grid_points,
                    rtol=cfg.golden_rtol, cutoff_resolution_km=cfg.cutoff_resolution_km)
    rows = []
    curves = []
    notes = []
    for family in SourceFamily:
        scenario = _scenario(cfg, family, 0.0, f_policy)
        sweep = sweep_distance(scenario, l_grid, **settings)
        cutoff = sweep.cutoff_l
        cutoff_cell = "" if cutoff is None else _fmt(cutoff)
        points = []
        for distance, optimum in sweep.points:
            if optimum is None:
                continue
            b = optimum.breakdown
            eta = scenario.channel.eta_at(distance)
            rows.append((family.value, distance, eta, optimum.param_value,
                         *_breakdown_values(b, FIGURE2_HEADER), cutoff_cell))
            points.append((distance, b.R))
        curves.append((_family_label(family), points))
        found = f"none within {l_max:g} km" if cutoff is None else f"{cutoff:.2f} km"
        if not points:  # the grid starts at 0 km, so the family is insecure from 0 km on
            found = "insecure at every distance"
        notes.append(f"cutoff[{family.value}]: {found}")
    comments = (f"l_max_km = {_fmt(l_max)}", f"l_step_km = {_fmt(l_step)}",
                _sign_note(cfg), f"f_policy = {cfg.f_policy}")
    notes.append(_write_figure(
        cfg, "figure2", comments, FIGURE2_HEADER, rows, curves,
        title="Optimal secure rate vs transmission distance",
        x_label="distance (km)",
        y_label="optimal secure rate per slot",
        log_y=True,
    ))
    print("\n".join(notes))
    return EXIT_OK


def cmd_verify(cfg: RunConfig, _args: argparse.Namespace) -> int:
    n_max, nodes = cfg.oracle_fock_n_max, cfg.oracle_quad_nodes
    grid = product(cfg.verify_alphas, cfg.verify_nus, cfg.verify_etas)
    reports = verify_closed_forms(grid, fock_n_max=n_max, quad_nodes=nodes)
    # one line per report object (reused tuned-source reports): equality would merge 0.0, -0.0
    distinct = {id(r): r for r in reports}
    row_format = _row_format(VERIFY_HEADER)
    lines = {key: row_format % (r.formula, r.alpha, r.nu, r.eta, r.method, r.resolution,
                                r.closed_form_value, r.oracle_value, r.abs_diff,
                                "true" if r.within_tolerance else "false")
             for key, r in distinct.items()}
    comments = (_sign_note(cfg), f"fock_n_max = {n_max}", f"quad_nodes = {nodes}")
    out = _out_dir(cfg)
    _write_text(out / "verify.csv",
                _csv_join(comments, VERIFY_HEADER, [lines[id(r)] for r in reports]))
    for (formula, method), diff in max_abs_diff_by_formula(distinct.values()).items():
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


def _add_override(parser: argparse.ArgumentParser, flag: str, key: str, **kwargs) -> None:
    """Add ``flag`` as an override of config key ``key``: ``args.key`` exists only if given.

    ``{default}`` in the help text is the key's ``RunConfig`` default, and a typed
    flag keeps the metavar that argparse derives from the flag name.
    """
    if "type" in kwargs:
        kwargs.setdefault("metavar", flag.lstrip("-").replace("-", "_").upper())
    if "help" in kwargs:
        kwargs["help"] = kwargs["help"].format(default=getattr(RunConfig, key))
    parser.add_argument(flag, dest=key, default=argparse.SUPPRESS, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH", default=argparse.SUPPRESS,
        help="flat 'key = value' configuration file",
    )
    _add_override(common, "--out", "out_dir", metavar="DIR",
                  help="output directory for generated files (default '{default}')")
    _add_override(
        common, "--paper-literal-sign", "paper_literal_sign", action="store_const", const=True,
        help="use the additive error-correction sign found in some printed "
        "statements of the rate formula (comparison runs only)",
    )
    _add_override(
        common, "--f-policy", "f_policy", metavar="SPEC",
        help="error-correction inefficiency: 'const:F' or 'table:PATH' (default {default})",
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
    _add_override(p_rate, "--family", "family", choices=[f.value for f in SourceFamily])
    # repeatable point lists rather than config overrides
    p_rate.add_argument("--alpha2", dest="alpha2_points", metavar="ALPHA2", type=float,
                        action="append", help="mean photon number for coherent-bb84 (repeatable)")
    p_rate.add_argument("--nu", dest="nu_points", metavar="NU", type=float, action="append",
                        help="squeeze magnitude for mcs families (repeatable)")
    p_rate.add_argument("--l", dest="distances", metavar="L", type=float, action="append",
                        help="distance in km (repeatable)")
    p_rate.set_defaults(func=cmd_rate)

    p_fig1 = sub.add_parser(
        "figure1", parents=[common], help="rate-vs-parameter curves at fixed distance"
    )
    _add_override(p_fig1, "--l", "distance_km", type=float,
                  help="distance in km (default {default:g})")
    p_fig1.set_defaults(func=cmd_figure1)

    p_fig2 = sub.add_parser(
        "figure2", parents=[common], help="optimal rate vs distance plus cutoffs"
    )
    _add_override(p_fig2, "--l-max", "l_max_km", type=float,
                  help="largest distance in km (default {default:g})")
    _add_override(p_fig2, "--l-step", "l_step_km", type=float,
                  help="distance grid step in km (default {default:g})")
    p_fig2.set_defaults(func=cmd_figure2)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="check closed forms against brute-force oracles"
    )
    _add_override(p_verify, "--fock-n-max", "oracle_fock_n_max", type=int,
                  help="truncation order of the Fock-sum oracle (default {default})")
    _add_override(p_verify, "--quad-nodes", "oracle_quad_nodes", type=int,
                  help="Gauss-Hermite nodes of the quadrature oracle (default {default})")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return args.func(cfg, args)
    except (ConfigurationError, DomainError, DegenerateInputError, TruncationError) as err:
        # invalid physical parameters, inputs without any detection events and
        # the Fock oracle's truncation order are reachable only through configuration
        hint = "; raise fock_n_max" if isinstance(err, TruncationError) else ""
        print(f"config error: {err}{hint}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
