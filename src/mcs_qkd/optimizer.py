"""Source-parameter optimization, distance sweeps, and cutoff location.

This module only searches; the source model, ``SourceFamily.source``, lives in
``photon_source``.  For each source family the free parameter is the mean photon
number ``|alpha|**2`` (plain coherent state) or the squeeze magnitude ``nu``
(interference-tuned sources).  A coarse logarithmic grid brackets the best rate
over that parameter and safeguarded Newton steps in ``log(param)`` polish it, 3
cells per row and step (see ``_newton_steps``).  Rows with an f(e) table, under
the paper-literal sign and rough rows keep a section search (16 probes per step;
see ``_optimize_rows``).  On every row the optimum is the first point evaluated
with the largest unclamped rate ``R_raw``, the best grid point included, so it
is never below the grid (see ``_keep_best``).  The coarse pass has two
levels: about ``_SAMPLES`` grid points a stride apart, then the points around
the best of them.  It finds the full grid's best point whenever that point lies
within a stride of the best sample.  That held on every secure row checked, at 2
to 2,000 grid points: ``R_raw`` has one interior maximum there, and its dip
towards ``param_min`` stays below the samples by the peak.  Past the cutoff
``R_raw`` may peak at ``param_min`` instead; every point is then <= 0, and the
row is insecure whichever peak the pass finds.  So the pass gives the full
grid's secure flag, the one predicate of the sweep rows and the cutoff search.
``_best_cells`` says which rows evaluate every grid point.

Every rate goes through one numpy kernel, ``_breakdown``, which evaluates the
source statistics (``photon_source``'s ``SourceFamily.source`` and
``p_signal_formula``) and the rate formula elementwise over broadcast arrays of
total efficiency and source parameter, with a source family per row; rows come
in runs of one family, one source call each.  Every step of the search is one
row search, ``_row_best``, which calls the kernel in blocks of at most
``_BLOCK_CELLS`` cells.  A sweep stacks one row per (family, distance), family
by family, and refines the secure rows together, one row search per step of
the rows still stepping: each row takes the steps of a one-distance search, and
``optimize_param`` is the one-row case; the secure rows come out in columns.
The cutoff is the last multiple ``j * resolution_km`` (j >= 0, rounded once)
where the optimum is secure, so the range searched does not move it.  One loop,
``_cutoffs``, finds it for every family at once: each round cuts every span of
multiples, from the last known secure to the first known insecure, into
``_CUTS`` parts, and one ``_secure_at`` call evaluates the cut points that no
bracket decides.  A span closes at adjacent multiples or adjacent floats.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError, require_finite_nonneg
from .key_rate import (
    DEFAULT_F_POLICY, ChannelModel, ConstantF, DetectorModel, RateBreakdown, TableF,
    rate_formula, secure_rate,
)

# p_multi, p_multi_min, p_signal and secure_rate are not called here; they stay
# importable from this module, where bench/spans.py wraps them for tracing.
from .photon_source import SourceFamily, p_multi, p_multi_min, p_signal, p_signal_formula

__all__ = ["DistanceSweep", "OptimumPoint", "PARAM_LIMIT", "Scenario", "cutoff_distance",
           "optimize_param", "rate_at", "sweep_distance"]

#: Defaults of the search keywords of ``optimize_param`` and of the cutoff resolution.
DEFAULT_PARAM_MIN = 1e-5
DEFAULT_PARAM_MAX = 4.0
DEFAULT_GRID_POINTS = 200
DEFAULT_RTOL = 1e-5
DEFAULT_CUTOFF_RESOLUTION_KM = 0.01

#: Probes of a section step, which keeps 2 of the 17 cells between them.
_PROBES = np.arange(1.0, 17.0)

#: A Newton step's stencil, as factors of its centre: ``exp(-h)``, 1 and ``exp(h)``, h = 1e-4.
#: At h = 1e-5 the second differences of ``R_raw`` carry about 1e-4 relative rounding
#: noise, and sweeps took different steps at different numpy SIMD levels.
_STENCIL = np.exp([-1e-4, 0.0, 1e-4])

#: Parts that a cutoff round cuts each span of multiples into.
_CUTS = 16

#: Largest source parameter; far above it ``nu * nu`` and ``alpha2`` overflow.
PARAM_LIMIT = 100.0

#: Cells per kernel call of a sweep's coarse grid (24 rows of 200), below a cache cliff.
_BLOCK_CELLS = 4800

#: Grid points per row that the first level of a two-level coarse pass evaluates.
_SAMPLES = 25

#: Rows whose ``eta * param_min`` is below this keep the full coarse grid.  The
#: detection probability ``1 - p0`` there keeps at most 4 of its 16 digits at
#: ``param_min``; without dark counts such rows can stay secure until it keeps
#: none, and the rounding makes ``R_raw`` ragged, with maxima the samples miss.
_FAINT = 1e-12

#: Rows whose detection probability at the coarse winner, about ``eta * param + Pd``,
#: is below this take section steps: without dark counts ``1 - p0`` and the
#: multi-photon probability there keep too few digits for the second differences
#: of a Newton stencil, whose step then follows rounding noise.
_ROUGH = 1e-6

#: Largest coarse parameter grid a search may ask for.
_MAX_GRID_POINTS = 100_000


_FAMILIES = tuple(SourceFamily)  #: the families by the index the searches give each row
_FIELDS = tuple(field.name for field in dataclasses.fields(RateBreakdown))


@dataclass(frozen=True)
class Scenario:
    """Everything fixed while the source parameter is varied."""

    source_family: SourceFamily
    channel: ChannelModel
    detector: DetectorModel
    f_policy: ConstantF | TableF = DEFAULT_F_POLICY
    paper_literal_sign: bool = False

    def at_distance(self, distance_l: float) -> "Scenario":
        return dataclasses.replace(self, channel=self.channel.at_distance(distance_l))


@dataclass(frozen=True)
class OptimumPoint:
    """Refined maximum of the rate curve over the source parameter.

    ``param_value`` is the first point evaluated with the largest ``R_raw``.  ``bracket``
    holds the two params between which the last search step placed the maximum: points
    whose slopes pointed inwards, or the best grid point's neighbours (for a section
    search, the cells around its last step's best probe).
    """

    param_value: float
    breakdown: RateBreakdown
    bracket: tuple[float, float]


@dataclass(frozen=True)
class DistanceSweep:
    """Optimal operating points at a sweep's secure distances, in columns.

    ``index`` holds the secure distances' positions in the grid, ascending, and
    ``eta`` their total efficiencies, at which the search ran; ``param_value``,
    ``breakdown`` (of arrays) and ``bracket`` (n x 2) what an ``OptimumPoint`` holds,
    at each of them.  If the sweep ends insecure, ``cutoff_l`` is the cutoff that
    :func:`cutoff_distance` gives (``None`` if none is secure).
    """

    index: np.ndarray
    eta: np.ndarray
    param_value: np.ndarray
    breakdown: RateBreakdown
    bracket: np.ndarray
    cutoff_l: float | None


def _breakdown(scenario: Scenario, eta, param, families=None) -> RateBreakdown:
    """Rate breakdown elementwise over broadcast arrays of efficiency and parameter.

    ``families`` gives each row (leading axis) a ``_FAMILIES`` index in place of
    ``scenario``'s family; ``param`` then has that axis or is shared by all rows.  Rows
    may come in any order; each run of one family takes one ``source`` call, over the
    shared cells or its rows.  Inputs are not validated.
    """
    if families is None:
        families = [_FAMILIES.index(scenario.source_family)]
    cuts = (np.flatnonzero(np.diff(families)) + 1).tolist() if len(families) > 1 else []
    if not cuts:
        alpha2, nu, mu, p_m = _FAMILIES[families[0]].source(param)
    else:  # a coherent row's nu = 0 and mu = 1 cells give the bits of the scalars
        shape = np.broadcast_shapes(np.shape(eta), np.shape(param))
        alpha2, nu, mu, p_m = source = [np.empty(shape) for _ in range(4)]
        for run in map(slice, [0, *cuts], [*cuts, len(families)]):
            parts = _FAMILIES[families[run.start]].source(
                param[run] if np.ndim(param) == len(shape) else param)
            for whole, part in zip(source, parts):
                whole[run] = part
    # p_m is at most 1 by construction; rounding can dip below 0
    return rate_formula(p_signal_formula(alpha2, nu, mu, eta), np.maximum(p_m, 0.0),
                        scenario.detector, scenario.f_policy,
                        paper_literal_sign=scenario.paper_literal_sign)


def rate_at(scenario: Scenario, param) -> RateBreakdown:
    """Rate breakdown of ``scenario`` at a value, or an array, of the free parameter.

    An array gives a breakdown of arrays of its shape.  Parameter values with
    no detection events (vacuum source, zero dark counts) are marked, not
    raised: their ``p_s_bar`` is 0, their ``e`` nan and their ``R`` 0.
    Parameters above 100 raise ``DomainError``.
    """
    try:
        values = np.asarray(param, dtype=float)
    except ValueError:
        raise DomainError("param must be a number or a rectangular array of numbers") from None
    bad = values[~(np.isfinite(values) & (values >= 0.0))]
    if bad.size:
        require_finite_nonneg("param", float(bad[0]))
    bad = values[values > PARAM_LIMIT]
    if bad.size:
        raise DomainError(f"param must be <= {PARAM_LIMIT:g}, got {float(bad[0])!r}")
    breakdown = _breakdown(scenario, scenario.channel.total_eta(), values)
    return breakdown.at(()) if values.ndim == 0 else breakdown


def _search(
    caller: str, /,
    param_min: float = DEFAULT_PARAM_MIN,
    param_max: float = DEFAULT_PARAM_MAX,
    grid_points: int = DEFAULT_GRID_POINTS,
    rtol: float = DEFAULT_RTOL,
    **unknown,
) -> tuple[np.ndarray, float]:
    """The coarse parameter grid and ``rtol``, after checking ``caller``'s search keywords."""
    if unknown:
        raise TypeError(f"{caller}() got an unexpected keyword argument {next(iter(unknown))!r}")
    if not 0.0 < param_min < param_max <= PARAM_LIMIT:
        raise DomainError(f"need 0 < param_min < param_max <= {PARAM_LIMIT:g}")
    if grid_points < 2:
        raise DomainError("grid_points must be >= 2")
    if grid_points > _MAX_GRID_POINTS:
        raise DomainError(f"grid_points must be <= {_MAX_GRID_POINTS}, got {grid_points!r}")
    if not rtol > 0.0:
        raise DomainError(f"rtol must be > 0, got {rtol!r}")
    return np.geomspace(param_min, param_max, grid_points), rtol


def _check_resolution(resolution_km: float) -> None:
    if not (math.isfinite(resolution_km) and resolution_km > 0.0):
        raise DomainError(f"cutoff resolution must be finite and > 0 km, got {resolution_km!r}")


def _row_best(scenario: Scenario, families, etas, params, names,
              curves: Sequence[str] = ()) -> tuple[np.ndarray, ...]:
    """Per row, the column of the first of ``params`` with the largest ``R_raw`` (nan lowest),
    then each of the breakdown fields ``curves`` at every column (rows x columns), then the
    fields ``names`` at the best column (names x rows).

    A row is a family and a total efficiency; ``params`` is shared by every row (1-D) or
    holds one row each (2-D).  Each kernel call takes at most ``_BLOCK_CELLS`` cells.
    """
    n = params.shape[-1]
    best, fields = np.empty(len(etas), dtype=np.intp), np.empty((len(names), len(etas)))
    wholes = [np.empty((len(etas), n)) for _ in curves]
    block = max(1, _BLOCK_CELLS // n)
    for start in range(0, len(etas), block):
        rows = slice(start, start + block)
        rates = _breakdown(scenario, etas[rows, None], params[rows] if params.ndim == 2 else params,
                           families[rows])
        best[rows] = k = np.argmax(np.where(np.isnan(rates.R_raw), -np.inf, rates.R_raw), axis=1)
        flat = k + n * np.arange(len(k))  # each row's best cell in the flat block
        for field, name in zip(fields, names):
            field[rows] = getattr(rates, name).take(flat)
        for whole, name in zip(wholes, curves):
            whole[rows] = getattr(rates, name)
    return best, *wholes, fields


def _best_cells(scenario: Scenario, families: np.ndarray, etas: np.ndarray,
                grid: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Index of the best grid point for each row (a family and a total efficiency), and its
    breakdown fields ``names`` (names x rows).

    A row takes every grid point if the grid has under two points per sample
    (fewer than 50), under the paper-literal sign (whose ``R_raw`` can peak twice
    within a stride), if the search's full grid fits one kernel call (a second call
    would cost more than it saves), or if the row is faint (see ``_FAINT``).  The
    others take two levels: about ``_SAMPLES`` grid points a stride apart, the last
    point among them, then the ``2 * stride - 1`` points around the best sample,
    shifted into the grid.  That finds the full grid's best point when it lies
    within a stride of the best sample (see the module notes).
    """
    stride = len(grid) // _SAMPLES
    whole = stride < 2 or scenario.paper_literal_sign or len(etas) * len(grid) <= _BLOCK_CELLS
    full = whole | (etas * grid[0] < _FAINT)
    best_i = np.empty(len(etas), dtype=np.intp)
    fields = np.empty((len(names), len(etas)))
    if full.any():
        best_i[full], fields[:, full] = _row_best(scenario, families[full], etas[full], grid, names)
    rows = ~full
    if rows.any():
        families, etas = families[rows], etas[rows]
        samples = np.append(np.arange(0, len(grid) - 1, stride), len(grid) - 1)
        width = 2 * stride - 1
        best = samples[_row_best(scenario, families, etas, grid[samples], ())[0]]
        start = np.clip(best - (stride - 1), 0, len(grid) - width)
        cell, fields[:, rows] = _row_best(scenario, families, etas,
                                          grid[start[:, None] + np.arange(width)], names)
        best_i[rows] = start + cell
    return best_i, fields


def _secure_at(scenario: Scenario, distances, grid: np.ndarray, families: np.ndarray) -> np.ndarray:
    """Whether ``optimize_param`` finds a positive unclamped rate at each of ``distances``.

    ``families`` gives the distances their ``_FAMILIES`` index.  As the refined
    optimum never falls below the best grid point, the answer is the sign of
    ``_best_cells``'s rate, as for a sweep row.
    """
    etas = np.array([scenario.channel.eta_at(l) for l in distances])
    return _best_cells(scenario, families, etas, grid, ("R",))[1][0] > 0.0


def _optimize_rows(
    scenario: Scenario, families: np.ndarray, etas: np.ndarray, grid: np.ndarray, rtol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The secure rows (a family and a total efficiency each), ascending, their optima in
    columns (the param, then each breakdown field) and their final brackets (n x 2).

    Each optimum starts at the row's coarse winner and moves only to a step's better cell
    (see ``_keep_best``).  Rows with a ``TableF``, whose ``R_raw`` has a kink wherever ``e``
    crosses a knot and often peaks on one, rows under the paper-literal sign, whose ``R_raw``
    peaks on its jump at ``rho = 0``, and rough rows (see ``_ROUGH``) take section steps;
    the others take Newton steps.
    """
    best_i, fields = _best_cells(scenario, families, etas, grid, _FIELDS)
    rows = np.flatnonzero(fields[_FIELDS.index("R")] > 0.0)
    families, eta, cell = families[rows], etas[rows], best_i[rows]
    optima = np.vstack((grid[cell], fields[:, rows]))  # the param, then each breakdown field
    bracket = np.empty((len(rows), 2))
    section = isinstance(scenario.f_policy, TableF) | scenario.paper_literal_sign | (
        eta * grid[cell] + scenario.detector.dark_prob_Pd < _ROUGH)
    for steps, part in ((_section_steps, section), (_newton_steps, ~section)):
        if part.any():
            optima[:, part], bracket[part] = steps(scenario, families[part], eta[part], grid,
                                                   cell[part], optima[:, part], rtol)
    return rows, optima, bracket


def _keep_best(optima: np.ndarray, rows: np.ndarray, cells: np.ndarray, best: np.ndarray,
               fields: np.ndarray) -> None:
    """Move the optima of ``rows`` (columns of ``optima``: the param, then each breakdown
    field) to a step's best cells, ``cells[i, best[i]]`` with the breakdown ``fields``
    (fields x rows), where that cell's ``R_raw`` is strictly larger (nan never is)."""
    raw = _FIELDS.index("R_raw")
    up = np.flatnonzero(fields[raw] > optima[1 + raw, rows])
    optima[:, rows[up]] = [cells[up, best[up]], *fields[:, up]]


def _newton_steps(scenario: Scenario, families: np.ndarray, eta: np.ndarray, grid: np.ndarray,
                  cell: np.ndarray, optima: np.ndarray, rtol: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The ``optima`` in columns, refined, and final brackets (n x 2) of rows that step
    together in log param.

    Each step is one row search over a stencil of 3 cells per row, ``p * exp(-h)``, ``p``
    and ``p * exp(h)`` (clipped to the grid), which gives ``d1`` and ``d2``, the first and
    second derivatives of ``R_raw`` in ``x = log(param)``.  The first stencil is centred on
    the coarse winner, whose neighbours bracket the search.  A step moves the bracket's end
    on the side that ``d1`` points away from to ``p``, then takes the Newton step
    ``-d1 / d2`` where ``d2 < 0``.

    A step must land inside the bracket, at most half as long as the row's step before
    last; otherwise the row bisects, in ``x``, the part of the bracket that ``d1`` points
    to.  So Newton steps halve every second step at least and bisections halve the
    bracket, and every row stops: when the Newton step or the step taken is below
    ``rtol / 10`` in ``x``, when ``d1 == 0`` or when the new param rounds to the old one.
    """
    lo, hi = grid[np.clip((cell - 1, cell + 1), 0, len(grid) - 1)]
    p = grid[cell]
    last, prior = np.log(hi / lo), np.log(hi / lo)  # the lengths of each row's last two steps
    active = np.arange(len(cell))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while active.size:
            q, a, b = p[active], lo[active], hi[active]
            cells = np.minimum(np.maximum(q[:, None] * _STENCIL, grid[0]), grid[-1])
            k, rates, fields = _row_best(scenario, families[active], eta[active], cells,
                                         _FIELDS, curves=("R_raw",))
            _keep_best(optima, active, cells, k, fields)
            d1, d2 = _slopes(rates, np.log(q / cells[:, 0]), np.log(cells[:, 2] / q))
            newton = -d1 / d2
            a = np.where(d1 > 0.0, np.maximum(a, q), a)
            b = np.where(d1 < 0.0, np.minimum(b, q), b)
            target, modelled = q * np.exp(newton), d2 < 0.0
            fits = modelled & (a < target) & (target < b) & (np.abs(newton) <= 0.5 * prior[active])
            step = np.where(fits, target, np.sqrt(q * np.where(d1 > 0.0, b, a)))
            length = np.abs(np.log(step / q))
            lo[active], hi[active] = a, b
            go = (np.abs(d1) > 0.0) & (length >= 0.1 * rtol) & (step != q)
            go &= ~(modelled & (np.abs(newton) < 0.1 * rtol))  # the Newton optimum is close
            active = active[go]
            p[active], prior[active], last[active] = step[go], last[active], length[go]
    return optima, np.stack((lo, hi), axis=1)


def _slopes(curve: np.ndarray, left: np.ndarray,
            right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and second derivatives at the centre of the quadratic through stencils' 3
    values ``curve`` (rows x 3) at offsets ``-left``, 0 and ``right``.  A side clipped to the
    grid's edge has width 0: the other side's slope is then the first derivative, and the
    second is 0."""
    down = (curve[:, 1] - curve[:, 0]) / left
    rise = (curve[:, 2] - curve[:, 1]) / right
    first = np.where(left == 0.0, rise, np.where(
        right == 0.0, down, (left * rise + right * down) / (left + right)))
    second = np.where((left > 0.0) & (right > 0.0), 2.0 * (rise - down) / (left + right), 0.0)
    return first, second


def _section_steps(scenario: Scenario, families: np.ndarray, eta: np.ndarray, grid: np.ndarray,
                   cell: np.ndarray, optima: np.ndarray, rtol: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The ``optima`` in columns, refined, and final brackets (n x 2) of rows that take
    16-probe section steps together, from the coarse winner ``cell`` and its neighbours.

    Each step keeps the two cells around its best probe.  Every row takes one step, and
    steps on while its bracket is wider than ``rtol`` relative and still shrinking.
    """
    lo, hi = grid[np.clip((cell - 1, cell + 1), 0, len(grid) - 1)]
    active = np.arange(len(cell))
    while active.size:
        # cells a, the probes a + (b - a) * j / 17 (j = 1..16), b: keep the two around the best
        a, b = lo[active], hi[active]
        probes = a[:, None] + (b - a)[:, None] * _PROBES / 17
        k, fields = _row_best(scenario, families[active], eta[active], probes, _FIELDS)
        _keep_best(optima, active, probes, k, fields)
        cells = np.concatenate((a[:, None], probes, b[:, None]), axis=1)
        c, d = np.take_along_axis(cells, np.stack((k, k + 2), axis=1), axis=1).T
        lo[active], hi[active] = c, d
        # a bracket down to adjacent floats stops shrinking before a tiny rtol is met
        active = active[(d - c > rtol * 0.5 * (c + d)) & (d - c < b - a)]
    return optima, np.stack((lo, hi), axis=1)


def optimize_param(scenario: Scenario, **search) -> OptimumPoint | None:
    """Maximize the clamped rate over the source parameter.

    The search keywords, all optional, are ``param_min`` (default 1e-5) and
    ``param_max`` (4), the ends of a logarithmic grid of ``grid_points`` (200)
    points, and ``rtol`` (1e-5).  The grid locates the best cell, in one kernel
    call up to ``_BLOCK_CELLS`` points and in two levels beyond (see the module
    notes); Newton steps in ``log(param)``, bracketed by that cell's neighbours,
    go on until a step is below ``rtol / 10`` (a section search to relative width
    ``rtol`` with an f(e) table, under the paper-literal sign and on rough rows).
    The optimum is the first point evaluated with the largest ``R_raw``, the best
    grid point included, so never below the grid.
    ``None`` (no grid point secure, past the cutoff) is a result, not an error.
    """
    grid, rtol = _search("optimize_param", **search)
    codes = np.array([_FAMILIES.index(scenario.source_family)])
    rows, optima, bracket = _optimize_rows(
        scenario, codes, np.array([scenario.channel.total_eta()]), grid, rtol)
    if not len(rows):
        return None
    param, *fields = optima[:, 0].tolist()
    return OptimumPoint(param, RateBreakdown(*fields), tuple(bracket[0].tolist()))


def sweep_distance(
    scenarios: Sequence[Scenario],
    l_grid: Iterable[float],
    *,
    cutoff_resolution_km: float = DEFAULT_CUTOFF_RESOLUTION_KM,
    **search,
) -> list[DistanceSweep]:
    """Per scenario, the optimum at each distance of an ascending grid where one is secure.

    The scenarios are searched together and may differ only in their source
    family (and ``distance_l``, which is ignored), else ``DomainError``; each
    sweep equals that of its scenario alone.  If the final grid point is
    insecure, ``cutoff_l`` is :func:`cutoff_distance`'s cutoff, whatever the range;
    the grid's flags decide the multiples around them without evaluation.
    ``search`` is as for :func:`optimize_param`.
    """
    scenarios = list(scenarios)
    if len({dataclasses.replace(s, source_family=SourceFamily.COHERENT_BB84,
                                channel=s.channel.at_distance(0.0)) for s in scenarios}) > 1:
        raise DomainError("the scenarios of one sweep may differ only in source_family")
    _check_resolution(cutoff_resolution_km)
    distances = [float(l) for l in l_grid]
    if any(b < a for a, b in zip(distances, distances[1:])):
        raise DomainError("l_grid must be sorted ascending")
    grid, rtol = _search("sweep_distance", **search)
    for distance in distances:
        require_finite_nonneg("distance_l", distance)
    if not scenarios:
        return []
    scenario, n = scenarios[0], len(distances)
    codes = [_FAMILIES.index(s.source_family) for s in scenarios]
    etas = np.tile([scenario.channel.eta_at(l) for l in distances], len(codes))
    # scenario-major rows, so that each kernel call holds at most one run per scenario
    rows, optima, bracket = _optimize_rows(scenario, np.repeat(codes, n), etas, grid, rtol)
    secure = np.zeros(len(codes) * n, dtype=bool)
    secure[rows] = True
    # secure(l) is monotone, which the cutoff rounds assume: a scenario is secure up to
    # its last secure grid distance and insecure from the next one on
    brackets = [None] * len(codes)
    for k, flags in enumerate(secure.reshape(len(codes), n).tolist()):
        if flags and not flags[-1]:
            first = flags.index(False)
            brackets[k] = distances[first - 1] if first else -math.inf, distances[first]
    cutoffs = _cutoffs(scenario, grid, codes, brackets, cutoff_resolution_km)
    ends = np.searchsorted(rows, n * np.arange(len(codes) + 1)).tolist()
    return [DistanceSweep(rows[part] - k * n, etas[rows[part]], optima[0, part],
                          RateBreakdown(*optima[1:, part]), bracket[part], cutoff)
            for k, (part, cutoff) in enumerate(zip(map(slice, ends, ends[1:]), cutoffs))]


def _cutoffs(scenario: Scenario, grid: np.ndarray, families, brackets,
             resolution_km: float) -> list:
    """Per bracket, the last multiple of ``resolution_km`` where the optimum is secure, or None.

    Distances up to a bracket's ``secure_to`` are secure and from its ``insecure_from`` on
    insecure, and a ``None`` bracket has no cutoff; ``families`` holds their ``_FAMILIES``.
    """
    num, den = resolution_km.as_integer_ratio()  # multiple j is j * num / den, rounded once

    def floor_index(l: float) -> int:  # the last multiple at or below l, exactly
        a, b = l.as_integer_ratio()
        return a * den // (b * num)

    cutoffs = [None] * len(brackets)
    # lo: last multiple known secure (-1: none), hi: first known insecure, all insecure from hi_l
    spans = {k: (floor_index(b[0]) if b[0] >= 0.0 else -1, -floor_index(-b[1]), b[1])
             for k, b in enumerate(brackets) if b is not None}
    while True:
        for k, (lo, hi, hi_l) in list(spans.items()):
            # a span down to adjacent floats ends before a tiny resolution is met
            if hi - lo <= 1 or (lo >= 0 and math.nextafter(lo * num / den, math.inf) >= hi_l):
                cutoffs[k] = lo * num / den if lo >= 0 else None
                del spans[k]
        if not spans:
            return cutoffs
        cuts, asks = {}, {}
        for k, (lo, hi, _) in spans.items():
            base = max(lo, 0)  # nothing known secure: cut at 0 too, so 0 km insecure ends it
            js = sorted({base + (hi - base) * i // _CUTS for i in range(_CUTS)} - {lo, hi})
            cuts[k] = [(j, j * num / den) for j in js]
            secure_to, insecure_from = brackets[k]
            asks.update(dict.fromkeys((k, l) for _, l in cuts[k] if secure_to < l < insecure_from))
        flags = _secure_at(scenario, [l for _, l in asks], grid,
                           np.array([families[k] for k, _ in asks]))
        asks = dict(zip(asks, flags.tolist()))
        for k, (lo, hi, hi_l) in spans.items():
            for j, l in cuts[k]:  # ascending: keep the last secure cut before the first insecure
                if not asks.get((k, l), l <= brackets[k][0]):
                    hi, hi_l = j, l
                    break
                lo = j
            spans[k] = lo, hi, hi_l


def cutoff_distance(
    scenario: Scenario,
    l_max: float,
    *,
    resolution_km: float = DEFAULT_CUTOFF_RESOLUTION_KM,
    **search,
) -> float:
    """Last multiple of ``resolution_km`` with a positive unclamped optimal rate.

    That is at most one resolution below the true cutoff, and ``l_max`` does not
    move it.  The unclamped rate's sign drives the search; the clamped rate is
    flat at zero past the cutoff and would give it nothing to work with.  Each
    probe needs only the coarse grid (see ``_secure_at``).  Returns ``l_max``
    itself when still secure there (no cutoff within range); raises
    ``DegenerateInputError`` when insecure already at zero distance, and
    ``DomainError`` for a non-finite or non-positive ``resolution_km``.  The
    keywords in ``search`` and their defaults are those of :func:`optimize_param`;
    ``rtol`` is checked but unused, as no step refines an optimum.
    """
    if not math.isfinite(l_max) or l_max <= 0.0:
        raise DomainError(f"l_max must be finite and > 0, got {l_max!r}")
    _check_resolution(resolution_km)
    grid, _ = _search("cutoff_distance", **search)
    code = _FAMILIES.index(scenario.source_family)
    secure_at_zero, secure_at_max = _secure_at(scenario, [0.0, l_max], grid, np.full(2, code))
    if not secure_at_zero:
        raise DegenerateInputError("scenario is insecure even at zero distance")
    if secure_at_max:
        return l_max
    return _cutoffs(scenario, grid, [code], [(0.0, l_max)], resolution_km)[0]
