"""Source-parameter optimization, distance sweeps, and cutoff location.

For each source family the free parameter is the mean photon number
``|alpha|**2`` (plain coherent state) or the squeeze magnitude ``nu``
(interference-tuned sources).  The rate curve over that parameter has a single
clear maximum, so a coarse logarithmic grid brackets it and a section search
polishes it (16 probes per step); the grid guard means a hypothetical second
mode would still be caught at grid resolution.

Every rate goes through one numpy kernel, ``_breakdown``, which evaluates the
source statistics and the rate formula elementwise over broadcast arrays of
total efficiency and source parameter.  A sweep evaluates the coarse grid of
all its distances as one 2-D pass, taken in blocks of ``_ROW_BLOCK`` rows so
that memory does not grow with the number of distances, and then refines the
secure distances together: each row takes the same section steps as a
one-distance search and leaves the loop when its bracket is narrow enough.
``optimize_param`` is the one-row case of the same code.  A cutoff bisection
evaluates every midpoint its next ``_TREE_DEPTH`` steps may visit in one call.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateInputError, DomainError, require_finite_nonneg
from .key_rate import (
    ChannelModel,
    ConstantF,
    DEFAULT_F_POLICY,
    DetectorModel,
    RateBreakdown,
    TableF,
    rate_formula,
    secure_rate,
)

# p_multi, p_multi_min, p_signal and secure_rate are not called here; they stay
# importable from this module, where bench/spans.py wraps them for tracing.
from .photon_source import Protocol, p0_formula, p_multi, p_multi_min, p_multi_min_formula, p_signal

__all__ = [
    "DistanceSweep",
    "OptimumPoint",
    "Scenario",
    "SourceFamily",
    "cutoff_distance",
    "optimize_param",
    "rate_at",
    "sweep_distance",
]

#: Defaults of the search keywords of ``optimize_param`` and of the cutoff resolution.
DEFAULT_PARAM_MIN = 1e-5
DEFAULT_PARAM_MAX = 4.0
DEFAULT_GRID_POINTS = 200
DEFAULT_RTOL = 1e-5
DEFAULT_CUTOFF_RESOLUTION_KM = 0.01

#: Probes of a refinement step, which keeps 2 of the 17 cells between them.
_PROBES = np.arange(1.0, 17.0)

#: Bisection levels of a cutoff that one kernel call resolves.
_TREE_DEPTH = 4

#: Largest source parameter; far above it ``nu * nu`` and ``alpha2`` overflow.
_PARAM_MAX = 100.0

#: Distances per block of the coarse-grid pass of a sweep.
_ROW_BLOCK = 16

#: Largest coarse parameter grid a search may ask for.
_MAX_GRID_POINTS = 100_000


class SourceFamily(enum.Enum):
    """Source/protocol combination under study."""

    COHERENT_BB84 = "coherent-bb84"
    MCS_BB84 = "mcs-bb84"
    MCS_SARG04 = "mcs-sarg04"

    @property
    def protocol(self) -> Protocol:
        return Protocol.SARG04 if self is SourceFamily.MCS_SARG04 else Protocol.BB84

    @property
    def param_name(self) -> str:
        """Name of the free source parameter: mean photon number or squeeze."""
        return "alpha2" if self is SourceFamily.COHERENT_BB84 else "nu"


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
    """Refined maximum of the rate curve over the source parameter."""

    param_value: float
    breakdown: RateBreakdown
    bracket: tuple[float, float]


@dataclass(frozen=True)
class DistanceSweep:
    """Optimal operating points per distance; ``None`` marks insecure distances.

    ``cutoff_l`` is set when the sweep ends insecure and a cutoff could be
    bisected inside the swept range.
    """

    points: tuple[tuple[float, OptimumPoint | None], ...]
    cutoff_l: float | None


def _breakdown(scenario: Scenario, eta, param) -> RateBreakdown:
    """Rate breakdown elementwise over broadcast arrays of efficiency and parameter.

    Coherent sources are evaluated at mean photon number ``param``; tuned
    sources at squeeze ``param`` with the displacement that cancels their
    leading multi-photon term.  The source statistics are ``photon_source``'s
    closed forms, which the oracles check.  Inputs are not validated.
    """
    family = scenario.source_family
    if family is SourceFamily.COHERENT_BB84:
        alpha2, nu, mu = param, 0.0, 1.0
        p_m = 1.0 - (1.0 + param) * np.exp(-param)
    else:
        nu = param
        mu = np.sqrt(1.0 + nu * nu)
        alpha2 = family.protocol.tuning_factor * mu * nu
        p_m = p_multi_min_formula(nu, mu, family.protocol)
    return rate_formula(
        1.0 - np.minimum(p0_formula(alpha2, nu, mu, eta), 1.0),
        np.maximum(p_m, 0.0),  # at most 1 by construction; rounding can dip below 0
        scenario.detector,
        scenario.f_policy,
        paper_literal_sign=scenario.paper_literal_sign,
    )


def rate_at(scenario: Scenario, param) -> RateBreakdown:
    """Rate breakdown of ``scenario`` at a value, or an array, of the free parameter.

    An array gives a breakdown of arrays of its shape.  Parameter values with
    no detection events (vacuum source, zero dark counts) are marked, not
    raised: their ``p_s_bar`` is 0, their ``e`` nan and their ``R`` 0.
    Parameters above 100 raise ``DomainError``.
    """
    values = np.asarray(param, dtype=float)
    bad = values[~(np.isfinite(values) & (values >= 0.0))]
    if bad.size:
        require_finite_nonneg("param", float(bad[0]))
    bad = values[values > _PARAM_MAX]
    if bad.size:
        raise DomainError(f"param must be <= {_PARAM_MAX:g}, got {float(bad[0])!r}")
    breakdown = _breakdown(scenario, scenario.channel.total_eta(), values)
    return breakdown.at(()) if values.ndim == 0 else breakdown


def _search(
    param_min: float = DEFAULT_PARAM_MIN,
    param_max: float = DEFAULT_PARAM_MAX,
    grid_points: int = DEFAULT_GRID_POINTS,
    rtol: float = DEFAULT_RTOL,
) -> tuple[np.ndarray, float]:
    """The coarse parameter grid and ``rtol``, after checking every search setting."""
    if not 0.0 < param_min < param_max <= _PARAM_MAX:
        raise DomainError(f"need 0 < param_min < param_max <= {_PARAM_MAX:g}")
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


def _best_cells(scenario: Scenario, etas: np.ndarray,
                grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and rate of the best grid point for each total efficiency in ``etas``."""
    best_i = np.empty(len(etas), dtype=np.intp)
    best_r = np.empty(len(etas))
    for start in range(0, len(etas), _ROW_BLOCK):
        rates = _breakdown(scenario, etas[start:start + _ROW_BLOCK, None], grid).R
        best_i[start:start + len(rates)] = np.argmax(rates, axis=1)
        best_r[start:start + len(rates)] = rates.max(axis=1)
    return best_i, best_r


def _secure_at(scenario: Scenario, distances, grid: np.ndarray) -> np.ndarray:
    """Whether ``optimize_param`` finds a positive unclamped rate at one distance or a list.

    The refined optimum never falls below the best grid point, so its R_raw is
    positive exactly when some grid point's R is; no refinement is needed.
    """
    etas = np.array([scenario.channel.eta_at(l) for l in np.ravel(distances).tolist()])
    return (_best_cells(scenario, etas, grid)[1] > 0.0).reshape(np.shape(distances))


def _optimize_rows(
    scenario: Scenario, etas: np.ndarray, grid: np.ndarray, rtol: float
) -> list[OptimumPoint | None]:
    """Refined optimum for each total efficiency in ``etas``; None where insecure."""
    best_i, best_r = _best_cells(scenario, etas, grid)
    rows = np.flatnonzero(best_r > 0.0)
    eta, cell = etas[rows, None], best_i[rows]
    lo = grid[np.maximum(cell - 1, 0)]
    hi = grid[np.minimum(cell + 1, len(grid) - 1)]
    width = hi - lo
    active = width > rtol * 0.5 * (lo + hi)
    index = np.arange(len(rows))
    while active.any():
        # cells lo, the probes lo + (hi - lo) * j / 17 (j = 1..16), hi: active rows
        # keep the two cells around their best probe, inactive rows their bracket
        probes = lo[:, None] + (hi - lo)[:, None] * _PROBES / 17
        cells = np.concatenate((lo[:, None], probes, hi[:, None]), axis=1)
        best = np.argmax(_breakdown(scenario, eta, probes).R, axis=1)
        lo = np.where(active, cells[index, best], lo)
        hi = np.where(active, cells[index, best + 2], hi)
        # a bracket down to adjacent floats stops shrinking before a tiny rtol is met
        active &= (hi - lo > rtol * 0.5 * (lo + hi)) & (hi - lo < width)
        width = hi - lo
    # keep the coarse-grid winner if refinement somehow lost ground
    candidates = np.stack((0.5 * (lo + hi), grid[cell]), axis=1)
    final = _breakdown(scenario, eta, candidates)
    pick = (final.R[:, 1] > final.R[:, 0]).astype(np.intp)
    optima: list[OptimumPoint | None] = [None] * len(etas)
    for k, row in enumerate(rows):
        optima[row] = OptimumPoint(
            param_value=float(candidates[k, pick[k]]),
            breakdown=final.at((k, pick[k])),
            bracket=(float(lo[k]), float(hi[k])),
        )
    return optima


def optimize_param(scenario: Scenario, **search) -> OptimumPoint | None:
    """Maximize the clamped rate over the source parameter.

    The search keywords, all optional, are ``param_min`` (default 1e-5) and
    ``param_max`` (4), the ends of a logarithmic grid of ``grid_points`` (200)
    points, and ``rtol`` (1e-5).  The grid locates the best cell; the section
    search runs within that cell and its neighbours down to relative width
    ``rtol``.  Returns ``None`` when no grid point is secure (operation beyond
    cutoff), which is a result, not an error.  The returned optimum never
    falls below the best coarse-grid point.
    """
    grid, rtol = _search(**search)
    return _optimize_rows(scenario, np.array([scenario.channel.total_eta()]), grid, rtol)[0]


def sweep_distance(
    scenario: Scenario,
    l_grid: Iterable[float],
    *,
    cutoff_resolution_km: float = DEFAULT_CUTOFF_RESOLUTION_KM,
    **search,
) -> DistanceSweep:
    """Optimal operating point per distance over an ascending distance grid.

    When the final grid point is insecure (and the scenario is secure at zero
    distance) the cutoff is located by bisection within the swept range; it
    equals what :func:`cutoff_distance` returns.  The keywords in ``search``
    and their defaults are those of :func:`optimize_param`.
    """
    _check_resolution(cutoff_resolution_km)
    distances = [float(l) for l in l_grid]
    if any(b < a for a, b in zip(distances, distances[1:])):
        raise DomainError("l_grid must be sorted ascending")
    grid, rtol = _search(**search)
    for distance in distances:
        require_finite_nonneg("distance_l", distance)
    etas = np.array([scenario.channel.eta_at(l) for l in distances])
    points = tuple(zip(distances, _optimize_rows(scenario, etas, grid, rtol)))
    cutoff_l = None
    if points and points[-1][1] is None:
        # secure(l) is monotone, which bisection assumes: secure up to the last
        # secure grid distance (at least 0 km) and insecure from the next one on
        first = next(k for k, (_, point) in enumerate(points) if point is None)
        if first > 0 or (distances[0] > 0.0 and _secure_at(scenario, 0.0, grid)):
            cutoff_l = _bisect_cutoff(scenario, grid, distances[-1], cutoff_resolution_km,
                                      distances[first - 1] if first else 0.0, distances[first])
    return DistanceSweep(points=points, cutoff_l=cutoff_l)


def _bisection_midpoints(lo: float, hi: float, depth: int, resolution_km: float) -> list[float]:
    """Every midpoint that ``depth`` steps of bisecting [lo, hi] to ``resolution_km`` may visit."""
    mid = 0.5 * (lo + hi)
    if depth == 0 or not (hi - lo > resolution_km and lo < mid < hi):
        return []
    return [mid, *_bisection_midpoints(lo, mid, depth - 1, resolution_km),
            *_bisection_midpoints(mid, hi, depth - 1, resolution_km)]


def _bisect_cutoff(scenario: Scenario, grid: np.ndarray, l_max: float, resolution_km: float,
                   secure_to: float, insecure_from: float) -> float:
    """Bisection of [0, l_max] for the last secure distance.

    Midpoints up to ``secure_to`` are secure and those from ``insecure_from``
    on insecure without evaluation; the others are evaluated ``_TREE_DEPTH``
    bisection levels per kernel call.
    """
    lo, hi, secure = 0.0, l_max, {}
    while hi - lo > resolution_km:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats: a tiny resolution cannot be met
        if secure_to < mid < insecure_from and mid not in secure:
            tree = [l for l in _bisection_midpoints(lo, hi, _TREE_DEPTH, resolution_km)
                    if secure_to < l < insecure_from]
            secure = dict(zip(tree, _secure_at(scenario, tree, grid).tolist()))
        if mid <= secure_to or (mid < insecure_from and secure[mid]):
            lo = mid
        else:
            hi = mid
    return lo


def cutoff_distance(
    scenario: Scenario,
    l_max: float,
    *,
    resolution_km: float = DEFAULT_CUTOFF_RESOLUTION_KM,
    **search,
) -> float:
    """Largest distance with a positive unclamped optimal rate, by bisection.

    The unclamped rate's sign drives the bisection; the clamped rate is flat at
    zero past the cutoff and would give the search nothing to work with.  Each
    step needs only the coarse grid (see ``_secure_at``).  Returns ``l_max``
    itself when still secure there (no cutoff within range); raises
    ``DegenerateInputError`` when insecure already at zero distance, and
    ``DomainError`` for a non-finite or non-positive ``resolution_km``.  The
    keywords in ``search`` and their defaults are those of :func:`optimize_param`.
    """
    if not math.isfinite(l_max) or l_max <= 0.0:
        raise DomainError(f"l_max must be finite and > 0, got {l_max!r}")
    _check_resolution(resolution_km)
    grid, _ = _search(**search)
    secure_at_zero, secure_at_max = _secure_at(scenario, [0.0, l_max], grid)
    if not secure_at_zero:
        raise DegenerateInputError("scenario is insecure even at zero distance")
    if secure_at_max:
        return l_max
    return _bisect_cutoff(scenario, grid, l_max, resolution_km, 0.0, l_max)
