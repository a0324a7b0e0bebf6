"""Source-parameter optimization, distance sweeps, and cutoff location.

For each source family the free parameter is the mean photon number
``|alpha|**2`` (plain coherent state) or the squeeze magnitude ``nu``
(interference-tuned sources).  The rate curve over that parameter has a single
clear maximum, so a coarse logarithmic grid brackets it and golden-section
refinement polishes it; the grid guard means a hypothetical second mode would
still be caught at grid resolution.

Every rate goes through one numpy kernel, ``_breakdown``, which evaluates the
source statistics and the rate formula elementwise over broadcast arrays of
total efficiency and source parameter.  A sweep evaluates the coarse grid of
all its distances as one 2-D pass, taken in blocks of ``_ROW_BLOCK`` rows so
that memory does not grow with the number of distances, and then refines the
secure distances together: each row takes the same golden-section steps as
a one-distance search and leaves the loop when its bracket is narrow enough.
``optimize_param`` is the one-row case of the same code.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateInputError, DomainError
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

# p_multi, p_multi_min, p_signal and secure_rate are not called here: the
# kernel re-derives them and they remain its tested references.  They stay
# importable from this module, where bench/spans.py wraps them for tracing.
from .photon_source import Protocol, p_multi, p_multi_min, p_signal

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

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

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
    leading multi-photon term (the closed forms of ``p_multi``,
    ``p_multi_min`` and ``p_signal_mcs``).  Inputs are not validated.
    """
    family = scenario.source_family
    if family is SourceFamily.COHERENT_BB84:
        alpha2, nu, mu = param, 0.0, 1.0
        p_m = 1.0 - (1.0 + param) * np.exp(-param)
    else:
        nu = param
        mu = np.sqrt(1.0 + nu * nu)
        ratio = nu / mu
        if family.protocol is Protocol.BB84:
            alpha2 = mu * nu
            p_m = 1.0 - (1.0 + ratio) * np.exp(-(mu - nu) * nu) / mu
        else:
            alpha2 = 3.0 * mu * nu
            kept = (1.0 + ratio) * (1.0 + 2.0 * ratio) * np.exp(-3.0 * (mu - nu) * nu) / mu
            p_m = 1.0 - kept
    p_vacuum = np.exp(-eta * alpha2 * (mu - nu) / (mu + nu * (1.0 - eta))) / np.sqrt(
        1.0 + nu * nu * eta * (2.0 - eta)
    )
    return rate_formula(
        1.0 - np.minimum(p_vacuum, 1.0),
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
    """
    values = np.asarray(param, dtype=float)
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise DomainError(f"param must be finite and >= 0, got {param!r}")
    breakdown = _breakdown(scenario, scenario.channel.total_eta(), values)
    return breakdown.at(()) if values.ndim == 0 else breakdown


def _search(
    param_min: float = 1e-5,
    param_max: float = 4.0,
    grid_points: int = 200,
    rtol: float = 1e-5,
) -> tuple[np.ndarray, float]:
    """The coarse parameter grid and ``rtol``, after checking every search setting."""
    if not (0.0 < param_min < param_max and math.isfinite(param_max)):
        raise DomainError("need 0 < param_min < param_max < inf")
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


def _eta(scenario: Scenario, distance_l: float) -> float:
    return scenario.channel.at_distance(distance_l).total_eta()


def _secure_at(scenario: Scenario, distance_l: float, grid: np.ndarray) -> bool:
    """Whether ``optimize_param`` finds a positive unclamped rate at ``distance_l``.

    The refined optimum never falls below the best grid point, so its R_raw is
    positive exactly when some grid point's R is; no refinement is needed.
    """
    return bool(_breakdown(scenario, _eta(scenario, distance_l), grid).R.max() > 0.0)


def _optimize_rows(
    scenario: Scenario, etas: np.ndarray, grid: np.ndarray, rtol: float
) -> list[OptimumPoint | None]:
    """Refined optimum for each total efficiency in ``etas``; None where insecure."""
    best_i = np.empty(len(etas), dtype=np.intp)
    best_r = np.empty(len(etas))
    for start in range(0, len(etas), _ROW_BLOCK):
        rates = _breakdown(scenario, etas[start:start + _ROW_BLOCK, None], grid).R
        best_i[start:start + len(rates)] = np.argmax(rates, axis=1)
        best_r[start:start + len(rates)] = rates.max(axis=1)
    rows = np.flatnonzero(best_r > 0.0)
    eta, cell = etas[rows], best_i[rows]
    lo = grid[np.maximum(cell - 1, 0)]
    hi = grid[np.minimum(cell + 1, len(grid) - 1)]
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = _breakdown(scenario, eta[:, None], np.stack((c, d), axis=1)).R.T
    width = hi - lo
    active = width > rtol * 0.5 * (lo + hi)
    while active.any():
        # left rows keep [lo, d] and probe a new c; right rows keep [c, hi] and
        # probe a new d; inactive rows keep their bracket, and their probes and
        # rates are never read again
        left = active & (fc >= fd)
        hi = np.where(left, d, hi)
        lo = np.where(active & ~left, c, lo)
        c, d = (
            np.where(left, hi - _INV_PHI * (hi - lo), d),
            np.where(left, c, lo + _INV_PHI * (hi - lo)),
        )
        probed = _breakdown(scenario, eta, np.where(left, c, d)).R
        fc, fd = np.where(left, probed, fd), np.where(left, fc, probed)
        # a bracket down to adjacent floats stops shrinking before a tiny rtol is met
        active &= (hi - lo > rtol * 0.5 * (lo + hi)) & (hi - lo < width)
        width = hi - lo
    # keep the coarse-grid winner if refinement somehow lost ground
    candidates = np.stack((0.5 * (lo + hi), grid[cell]), axis=1)
    final = _breakdown(scenario, eta[:, None], candidates)
    pick = (final.R[:, 1] > final.R[:, 0]).astype(np.intp)
    optima: list[OptimumPoint | None] = [None] * len(etas)
    for k, row in enumerate(rows):
        optima[row] = OptimumPoint(
            param_value=float(candidates[k, pick[k]]),
            breakdown=final.at((k, pick[k])),
            bracket=(float(lo[k]), float(hi[k])),
        )
    return optima


def optimize_param(
    scenario: Scenario,
    *,
    param_min: float = 1e-5,
    param_max: float = 4.0,
    grid_points: int = 200,
    rtol: float = 1e-5,
) -> OptimumPoint | None:
    """Maximize the clamped rate over the source parameter.

    A logarithmic grid locates the best cell; golden-section refinement runs
    within that cell and its neighbours down to relative width ``rtol``.
    Returns ``None`` when no grid point is secure (operation beyond cutoff),
    which is a result, not an error.  The returned optimum never falls below
    the best coarse-grid point.
    """
    grid, rtol = _search(param_min, param_max, grid_points, rtol)
    return _optimize_rows(scenario, np.array([scenario.channel.total_eta()]), grid, rtol)[0]


def sweep_distance(
    scenario: Scenario,
    l_grid: Iterable[float],
    *,
    cutoff_resolution_km: float = 0.01,
    **search,
) -> DistanceSweep:
    """Optimal operating point per distance over an ascending distance grid.

    When the final grid point is insecure (and the scenario is secure at zero
    distance) the cutoff is located by bisection within the swept range.
    Keyword arguments in ``search`` are those of :func:`optimize_param`.
    """
    _check_resolution(cutoff_resolution_km)
    distances = [float(l) for l in l_grid]
    if any(b < a for a, b in zip(distances, distances[1:])):
        raise DomainError("l_grid must be sorted ascending")
    grid, rtol = _search(**search)
    etas = np.array([_eta(scenario, l) for l in distances])
    points = tuple(zip(distances, _optimize_rows(scenario, etas, grid, rtol)))
    cutoff_l = None
    if points and points[-1][1] is None:
        if distances[0] == 0.0:
            secure_at_zero = points[0][1] is not None
        else:
            secure_at_zero = _secure_at(scenario, 0.0, grid)
        if secure_at_zero:
            cutoff_l = cutoff_distance(
                scenario, distances[-1], resolution_km=cutoff_resolution_km, **search
            )
    return DistanceSweep(points=points, cutoff_l=cutoff_l)


def cutoff_distance(
    scenario: Scenario,
    l_max: float,
    *,
    resolution_km: float = 0.01,
    **search,
) -> float:
    """Largest distance with a positive unclamped optimal rate, by bisection.

    The unclamped rate's sign drives the bisection; the clamped rate is flat at
    zero past the cutoff and would give the search nothing to work with.  Each
    step needs only the coarse grid (see ``_secure_at``).  Returns ``l_max``
    itself when still secure there (no cutoff within range); raises
    ``DegenerateInputError`` when insecure already at zero distance, and
    ``DomainError`` for a non-finite or non-positive ``resolution_km``.
    """
    if not math.isfinite(l_max) or l_max <= 0.0:
        raise DomainError(f"l_max must be finite and > 0, got {l_max!r}")
    _check_resolution(resolution_km)
    grid, _ = _search(**search)
    if not _secure_at(scenario, 0.0, grid):
        raise DegenerateInputError("scenario is insecure even at zero distance")
    if _secure_at(scenario, l_max, grid):
        return l_max
    lo, hi = 0.0, l_max
    while hi - lo > resolution_km:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats: a tiny resolution cannot be met
        if _secure_at(scenario, mid, grid):
            lo = mid
        else:
            hi = mid
    return lo
