"""Brute-force verifiers for the closed-form detection statistics.

Two independent routes reproduce the no-click probability of a lossy-detected
source state:

* ``p0_via_fock`` sums the truncated photon-number distribution against the
  binomial no-click weight (1 - eta)**n.
* ``p0_via_quadrature`` integrates over the coherent-state resolution of the
  identity,

      P0 = (1/pi) * Int d^2beta  exp(-eta |beta|^2 / (1-eta)) / (1-eta)
                                 * |<beta|U|alpha>|^2,

  where <beta|U|alpha> is the coherent-state overlap of the squeezed coherent
  state.  Along Im(beta) the integrand is a Gaussian, integrated exactly;
  along Re(beta) a Gaussian times a bounded factor, so Gauss-Hermite nodes
  scaled to its envelope converge spectrally.

Neither route shares arithmetic with the closed forms it checks: the Fock sum
rests on the amplitude recurrence, the quadrature on pointwise overlap values.
Grid verification is pure and order-independent; reports come back in grid
order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InsufficientTruncationError, TruncationError
from .photon_source import (
    FockDistribution,
    Protocol,
    SqueezedCoherentState,
    _require_eta,
    fock_coefficients,
    make_state,
    mcs_state,
    p_multi_min,
    p_signal_mcs,
    p_vacuum_lossy,
)

__all__ = [
    "DEFAULT_ALPHAS",
    "DEFAULT_ETAS",
    "DEFAULT_FOCK_N_MAX",
    "DEFAULT_GRID",
    "DEFAULT_NUS",
    "DEFAULT_QUAD_NODES",
    "FOCK_SUM",
    "FOCK_TOLERANCE",
    "QUADRATURE",
    "QUADRATURE_TOLERANCE",
    "OracleReport",
    "max_abs_diff_by_formula",
    "p0_via_fock",
    "p0_via_quadrature",
    "verify_closed_forms",
]

FOCK_SUM = "FockSum"
QUADRATURE = "Quadrature"

#: Acceptance thresholds per oracle route.
FOCK_TOLERANCE = 1e-9
QUADRATURE_TOLERANCE = 1e-6

#: Generous margin over the adaptive truncation rule at desk-scale parameters.
DEFAULT_FOCK_N_MAX = 128
DEFAULT_QUAD_NODES = 96
#: Largest quadrature node count and Fock truncation order a caller may ask for.  numpy's
#: ``hermgauss`` overflows from about 371 nodes, so the node cap stays well below that.
_MAX_QUAD_NODES = 256
_MAX_FOCK_N_MAX = 100_000

#: Fock oracle refuses to run with more unresolved probability mass than this.
_MAX_UNRESOLVED_MASS = 1e-10

#: Default verification axes; the grid is their product, alpha outermost.
DEFAULT_ALPHAS = (0.0, 0.5, 1.0, 2.0)
DEFAULT_NUS = (0.0, 0.3, 0.8)
DEFAULT_ETAS = (0.05, 0.5, 0.95)
DEFAULT_GRID = tuple(product(DEFAULT_ALPHAS, DEFAULT_NUS, DEFAULT_ETAS))


@dataclass(frozen=True)
class OracleReport:
    """One closed form checked against one brute-force value at one grid point.

    ``alpha``/``nu``/``eta`` identify the state and efficiency actually used
    by the check (for the interference-tuned formulas, ``alpha`` is the tuned
    displacement rather than the raw grid value).  ``resolution`` is the
    truncation order (FockSum) or the Gauss-Hermite node count (Quadrature).
    """

    formula: str
    alpha: float
    nu: float
    eta: float
    method: str
    resolution: int
    closed_form_value: float
    oracle_value: float
    abs_diff: float = field(init=False, repr=False, compare=False)
    within_tolerance: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "abs_diff", abs(self.closed_form_value - self.oracle_value))
        object.__setattr__(self, "within_tolerance", self.abs_diff < self.tolerance)

    @property
    def tolerance(self) -> float:
        return FOCK_TOLERANCE if self.method == FOCK_SUM else QUADRATURE_TOLERANCE


def p0_via_fock(state: SqueezedCoherentState, eta: float, n_max: int = DEFAULT_FOCK_N_MAX) -> float:
    """No-click probability as a binomially weighted photon-number sum.

    Each n-photon component survives the loss channel undetected with
    probability (1 - eta)**n, so P0 = sum_n |C_n|^2 (1 - eta)**n.  Raises
    ``InsufficientTruncationError`` when more than 1e-10 of probability mass
    remains beyond order ``n_max``.
    """
    _require_eta(eta)
    squares = [c * c for c in _truncated_distribution(state, n_max).amplitudes]
    return _no_click_sum(squares, eta, {})


def _truncated_distribution(state: SqueezedCoherentState, n_max: int) -> FockDistribution:
    """Amplitudes up to order ``n_max``, accepting a cap hit with a negligible remainder."""
    if not 8 <= n_max <= _MAX_FOCK_N_MAX:
        raise DomainError(f"need 8 <= n_max <= {_MAX_FOCK_N_MAX}, got {n_max!r}")
    try:
        return fock_coefficients(state, n_cap=n_max)
    except TruncationError as err:
        if 1.0 - err.partial_mass > _MAX_UNRESOLVED_MASS:
            raise InsufficientTruncationError(
                f"{1.0 - err.partial_mass:.3e} of probability mass is unresolved at Fock "
                f"order {n_max}",
                partial_mass=err.partial_mass,
                partial=err.partial,
            ) from err
        return err.partial


def _no_click_sum(squares: list[float], eta: float, powers: dict[float, list[float]]) -> float:
    """Exactly rounded sum_n squares[n] * (1 - eta)**n; ``powers`` keeps the powers by loss."""
    loss = 1.0 - eta
    cached = powers.get(loss, ())
    if len(cached) < len(squares):
        powers[loss] = cached = [loss**n for n in range(len(squares))]
    return min(1.0, math.fsum(map(operator.mul, squares, cached)))


@lru_cache(maxsize=8)
def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # cached because node generation dominates the integrand cost; every caller
    # shares the arrays, so they are read-only
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _require_quad_nodes(nodes: int) -> None:
    if not 32 <= nodes <= _MAX_QUAD_NODES:
        raise DomainError(f"need 32 <= nodes <= {_MAX_QUAD_NODES}, got {nodes!r}")


def p0_via_quadrature(
    state: SqueezedCoherentState, eta: float | Sequence[float], nodes: int = DEFAULT_QUAD_NODES
) -> float | list[float]:
    """No-click probability by Gauss-Hermite quadrature over the coherent plane.

    With beta = u + i*v, Re(-nu*conj(beta)**2) = -nu*(u**2 - v**2), so the log
    of the integrand is a term in u plus -a_v*v**2 with a_v = 1/(1-eta) - nu/mu
    (positive since mu > nu*(1-eta)): the v integral is sqrt(pi/a_v) exactly.
    The u term decays with rate a_u = 1/(1-eta) + nu/mu; the ``nodes`` nodes
    are scaled to it, and the e**(t**2) de-weighting is carried in log space
    so it cannot overflow at large nodes.

    One efficiency gives a float; a sequence gives one value per entry, each
    bit for bit what its own call gives.  Only interior efficiencies are
    integrable: the Gaussian weight degenerates at eta = 0 and eta = 1, where
    callers should use the Fock sum instead.
    """
    etas = list(eta) if np.ndim(eta) else [eta]
    for value in etas:
        if not 0.0 < value < 1.0:
            raise DomainError(f"quadrature needs eta strictly inside (0, 1), got {value!r}; "
                              "use the Fock-sum oracle at the endpoints")
    _require_quad_nodes(nodes)
    alpha, nu, mu = state.alpha, state.nu, state.mu
    t, w = _hermgauss(nodes)
    loss = 1.0 - np.array(etas, dtype=float)[:, None]  # one row per efficiency
    a_u, a_v = 1.0 / loss + nu / mu, 1.0 / loss - nu / mu
    u = t / np.sqrt(a_u)  # Re(beta)
    # log |<beta|U|alpha>|^2 = (nu*alpha^2 - nu*u^2 + nu*v^2 + 2*u*alpha)/mu - alpha^2 - |beta|^2
    # - log(mu); the weight adds -eta*|beta|^2/(1-eta) - log(pi*(1-eta)); v terms: -a_v*v^2.
    # one math.log and one dot per row: numpy's SIMD log and a gemv may round differently
    constant = np.array([[nu * alpha * alpha / mu - alpha * alpha - math.log(mu * math.pi * x)]
                         for x in loss[:, 0]])
    in_u = (2.0 * alpha - nu * u) * u / mu - u * u / loss + t * t + constant
    scale = np.sqrt(math.pi / (a_u[:, 0] * a_v[:, 0]))
    totals = [min(1.0, float(w @ row) * float(s)) for row, s in zip(np.exp(in_u), scale)]
    return totals if np.ndim(eta) else totals[0]


def verify_closed_forms(grid: Iterable[tuple[float, float, float]] | None = None, *,
                        fock_n_max: int = DEFAULT_FOCK_N_MAX,
                        quad_nodes: int = DEFAULT_QUAD_NODES) -> list[OracleReport]:
    """Check every closed form against its brute-force counterpart on a grid.

    For each (alpha, nu, eta) point this emits, in order: the Fock-sum check
    of the lossy vacuum probability, the quadrature check of the same formula
    (skipped at eta endpoints where the weight degenerates), and Fock-sum
    checks of the tuned-source multi-photon minima and signal probabilities
    for both protocols.  Each distinct state is expanded once per call: the
    tuned states depend on nu alone.  The four tuned-source checks depend on
    (nu, eta) alone, so they repeat for every alpha; each is computed once per
    call and the same reports are reused.  The grid is walked once, raising
    what a point-by-point pass would, then one ``p0_via_quadrature`` call per
    distinct state covers all its interior efficiencies.  Nothing outlives
    the call.
    """
    expanded: dict[SqueezedCoherentState, tuple[FockDistribution, list[float]]] = {}
    powers: dict[float, list[float]] = {}

    def expand(state: SqueezedCoherentState) -> tuple[FockDistribution, list[float]]:
        found = expanded.get(state)
        if found is None:
            dist = _truncated_distribution(state, fock_n_max)
            expanded[state] = found = dist, [c * c for c in dist.amplitudes]
        return found

    tuned_checks: dict[tuple[str, str], list[OracleReport]] = {}
    # per state, the index of each quadrature check and the Fock-sum check of its point
    quadrature: dict[SqueezedCoherentState, list[tuple[int, OracleReport]]] = {}
    reports: list[OracleReport] = []
    for alpha, nu, eta in DEFAULT_GRID if grid is None else grid:
        state = make_state(alpha, nu)
        closed = p_vacuum_lossy(state, eta)
        reports.append(OracleReport("p_vacuum_lossy", alpha, nu, eta, FOCK_SUM, fock_n_max, closed,
                                    _no_click_sum(expand(state)[1], eta, powers)))
        if 0.0 < eta < 1.0:
            _require_quad_nodes(quad_nodes)
            quadrature.setdefault(state, []).append((len(reports), reports[-1]))
            reports.append(None)  # filled in once the state's efficiencies are integrated
        key = (repr(nu), repr(eta))  # as the report fields do, tells 0.0, -0.0 and 0 apart
        if key not in tuned_checks:
            tuned_checks[key] = checks = []
            for protocol in Protocol:
                tuned = mcs_state(nu, protocol)
                dist, squares = expand(tuned)
                kept = math.fsum(c**2 for c in dist.amplitudes[: protocol.attack_photons])
                checks.append(OracleReport(
                    f"p_multi_min[{protocol.value}]", tuned.alpha, nu, eta, FOCK_SUM, fock_n_max,
                    p_multi_min(nu, protocol), max(0.0, 1.0 - kept)))
                checks.append(OracleReport(
                    f"p_signal_mcs[{protocol.value}]", tuned.alpha, nu, eta, FOCK_SUM, fock_n_max,
                    p_signal_mcs(nu, eta, protocol), 1.0 - _no_click_sum(squares, eta, powers)))
        reports.extend(tuned_checks[key])
    for state, points in quadrature.items():
        values = p0_via_quadrature(state, [r.eta for _, r in points], quad_nodes)
        for (index, r), value in zip(points, values):
            reports[index] = OracleReport(r.formula, r.alpha, r.nu, r.eta, QUADRATURE, quad_nodes,
                                          r.closed_form_value, value)
    return reports


def max_abs_diff_by_formula(reports: Sequence[OracleReport]) -> dict[tuple[str, str], float]:
    """Largest deviation per (formula, method) pair, in first-seen order."""
    worst: dict[tuple[str, str], float] = {}
    for report in reports:
        key = (report.formula, report.method)
        worst[key] = max(worst.get(key, 0.0), report.abs_diff)
    return worst
