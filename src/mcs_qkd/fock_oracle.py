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
  state.  The integrand is a 2-D Gaussian times a bounded factor, so
  Gauss-Hermite nodes scaled to the Gaussian envelope converge spectrally.

Neither route shares arithmetic with the closed forms it checks: the Fock sum
rests on the amplitude recurrence, the quadrature on pointwise overlap values.
Grid verification is pure and order-independent; reports come back in grid
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InsufficientTruncationError, TruncationError
from .photon_source import (
    FockDistribution,
    Protocol,
    SqueezedCoherentState,
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
#: Largest per-axis node count; the rule evaluates nodes**2 points.
_MAX_QUAD_NODES = 1024

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
    truncation order (FockSum) or the per-axis node count (Quadrature).
    """

    formula: str
    alpha: float
    nu: float
    eta: float
    method: str
    resolution: int
    closed_form_value: float
    oracle_value: float

    @property
    def abs_diff(self) -> float:
        return abs(self.closed_form_value - self.oracle_value)

    @property
    def tolerance(self) -> float:
        return FOCK_TOLERANCE if self.method == FOCK_SUM else QUADRATURE_TOLERANCE

    @property
    def within_tolerance(self) -> bool:
        return self.abs_diff < self.tolerance


def p0_via_fock(state: SqueezedCoherentState, eta: float, n_max: int = DEFAULT_FOCK_N_MAX) -> float:
    """No-click probability as a binomially weighted photon-number sum.

    Each n-photon component survives the loss channel undetected with
    probability (1 - eta)**n, so P0 = sum_n |C_n|^2 (1 - eta)**n.  Raises
    ``InsufficientTruncationError`` when more than 1e-10 of probability mass
    remains beyond order ``n_max``.
    """
    if not math.isfinite(eta) or eta < 0.0 or eta > 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta!r}")
    return _p0_from_amplitudes(_truncated_distribution(state, n_max), eta)


def _truncated_distribution(state: SqueezedCoherentState, n_max: int) -> FockDistribution:
    """Amplitudes up to order ``n_max``, accepting a cap hit with a negligible remainder."""
    if n_max < 8:
        raise DomainError(f"n_max must be >= 8, got {n_max!r}")
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


def _p0_from_amplitudes(dist: FockDistribution, eta: float) -> float:
    loss = 1.0 - eta
    return min(1.0, math.fsum(c * c * loss**n for n, c in enumerate(dist.amplitudes)))


@lru_cache(maxsize=8)
def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # cached because node generation dominates the integrand cost; every caller
    # shares the arrays, so they are read-only
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def p0_via_quadrature(
    state: SqueezedCoherentState, eta: float, nodes: int = DEFAULT_QUAD_NODES
) -> float:
    """No-click probability by 2-D Gauss-Hermite quadrature over the coherent plane.

    The integrand decays Gaussianly with per-axis rates
    a_u = 1/(1-eta) + nu/mu and a_v = 1/(1-eta) - nu/mu (both positive since
    mu > nu*(1-eta)), so the nodes are scaled per axis to match.  With
    beta = u + i*v, Re(-nu*conj(beta)**2) = -nu*(u**2 - v**2), so the log of the
    squared overlap is a term in u plus a term in v, in real arithmetic.  Their
    outer sum, taken at every node pair, carries the e**(t**2) de-weighting in
    log space so it cannot overflow at large nodes.

    Only interior efficiencies are integrable: the Gaussian weight degenerates
    at eta = 0 and eta = 1, where callers should use the Fock sum instead.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(
            f"quadrature needs eta strictly inside (0, 1), got {eta!r}; "
            "use the Fock-sum oracle at the endpoints"
        )
    if nodes < 32:
        raise DomainError(f"nodes must be >= 32 per axis, got {nodes!r}")
    if nodes > _MAX_QUAD_NODES:
        raise DomainError(f"nodes must be <= {_MAX_QUAD_NODES} per axis, got {nodes!r}")
    alpha, nu, mu = state.alpha, state.nu, state.mu
    t, w = _hermgauss(nodes)
    a_u = 1.0 / (1.0 - eta) + nu / mu
    a_v = 1.0 / (1.0 - eta) - nu / mu
    u = t / math.sqrt(a_u)  # Re(beta)
    v = t / math.sqrt(a_v)  # Im(beta)
    # log |<beta|U|alpha>|^2 = (nu*alpha^2 - nu*u^2 + nu*v^2 + 2*u*alpha)/mu - alpha^2 - |beta|^2
    # - log(mu); the weight adds -eta*|beta|^2/(1-eta) - log(pi*(1-eta))
    constant = nu * alpha * alpha / mu - alpha * alpha - math.log(mu * math.pi * (1.0 - eta))
    in_u = (2.0 * alpha - nu * u) * u / mu - u * u / (1.0 - eta) + t * t + constant
    in_v = nu * v * v / mu - v * v / (1.0 - eta) + t * t
    total = float(w @ np.exp(in_u[:, None] + in_v[None, :]) @ w) / math.sqrt(a_u * a_v)
    return min(1.0, total)


def _pm_via_fock(dist: FockDistribution, protocol: Protocol) -> float:
    """Multi-photon probability of the tuned source from its truncated expansion."""
    orders = 2 if protocol is Protocol.BB84 else 3
    return max(0.0, 1.0 - math.fsum(dist.amplitudes[n] ** 2 for n in range(orders)))


def verify_closed_forms(
    grid: Iterable[tuple[float, float, float]] | None = None,
    *,
    fock_n_max: int = DEFAULT_FOCK_N_MAX,
    quad_nodes: int = DEFAULT_QUAD_NODES,
) -> list[OracleReport]:
    """Check every closed form against its brute-force counterpart on a grid.

    For each (alpha, nu, eta) point this emits, in order: the Fock-sum check
    of the lossy vacuum probability, the quadrature check of the same formula
    (skipped at eta endpoints where the weight degenerates), and Fock-sum
    checks of the tuned-source multi-photon minima and signal probabilities
    for both protocols.  Each distinct state is expanded once per call: the
    tuned states depend on nu alone, and no expansion outlives the call.
    """
    if grid is None:
        grid = DEFAULT_GRID
    dists: dict[SqueezedCoherentState, FockDistribution] = {}

    def expand(state: SqueezedCoherentState) -> FockDistribution:
        if state not in dists:
            dists[state] = _truncated_distribution(state, fock_n_max)
        return dists[state]

    reports: list[OracleReport] = []
    for alpha, nu, eta in grid:
        state = make_state(alpha, nu)
        closed = p_vacuum_lossy(state, eta)
        reports.append(
            OracleReport(
                "p_vacuum_lossy", alpha, nu, eta, FOCK_SUM, fock_n_max,
                closed, _p0_from_amplitudes(expand(state), eta),
            )
        )
        if 0.0 < eta < 1.0:
            reports.append(
                OracleReport(
                    "p_vacuum_lossy", alpha, nu, eta, QUADRATURE, quad_nodes,
                    closed, p0_via_quadrature(state, eta, quad_nodes),
                )
            )
        for protocol in Protocol:
            tuned = mcs_state(nu, protocol)
            dist = expand(tuned)
            reports.append(
                OracleReport(
                    f"p_multi_min[{protocol.value}]", tuned.alpha, nu, eta,
                    FOCK_SUM, fock_n_max, p_multi_min(nu, protocol), _pm_via_fock(dist, protocol),
                )
            )
            reports.append(
                OracleReport(
                    f"p_signal_mcs[{protocol.value}]", tuned.alpha, nu, eta,
                    FOCK_SUM, fock_n_max,
                    p_signal_mcs(nu, eta, protocol), 1.0 - _p0_from_amplitudes(dist, eta),
                )
            )
    return reports


def max_abs_diff_by_formula(reports: Sequence[OracleReport]) -> dict[tuple[str, str], float]:
    """Largest deviation per (formula, method) pair, in first-seen order."""
    worst: dict[tuple[str, str], float] = {}
    for report in reports:
        key = (report.formula, report.method)
        worst[key] = max(worst.get(key, 0.0), report.abs_diff)
    return worst
