"""Photon-number statistics of coherent and interference-modified coherent states.

A weak laser pulse carries Poissonian photon statistics, so a small fraction of
pulses leak two or more photons to a potential eavesdropper.  Passing the pulse
through a weakly pumped degenerate parametric amplifier superposes a squeezed
two-photon amplitude on top of the coherent one; tuning the displacement so the
two amplitudes cancel removes the two-photon component (for BB84) or, with a
larger displacement, the three-photon component (for SARG04).  This module
evaluates the resulting photon-number amplitudes, the multi-photon
probabilities that the interference suppresses, and the detection
probabilities behind a lossy channel.

Conventions: the displacement amplitude ``alpha`` and the squeeze magnitude
``nu`` are real and non-negative (the cancellation optima require
``alpha**2 / (mu * nu)`` real and positive, so complex phases add no reachable
optima), and ``mu = sqrt(1 + nu**2)`` is the complementary hyperbolic
parameter.  ``nu`` equals ``sinh`` of the underlying squeeze magnitude; that
raw squeeze parameter never appears as a runtime input.  ``nu = 0`` recovers a
plain coherent state.

All functions are pure; values are immutable and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, TruncationError, UnsupportedOrderError

__all__ = [
    "DEFAULT_N_CAP",
    "DEFAULT_TOL",
    "FockDistribution",
    "Protocol",
    "SqueezedCoherentState",
    "coeff_closed_form",
    "fock_coefficients",
    "make_state",
    "mcs_state",
    "p_multi",
    "p_multi_min",
    "p_signal",
    "p_signal_mcs",
    "p_vacuum_lossy",
]

#: Adaptive truncation: once half the probability mass is summed, stop after
#: this many consecutive photon-number probabilities fall below the tolerance.
_TAIL_RUN = 5

DEFAULT_TOL = 1e-14
DEFAULT_N_CAP = 512


class Protocol(enum.Enum):
    """Key-distribution protocol, which fixes the photon order an eavesdropper needs."""

    BB84 = "bb84"  # photon-number splitting needs >= 2 photons
    SARG04 = "sarg04"  # encoding forces the attack to >= 3 photons


def _require_finite_nonneg(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


def _require_eta(eta: float) -> None:
    if not math.isfinite(eta) or eta < 0.0 or eta > 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta!r}")


def _clamp01(p: float) -> float:
    # floating-point sums like 1 - C0**2 - C1**2 can dip to about -1e-17 near vacuum
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class SqueezedCoherentState:
    """Squeezed coherent state restricted to real, non-negative parameters.

    ``alpha`` is the displacement amplitude (mean photon number ``alpha**2``
    at ``nu = 0``); ``nu`` is the squeeze magnitude.
    """

    alpha: float
    nu: float

    def __post_init__(self) -> None:
        _require_finite_nonneg("alpha", self.alpha)
        _require_finite_nonneg("nu", self.nu)

    @property
    def mu(self) -> float:
        """Hyperbolic partner of ``nu``; satisfies mu**2 - nu**2 == 1."""
        return math.sqrt(1.0 + self.nu * self.nu)


def make_state(alpha: float, nu: float) -> SqueezedCoherentState:
    """Build a source state from displacement ``alpha`` and squeeze ``nu``.

    Raises ``DomainError`` for negative or non-finite inputs.
    """
    return SqueezedCoherentState(float(alpha), float(nu))


def mcs_state(nu: float, protocol: Protocol) -> SqueezedCoherentState:
    """Modified coherent state: displacement tuned for destructive interference.

    BB84 pins ``alpha**2 = mu * nu`` so the two-photon amplitude vanishes;
    SARG04 pins ``alpha**2 = 3 * mu * nu`` so the three-photon amplitude
    vanishes instead.
    """
    nu = float(nu)
    _require_finite_nonneg("nu", nu)
    mu = math.sqrt(1.0 + nu * nu)
    factor = 1.0 if protocol is Protocol.BB84 else 3.0
    return SqueezedCoherentState(math.sqrt(factor * mu * nu), nu)


@dataclass(frozen=True)
class FockDistribution:
    """Truncated photon-number amplitudes of a source state.

    ``amplitudes[n]`` is the real amplitude of the n-photon component;
    ``tail_bound`` estimates the probability mass beyond ``n_max``.
    """

    amplitudes: tuple[float, ...]
    n_max: int
    tail_bound: float

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(c * c for c in self.amplitudes)

    def total_mass(self) -> float:
        return math.fsum(c * c for c in self.amplitudes)


def _expand_amplitudes(
    state: SqueezedCoherentState, tol: float, n_cap: int
) -> tuple[list[float], bool]:
    """Iterate photon-number amplitudes until the adaptive tail rule fires.

    Returns ``(amplitudes, converged)``.  The Hermite three-term relation is
    folded together with its n-dependent prefactor so every iterate is a
    finished amplitude, which keeps each step O(1) in magnitude instead of
    overflowing like the bare polynomial and factorial would:

        c[n+1] = alpha / (mu * sqrt(n + 1)) * c[n]
                 - nu / mu * sqrt(n / (n + 1)) * c[n-1]

    (Substituting the scaled amplitude into H[n+1] = 2x*H[n] - 2n*H[n-1] with
    x = alpha / sqrt(2*mu*nu) collapses the prefactors to the two radicals
    above; the raw argument x diverges at nu -> 0 while this form does not.
    At nu = 0 it is the Poissonian c[n+1] = alpha / sqrt(n + 1) * c[n], bit for
    bit.)
    """
    alpha, nu, mu = state.alpha, state.nu, state.mu
    c = math.exp(nu * alpha * alpha / (2.0 * mu) - 0.5 * alpha * alpha) / math.sqrt(mu)
    amps = [c]
    c_prev = 0.0
    mass, small_run = c * c, 0  # small leading terms of a far-displaced state are no tail
    n = 0
    while small_run < _TAIL_RUN and n < n_cap:
        c_next = alpha / (mu * math.sqrt(n + 1.0)) * c - nu / mu * math.sqrt(n / (n + 1.0)) * c_prev
        c_prev, c = c, c_next
        amps.append(c)
        n += 1
        mass += c * c
        small_run = small_run + 1 if c * c < tol and mass > 0.5 else 0
    return amps, small_run >= _TAIL_RUN


def fock_coefficients(
    state: SqueezedCoherentState,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> FockDistribution:
    """Photon-number amplitudes of ``state``, truncated adaptively.

    Once the summed probability exceeds 1/2, iteration stops at ``_TAIL_RUN``
    consecutive probabilities below ``tol``; all computed amplitudes (including
    the small trailing ones) are kept.  Raises ``TruncationError`` carrying the
    partial distribution when order ``n_cap`` is reached first.
    """
    if not 0.0 < tol <= 1e-6:
        raise DomainError(f"tol must be in (0, 1e-6], got {tol!r}")
    if n_cap < 8:
        raise DomainError(f"n_cap must be >= 8, got {n_cap!r}")
    amps, converged = _expand_amplitudes(state, tol, n_cap)
    mass = math.fsum(c * c for c in amps)
    dist = FockDistribution(tuple(amps), len(amps) - 1, max(0.0, 1.0 - mass))
    if not converged:
        raise TruncationError(
            f"photon-number tail not below {tol} after {_TAIL_RUN} consecutive orders "
            f"within n_cap={n_cap} (mass so far {mass:.17g})",
            partial_mass=mass,
            partial=dist,
        )
    return dist


def coeff_closed_form(state: SqueezedCoherentState, n: int) -> float:
    """Explicit low-order amplitude, independent of the recurrence.

    Supports n in 0..4 and is used as a cross-check on ``fock_coefficients``;
    higher orders raise ``UnsupportedOrderError``.
    """
    if n < 0 or n > 4:
        raise UnsupportedOrderError(f"closed forms cover n in 0..4, got {n!r}")
    alpha, nu, mu = state.alpha, state.nu, state.mu
    c0 = math.exp(nu * alpha * alpha / (2.0 * mu) - 0.5 * alpha * alpha) / math.sqrt(mu)
    r = alpha / mu
    if n == 0:
        return c0
    if n == 1:
        return c0 * r
    if n == 2:
        return c0 / math.sqrt(2.0) * (r * r - nu / mu)
    if n == 3:
        return c0 / math.sqrt(6.0) * (r**3 - 3.0 * nu * alpha / mu**2)
    return c0 / math.sqrt(24.0) * (r**4 - 6.0 * nu * alpha * alpha / mu**3 + 3.0 * (nu / mu) ** 2)


def p_multi(state: SqueezedCoherentState, protocol: Protocol) -> float:
    """Probability of a pulse carrying more photons than the protocol tolerates.

    BB84 counts two or more photons; SARG04 counts three or more, since its
    encoding already survives two-photon splitting.
    """
    orders = 2 if protocol is Protocol.BB84 else 3
    kept = math.fsum(coeff_closed_form(state, n) ** 2 for n in range(orders))
    return _clamp01(1.0 - kept)


def p_multi_min(nu: float, protocol: Protocol) -> float:
    """Multi-photon probability at the interference optimum, in closed form.

    Equals ``p_multi(mcs_state(nu, protocol), protocol)``; kept as an
    independent expression so the two routes can cross-check each other.
    """
    nu = float(nu)
    _require_finite_nonneg("nu", nu)
    mu = math.sqrt(1.0 + nu * nu)
    if protocol is Protocol.BB84:
        value = 1.0 - (1.0 + nu / mu) * math.exp(-(mu - nu) * nu) / mu
    else:
        value = (
            1.0
            - (1.0 + nu / mu) * (1.0 + 2.0 * nu / mu) * math.exp(-3.0 * (mu - nu) * nu) / mu
        )
    return _clamp01(value)


def p_vacuum_lossy(state: SqueezedCoherentState, eta: float) -> float:
    """Probability that a detector of total efficiency ``eta`` sees no photon.

    Modelling the loss as a beamsplitter in front of an ideal detector gives,
    for real (alpha, nu),

        P0 = exp(-eta * alpha**2 * (mu - nu) / (mu + nu * (1 - eta)))
             / sqrt(mu**2 - nu**2 * (1 - eta)**2)

    The radicand is evaluated as 1 + nu**2 * eta * (2 - eta), which is the
    same quantity through mu**2 = 1 + nu**2 but yields exactly 1 at eta = 0.
    """
    _require_eta(eta)
    alpha, nu, mu = state.alpha, state.nu, state.mu
    radicand = 1.0 + nu * nu * eta * (2.0 - eta)
    p0 = math.exp(-eta * alpha * alpha * (mu - nu) / (mu + nu * (1.0 - eta))) / math.sqrt(radicand)
    return min(1.0, p0)


def p_signal(state: SqueezedCoherentState, eta: float) -> float:
    """Probability of at least one detected photon: 1 - p_vacuum_lossy."""
    return _clamp01(1.0 - p_vacuum_lossy(state, eta))


def p_signal_mcs(nu: float, eta: float, protocol: Protocol) -> float:
    """Detection probability of the interference-tuned source, specialized form.

    Substituting the cancellation condition alpha**2 = k * mu * nu (k = 1 for
    BB84, 3 for SARG04) into the vacuum probability gives

        Ps = 1 - exp(-k * eta * mu * nu * (mu - nu) / (mu + nu * (1 - eta)))
                 / sqrt(mu**2 - nu**2 * (1 - eta)**2)

    and must agree with ``p_signal(mcs_state(nu, protocol), eta)``.
    """
    nu = float(nu)
    _require_finite_nonneg("nu", nu)
    _require_eta(eta)
    mu = math.sqrt(1.0 + nu * nu)
    factor = 1.0 if protocol is Protocol.BB84 else 3.0
    radicand = 1.0 + nu * nu * eta * (2.0 - eta)
    p0 = math.exp(
        -factor * eta * mu * nu * (mu - nu) / (mu + nu * (1.0 - eta))
    ) / math.sqrt(radicand)
    return _clamp01(1.0 - p0)
