"""Photon-number statistics of coherent and interference-modified coherent states.

A weak laser pulse carries Poissonian photon statistics, so a small fraction of
pulses leak two or more photons to a potential eavesdropper.  Passing the pulse
through a weakly pumped degenerate parametric amplifier superposes a squeezed
two-photon amplitude on top of the coherent one; tuning the displacement so the
two amplitudes cancel removes the two-photon component (for BB84) or, with a
larger displacement, the three-photon component (for SARG04).  This module
evaluates the resulting photon-number amplitudes, the multi-photon
probabilities that the interference suppresses, and the detection
probabilities behind a lossy channel, for the three source families compared.

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

import numpy as np

from .errors import (DomainError, TruncationError, UnsupportedOrderError, require_finite_nonneg,
                     require_unit_interval)

__all__ = [
    "FockDistribution",
    "Protocol",
    "SourceFamily",
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
#: this many consecutive photon-number probabilities fall below ``_TAIL_TOL``.
_TAIL_RUN = 5
_TAIL_TOL = 1e-14

DEFAULT_N_CAP = 512


class Protocol(enum.Enum):
    """Key-distribution protocol, which fixes the photon order an eavesdropper needs."""

    BB84 = "bb84"  # photon-number splitting needs >= 2 photons
    SARG04 = "sarg04"  # encoding forces the attack to >= 3 photons

    @property
    def tuning_factor(self) -> float:
        """k in the cancellation condition alpha**2 = k * mu * nu."""
        return 1.0 if self is Protocol.BB84 else 3.0

    @property
    def attack_photons(self) -> int:
        """Fewest photons in a pulse the eavesdropper can attack."""
        return 2 if self is Protocol.BB84 else 3


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

    def source(self, param):
        """``alpha2``, ``nu``, ``mu`` and the unclamped ``p_multi_min`` at ``param``, elementwise.

        The coherent family's parameter is ``alpha2``; a tuned family's is ``nu``, with
        alpha**2 = k * mu * nu, and its kept orders (0-1 for BB84, 0-2 for SARG04) sum to
        exp(-k * (mu - nu) * nu) / mu times 1 + r or (1 + r) * (1 + 2 * r), with r = nu / mu.
        A float ``param`` is computed in floats up to the exponential: they overflow to
        inf quietly, where numpy scalars warn.  Unvalidated; the rate kernel and the
        scalar functions call it.
        """
        if self is SourceFamily.COHERENT_BB84:
            return param, 0.0, 1.0, 1.0 - (1.0 + param) * np.exp(-param)
        mu = (math.sqrt if isinstance(param, float) else np.sqrt)(1.0 + param * param)
        ratio = param / mu
        kept = 1.0 + ratio if self is SourceFamily.MCS_BB84 else (1.0 + ratio) * (1.0 + 2.0 * ratio)
        tuning_factor = self.protocol.tuning_factor
        return (tuning_factor * mu * param, param, mu,
                1.0 - kept * np.exp(-tuning_factor * (mu - param) * param) / mu)


def _tuned_source(nu, protocol: Protocol):
    """``SourceFamily.source`` of ``protocol``'s interference-tuned family at a checked ``nu``.

    Raises ``DomainError`` for a negative or non-finite ``nu``, and for one whose
    alpha**2 = k * mu * nu overflows.
    """
    nu = float(nu)
    require_finite_nonneg("nu", nu)
    family = SourceFamily.MCS_SARG04 if protocol is Protocol.SARG04 else SourceFamily.MCS_BB84
    source = family.source(nu)
    if not math.isfinite(source[0]):
        raise DomainError(f"alpha**2 = {protocol.tuning_factor:g} * mu * nu overflows at nu={nu!r}")
    return source


def _clamp01(p: float) -> float:
    # floating-point sums like 1 - C0**2 - C1**2 can dip to about -1e-17 near vacuum;
    # NaN stays NaN, and adding 0.0 turns the -0.0 that max(-0.0, 0.0) keeps into 0.0
    return min(max(p, 0.0), 1.0) + 0.0


@dataclass(frozen=True)
class SqueezedCoherentState:
    """Squeezed coherent state restricted to real, non-negative parameters.

    ``alpha`` is the displacement amplitude (mean photon number ``alpha**2``
    at ``nu = 0``); ``nu`` is the squeeze magnitude.
    """

    alpha: float
    nu: float

    def __post_init__(self) -> None:
        require_finite_nonneg("alpha", self.alpha)
        require_finite_nonneg("nu", self.nu)
        if not math.isfinite(1.0 + self.nu * self.nu):
            raise DomainError(f"mu = sqrt(1 + nu**2) overflows at nu={self.nu!r}")

    @property
    def mu(self) -> float:
        """Hyperbolic partner of ``nu``; satisfies mu**2 - nu**2 == 1."""
        return math.sqrt(1.0 + self.nu * self.nu)


def make_state(alpha: float, nu: float) -> SqueezedCoherentState:
    """Build a source state from displacement ``alpha`` and squeeze ``nu``.

    Raises ``DomainError`` for negative or non-finite inputs, and for a ``nu`` whose
    ``mu = sqrt(1 + nu**2)`` overflows (above about 1.34e154).
    """
    return SqueezedCoherentState(float(alpha), float(nu))


def mcs_state(nu: float, protocol: Protocol) -> SqueezedCoherentState:
    """Modified coherent state: displacement tuned for destructive interference.

    BB84 pins ``alpha**2 = mu * nu`` so the two-photon amplitude vanishes;
    SARG04 pins ``alpha**2 = 3 * mu * nu`` so the three-photon amplitude
    vanishes instead.  Raises ``DomainError`` for a negative or non-finite
    ``nu``, and for one whose ``alpha**2`` overflows.
    """
    alpha2, nu, _, _ = _tuned_source(nu, protocol)
    return SqueezedCoherentState(math.sqrt(alpha2), nu)


@dataclass(frozen=True)
class FockDistribution:
    """Truncated photon-number amplitudes of a source state.

    ``amplitudes[n]`` is the real amplitude of the n-photon component;
    ``tail_bound`` estimates the probability mass beyond ``n_max``.
    """

    amplitudes: tuple[float, ...]
    tail_bound: float

    @property
    def n_max(self) -> int:
        """Highest photon number kept."""
        return len(self.amplitudes) - 1

    def total_mass(self) -> float:
        return math.fsum(c * c for c in self.amplitudes)


def _vacuum_amplitude(alpha: float, nu: float, mu: float) -> float:
    """c0 = exp(nu * alpha**2 / (2 * mu) - alpha**2 / 2) / sqrt(mu); inf or nan on overflow."""
    try:
        return math.exp(nu * alpha * alpha / (2.0 * mu) - 0.5 * alpha * alpha) / math.sqrt(mu)
    except OverflowError:  # the exponent is at most 0, but its rounding error need not be
        return math.inf


def _expand_amplitudes(state: SqueezedCoherentState, n_cap: int) -> tuple[list[float], bool]:
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
    c = _vacuum_amplitude(alpha, nu, mu)
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
        small_run = small_run + 1 if c * c < _TAIL_TOL and mass > 0.5 else 0
    return amps, small_run >= _TAIL_RUN


def fock_coefficients(state: SqueezedCoherentState, n_cap: int = DEFAULT_N_CAP) -> FockDistribution:
    """Photon-number amplitudes of ``state``, truncated adaptively.

    Once the summed probability exceeds 1/2, iteration stops at ``_TAIL_RUN``
    consecutive probabilities below ``_TAIL_TOL``; all computed amplitudes
    (including the small trailing ones) are kept.  Raises ``TruncationError``
    carrying the partial distribution when order ``n_cap`` is reached first.
    """
    if n_cap < 8:
        raise DomainError(f"n_cap must be >= 8, got {n_cap!r}")
    amps, converged = _expand_amplitudes(state, n_cap)
    mass = math.fsum(c * c for c in amps)
    dist = FockDistribution(tuple(amps), max(1.0 - mass, 0.0))  # NaN stays NaN
    if not converged:
        raise TruncationError(
            f"photon-number tail not below {_TAIL_TOL} after {_TAIL_RUN} consecutive orders "
            f"within n_cap={n_cap} (mass so far {mass:.17g})",
            partial_mass=mass,
            partial=dist,
        )
    return dist


def coeff_closed_form(state: SqueezedCoherentState, n: int) -> float:
    """Explicit low-order amplitude, independent of the recurrence.

    Supports n in 0..4 and is used as a cross-check on ``fock_coefficients``;
    higher orders raise ``UnsupportedOrderError``, and ``DomainError`` where the vacuum
    amplitude (``nu * alpha**2`` or ``alpha**2``), or amplitude n or its square, overflows.
    """
    if n < 0 or n > 4:
        raise UnsupportedOrderError(f"closed forms cover n in 0..4, got {n!r}")
    alpha, nu, mu = state.alpha, state.nu, state.mu
    c0 = _vacuum_amplitude(alpha, nu, mu)
    if not math.isfinite(c0):
        raise DomainError(f"the vacuum amplitude at alpha={alpha!r}, nu={nu!r} is not finite")
    r = alpha / mu
    try:  # where alpha / mu is above about 1e102, r**3 and r**4 raise OverflowError
        if n < 3:
            amplitude = (c0, c0 * r, c0 / math.sqrt(2.0) * (r * r - nu / mu))[n]
        elif n == 3:
            amplitude = c0 / math.sqrt(6.0) * (r**3 - 3.0 * nu * alpha / mu**2)
        else:
            amplitude = c0 / math.sqrt(24.0) * (r**4 - 6.0 * nu * alpha * alpha / mu**3
                                                + 3.0 * (nu / mu) ** 2)
    except OverflowError:
        amplitude = math.inf
    if not math.isfinite(amplitude * amplitude):  # p_multi sums the squares
        raise DomainError(f"amplitude {n} at alpha={alpha!r}, nu={nu!r} or its square overflows")
    return amplitude


def p_multi(state: SqueezedCoherentState, protocol: Protocol) -> float:
    """Probability of a pulse carrying more photons than the protocol tolerates.

    BB84 counts two or more photons; SARG04 counts three or more, since its
    encoding already survives two-photon splitting.
    """
    kept = math.fsum(coeff_closed_form(state, n) ** 2 for n in range(protocol.attack_photons))
    return _clamp01(1.0 - kept)


def p_multi_min(nu: float, protocol: Protocol) -> float:
    """Multi-photon probability at the interference optimum, in closed form.

    Equals ``p_multi(mcs_state(nu, protocol), protocol)``; kept as an
    independent expression (``SourceFamily.source``) so the two routes can
    cross-check each other.
    """
    return _clamp01(float(_tuned_source(nu, protocol)[3]))


def p0_formula(alpha2, nu, mu, eta):
    """No-click probability elementwise over arrays of source and efficiency values.

    Modelling the loss as a beamsplitter in front of an ideal detector gives,
    for real (alpha, nu) with ``alpha2 = alpha**2`` and ``mu = sqrt(1 + nu**2)``,

        P0 = exp(-eta * alpha2 * (mu - nu) / (mu + nu * (1 - eta)))
             / sqrt(mu**2 - nu**2 * (1 - eta)**2)

    The radicand is evaluated as 1 + nu**2 * eta * (2 - eta), which is the
    same quantity through mu**2 = 1 + nu**2 but yields exactly 1 at eta = 0.
    Unvalidated; the scalar functions below and the rate kernel call it.
    """
    radicand = 1.0 + nu * nu * eta * (2.0 - eta)
    return np.exp(-eta * alpha2 * (mu - nu) / (mu + nu * (1.0 - eta))) / np.sqrt(radicand)


def p_signal_formula(alpha2, nu, mu, eta):
    """Detection probability ``1 - p0_formula`` elementwise, with ``p0_formula`` capped at 1.

    Unvalidated; ``p_signal``, ``p_signal_mcs`` and the rate kernel call it.
    """
    return 1.0 - np.minimum(p0_formula(alpha2, nu, mu, eta), 1.0)


def p_vacuum_lossy(state: SqueezedCoherentState, eta: float) -> float:
    """Probability that a detector of total efficiency ``eta`` sees no photon (``p0_formula``)."""
    require_unit_interval("eta", eta)
    return _clamp01(float(p0_formula(state.alpha * state.alpha, state.nu, state.mu, eta)))


def p_signal(state: SqueezedCoherentState, eta: float) -> float:
    """Probability of at least one detected photon, 1 - p_vacuum_lossy (``p_signal_formula``)."""
    require_unit_interval("eta", eta)
    return _clamp01(float(p_signal_formula(state.alpha * state.alpha, state.nu, state.mu, eta)))


def p_signal_mcs(nu: float, eta: float, protocol: Protocol) -> float:
    """Detection probability of the interference-tuned source, specialized form.

    ``p_signal_formula`` at alpha**2 = k * mu * nu (k = 1 for BB84, 3 for SARG04), without
    ``mcs_state``'s square root; must agree with ``p_signal(mcs_state(nu, protocol), eta)``.
    Raises ``DomainError`` where ``mcs_state`` does, including where alpha**2 overflows.
    """
    alpha2, nu, mu, _ = _tuned_source(nu, protocol)
    require_unit_interval("eta", eta)
    return _clamp01(float(p_signal_formula(alpha2, nu, mu, eta)))
