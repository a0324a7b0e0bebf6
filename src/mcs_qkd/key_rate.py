"""Secure-communication-rate model for photon sources with multi-photon leakage.

Per slot, the secure rate against individual photon-number-splitting attacks is

    R = (Ps_bar / 2) * [rho * (1 - tau(e, rho)) - f(e) * h(e)]

where Ps_bar is the detection probability including dark counts, rho the
fraction of detection events stemming from single-photon pulses, tau the
privacy-amplification compression, h the binary entropy of the error rate and
f >= 1 the inefficiency of the error-correction code.  The error-correction
term is subtracted: a sign crediting errors with extra rate would not be
monotone in e.  The additive variant seen in some printed statements of the
formula stays available behind ``paper_literal_sign`` for comparison runs.

Both the leading factor and rho use the dark-adjusted detection probability:
dark counts are indistinguishable from signal at the receiver, so they dilute
the single-photon fraction exactly like any other detection event.

The formula is written once, elementwise over numpy arrays, in
``rate_formula``; ``secure_rate`` and the scalar helpers validate one point
and evaluate it, or one of its pieces, there.

All functions are pure; the record types are immutable and thread-safe.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DomainError

__all__ = [
    "ChannelModel",
    "ConstantF",
    "DEFAULT_F_POLICY",
    "DetectorModel",
    "KTH15_CHANNEL",
    "KTH15_DETECTOR",
    "RateBreakdown",
    "TableF",
    "adjusted_signal",
    "error_rate",
    "f_ec",
    "rate_formula",
    "secure_rate",
    "shannon_h",
    "tau_compression",
]


def _require_prob(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0.0 or value > 1.0:
        raise DomainError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class ChannelModel:
    """Fiber channel plus receiver.

    Total efficiency is 10**(-(a*l + L)/10) * eta_d: fiber attenuation
    ``loss_coeff_a`` in dB/km over ``distance_l`` km, a fixed receiver loss
    ``receiver_loss_L`` in dB, and the detector quantum efficiency.
    """

    loss_coeff_a: float
    distance_l: float
    receiver_loss_L: float
    detector_eff: float

    def __post_init__(self) -> None:
        for name in ("loss_coeff_a", "distance_l", "receiver_loss_L"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
        if not math.isfinite(self.detector_eff) or not 0.0 < self.detector_eff <= 1.0:
            raise DomainError(f"detector_eff must lie in (0, 1], got {self.detector_eff!r}")

    def total_eta(self) -> float:
        return 10.0 ** (-(self.loss_coeff_a * self.distance_l + self.receiver_loss_L) / 10.0) * self.detector_eff

    def at_distance(self, distance_l: float) -> "ChannelModel":
        return dataclasses.replace(self, distance_l=distance_l)


@dataclass(frozen=True)
class DetectorModel:
    """Receiver noise: dark-count probability per slot and baseline error fraction."""

    dark_prob_Pd: float
    baseline_error_c: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.dark_prob_Pd) or not 0.0 <= self.dark_prob_Pd < 1.0:
            raise DomainError(f"dark_prob_Pd must lie in [0, 1), got {self.dark_prob_Pd!r}")
        # typical systems sit below a 2% baseline error fraction
        if not math.isfinite(self.baseline_error_c) or not 0.0 <= self.baseline_error_c <= 0.02:
            raise DomainError(
                f"baseline_error_c must lie in [0, 0.02], got {self.baseline_error_c!r}"
            )


#: The KTH15 experimental parameter set (1550 nm fiber system).
KTH15_CHANNEL = ChannelModel(loss_coeff_a=0.2, distance_l=5.0, receiver_loss_L=1.0, detector_eff=0.18)
KTH15_DETECTOR = DetectorModel(dark_prob_Pd=2e-4, baseline_error_c=0.01)


def _dark_adjusted(p_s, dark_prob):
    return p_s + dark_prob - p_s * dark_prob


def adjusted_signal(p_s: float, det: DetectorModel) -> float:
    """Detection probability including dark counts (union of independent events)."""
    _require_prob("p_s", p_s)
    return _dark_adjusted(p_s, det.dark_prob_Pd)


def error_rate(p_s: float, det: DetectorModel) -> float:
    """Observed error fraction: baseline errors on signal plus random dark counts.

        e = (c * Ps + Pd/2) / Ps_bar

    clamped to [0, 1/2].  Raises ``DegenerateInputError`` when Ps_bar is zero
    (no detection events, error rate undefined).
    """
    return secure_rate(p_s, 0.0, det).e


def _entropy(e):
    h = -e * np.log2(e) - (1.0 - e) * np.log2(1.0 - e)
    return np.where((e <= 0.0) | (e >= 1.0), 0.0, h)


def shannon_h(e: float) -> float:
    """Binary Shannon entropy with the continuity convention h(0) = h(1) = 0."""
    _require_prob("e", e)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(_entropy(np.float64(e)))


def _compression(e, rho):
    u = e / rho
    tau = np.log2(1.0 + 4.0 * u - 4.0 * u * u)
    return np.where((rho > 0.0) & (u < 0.5), tau, 1.0)


def tau_compression(e: float, rho: float) -> float:
    """Privacy-amplification compression fraction.

    With u = e / rho:  log2(1 + 4u - 4u**2) for u < 1/2, capped at 1 beyond,
    where the argument would leave [1, 2] and the protocol is insecure anyway.
    Callers must check rho first; a non-positive rho returns the cap rather
    than raising.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(_compression(np.float64(e), np.float64(rho)))


@dataclass(frozen=True)
class ConstantF:
    """Flat error-correction inefficiency; 1.0 is Shannon-limit coding."""

    f0: float = 1.16

    def __post_init__(self) -> None:
        if not math.isfinite(self.f0) or self.f0 <= 0.0:
            raise ConfigurationError(f"f0 must be finite and > 0, got {self.f0!r}")


@dataclass(frozen=True)
class TableF:
    """Piecewise-linear f(e) through (e, f) knots, clamped at the endpoints."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.knots:
            raise ConfigurationError("f(e) table must contain at least one (e, f) knot")
        if not all(math.isfinite(e) and math.isfinite(f) and f > 0.0 for e, f in self.knots):
            raise ConfigurationError("f(e) table knots must have finite e and finite f > 0")
        es = [e for e, _ in self.knots]
        if any(b <= a for a, b in zip(es, es[1:])):
            raise ConfigurationError("f(e) table knots must have strictly ascending e")


DEFAULT_F_POLICY = ConstantF(1.16)


def f_ec(e, policy: ConstantF | TableF = DEFAULT_F_POLICY):
    """Error-correction inefficiency factor at error rate ``e``, elementwise."""
    if isinstance(policy, ConstantF):
        return np.full(np.shape(e), policy.f0)
    if isinstance(policy, TableF):
        es, fs = zip(*policy.knots)
        return np.interp(e, es, fs)
    raise ConfigurationError(f"unknown f policy {policy!r}")


@dataclass(frozen=True)
class RateBreakdown:
    """Every intermediate of one operating point, plus the clamped rate.

    ``R_raw`` keeps its sign so cutoff searches can bisect on it; ``R`` is
    clamped to zero where the protocol is insecure.  ``rate_formula`` returns
    one breakdown whose fields are arrays of a common shape; ``at`` picks one
    operating point out of it.
    """

    p_s: float
    p_s_bar: float
    p_m: float
    e: float
    rho: float
    tau: float
    h: float
    f: float
    R: float
    R_raw: float

    @property
    def is_secure(self) -> bool:
        return self.R_raw > 0.0

    def at(self, index) -> "RateBreakdown":
        """Float breakdown of the cell ``index`` of an array-valued breakdown."""
        values = (getattr(self, field.name)[index] for field in dataclasses.fields(self))
        return RateBreakdown(*map(float, values))


def rate_formula(
    p_s,
    p_m,
    det: DetectorModel,
    f_policy: ConstantF | TableF = DEFAULT_F_POLICY,
    *,
    paper_literal_sign: bool = False,
) -> RateBreakdown:
    """Secure rate per slot, elementwise over broadcast arrays of Ps and Pm.

    Computes the dark-adjusted signal Ps_bar, the error rate e, the
    single-photon fraction rho = (Ps_bar - Pm) / Ps_bar, and

        R_raw = (Ps_bar / 2) * [rho * (1 - tau(e, rho)) - f(e) * h(e)]

    with R = max(R_raw, 0).  When rho <= 0 there is no single-photon surplus:
    tau is reported at its cap and R_raw collapses to the non-positive
    -(Ps_bar/2) * f * h regardless of the sign flag.

    Inputs are not validated; callers check them once where they enter.  A
    cell with no detection events (Ps_bar = 0) has no error rate: its e, h
    and R_raw are nan and its R is 0.
    """
    p_s, p_m = np.broadcast_arrays(p_s, p_m)
    p_bar = _dark_adjusted(p_s, det.dark_prob_Pd)
    sign = 1.0 if paper_literal_sign else -1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        e = (det.baseline_error_c * p_s + det.dark_prob_Pd / 2.0) / p_bar
        e = np.minimum(0.5, np.maximum(0.0, e))
        rho = (p_bar - p_m) / p_bar
        h = _entropy(e)
        f = f_ec(e, f_policy)
        tau = _compression(e, rho)
        r_raw = np.where(
            rho > 0.0, 0.5 * p_bar * (rho * (1.0 - tau) + sign * f * h), -0.5 * p_bar * f * h
        )
    return RateBreakdown(
        p_s=p_s,
        p_s_bar=p_bar,
        p_m=p_m,
        e=e,
        rho=rho,
        tau=tau,
        h=h,
        f=f,
        R=np.where(r_raw > 0.0, r_raw, 0.0),
        R_raw=r_raw,
    )


def secure_rate(
    p_s: float,
    p_m: float,
    det: DetectorModel,
    f_policy: ConstantF | TableF = DEFAULT_F_POLICY,
    *,
    paper_literal_sign: bool = False,
) -> RateBreakdown:
    """``rate_formula`` at one validated operating point.

    Raises ``DegenerateInputError`` when there are no detection events.
    """
    _require_prob("p_s", p_s)
    _require_prob("p_m", p_m)
    breakdown = rate_formula(p_s, p_m, det, f_policy, paper_literal_sign=paper_literal_sign)
    if not breakdown.p_s_bar > 0.0:
        raise DegenerateInputError("no detection events: error rate is undefined")
    return breakdown.at(())
