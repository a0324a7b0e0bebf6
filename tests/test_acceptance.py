"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -rA tests/test_acceptance.py`` to see the PASS/FAIL lines of
passing criteria too (captured stdout is replayed in the summary).
"""

import math

import numpy as np

from mcs_qkd import (
    ConstantF,
    DetectorModel,
    FOCK_SUM,
    KTH15_DETECTOR,
    Protocol,
    QUADRATURE,
    SourceFamily,
    cutoff_distance,
    fock_coefficients,
    make_state,
    mcs_state,
    optimize_param,
    p_multi,
    p_multi_min,
    p_signal,
    p_vacuum_lossy,
    rate_at,
    secure_rate,
    verify_closed_forms,
)
from reference import scenario

NU_GRID = np.linspace(0.0, 1.0, 50)


def check(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def optimal_rate(family: SourceFamily, distance_km: float, f0: float = 1.16) -> float:
    point = optimize_param(scenario(family, distance_km, ConstantF(f0)))
    return 0.0 if point is None else point.breakdown.R


def test_criterion_1_oracle_equivalence():
    reports = verify_closed_forms()
    fock_worst = max(r.abs_diff for r in reports if r.method == FOCK_SUM)
    quad_worst = max(r.abs_diff for r in reports if r.method == QUADRATURE)
    check(
        "1 oracle equivalence",
        fock_worst < 1e-9 and quad_worst < 1e-6,
        f"FockSum worst {fock_worst:.2e} < 1e-9, Quadrature worst {quad_worst:.2e} < 1e-6",
    )


def test_criterion_2_cancellation_conditions():
    worst_c2 = max(
        abs(fock_coefficients(mcs_state(nu, Protocol.BB84)).amplitudes[2]) for nu in NU_GRID
    )
    worst_c3 = max(
        abs(fock_coefficients(mcs_state(nu, Protocol.SARG04)).amplitudes[3]) for nu in NU_GRID
    )
    check(
        "2 interference cancellation",
        worst_c2 < 1e-11 and worst_c3 < 1e-11,
        f"|C2| worst {worst_c2:.2e}, |C3| worst {worst_c3:.2e} (tol 1e-11, 50 nu values)",
    )


def test_criterion_3_closed_form_minima():
    worst_gap = 0.0
    for nu in NU_GRID:
        for protocol, orders in ((Protocol.BB84, 2), (Protocol.SARG04, 3)):
            dist = fock_coefficients(mcs_state(nu, protocol))
            direct = 1.0 - math.fsum(dist.amplitudes[n] ** 2 for n in range(orders))
            worst_gap = max(worst_gap, abs(p_multi_min(nu, protocol) - max(direct, 0.0)))
    check(
        "3a minimum value agreement",
        worst_gap < 1e-12,
        f"worst |closed - direct sum| {worst_gap:.2e} < 1e-12",
    )

    # the tuned displacement must sit on a grid-confirmed minimum of the
    # multi-photon probability; for BB84 that minimum is global over alpha,
    # for SARG04 it is the interior one (the alpha = 0 squeezed vacuum is a
    # lower boundary minimum but carries no single-photon amplitude)
    alphas = np.linspace(0.0, 3.0, 601)
    step = float(alphas[1] - alphas[0])
    worst_local = 0.0
    worst_global = 0.0
    for nu in NU_GRID:
        mu = math.sqrt(1.0 + nu * nu)
        for protocol, factor in ((Protocol.BB84, 1.0), (Protocol.SARG04, 3.0)):
            values = [p_multi(make_state(float(a), float(nu)), protocol) for a in alphas]
            minima = [
                i
                for i in range(len(values))
                if (i == 0 or values[i] <= values[i - 1])
                and (i == len(values) - 1 or values[i] <= values[i + 1])
            ]
            tuned_alpha = math.sqrt(factor * mu * nu)
            nearest = min(abs(float(alphas[i]) - tuned_alpha) for i in minima)
            worst_local = max(worst_local, nearest)
            if protocol is Protocol.BB84:
                best = int(np.argmin(values))
                worst_global = max(worst_global, abs(float(alphas[best]) - tuned_alpha))
    check(
        "3b grid search confirms minima",
        worst_local <= step + 1e-12 and worst_global <= step + 1e-12,
        f"tuned alpha within one grid step ({step:.4f}) of a grid minimum "
        f"(worst local {worst_local:.4f}, worst BB84 global {worst_global:.4f})",
    )


def test_criterion_4_figure1_qualitative():
    eta_db = 10.0 * math.log10(scenario(SourceFamily.COHERENT_BB84, 5.0).channel.total_eta())
    params = np.linspace(0.0, 0.6, 201)
    maxima = {}
    interior = True
    for family in SourceFamily:
        s = scenario(family, 5.0)
        rates = [rate_at(s, float(p)).R for p in params]
        best = int(np.argmax(rates))
        interior = interior and 0 < best < len(params) - 1 and rates[best] > 0.0
        maxima[family] = rates[best]
    ordered = (
        maxima[SourceFamily.MCS_SARG04]
        > maxima[SourceFamily.MCS_BB84]
        > maxima[SourceFamily.COHERENT_BB84]
    )
    check(
        "4 figure-1 reproduction",
        abs(eta_db - (-9.45)) < 0.01 and interior and ordered,
        f"eta {eta_db:.2f} dB, maxima (c)>(b)>(a): "
        f"{maxima[SourceFamily.MCS_SARG04]:.2e} > {maxima[SourceFamily.MCS_BB84]:.2e} "
        f"> {maxima[SourceFamily.COHERENT_BB84]:.2e}",
    )


def test_criterion_5_figure2_quantitative():
    gaps = {}
    cutoffs = {}
    for f0 in (1.0, 1.16, 1.35):
        r_a = optimal_rate(SourceFamily.COHERENT_BB84, 0.0, f0)
        r_b = optimal_rate(SourceFamily.MCS_BB84, 0.0, f0)
        r_c = optimal_rate(SourceFamily.MCS_SARG04, 0.0, f0)
        gaps[f0] = (10.0 * math.log10(r_b / r_a), 10.0 * math.log10(r_c / r_b))
        cutoffs[f0] = tuple(
            cutoff_distance(scenario(family, 0.0, ConstantF(f0)), 200.0)
            for family in (SourceFamily.COHERENT_BB84, SourceFamily.MCS_BB84,
                           SourceFamily.MCS_SARG04)
        )
        print(
            f"[acceptance] 5 f-sensitivity f={f0}: gaps (b-a)={gaps[f0][0]:.2f} dB, "
            f"(c-b)={gaps[f0][1]:.2f} dB; cutoffs a/b/c = "
            f"{cutoffs[f0][0]:.2f}/{cutoffs[f0][1]:.2f}/{cutoffs[f0][2]:.2f} km"
        )
    gap_ba, gap_cb = gaps[1.16]
    cut_a, cut_b, cut_c = cutoffs[1.16]
    ratio_ba = cut_b / cut_a
    ratio_cb = cut_c / cut_b
    check(
        "5 figure-2 reproduction (f = 1.16)",
        abs(gap_ba - 4.0) <= 1.0
        and abs(gap_cb - 6.0) <= 1.5
        and 1.6 <= ratio_ba <= 2.4
        and 1.6 <= ratio_cb <= 2.4,
        f"gaps {gap_ba:.2f} dB (4±1), {gap_cb:.2f} dB (6±1.5); "
        f"cutoff ratios {ratio_ba:.2f}, {ratio_cb:.2f} (both in [1.6, 2.4])",
    )


def test_criterion_6_degenerate_limits():
    detector = KTH15_DETECTOR

    worst = 0.0
    for alpha2 in (0.05, 0.1, 0.5, 1.0, 4.0):
        state = make_state(math.sqrt(alpha2), 0.0)
        for eta in (0.0, 0.1136, 0.5, 1.0):
            worst = max(worst, abs(p_vacuum_lossy(state, eta) - math.exp(-eta * alpha2)))
        worst = max(
            worst,
            abs(p_multi(state, Protocol.BB84) - (1.0 - math.exp(-alpha2) * (1.0 + alpha2))),
        )
        dist = fock_coefficients(state)
        for n, amp in enumerate(dist.amplitudes):
            poisson = math.exp(-0.5 * alpha2) * math.sqrt(alpha2) ** n / math.sqrt(
                math.factorial(n)
            )
            worst = max(worst, abs(amp - poisson))
    check("6a coherent limit is Poissonian", worst < 1e-12, f"worst deviation {worst:.2e}")

    p_s = p_signal(make_state(1.0, 0.5), 0.0)
    blocked = secure_rate(p_s, p_multi_min(0.5, Protocol.BB84), detector)
    check(
        "6b zero efficiency gives zero rate",
        p_s == 0.0 and blocked.R == 0.0,
        f"P_s = {p_s}, R = {blocked.R}",
    )

    noisy = DetectorModel(dark_prob_Pd=0.5, baseline_error_c=0.01)
    drowned = secure_rate(1e-6, 0.0, noisy)
    check(
        "6c dark-count-dominated detector is insecure",
        drowned.e > 0.499 and drowned.R == 0.0,
        f"e = {drowned.e:.6f} -> 1/2, R = {drowned.R}",
    )


def test_criterion_7_monotonicity_randomized():
    rng = np.random.default_rng(20260811)
    draws = 1000

    families = list(SourceFamily)
    violations = 0
    for _ in range(draws):
        family = families[rng.integers(len(families))]
        l1 = float(rng.uniform(0.0, 60.0))
        l2 = l1 + float(rng.uniform(0.5, 25.0))
        if optimal_rate(family, l2) > optimal_rate(family, l1) + 1e-12:
            violations += 1
    check(
        "7a optimal rate non-increasing in distance",
        violations == 0,
        f"{draws} draws, {violations} violations",
    )

    violations = 0
    for _ in range(draws):
        state = make_state(float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.0, 1.0)))
        eta1 = float(rng.uniform(0.0, 1.0 - 1e-6))
        eta2 = float(rng.uniform(eta1 + 1e-6, 1.0))
        if not p_signal(state, eta1) < p_signal(state, eta2):
            violations += 1
    check(
        "7b detection probability increasing in efficiency",
        violations == 0,
        f"{draws} draws, {violations} violations",
    )

    violations = 0
    for _ in range(draws):
        det = DetectorModel(
            dark_prob_Pd=float(rng.uniform(1e-6, 0.3)),
            baseline_error_c=float(rng.uniform(0.0, 0.02)),
        )
        p1 = float(rng.uniform(0.0, 1.0))
        p2 = float(rng.uniform(p1, 1.0))
        if secure_rate(p2, 0.0, det).e > secure_rate(p1, 0.0, det).e + 1e-15:
            violations += 1
    check(
        "7c error rate non-increasing in signal",
        violations == 0,
        f"{draws} draws, {violations} violations",
    )
