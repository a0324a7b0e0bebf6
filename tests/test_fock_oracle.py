import math
import random
from itertools import product

import numpy as np
import pytest

from mcs_qkd import (
    DEFAULT_GRID,
    DomainError,
    FOCK_SUM,
    InsufficientTruncationError,
    Protocol,
    QUADRATURE,
    fock_coefficients,
    fock_oracle,
    make_state,
    max_abs_diff_by_formula,
    mcs_state,
    p0_via_fock,
    p0_via_quadrature,
    p_vacuum_lossy,
    verify_closed_forms,
)


def _seeded_grid(seed: int = 2024) -> list[tuple[float, float, float]]:
    """8 x 6 x 6 points with distinct, non-zero alphas and nus."""
    rng = random.Random(seed)
    alphas = sorted(rng.uniform(0.05, 2.0) for _ in range(8))
    nus = sorted(rng.uniform(0.05, 0.8) for _ in range(6))
    etas = sorted(rng.uniform(0.05, 0.95) for _ in range(6))
    return list(product(alphas, nus, etas))


def _per_point_oracles(grid) -> list[float]:
    """Oracle values in report order, each computed from scratch at its point."""
    values = []
    for alpha, nu, eta in grid:
        state = make_state(alpha, nu)
        values.append(p0_via_fock(state, eta))
        if 0.0 < eta < 1.0:
            values.append(p0_via_quadrature(state, eta))
        for protocol in Protocol:
            tuned = mcs_state(nu, protocol)
            amplitudes = fock_coefficients(tuned, n_cap=fock_oracle.DEFAULT_FOCK_N_MAX).amplitudes
            orders = 2 if protocol is Protocol.BB84 else 3
            values.append(max(0.0, 1.0 - math.fsum(c * c for c in amplitudes[:orders])))
            values.append(1.0 - p0_via_fock(tuned, eta))
    return values


def _complex_quadrature(state, eta, nodes=96) -> float:
    """The quadrature with the overlap's log taken in complex arithmetic."""
    alpha, nu, mu = state.alpha, state.nu, state.mu
    t, w = np.polynomial.hermite.hermgauss(nodes)
    a_u = 1.0 / (1.0 - eta) + nu / mu
    a_v = 1.0 / (1.0 - eta) - nu / mu
    u = t[:, None] / math.sqrt(a_u)
    v = t[None, :] / math.sqrt(a_v)
    beta_conj = u - 1j * v
    abs_sq = u * u + v * v
    log_overlap_sq = 2.0 * np.real(
        -0.5 * (alpha * alpha + abs_sq)
        + (nu * alpha * alpha - nu * beta_conj**2 + 2.0 * beta_conj * alpha) / (2.0 * mu)
    ) - math.log(mu)
    log_weight = -eta * abs_sq / (1.0 - eta) - math.log(math.pi * (1.0 - eta))
    exponent = log_weight + log_overlap_sq + t[:, None] ** 2 + t[None, :] ** 2
    total = float(np.sum(w[:, None] * w[None, :] * np.exp(exponent))) / math.sqrt(a_u * a_v)
    return min(1.0, total)


class TestFockSumOracle:
    def test_vacuum(self):
        assert p0_via_fock(make_state(0.0, 0.0), 0.7, 16) == 1.0

    def test_coherent_generating_function(self):
        # Poisson oracle: sum_n e^-a2 a2^n/n! (1-eta)^n = exp(-eta a2)
        assert p0_via_fock(make_state(0.5, 0.0), 0.5) == pytest.approx(
            math.exp(-0.125), abs=1e-12
        )

    def test_matches_closed_form_for_tuned_source(self):
        state = mcs_state(0.4, Protocol.BB84)
        assert p0_via_fock(state, 0.3) == pytest.approx(
            p_vacuum_lossy(state, 0.3), abs=1e-10
        )

    def test_insufficient_truncation_raises(self):
        with pytest.raises(InsufficientTruncationError):
            p0_via_fock(make_state(2.0, 0.8), 0.3, n_max=8)

    def test_cap_hit_with_negligible_tail_still_works(self):
        # the consecutive-smallness rule has not fired by n = 8, but the
        # unresolved mass is far below the 1e-10 gate
        state = make_state(0.3, 0.0)
        assert p0_via_fock(state, 0.5, n_max=8) == pytest.approx(
            math.exp(-0.5 * 0.09), abs=1e-12
        )

    @pytest.mark.parametrize("eta", [-0.01, 1.01])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(DomainError):
            p0_via_fock(make_state(0.5, 0.1), eta)

    def test_rejects_small_n_max(self):
        with pytest.raises(DomainError):
            p0_via_fock(make_state(0.5, 0.1), 0.5, n_max=4)

    @pytest.mark.parametrize("alpha,nu", [(0.5, 0.0), (1.0, 0.5), (2.0, 1.0)])
    def test_non_increasing_in_eta(self, alpha, nu):
        state = make_state(alpha, nu)
        etas = [i / 20 for i in range(21)]
        values = [p0_via_fock(state, eta) for eta in etas]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("nu", [0.0, 0.4, 1.0])
    def test_non_increasing_in_alpha(self, nu):
        alphas = [i / 10 for i in range(21)]
        values = [p0_via_fock(make_state(a, nu), 0.35) for a in alphas]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestQuadratureOracle:
    def test_vacuum(self):
        assert p0_via_quadrature(make_state(0.0, 0.0), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_limit(self):
        assert p0_via_quadrature(make_state(0.8, 0.0), 0.4) == pytest.approx(
            math.exp(-0.256), abs=1e-8
        )

    def test_matches_closed_form_for_tuned_source(self):
        state = mcs_state(0.5, Protocol.BB84)
        assert p0_via_quadrature(state, 0.25, 96) == pytest.approx(
            p_vacuum_lossy(state, 0.25), abs=1e-6
        )

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.2, 1.2])
    def test_rejects_degenerate_eta(self, eta):
        with pytest.raises(DomainError):
            p0_via_quadrature(make_state(0.5, 0.1), eta)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(DomainError):
            p0_via_quadrature(make_state(0.5, 0.1), 0.5, nodes=16)

    def test_rejects_too_many_nodes(self):
        with pytest.raises(DomainError, match="<= 1024"):
            p0_via_quadrature(make_state(0.5, 0.1), 0.5, nodes=1025)

    def test_cached_nodes_are_read_only(self):
        p0_via_quadrature(make_state(0.5, 0.1), 0.5, nodes=40)
        for array in fock_oracle._hermgauss(40):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, _seeded_grid()], ids=["default", "seeded"])
    def test_real_arithmetic_matches_complex_log_overlap(self, grid):
        for alpha, nu, eta in grid:
            if 0.0 < eta < 1.0:
                state = make_state(alpha, nu)
                assert abs(p0_via_quadrature(state, eta) - _complex_quadrature(state, eta)) <= 2e-15

    @pytest.mark.parametrize("alpha,nu,eta", [(0.5, 0.3, 0.5), (2.0, 1.0, 0.05), (1.0, 0.8, 0.95)])
    def test_stable_under_node_doubling(self, alpha, nu, eta):
        state = make_state(alpha, nu)
        assert abs(
            p0_via_quadrature(state, eta, 96) - p0_via_quadrature(state, eta, 192)
        ) < 1e-8

    def test_agrees_with_fock_sum_on_grid(self):
        for alpha, nu, eta in DEFAULT_GRID:
            if not 0.0 < eta < 1.0:
                continue
            state = make_state(alpha, nu)
            assert abs(
                p0_via_fock(state, eta) - p0_via_quadrature(state, eta, 96)
            ) < 1e-6


class TestVerifyClosedForms:
    def test_empty_grid(self):
        assert verify_closed_forms([]) == []

    def test_default_grid_within_tolerances(self):
        reports = verify_closed_forms()
        assert reports
        for report in reports:
            assert report.within_tolerance, report

    def test_single_coherent_point_is_tight(self):
        reports = verify_closed_forms([(0.5, 0.0, 0.5)])
        fock = [r for r in reports if r.method == FOCK_SUM and r.formula == "p_vacuum_lossy"]
        assert len(fock) == 1
        assert fock[0].abs_diff < 1e-12

    def test_eta_endpoint_skips_quadrature(self):
        reports = verify_closed_forms([(0.5, 0.3, 0.0), (0.5, 0.3, 1.0)])
        assert all(r.method != QUADRATURE for r in reports)
        assert any(r.method == FOCK_SUM for r in reports)

    def test_abs_diff_is_exact(self):
        for report in verify_closed_forms([(1.0, 0.3, 0.5)]):
            assert report.abs_diff == abs(report.closed_form_value - report.oracle_value)

    def test_corruption_hook_is_detected(self, monkeypatch):
        exact = fock_oracle.p_vacuum_lossy
        monkeypatch.setattr(fock_oracle, "p_vacuum_lossy", lambda state, eta: exact(state, eta) + 1e-6)
        reports = verify_closed_forms([(0.5, 0.3, 0.5)])
        failed = [r for r in reports if not r.within_tolerance]
        assert ("p_vacuum_lossy", FOCK_SUM) in {(r.formula, r.method) for r in failed}
        assert {r.formula for r in failed} == {"p_vacuum_lossy"}

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, _seeded_grid()], ids=["default", "seeded"])
    def test_matches_per_point_oracles(self, grid):
        reports = verify_closed_forms(grid)
        reference = _per_point_oracles(grid)
        assert len(reports) == len(reference)
        for report, value in zip(reports, reference):
            if report.method == QUADRATURE:
                assert abs(report.oracle_value - value) <= 2e-15, report
            else:
                assert report.oracle_value == value, report

    def test_expands_each_distinct_state_once(self, monkeypatch):
        calls = []

        def counting(state, *args, **kwargs):
            calls.append(state)
            return fock_coefficients(state, *args, **kwargs)

        monkeypatch.setattr(fock_oracle, "fock_coefficients", counting)
        verify_closed_forms(_seeded_grid())
        # 8 alphas x 6 nus raw states, plus 6 nus x 2 protocols tuned states
        assert len(calls) == len(set(calls)) == 60
        verify_closed_forms(_seeded_grid())
        assert len(calls) == 120  # nothing is kept between calls

    def test_max_by_formula_summary(self):
        reports = verify_closed_forms([(0.5, 0.3, 0.5)])
        worst = max_abs_diff_by_formula(reports)
        assert ("p_vacuum_lossy", FOCK_SUM) in worst
        assert ("p_vacuum_lossy", QUADRATURE) in worst
        assert all(diff < 1e-9 for diff in worst.values())
