import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcs_qkd import (
    DEFAULT_GRID,
    DomainError,
    FOCK_SUM,
    InsufficientTruncationError,
    OracleReport,
    Protocol,
    QUADRATURE,
    fock_coefficients,
    fock_oracle,
    make_state,
    max_abs_diff_by_formula,
    mcs_state,
    p0_via_fock,
    p0_via_quadrature,
    p_multi_min,
    p_signal_mcs,
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


def _per_point_reports(grid) -> list[OracleReport]:
    """Every report in order, each computed from scratch at its point with default resolutions."""
    n_max, nodes = fock_oracle.DEFAULT_FOCK_N_MAX, fock_oracle.DEFAULT_QUAD_NODES
    reports = []
    for alpha, nu, eta in grid:
        state = make_state(alpha, nu)
        closed = p_vacuum_lossy(state, eta)
        reports.append(OracleReport("p_vacuum_lossy", alpha, nu, eta, FOCK_SUM, n_max,
                                    closed, p0_via_fock(state, eta)))
        if 0.0 < eta < 1.0:
            reports.append(OracleReport("p_vacuum_lossy", alpha, nu, eta, QUADRATURE, nodes,
                                        closed, p0_via_quadrature(state, eta)))
        for protocol in Protocol:
            tuned = mcs_state(nu, protocol)
            amplitudes = fock_coefficients(tuned, n_cap=n_max).amplitudes
            orders = 2 if protocol is Protocol.BB84 else 3
            reports.append(OracleReport(
                f"p_multi_min[{protocol.value}]", tuned.alpha, nu, eta, FOCK_SUM, n_max,
                p_multi_min(nu, protocol),
                max(0.0, 1.0 - math.fsum(c * c for c in amplitudes[:orders])),
            ))
            reports.append(OracleReport(
                f"p_signal_mcs[{protocol.value}]", tuned.alpha, nu, eta, FOCK_SUM, n_max,
                p_signal_mcs(nu, eta, protocol), 1.0 - p0_via_fock(tuned, eta),
            ))
    return reports


def _per_point_oracles(grid) -> list[float]:
    """Oracle values in report order, each computed from scratch at its point."""
    return [report.oracle_value for report in _per_point_reports(grid)]


#: Grid axes of 1-3 values, repeats allowed; both signed zeros, and the eta endpoints.
_ALPHAS = st.lists(st.sampled_from([0.0, -0.0, 0.5]) | st.floats(0.0, 2.0), min_size=1, max_size=3)
_NUS = st.lists(st.sampled_from([0.0, -0.0, 0.3]) | st.floats(0.0, 0.8), min_size=1, max_size=3)
_ETAS = st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                 min_size=1, max_size=3)


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
        with pytest.raises(DomainError, match="<= 256"):
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

    def test_within_tolerance_is_exact_and_left_out_of_repr_and_eq(self):
        names = ("formula", "alpha", "nu", "eta", "method", "resolution",
                 "closed_form_value", "oracle_value")
        made = [OracleReport("f", 0.0, 0.0, 0.5, method, 8, 1.0, 1.0 - 5e-7)
                for method in (FOCK_SUM, QUADRATURE)]
        assert [report.within_tolerance for report in made] == [False, True]
        for report in verify_closed_forms([(1.0, 0.3, 0.5)]) + made:
            assert report.within_tolerance == (report.abs_diff < report.tolerance)
            values = [getattr(report, name) for name in names]
            shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
            assert repr(report) == f"OracleReport({shown})"
            twin = OracleReport(*values)
            object.__setattr__(twin, "abs_diff", -1.0)
            object.__setattr__(twin, "within_tolerance", not report.within_tolerance)
            assert twin == report and hash(twin) == hash(report)

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
        counts = Counter()

        def counting(state, *args, **kwargs):
            calls.append(state)
            return fock_coefficients(state, *args, **kwargs)

        def count(name):
            original = getattr(fock_oracle, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(fock_oracle, name, counted)

        monkeypatch.setattr(fock_oracle, "fock_coefficients", counting)
        for name in ("p_signal_mcs", "p_multi_min", "mcs_state"):
            count(name)
        verify_closed_forms(_seeded_grid())
        # 8 alphas x 6 nus raw states, plus 6 nus x 2 protocols tuned states
        assert len(calls) == len(set(calls)) == 60
        # tuned checks: 6 nus x 6 etas x 2 protocols, not 8 alphas times as many
        assert counts["p_signal_mcs"] == 72
        assert counts["p_multi_min"] <= 72
        assert counts["mcs_state"] <= 72
        first = dict(counts)
        verify_closed_forms(_seeded_grid())
        assert len(calls) == 120  # nothing is kept between calls
        assert counts == {name: 2 * n for name, n in first.items()}

    @settings(max_examples=40, deadline=None)
    @given(_ALPHAS, _NUS, _ETAS)
    @example([0.5, 1.0], [0.0, -0.0], [0.5])  # tuned alpha and nu print as 0 and -0
    @example([0.5, 1.0], [0.3], [-0.0, 0.0, 1.0])  # eta prints as -0 and 0
    def test_reused_reports_match_per_point_reports(self, alphas, nus, etas):
        grid = list(product(alphas, nus, etas))
        assert list(map(repr, verify_closed_forms(grid))) == list(
            map(repr, _per_point_reports(grid))
        )

    def test_max_by_formula_summary(self):
        reports = verify_closed_forms([(0.5, 0.3, 0.5)])
        worst = max_abs_diff_by_formula(reports)
        assert ("p_vacuum_lossy", FOCK_SUM) in worst
        assert ("p_vacuum_lossy", QUADRATURE) in worst
        assert all(diff < 1e-9 for diff in worst.values())
