import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcs_qkd import (
    ChannelModel,
    ConfigurationError,
    ConstantF,
    DegenerateInputError,
    DetectorModel,
    DomainError,
    TableF,
    adjusted_signal,
    error_rate,
    f_ec,
    secure_rate,
    shannon_h,
    tau_compression,
)


class TestChannel:
    def test_kth15_at_5km(self, kth15_channel):
        eta = kth15_channel.total_eta()
        assert eta == pytest.approx(10.0 ** (-0.2) * 0.18, abs=1e-15)
        assert 10.0 * math.log10(eta) == pytest.approx(-9.45, abs=0.005)

    def test_lossless(self):
        assert ChannelModel(0.0, 0.0, 0.0, 1.0).total_eta() == 1.0

    def test_zero_distance(self):
        eta = ChannelModel(0.2, 0.0, 1.0, 0.18).total_eta()
        assert eta == pytest.approx(10.0 ** (-0.1) * 0.18, abs=1e-15)

    def test_strictly_decreasing_in_distance(self):
        etas = [ChannelModel(0.2, l, 1.0, 0.18).total_eta() for l in range(0, 100, 5)]
        assert all(b < a for a, b in zip(etas, etas[1:]))

    @given(l1=st.floats(0.0, 100.0), l2=st.floats(0.0, 100.0), L=st.floats(0.0, 10.0))
    def test_multiplicative_composition(self, l1, l2, L):
        combined = ChannelModel(0.2, l1 + l2, L, 0.18).total_eta()
        composed = (
            ChannelModel(0.2, l1, 0.0, 1.0).total_eta()
            * ChannelModel(0.2, l2, 0.0, 1.0).total_eta()
            * 10.0 ** (-L / 10.0)
            * 0.18
        )
        assert combined == pytest.approx(composed, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            ChannelModel(-0.1, 5.0, 1.0, 0.18)
        with pytest.raises(DomainError):
            ChannelModel(0.2, 5.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            ChannelModel(0.2, 5.0, 1.0, 1.2)


class TestDetectorModel:
    def test_rejects_dark_prob_of_one(self):
        with pytest.raises(DomainError):
            DetectorModel(dark_prob_Pd=1.0, baseline_error_c=0.01)

    def test_rejects_baseline_above_two_percent(self):
        with pytest.raises(DomainError):
            DetectorModel(dark_prob_Pd=1e-4, baseline_error_c=0.03)


class TestAdjustedSignal:
    def test_dark_only(self, kth15_detector):
        assert adjusted_signal(0.0, kth15_detector) == 2e-4

    def test_saturated(self, kth15_detector):
        assert adjusted_signal(1.0, kth15_detector) == 1.0

    def test_union_of_independent_events(self, kth15_detector):
        assert adjusted_signal(0.01, kth15_detector) == pytest.approx(0.010198, abs=1e-15)


class TestErrorRate:
    def test_all_dark_counts_are_random(self, kth15_detector):
        assert error_rate(0.0, kth15_detector) == 0.5

    def test_signal_dominated_limit(self, kth15_detector):
        assert error_rate(1.0, kth15_detector) == pytest.approx(0.01, abs=1e-4)

    def test_mixed_case(self, kth15_detector):
        expected = (0.01 * 0.01 + 1e-4) / 0.010198
        assert error_rate(0.01, kth15_detector) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0196, abs=1e-4)

    def test_degenerate_when_no_events(self):
        silent = DetectorModel(dark_prob_Pd=0.0, baseline_error_c=0.01)
        with pytest.raises(DegenerateInputError):
            error_rate(0.0, silent)

    @given(p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
    def test_non_increasing_in_signal(self, p1, p2):
        det = DetectorModel(dark_prob_Pd=2e-4, baseline_error_c=0.01)
        if p2 < p1:
            p1, p2 = p2, p1
        assert error_rate(p2, det) <= error_rate(p1, det) + 1e-15


class TestShannonEntropy:
    def test_limits(self):
        assert shannon_h(0.0) == 0.0
        assert shannon_h(1.0) == 0.0

    def test_maximum(self):
        assert shannon_h(0.5) == 1.0

    def test_small_error(self):
        expected = -0.01 * math.log2(0.01) - 0.99 * math.log2(0.99)
        assert shannon_h(0.01) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0808, abs=1e-4)

    @given(e=st.floats(0.0, 1.0))
    def test_symmetry(self, e):
        assert shannon_h(e) == pytest.approx(shannon_h(1.0 - e), abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            shannon_h(1.5)


class TestCompression:
    def test_no_errors_no_compression(self):
        assert tau_compression(0.0, 0.9) == 0.0

    def test_cap_at_half(self):
        assert tau_compression(0.45, 0.9) == 1.0

    def test_quarter_point(self):
        assert tau_compression(0.225, 0.9) == pytest.approx(math.log2(1.75), abs=1e-15)

    def test_non_positive_rho_returns_cap(self):
        assert tau_compression(0.01, 0.0) == 1.0
        assert tau_compression(0.01, -0.5) == 1.0

    def test_non_decreasing_below_cap(self):
        rho = 0.8
        es = [rho / 2 * i / 50 for i in range(51)]
        values = [tau_compression(e, rho) for e in es]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


class TestErrorCorrectionPolicy:
    def test_constant_default(self):
        assert f_ec(0.3, ConstantF()) == 1.16

    def test_shannon_limit(self):
        assert f_ec(0.05, ConstantF(1.0)) == 1.0

    def test_table_exact_at_knots(self):
        table = TableF(((0.01, 1.1), (0.05, 1.2), (0.1, 1.35)))
        assert f_ec(0.05, table) == 1.2

    def test_table_interpolates_and_clamps(self):
        table = TableF(((0.0, 1.0), (0.1, 1.2)))
        assert f_ec(0.05, table) == pytest.approx(1.1, abs=1e-15)
        assert f_ec(-1.0, table) == 1.0
        assert f_ec(0.5, table) == 1.2

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigurationError):
            TableF(())

    @pytest.mark.parametrize(
        "knots",
        [((0.0, math.nan),), ((0.0, 1.1), (0.1, -1.2)), ((0.0, 0.0),), ((math.inf, 1.1),),
         ((math.nan, 1.1),), ((0.0, math.inf),)],
    )
    def test_non_finite_or_non_positive_knots_rejected(self, knots):
        with pytest.raises(ConfigurationError):
            TableF(knots)

    def test_interpolates_arrays_elementwise(self):
        table = TableF(((0.0, 1.0), (0.1, 1.2)))
        values = f_ec(np.array([-1.0, 0.0, 0.05, 0.1, 0.5]), table)
        assert values == pytest.approx([1.0, 1.0, 1.1, 1.2, 1.2], abs=1e-15)

    def test_unsorted_table_rejected(self):
        with pytest.raises(ConfigurationError):
            TableF(((0.1, 1.2), (0.05, 1.1)))


class TestSecureRate:
    def test_no_signal_no_key(self, kth15_detector):
        breakdown = secure_rate(0.0, 0.0, kth15_detector)
        assert breakdown.e == 0.5
        assert breakdown.h == 1.0
        assert breakdown.R == 0.0
        assert breakdown.R_raw < 0.0

    def test_ideal_single_photon_limit(self):
        det = DetectorModel(dark_prob_Pd=0.0, baseline_error_c=0.0)
        breakdown = secure_rate(0.1, 0.0, det, ConstantF(1.0))
        assert breakdown.rho == 1.0
        assert breakdown.e == 0.0
        assert breakdown.tau == 0.0
        assert breakdown.h == 0.0
        assert breakdown.R == pytest.approx(0.05, abs=1e-15)

    def test_literal_sign_flips_error_term(self, kth15_detector):
        corrected = secure_rate(0.01, 1e-4, kth15_detector)
        literal = secure_rate(0.01, 1e-4, kth15_detector, paper_literal_sign=True)
        cost = corrected.f * corrected.h * corrected.p_s_bar * 0.5
        assert literal.R_raw == pytest.approx(corrected.R_raw + 2.0 * cost, rel=1e-12)

    def test_breakdown_invariants(self, kth15_detector):
        b = secure_rate(0.02, 1e-3, kth15_detector)
        assert b.p_s <= b.p_s_bar <= 1.0
        assert 0.0 <= b.e <= 0.5
        assert b.rho <= 1.0
        assert b.R == max(b.R_raw, 0.0)

    @given(
        p_s=st.floats(0.0, 1.0),
        surplus=st.floats(0.0, 1.0),
        dark=st.floats(0.0, 0.5),
        c=st.floats(0.0, 0.02),
    )
    def test_insecure_whenever_multiphoton_dominates(self, p_s, surplus, dark, c):
        det = DetectorModel(dark_prob_Pd=dark, baseline_error_c=c)
        if p_s == 0.0 and dark == 0.0:
            return
        p_bar = adjusted_signal(p_s, det)
        p_m = min(1.0, p_bar * (1.0 + surplus))
        breakdown = secure_rate(p_s, p_m, det)
        assert breakdown.R == 0.0

    @given(p_s=st.floats(1e-6, 1.0))
    def test_single_photon_continuity_limit(self, p_s):
        # with no noise and perfect coding, R -> p_s / 2 as p_m -> 0
        det = DetectorModel(dark_prob_Pd=0.0, baseline_error_c=0.0)
        breakdown = secure_rate(p_s, 0.0, det, ConstantF(1.0))
        assert breakdown.R == pytest.approx(p_s / 2.0, rel=1e-12)

    def test_degenerate_without_any_events(self):
        det = DetectorModel(dark_prob_Pd=0.0, baseline_error_c=0.0)
        with pytest.raises(DegenerateInputError):
            secure_rate(0.0, 0.0, det)
