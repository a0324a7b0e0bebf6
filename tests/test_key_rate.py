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
    KTH15_CHANNEL,
    KTH15_DETECTOR,
    SourceFamily,
    TableF,
    f_ec,
    secure_rate,
)
from mcs_qkd.key_rate import rate_formula
from reference import KTH15, bits_equal, scenario


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


def test_the_package_the_benchmark_and_the_tests_hold_one_kth15_set():
    # the one place in the tests that types the KTH15 numbers; every other test reads them
    assert KTH15_CHANNEL == ChannelModel(0.2, 5.0, 1.0, 0.18)
    assert KTH15_DETECTOR == DetectorModel(2e-4, 0.01)
    assert KTH15 == {"loss_coeff_a": KTH15_CHANNEL.loss_coeff_a,
                     "detector_eff": KTH15_CHANNEL.detector_eff,
                     "dark_prob_Pd": KTH15_DETECTOR.dark_prob_Pd,
                     "baseline_error_c": KTH15_DETECTOR.baseline_error_c}
    kth15 = scenario(SourceFamily.COHERENT_BB84, KTH15_CHANNEL.distance_l)
    assert (kth15.channel, kth15.detector) == (KTH15_CHANNEL, KTH15_DETECTOR)


class TestDetectorModel:
    def test_rejects_dark_prob_of_one(self):
        with pytest.raises(DomainError):
            DetectorModel(dark_prob_Pd=1.0, baseline_error_c=0.01)

    def test_rejects_baseline_above_two_percent(self):
        with pytest.raises(DomainError):
            DetectorModel(dark_prob_Pd=1e-4, baseline_error_c=0.03)


class TestAdjustedSignal:
    def test_dark_only(self, kth15_detector):
        assert secure_rate(0.0, 0.0, kth15_detector).p_s_bar == 2e-4

    def test_saturated(self, kth15_detector):
        assert secure_rate(1.0, 0.0, kth15_detector).p_s_bar == 1.0

    def test_union_of_independent_events(self, kth15_detector):
        p_s_bar = secure_rate(0.01, 0.0, kth15_detector).p_s_bar
        assert p_s_bar == pytest.approx(0.010198, abs=1e-15)


class TestErrorRate:
    def test_all_dark_counts_are_random(self, kth15_detector):
        assert secure_rate(0.0, 0.0, kth15_detector).e == 0.5

    def test_signal_dominated_limit(self, kth15_detector):
        assert secure_rate(1.0, 0.0, kth15_detector).e == pytest.approx(0.0101, abs=1e-15)
        # without dark counts every event is signal, and e is the baseline c
        assert secure_rate(0.5, 0.0, DetectorModel(0.0, 0.01)).e == 0.01

    def test_mixed_case(self, kth15_detector):
        expected = (0.01 * 0.01 + 1e-4) / 0.010198
        assert secure_rate(0.01, 0.0, kth15_detector).e == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0196, abs=1e-4)

    @given(p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
    def test_non_increasing_in_signal(self, p1, p2):
        det = KTH15_DETECTOR
        if p2 < p1:
            p1, p2 = p2, p1
        assert secure_rate(p2, 0.0, det).e <= secure_rate(p1, 0.0, det).e + 1e-15


class TestShannonEntropy:
    def test_limits(self):
        # rate_formula clamps e to [0, 1/2], so h(0) is the one limit a rate reaches
        assert secure_rate(0.5, 0.0, DetectorModel(0.0, 0.0)).h == 0.0

    def test_maximum(self, kth15_detector):
        assert secure_rate(0.0, 0.0, kth15_detector).h == 1.0

    def test_small_error(self):
        expected = -0.01 * math.log2(0.01) - 0.99 * math.log2(0.99)
        breakdown = secure_rate(0.5, 0.0, DetectorModel(0.0, 0.01))
        assert breakdown.h == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0808, abs=1e-4)


class TestCompression:
    # without dark counts, p_s = 0.5 and c = 2**-6 give e = 2**-6, and p_m sets
    # rho = 1 - 2 * p_m; every value below is exact in binary
    BINARY_C = DetectorModel(0.0, 2.0**-6)

    def test_no_errors_no_compression(self):
        assert secure_rate(0.5, 0.05, DetectorModel(0.0, 0.0)).tau == 0.0

    def test_cap_at_half(self):
        breakdown = secure_rate(0.5, 0.484375, self.BINARY_C)
        assert breakdown.e / breakdown.rho == 0.5
        assert breakdown.tau == 1.0

    def test_quarter_point(self):
        breakdown = secure_rate(0.5, 0.46875, self.BINARY_C)
        assert breakdown.e / breakdown.rho == 0.25
        assert breakdown.tau == pytest.approx(math.log2(1.75), abs=1e-15)

    def test_non_positive_rho_returns_cap(self):
        assert secure_rate(0.5, 0.5, self.BINARY_C).tau == 1.0
        assert secure_rate(0.5, 0.75, self.BINARY_C).tau == 1.0

    def test_non_decreasing_below_cap(self):
        # p_m = 0.48 holds rho near 0.04 while c, and with it e, runs up to rho / 2
        pieces = [secure_rate(0.5, 0.48, DetectorModel(0.0, 0.02 * i / 50)) for i in range(51)]
        assert len({b.rho for b in pieces}) == 1
        taus = [b.tau for b in pieces]
        assert taus[-1] == 1.0 and all(b >= a - 1e-15 for a, b in zip(taus, taus[1:]))


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
        p_bar = secure_rate(p_s, 0.0, det).p_s_bar
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

    def test_rho_saturates_where_pm_over_ps_bar_leaves_the_float_range(self):
        # Pm / Ps_bar = 2e323: rho is the most negative float, not -inf, and no warning
        det = DetectorModel(dark_prob_Pd=5e-324, baseline_error_c=0.01)
        breakdown = secure_rate(0.0, 0.1, det)
        assert breakdown.rho == -np.finfo(float).max
        assert breakdown.tau == 1.0 and breakdown.R == 0.0


def two_branch_r_raw(b, paper_literal_sign):
    """R_raw of breakdown ``b`` by the two-branch ``np.where`` form, both branches everywhere."""
    sign = 1.0 if paper_literal_sign else -1.0
    p_bar, rho, tau, f, h = b.p_s_bar, b.rho, b.tau, b.f, b.h
    with np.errstate(all="ignore"):
        return np.where(
            rho > 0.0, 0.5 * p_bar * (rho * (1.0 - tau) + sign * f * h), -0.5 * p_bar * f * h
        )


#: 0, the least subnormal (Pm / Ps_bar overflows without dark counts), and up to 1:
#: every pair with Pm above Ps_bar has rho <= 0, and Ps = 0 without dark counts no events
CELL_VALUES = [0.0, 5e-324, 1e-300, 1e-6, 0.01, 0.3, 1.0]


@pytest.mark.parametrize("form", ["array", "0-d", "float"])
@pytest.mark.parametrize("literal", [False, True], ids=["corrected", "literal"])
@pytest.mark.parametrize("policy", [ConstantF(1.16), TableF(((0.0, 1.05), (0.1, 1.3)))],
                         ids=["const", "table"])
@pytest.mark.parametrize("dark", [0.0, KTH15["dark_prob_Pd"]])
def test_one_branch_r_raw_equals_the_two_branch_form(dark, policy, literal, form):
    det = DetectorModel(dark_prob_Pd=dark, baseline_error_c=KTH15["baseline_error_c"])
    p_s, p_m = np.meshgrid(CELL_VALUES, CELL_VALUES)
    if form == "array":
        calls = [(p_s, p_m)]
    else:
        make = np.asarray if form == "0-d" else float
        calls = [(make(ps), make(pm)) for ps, pm in zip(p_s.ravel(), p_m.ravel())]
    seen = set()
    for ps, pm in calls:
        b = rate_formula(ps, pm, det, policy, paper_literal_sign=literal)
        want = two_branch_r_raw(b, literal)
        assert bits_equal(b.R_raw, want), (ps, pm)
        assert bits_equal(b.R, np.where(want > 0.0, want, 0.0)), (ps, pm)
        assert np.shape(b.R_raw) == np.shape(ps)
        rho = np.ravel(b.rho)
        seen |= {"rho <= 0"} if (rho <= 0.0).any() else set()
        seen |= {"rho > 0"} if (rho > 0.0).any() else set()
        seen |= {"no events"} if np.isnan(b.R_raw).any() else set()
        seen |= {"overflow"} if (rho == -np.finfo(float).max).any() else set()
    assert seen == {"rho <= 0", "rho > 0", "no events", "overflow"} - (
        {"no events", "overflow"} if dark else set())
