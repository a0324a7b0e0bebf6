import numpy as np
import pytest

from mcs_qkd import (
    DegenerateInputError,
    DetectorModel,
    DomainError,
    Scenario,
    SourceFamily,
    cutoff_distance,
    optimize_param,
    rate_at,
    sweep_distance,
)

FAST_SEARCH = {"grid_points": 80}


class TestRateAt:
    @pytest.mark.parametrize("family", list(SourceFamily))
    def test_vacuum_source_has_zero_rate(self, family, kth15_scenario):
        assert rate_at(kth15_scenario(family), 0.0).R == 0.0

    def test_rejects_negative_param(self, kth15_scenario):
        with pytest.raises(DomainError):
            rate_at(kth15_scenario(SourceFamily.MCS_BB84), -0.1)

    def test_interior_maximum_exists_for_coherent(self, kth15_scenario):
        scenario = kth15_scenario(SourceFamily.COHERENT_BB84, 5.0)
        params = [i / 100 for i in range(1, 101)]
        rates = [rate_at(scenario, p).R for p in params]
        best = max(range(len(params)), key=rates.__getitem__)
        assert 0 < best < len(params) - 1
        assert rates[best] > 0.0

    def test_coherent_multiphoton_independent_of_channel(self, kth15_scenario):
        near = rate_at(kth15_scenario(SourceFamily.COHERENT_BB84, 0.0), 0.1)
        far = rate_at(kth15_scenario(SourceFamily.COHERENT_BB84, 20.0), 0.1)
        assert near.p_m == far.p_m
        assert near.p_s > far.p_s


class TestOptimizeParam:
    def test_coherent_optimum_at_5km(self, kth15_scenario):
        point = optimize_param(kth15_scenario(SourceFamily.COHERENT_BB84, 5.0))
        assert point is not None
        assert 0.0 < point.param_value < 1.0
        assert point.breakdown.R > 0.0

    def test_tuned_source_beats_coherent(self, kth15_scenario):
        coherent = optimize_param(kth15_scenario(SourceFamily.COHERENT_BB84, 5.0))
        tuned = optimize_param(kth15_scenario(SourceFamily.MCS_BB84, 5.0))
        assert tuned.breakdown.R > coherent.breakdown.R

    @pytest.mark.parametrize("distance", [0.0, 5.0, 15.0])
    def test_family_ordering_at_secure_distances(self, distance, kth15_scenario):
        rates = {
            family: optimize_param(kth15_scenario(family, distance), **FAST_SEARCH).breakdown.R
            for family in SourceFamily
        }
        assert (
            rates[SourceFamily.MCS_SARG04]
            >= rates[SourceFamily.MCS_BB84]
            >= rates[SourceFamily.COHERENT_BB84]
            > 0.0
        )

    def test_no_secure_operation_far_beyond_cutoff(self, kth15_scenario):
        assert optimize_param(kth15_scenario(SourceFamily.MCS_BB84, 500.0)) is None

    def test_refinement_never_below_coarse_grid(self, kth15_scenario):
        scenario = kth15_scenario(SourceFamily.MCS_SARG04, 5.0)
        point = optimize_param(scenario, grid_points=50)
        grid_best = max(
            rate_at(scenario, float(p)).R for p in np.geomspace(1e-5, 4.0, 50)
        )
        assert point.breakdown.R >= grid_best

    def test_optimum_dominates_bracket_ends(self, kth15_scenario):
        scenario = kth15_scenario(SourceFamily.MCS_BB84, 5.0)
        point = optimize_param(scenario)
        lo, hi = point.bracket
        tolerance = 1e-9 * point.breakdown.R
        assert point.breakdown.R >= rate_at(scenario, lo).R - tolerance
        assert point.breakdown.R >= rate_at(scenario, hi).R - tolerance

    def test_rejects_bad_search_settings(self, kth15_scenario):
        scenario = kth15_scenario(SourceFamily.MCS_BB84)
        with pytest.raises(DomainError):
            optimize_param(scenario, param_min=0.0)
        with pytest.raises(DomainError):
            optimize_param(scenario, grid_points=1)
        with pytest.raises(DomainError):
            optimize_param(scenario, rtol=0.0)
        with pytest.raises(DomainError):
            optimize_param(scenario, param_max=float("inf"))

    def test_rejects_grid_above_bound(self, kth15_scenario):
        with pytest.raises(DomainError, match="grid_points must be <= 100000"):
            optimize_param(kth15_scenario(SourceFamily.MCS_BB84), grid_points=100_001)

    def test_tiny_rtol_stops_at_adjacent_floats(self, kth15_scenario):
        scenario = kth15_scenario(SourceFamily.COHERENT_BB84)
        tight = optimize_param(scenario, rtol=1e-300, **FAST_SEARCH)
        lo, hi = tight.bracket
        assert np.nextafter(lo, np.inf) >= hi
        assert tight.breakdown.R >= optimize_param(scenario, **FAST_SEARCH).breakdown.R


class TestSweepDistance:
    def test_empty_grid(self, kth15_scenario):
        sweep = sweep_distance(kth15_scenario(SourceFamily.MCS_BB84), [])
        assert sweep.points == ()
        assert sweep.cutoff_l is None

    def test_rejects_unsorted_grid(self, kth15_scenario):
        with pytest.raises(DomainError):
            sweep_distance(kth15_scenario(SourceFamily.MCS_BB84), [5.0, 1.0])

    def test_monotone_rates_and_no_cutoff_when_secure(self, kth15_scenario):
        sweep = sweep_distance(
            kth15_scenario(SourceFamily.MCS_SARG04), [0.0, 10.0, 20.0], **FAST_SEARCH
        )
        rates = [point.breakdown.R for _, point in sweep.points]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
        assert sweep.cutoff_l is None

    @pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_cutoff_resolution(self, kth15_scenario, resolution):
        with pytest.raises(DomainError, match="cutoff resolution"):
            sweep_distance(
                kth15_scenario(SourceFamily.COHERENT_BB84), [0.0, 40.0],
                cutoff_resolution_km=resolution, **FAST_SEARCH,
            )

    def test_records_cutoff_when_sweep_ends_insecure(self, kth15_scenario):
        sweep = sweep_distance(
            kth15_scenario(SourceFamily.COHERENT_BB84), [0.0, 20.0, 40.0], **FAST_SEARCH
        )
        assert sweep.points[-1][1] is None
        assert sweep.cutoff_l is not None
        assert 20.0 < sweep.cutoff_l < 40.0


class TestCutoffDistance:
    def test_pure_loss_never_cuts_off(self, kth15_channel):
        noiseless = DetectorModel(dark_prob_Pd=0.0, baseline_error_c=0.0)
        scenario = Scenario(
            source_family=SourceFamily.COHERENT_BB84,
            channel=kth15_channel,
            detector=noiseless,
        )
        assert cutoff_distance(scenario, 60.0, **FAST_SEARCH) == 60.0

    def test_bisection_brackets_the_sign_change(self, kth15_scenario):
        scenario = kth15_scenario(SourceFamily.COHERENT_BB84)
        cutoff = cutoff_distance(scenario, 40.0, **FAST_SEARCH)
        assert 0.0 < cutoff < 40.0
        before = optimize_param(scenario.at_distance(cutoff - 0.01), **FAST_SEARCH)
        assert before is not None and before.breakdown.R_raw > 0.0
        after = optimize_param(scenario.at_distance(cutoff + 0.01), **FAST_SEARCH)
        assert after is None or after.breakdown.R_raw <= 0.0

    def test_insecure_at_origin_is_degenerate(self, kth15_channel):
        # a detector this noisy cannot distil key even back-to-back
        noisy = DetectorModel(dark_prob_Pd=0.9, baseline_error_c=0.02)
        scenario = Scenario(
            source_family=SourceFamily.MCS_BB84,
            channel=kth15_channel,
            detector=noisy,
        )
        with pytest.raises(DegenerateInputError):
            cutoff_distance(scenario, 10.0, **FAST_SEARCH)

    def test_rejects_non_positive_range(self, kth15_scenario):
        with pytest.raises(DomainError):
            cutoff_distance(kth15_scenario(SourceFamily.MCS_BB84), 0.0)

    @pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_resolution(self, kth15_scenario, resolution):
        with pytest.raises(DomainError, match="cutoff resolution"):
            cutoff_distance(
                kth15_scenario(SourceFamily.COHERENT_BB84), 40.0,
                resolution_km=resolution, **FAST_SEARCH,
            )

    def test_tiny_resolution_stops_at_adjacent_floats(self, kth15_scenario):
        scenario = kth15_scenario(SourceFamily.COHERENT_BB84)
        cutoff = cutoff_distance(scenario, 40.0, resolution_km=1e-300, **FAST_SEARCH)
        assert cutoff_distance(scenario, 40.0, **FAST_SEARCH) <= cutoff
        assert optimize_param(scenario.at_distance(cutoff), **FAST_SEARCH) is not None
        after = optimize_param(scenario.at_distance(np.nextafter(cutoff, np.inf)), **FAST_SEARCH)
        assert after is None
