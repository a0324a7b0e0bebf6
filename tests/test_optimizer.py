import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcs_qkd import (
    ConstantF,
    DegenerateInputError,
    DetectorModel,
    DomainError,
    Scenario,
    SourceFamily,
    TableF,
    cutoff_distance,
    optimize_param,
    rate_at,
    sweep_distance,
)
from mcs_qkd import optimizer
from reference import BOX, KTH15, TABLE, scenario

FAST_SEARCH = {"grid_points": 80}


class TestRateAt:
    @pytest.mark.parametrize("family", list(SourceFamily))
    def test_vacuum_source_has_zero_rate(self, family, kth15_scenario):
        assert rate_at(kth15_scenario(family), 0.0).R == 0.0

    def test_rejects_negative_param(self, kth15_scenario):
        with pytest.raises(DomainError):
            rate_at(kth15_scenario(SourceFamily.MCS_BB84), -0.1)

    def test_array_error_names_the_first_bad_value_on_one_line(self, kth15_scenario):
        params = np.linspace(0.0, 1.0, 50)
        params[[7, 20]] = -0.5, np.nan
        with pytest.raises(DomainError) as err:
            rate_at(kth15_scenario(SourceFamily.MCS_BB84), params)
        assert str(err.value) == "param must be finite and >= 0, got -0.5"

    @pytest.mark.parametrize("family", list(SourceFamily))
    def test_parameter_bound_is_100(self, family, kth15_scenario):
        scenario = kth15_scenario(family)
        assert rate_at(scenario, 100.0).R == 0.0
        with pytest.raises(DomainError, match="param must be <= 100, got 1e\\+154"):
            rate_at(scenario, np.array([0.1, 1e154]))

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
        with pytest.raises(DomainError, match="param_max <= 100"):
            optimize_param(scenario, param_max=100.5)

    def test_rejects_grid_above_bound(self, kth15_scenario):
        with pytest.raises(DomainError, match="grid_points must be <= 100000"):
            optimize_param(kth15_scenario(SourceFamily.MCS_BB84), grid_points=100_001)

    def test_tiny_rtol_ends_no_worse_than_the_default(self):
        # no Newton step is below rtol / 10 = 1e-301: each search ends where its next
        # param would round to its last or at d1 == 0.  With an f(e) table the section
        # search's bracket ends at adjacent floats
        for f_policy in (ConstantF(1.16), TABLE):
            for family in SourceFamily:
                s = scenario(family, 5.0, f_policy)
                tight = optimize_param(s, rtol=1e-300, **FAST_SEARCH)
                assert tight.breakdown.R >= optimize_param(s, **FAST_SEARCH).breakdown.R
                if f_policy is TABLE:
                    lo, hi = tight.bracket
                    assert np.nextafter(lo, np.inf) >= hi


class TestOptimaAreEvaluatedPoints:
    """Each optimum is a point the search evaluated: ``rate_at`` at its parameter gives
    its breakdown again, field for field and bit for bit."""

    @staticmethod
    def assert_evaluated(scenario, param, breakdown):
        again = rate_at(scenario, param)
        for field in dataclasses.fields(again):
            value, expected = getattr(breakdown, field.name), getattr(again, field.name)
            assert float(value).hex() == expected.hex(), (scenario, param, field.name)

    @pytest.mark.parametrize("paper_literal_sign", [False, True])
    @pytest.mark.parametrize("f_policy", [ConstantF(1.16), TableF([(0.0, 1.05), (0.1, 1.3)])])
    @pytest.mark.parametrize("dark_prob_Pd, distances", [
        (KTH15["dark_prob_Pd"], [2.5 * k for k in range(41)]),
        # without dark counts the rows from about 350 km on are faint (optimizer._FAINT)
        (0.0, [50.0 * k for k in range(13)]),
    ])
    def test_optimize_param_and_every_sweep_row(self, dark_prob_Pd, distances, f_policy,
                                                paper_literal_sign, kth15_channel):
        detector = DetectorModel(dark_prob_Pd, KTH15["baseline_error_c"])
        scenarios = [Scenario(family, kth15_channel, detector, f_policy, paper_literal_sign)
                     for family in SourceFamily]
        sweeps = sweep_distance(scenarios, distances, **FAST_SEARCH)
        assert sum(len(sweep.index) for sweep in sweeps) >= 3 * 8
        for s, sweep in zip(scenarios, sweeps):
            for k, (i, param) in enumerate(zip(sweep.index.tolist(), sweep.param_value.tolist())):
                at = s.at_distance(distances[i])
                self.assert_evaluated(at, param, sweep.breakdown.at(k))
                point = optimize_param(at, **FAST_SEARCH)
                assert point.param_value == param
                self.assert_evaluated(at, param, point.breakdown)
        if not dark_prob_Pd:  # a faint secure row
            eta = kth15_channel.eta_at(distances[sweeps[2].index[-1]])
            assert eta * 1e-5 < 1e-12


class TestSweepDistance:
    def test_empty_grid(self, kth15_scenario):
        sweep = sweep_distance([kth15_scenario(SourceFamily.MCS_BB84)], [])[0]
        assert sweep.index.tolist() == sweep.param_value.tolist() == []
        assert sweep.breakdown.R.tolist() == []
        assert sweep.cutoff_l is None

    def test_rejects_unsorted_grid(self, kth15_scenario):
        with pytest.raises(DomainError):
            sweep_distance([kth15_scenario(SourceFamily.MCS_BB84)], [5.0, 1.0])

    def test_monotone_rates_and_no_cutoff_when_secure(self, kth15_scenario):
        sweep = sweep_distance(
            [kth15_scenario(SourceFamily.MCS_SARG04)], [0.0, 10.0, 20.0], **FAST_SEARCH
        )[0]
        assert sweep.index.tolist() == [0, 1, 2]
        rates = sweep.breakdown.R.tolist()
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
        assert sweep.cutoff_l is None

    @pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_cutoff_resolution(self, kth15_scenario, resolution):
        with pytest.raises(DomainError, match="cutoff resolution"):
            sweep_distance(
                [kth15_scenario(SourceFamily.COHERENT_BB84)], [0.0, 40.0],
                cutoff_resolution_km=resolution, **FAST_SEARCH,
            )

    def test_records_cutoff_when_sweep_ends_insecure(self, kth15_scenario):
        sweep = sweep_distance(
            [kth15_scenario(SourceFamily.COHERENT_BB84)], [0.0, 20.0, 40.0], **FAST_SEARCH
        )[0]
        assert 2 not in sweep.index.tolist()
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


def evaluated_maxima(search):
    """``search()``'s result, and the largest ``R_raw`` (nan lowest) that its kernel calls
    evaluated for each (``optimizer._FAMILIES`` index, total efficiency)."""
    maxima, kernel = {}, optimizer._breakdown

    def recorded(s, eta, param, families=None):
        rates = kernel(s, eta, param, families)
        raw = np.where(np.isnan(rates.R_raw), -np.inf, rates.R_raw)
        etas = np.broadcast_to(eta, raw.shape)[:, 0]
        for key, top in zip(zip(np.asarray(families).tolist(), etas.tolist()),
                            raw.max(axis=1).tolist()):
            maxima[key] = max(maxima.get(key, -math.inf), top)
        return rates

    optimizer._breakdown = recorded
    try:
        return search(), maxima
    finally:
        optimizer._breakdown = kernel


#: The dark counts of the channel (None) or none (0.0), and distances out past its cutoffs.
REACH = st.one_of(
    st.tuples(st.none(), st.lists(st.floats(0.0, 110.0), min_size=1, max_size=6)),
    st.tuples(st.just(0.0), st.lists(st.floats(0.0, 800.0), min_size=1, max_size=6)))
KTH15_KM = [float(l) for l in range(101)]


@settings(max_examples=20, deadline=None)
@given(channel=st.fixed_dictionaries({key: st.floats(*bounds) for key, bounds in BOX.items()}),
       family=st.sampled_from(list(SourceFamily)), table=st.booleans(), literal=st.booleans(),
       reach=REACH, sweep=st.booleans())
# KTH15 rows whose section steps ended below a point they had evaluated
@example(channel=KTH15, family=SourceFamily.MCS_SARG04, table=False, literal=True,
         reach=(None, KTH15_KM), sweep=True)
@example(channel=KTH15, family=SourceFamily.MCS_SARG04, table=True, literal=False,
         reach=(None, KTH15_KM), sweep=True)
@example(channel=KTH15, family=SourceFamily.MCS_BB84, table=False, literal=False,
         reach=(0.0, [4.0 * k for k in range(501)]), sweep=True)
def test_each_optimum_is_the_best_point_its_search_evaluated(channel, family, table, literal,
                                                             reach, sweep):
    dark, distances = reach
    if dark is not None:
        channel = {**channel, "dark_prob_Pd": dark}
    s = scenario(family, 0.0, TABLE if table else ConstantF(1.16), literal, **channel)
    code, distances = optimizer._FAMILIES.index(family), sorted(distances)
    if sweep:
        found, maxima = evaluated_maxima(lambda: sweep_distance([s], distances)[0])
        optima = [(maxima, eta, raw) for eta, raw in zip(found.eta.tolist(),
                                                          found.breakdown.R_raw.tolist())]
    else:
        optima = []
        for distance in distances:
            at = s.at_distance(distance)
            point, maxima = evaluated_maxima(lambda: optimize_param(at))
            if point is not None:
                optima.append((maxima, at.channel.total_eta(), point.breakdown.R_raw))
    for maxima, eta, raw in optima:
        assert raw == maxima[code, eta], (eta, raw - maxima[code, eta])
