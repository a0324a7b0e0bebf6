"""Agreement of the array rate kernel with the scalar closed forms and searches.

The tolerance is fixed in advance: numpy's exp/log2 may differ from libm's in
the last bits, so every field may move by at most 1e-11 relative plus 1e-15
absolute; search results (parameters, brackets, cutoffs) must not move at all.
"""

import dataclasses
import math

import numpy as np
import pytest

from mcs_qkd import (
    ChannelModel,
    ConstantF,
    DetectorModel,
    Protocol,
    RateBreakdown,
    Scenario,
    SourceFamily,
    TableF,
    cutoff_distance,
    make_state,
    mcs_state,
    optimize_param,
    p_multi,
    p_multi_min,
    p_signal,
    rate_at,
    secure_rate,
    sweep_distance,
)
from mcs_qkd.optimizer import _breakdown, _search, _secure_at

REL_TOL = 1e-11
ABS_TOL = 1e-15
FIELDS = [f.name for f in dataclasses.fields(RateBreakdown)]

DISTANCES = np.arange(0.0, 151.0, 10.0)
PARAMS = np.geomspace(1e-5, 4.0, 60)
POLICIES = {
    "const": ConstantF(1.16),
    "table": TableF(((0.0, 1.05), (0.03, 1.1), (0.08, 1.2), (0.2, 1.45), (0.5, 2.0))),
}
KTH15_CUTOFFS_KM = {
    SourceFamily.COHERENT_BB84: 24.1455078125,
    SourceFamily.MCS_BB84: 45.806884765625,
    SourceFamily.MCS_SARG04: 78.0029296875,
}


def scenario(family, distance_km=0.0, f_policy=ConstantF(1.16), literal=False):
    return Scenario(
        source_family=family,
        channel=ChannelModel(0.2, distance_km, 1.0, 0.18),
        detector=DetectorModel(2e-4, 0.01),
        f_policy=f_policy,
        paper_literal_sign=literal,
    )


def scalar_sources(family, eta, param):
    """(p_s, p_m) from the scalar closed forms of photon_source."""
    if family is SourceFamily.COHERENT_BB84:
        state = make_state(math.sqrt(param), 0.0)
        return p_signal(state, eta), p_multi(state, Protocol.BB84)
    state = mcs_state(param, family.protocol)
    return p_signal(state, eta), p_multi_min(param, family.protocol)


def worst_excess(actual: RateBreakdown, expected: RateBreakdown) -> dict[str, float]:
    """Per field, |delta| minus what the tolerance allows (<= 0 means within)."""
    excess = {}
    for name in FIELDS:
        a, b = getattr(actual, name), getattr(expected, name)
        excess[name] = abs(a - b) - (REL_TOL * abs(b) + ABS_TOL)
    return excess


@pytest.mark.parametrize("family", list(SourceFamily))
def test_kernel_matches_scalar_composition(family):
    etas = np.array([ChannelModel(0.2, l, 1.0, 0.18).total_eta() for l in DISTANCES])
    sources = {
        (i, j): scalar_sources(family, float(eta), float(param))
        for i, eta in enumerate(etas)
        for j, param in enumerate(PARAMS)
    }
    checked = 0
    for policy in POLICIES.values():
        for literal in (False, True):
            s = scenario(family, f_policy=policy, literal=literal)
            grid = _breakdown(s, etas[:, None], PARAMS)
            for (i, j), (p_s, p_m) in sources.items():
                expected = secure_rate(p_s, p_m, s.detector, policy, paper_literal_sign=literal)
                excess = worst_excess(grid.at((i, j)), expected)
                bad = {name: value for name, value in excess.items() if value > 0.0}
                assert not bad, (family, DISTANCES[i], PARAMS[j], policy, literal, bad)
                checked += 1
    assert checked == len(DISTANCES) * len(PARAMS) * len(POLICIES) * 2


def test_rate_at_array_matches_scalar_calls():
    s = scenario(SourceFamily.MCS_SARG04, 12.0, POLICIES["table"])
    params = np.array([[0.0, 0.01], [0.3, 2.5]])
    batch = rate_at(s, params)
    assert batch.R.shape == params.shape
    for index in np.ndindex(params.shape):
        excess = worst_excess(batch.at(index), rate_at(s, float(params[index])))
        assert max(excess.values()) <= 0.0


def test_vacuum_without_dark_counts_is_marked_not_raised():
    silent = dataclasses.replace(
        scenario(SourceFamily.MCS_BB84), detector=DetectorModel(0.0, 0.01)
    )
    b = rate_at(silent, np.array([0.0, 0.2]))
    assert b.p_s_bar[0] == 0.0 and math.isnan(b.e[0]) and b.R[0] == 0.0
    assert b.p_s_bar[1] > 0.0 and math.isfinite(b.R_raw[1])


def scalar_search(s, param_max, grid_points, rtol=1e-5):
    """One-distance search as a scalar loop: best grid cell, then golden section."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def rate(param):
        return rate_at(s, param).R

    grid = [float(p) for p in np.geomspace(1e-5, param_max, grid_points)]
    rates = [rate(p) for p in grid]
    best_i = max(range(len(grid)), key=rates.__getitem__)
    if rates[best_i] <= 0.0:
        return None
    lo = grid[max(best_i - 1, 0)]
    hi = grid[min(best_i + 1, len(grid) - 1)]
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = rate(c), rate(d)
    while hi - lo > rtol * 0.5 * (lo + hi):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = rate(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = rate(d)
    return max((0.5 * (lo + hi), grid[best_i]), key=rate), (lo, hi)


# param_max inside the range of optima puts the best cell of the nearer
# distances on the grid edge, whose narrower bracket converges earlier
EDGE_PARAM_MAX = {
    SourceFamily.COHERENT_BB84: 0.1,
    SourceFamily.MCS_BB84: 0.2,
    SourceFamily.MCS_SARG04: 0.3,
}


@pytest.mark.parametrize("edge", [False, True])
@pytest.mark.parametrize("family", list(SourceFamily))
def test_lockstep_refinement_takes_the_scalar_steps(family, edge):
    distances = [0.0, 10.0, 20.0, 24.0, 40.0, 45.5, 70.0, 77.9, 90.0]
    search = {"param_max": EDGE_PARAM_MAX[family] if edge else 4.0, "grid_points": 120}
    sweep = sweep_distance(scenario(family), distances, **search)
    for distance, point in sweep.points:
        expected = scalar_search(scenario(family, distance), **search)
        if expected is None:
            assert point is None, distance
        else:
            assert (point.param_value, point.bracket) == expected, distance


@pytest.mark.parametrize("family", list(SourceFamily))
def test_batched_sweep_equals_per_distance_search(family):
    distances = [float(l) for l in range(101)]
    s = scenario(family)
    sweep = sweep_distance(s, distances)
    assert [l for l, _ in sweep.points] == distances
    secure = 0
    for distance, point in sweep.points:
        single = optimize_param(s.at_distance(distance))
        assert (point is None) == (single is None), distance
        if point is None:
            continue
        secure += 1
        assert point.param_value == single.param_value, distance
        assert point.bracket == single.bracket, distance
        assert max(worst_excess(point.breakdown, single.breakdown).values()) <= 0.0
    assert 0 < secure < len(distances)


@pytest.mark.parametrize("family", list(SourceFamily))
def test_grid_only_cutoff_predicate_agrees_with_the_optimum(family):
    s = scenario(family)
    grid, _ = _search()

    def secure_by_optimum(distance):
        point = optimize_param(s.at_distance(distance))
        return point is not None and point.breakdown.R_raw > 0.0

    probes = [0.0, 100.0]
    lo, hi = 0.0, 100.0
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        probes.append(mid)
        if secure_by_optimum(mid):
            lo = mid
        else:
            hi = mid
    for distance in probes:
        assert _secure_at(s, distance, grid) == secure_by_optimum(distance), distance
    assert cutoff_distance(s, 100.0) == lo == KTH15_CUTOFFS_KM[family]
