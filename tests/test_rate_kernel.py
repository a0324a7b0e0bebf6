"""Agreement of the array rate kernel with the scalar closed forms and searches.

The tolerance is fixed in advance: numpy's exp/log2 may differ from libm's in
the last bits, so every field may move by at most 1e-11 relative plus 1e-15
absolute; search results (parameters, brackets, cutoffs) must not move at all.
"""

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcs_qkd import (
    ConstantF,
    Protocol,
    RateBreakdown,
    SourceFamily,
    TableF,
    cutoff_distance,
    make_state,
    mcs_state,
    optimize_param,
    p_multi,
    p_multi_min,
    p_signal,
    p_signal_mcs,
    rate_at,
    secure_rate,
    sweep_distance,
)
from mcs_qkd.optimizer import (_BLOCK_CELLS, _FAINT, _FAMILIES, _ROUGH, _SAMPLES, _STENCIL,
                               _breakdown, _peak, _search, _secure_at, _slopes)
from reference import BOX, TABLE, bits_equal, scenario

REL_TOL = 1e-11
ABS_TOL = 1e-15
FIELDS = [f.name for f in dataclasses.fields(RateBreakdown)]

DISTANCES = np.arange(0.0, 151.0, 10.0)
PARAMS = np.geomspace(1e-5, 4.0, 60)
POLICIES = {
    "const": ConstantF(1.16),
    "table": TABLE,
}
KTH15_CUTOFFS_KM = {
    SourceFamily.COHERENT_BB84: 24.14,
    SourceFamily.MCS_BB84: 45.800000000000004,
    SourceFamily.MCS_SARG04: 78.0,
}


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
    etas = np.array([scenario(family, l).channel.total_eta() for l in DISTANCES])
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


@pytest.mark.parametrize("family", [SourceFamily.MCS_BB84, SourceFamily.MCS_SARG04])
def test_kernel_evaluates_the_checked_closed_forms_exactly(family):
    # the oracles check p_multi_min and p_signal_mcs; the figures use the kernel
    protocol = family.protocol
    mismatches = []
    for distance in DISTANCES:
        s = scenario(family, float(distance))
        eta = s.channel.total_eta()
        b = rate_at(s, PARAMS)
        for nu, p_m, p_s in zip(PARAMS.tolist(), b.p_m.tolist(), b.p_s.tolist()):
            if (p_m, p_s) != (p_multi_min(nu, protocol), p_signal_mcs(nu, eta, protocol)):
                mismatches.append((float(distance), nu))
    assert not mismatches


def test_rate_at_array_matches_scalar_calls():
    s = scenario(SourceFamily.MCS_SARG04, 12.0, POLICIES["table"])
    params = np.array([[0.0, 0.01], [0.3, 2.5]])
    batch = rate_at(s, params)
    assert batch.R.shape == params.shape
    for index in np.ndindex(params.shape):
        excess = worst_excess(batch.at(index), rate_at(s, float(params[index])))
        assert max(excess.values()) <= 0.0


def test_vacuum_without_dark_counts_is_marked_not_raised():
    silent = scenario(SourceFamily.MCS_BB84, dark_prob_Pd=0.0)
    b = rate_at(silent, np.array([0.0, 0.2]))
    assert b.p_s_bar[0] == 0.0 and math.isnan(b.e[0]) and b.R[0] == 0.0
    assert b.p_s_bar[1] > 0.0 and math.isfinite(b.R_raw[1])


#: Family codes of 1-40 rows: runs of 1-8 rows (one row each alternates) of drawn families.
ROW_FAMILIES = st.lists(st.tuples(st.sampled_from(range(len(_FAMILIES))), st.integers(1, 8)),
                        min_size=1, max_size=12
                        ).map(lambda runs: [c for c, n in runs for _ in range(n)][:40])
PARAMS_DRAWN = st.floats(1e-5, 4.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), codes=ROW_FAMILIES, per_row=st.booleans(),
       channel=st.fixed_dictionaries({key: st.floats(*bounds) for key, bounds in BOX.items()}),
       policy=st.sampled_from(list(POLICIES.values())), literal=st.booleans())
def test_mixed_family_call_equals_one_family_calls(data, codes, per_row, channel, policy,
                                                   literal):
    # each row of a call whose families come in any order, bit for bit as that row alone
    s = scenario(SourceFamily.COHERENT_BB84, 0.0, policy, literal, **channel)
    rows, cells = len(codes), data.draw(st.integers(1, 12))
    etas = np.array([s.channel.eta_at(l) for l in data.draw(
        st.lists(st.floats(0.0, 150.0), min_size=rows, max_size=rows))])[:, None]
    shape = (rows, cells) if per_row else (cells,)
    param = np.array(data.draw(st.lists(PARAMS_DRAWN, min_size=math.prod(shape),
                                        max_size=math.prod(shape)))).reshape(shape)
    mixed = _breakdown(s, etas, param, np.array(codes, dtype=np.intp))
    for name in FIELDS:
        assert getattr(mixed, name).shape == (rows, cells)
    for row, code in enumerate(codes):
        alone = _breakdown(dataclasses.replace(s, source_family=_FAMILIES[code]),
                           etas[row:row + 1], param[row:row + 1] if per_row else param)
        for name in FIELDS:
            assert bits_equal(getattr(mixed, name)[row], getattr(alone, name)[0]), (row, name)


def scalar_search(s, param_max=4.0, grid_points=200, rtol=1e-5, param_min=1e-5):
    """One-distance search as a scalar loop: the best grid cell, then the steps of its row.

    Rows with a ``TableF``, under the paper-literal sign and rows whose detection
    probability at the best cell is below ``_ROUGH`` take ``scalar_section_steps``, the
    others ``scalar_newton_steps``.  Returns the optimum's param and the final bracket, or
    None where no grid point is secure.
    """
    grid = [float(p) for p in np.geomspace(param_min, param_max, grid_points)]
    rates = [rate_at(s, p).R for p in grid]
    best_i = max(range(len(grid)), key=rates.__getitem__)
    if rates[best_i] <= 0.0:
        return None
    rough = s.channel.total_eta() * grid[best_i] + s.detector.dark_prob_Pd < _ROUGH
    section = isinstance(s.f_policy, TableF) or s.paper_literal_sign or rough
    steps = scalar_section_steps if section else scalar_newton_steps
    return steps(s, grid, best_i, rtol)


def scalar_section_steps(s, grid, best_i, rtol):
    """16-probe section steps from the grid cell ``best_i`` and its neighbours, one at least.

    Each step keeps the two cells around its first probe with the largest ``R_raw`` (nan
    lowest), and the row steps on while that bracket is wider than ``rtol`` relative and
    narrower than the last.  The optimum is the best grid point, then each step's best
    probe where its ``R_raw`` is strictly larger.
    """

    def rank(param):
        r_raw = rate_at(s, param).R_raw
        return -math.inf if math.isnan(r_raw) else r_raw

    lo = grid[max(best_i - 1, 0)]
    hi = grid[min(best_i + 1, len(grid) - 1)]
    optimum, best = grid[best_i], rank(grid[best_i])
    while True:
        cells = [lo, *(lo + (hi - lo) * j / 17 for j in range(1, 17)), hi]
        j = max(range(1, 17), key=lambda j: rank(cells[j]))
        if rank(cells[j]) > best:
            optimum, best = cells[j], rank(cells[j])
        width, lo, hi = hi - lo, cells[j - 1], cells[j + 1]
        if not (hi - lo > rtol * 0.5 * (lo + hi) and hi - lo < width):  # or adjacent floats
            return optimum, (lo, hi)


def scalar_seed(s, grid, best_i):
    """Where the Newton steps of the row with the best grid cell ``best_i`` start.

    The window is what a two-level coarse pass evaluates: the ``2 * stride - 1`` grid points
    around the best of the points a stride apart (the last point among them), shifted into
    the grid.  The polynomial runs through the up to 7 of them nearest ``best_i``, and
    ``_peak`` gives its peak as an offset in cells from ``best_i``.  The seed is that point
    on the log grid where it lies strictly between ``best_i``'s neighbours; the grid cell
    itself where it does not, or where the window holds fewer than 3 points.
    """
    n = len(grid)
    stride = n // _SAMPLES
    width = 2 * stride - 1
    m = min(width, 7)
    if m < 3:
        return grid[best_i]
    raw = rate_at(s, np.array(grid)).R_raw
    samples = [*range(0, n - 1, stride), n - 1]
    best = max(samples, key=lambda j: -math.inf if math.isnan(raw[j]) else raw[j])  # the first
    first = min(max(best - (stride - 1), 0), n - width)
    start = min(max(best_i - m // 2, first), first + width - m)
    offset = _peak(raw[None, start:start + m], np.array([best_i - start - m // 2]))
    seed = float(grid[best_i] * np.exp(offset * (math.log(grid[-1] / grid[0]) / (n - 1)))[0])
    return seed if grid[max(best_i - 1, 0)] < seed < grid[min(best_i + 1, n - 1)] else grid[best_i]


def scalar_newton_steps(s, grid, best_i, rtol):
    """Newton steps in log param from the seed of the grid cell ``best_i`` (``scalar_seed``),
    one scalar step at a time.

    Each step evaluates ``p`` and its two stencil cells (kept inside the grid), and the
    optimum is the first point with the largest ``R_raw`` (nan lowest) among the grid cell
    and them all, the grid cell first.  The stencil gives ``d1`` and ``d2`` of ``R_raw`` in
    log param.  ``d1`` moves an end of the bracket to ``p``; a step must land inside the
    bracket within half the step before last, or the row bisects towards the end ``d1``
    points to.  The row stops at ``d1 == 0``, at a Newton step or a step below
    ``rtol / 10``, or at a step that rounds to ``p``.
    """
    lo, hi = grid[max(best_i - 1, 0)], grid[min(best_i + 1, len(grid) - 1)]
    p, optimum, best = scalar_seed(s, grid, best_i), grid[best_i], rate_at(s, grid[best_i]).R_raw
    last = prior = float(np.log(hi / lo))
    with np.errstate(all="ignore"):
        while True:
            cells = np.clip(p * _STENCIL, grid[0], grid[-1])
            rates = rate_at(s, cells)
            for cell, value in zip(cells.tolist(), rates.R_raw.tolist()):
                if (-math.inf if math.isnan(value) else value) > best:
                    optimum, best = cell, value
            d1, d2 = (v[0] for v in _slopes(  # numpy scalars: d2 == 0 gives an infinite step
                rates.R_raw[None], np.log(p / cells[:1]), np.log(cells[2:] / p)))
            newton = -d1 / d2
            if d1 > 0.0:
                lo = max(lo, p)
            if d1 < 0.0:
                hi = min(hi, p)
            target, modelled = float(p * np.exp(newton)), d2 < 0.0
            fits = modelled and lo < target < hi and abs(newton) <= 0.5 * prior
            step = target if fits else float(np.sqrt(p * (hi if d1 > 0.0 else lo)))
            length = float(abs(np.log(step / p)))
            if (not (abs(d1) > 0.0 and length >= 0.1 * rtol and step != p)
                    or modelled and abs(newton) < 0.1 * rtol):
                return optimum, (lo, hi)
            p, prior, last = step, last, length


# param_max inside the range of optima puts the best cell of the nearer
# distances on the grid edge, whose narrower bracket converges earlier
EDGE_PARAM_MAX = {
    SourceFamily.COHERENT_BB84: 0.1,
    SourceFamily.MCS_BB84: 0.2,
    SourceFamily.MCS_SARG04: 0.3,
}
# param_min above every optimum puts the best cell of each secure row on grid[0]
EDGE_PARAM_MIN = {
    SourceFamily.COHERENT_BB84: 0.2,
    SourceFamily.MCS_BB84: 0.3,
    SourceFamily.MCS_SARG04: 0.5,
}
LOCKSTEP_DISTANCES = [0.0, 10.0, 20.0, 24.0, 40.0, 45.5, 70.0, 77.9, 90.0]


def assert_scalar_steps(family, search, distances=LOCKSTEP_DISTANCES, **options):
    """A sweep over ``distances`` finds each optimum and bracket of ``scalar_search``, all
    inside ``[param_min, param_max]``; returns the sweep.  ``options`` go to ``scenario``."""
    sweep = sweep_distance([scenario(family, **options)], distances, **search)[0]
    found = dict(zip(sweep.index.tolist(),
                     zip(sweep.param_value.tolist(), map(tuple, sweep.bracket.tolist()))))
    for k, distance in enumerate(distances):
        expected = scalar_search(scenario(family, distance, **options), **search)
        if expected is None:
            assert k not in found, distance
        else:
            assert found[k] == expected, distance
    edges = search.get("param_min", 1e-5), search.get("param_max", 4.0)
    assert edges[0] <= sweep.bracket.min() and sweep.bracket.max() <= edges[1]
    assert np.all((edges[0] <= sweep.param_value) & (sweep.param_value <= edges[1]))
    return sweep


# at rtol 0.5 the first step of every row is below rtol / 10
@pytest.mark.parametrize("rtol", [1e-5, 0.5])
@pytest.mark.parametrize("edge", [False, True])
@pytest.mark.parametrize("family", list(SourceFamily))
def test_lockstep_refinement_takes_the_scalar_steps(family, edge, rtol):
    search = {"param_max": EDGE_PARAM_MAX[family] if edge else 4.0, "grid_points": 120,
              "rtol": rtol}
    assert_scalar_steps(family, search)


# the paper-literal sign keeps the section search; at rtol 0.5 every bracket of the
# 120-point grid is too narrow to refine
@pytest.mark.parametrize("rtol", [1e-5, 0.5])
@pytest.mark.parametrize("edge", [False, True])
@pytest.mark.parametrize("family", list(SourceFamily))
def test_lockstep_section_steps_take_the_scalar_steps(family, edge, rtol):
    search = {"param_max": EDGE_PARAM_MAX[family] if edge else 4.0, "grid_points": 120,
              "rtol": rtol}
    assert_scalar_steps(family, search, literal=True)


@pytest.mark.parametrize("family", list(SourceFamily))
def test_lockstep_refinement_at_the_param_min_edge(family):
    # the first stencil is clipped to grid[0], where the row stops
    search = {"param_min": EDGE_PARAM_MIN[family], "param_max": 4.0, "grid_points": 120}
    sweep = assert_scalar_steps(family, search)
    assert len(sweep.index) and np.all(sweep.param_value == EDGE_PARAM_MIN[family])


@pytest.mark.parametrize("family", [SourceFamily.COHERENT_BB84, SourceFamily.MCS_BB84])
def test_lockstep_refinement_without_dark_counts_takes_the_scalar_steps(family):
    # without dark counts the rows at 200 km (coherent-bb84 from 120 km) are rough
    # (optimizer._ROUGH), as are those at 400 km: they take section steps, the others
    # Newton steps (coherent-bb84 is insecure at 400 km)
    distances = [0.0, 60.0, 120.0, 200.0, 400.0]
    sweep = assert_scalar_steps(family, {}, distances, dark_prob_Pd=0.0)
    assert sweep.index.tolist() == [0, 1, 2, 3, 4][:5 if family is SourceFamily.MCS_BB84 else 4]


def test_lockstep_refinement_of_faint_rows_takes_the_newton_steps():
    # at param_min 1e-8 the mcs-sarg04 rows at 160 and 170 km are faint (optimizer._FAINT:
    # they take the full coarse grid) but not rough, so they take Newton steps; those from
    # 190 km on are rough and take section steps
    distances = [150.0, 160.0, 170.0, 190.0, 200.0]
    sweep = assert_scalar_steps(SourceFamily.MCS_SARG04, {"param_min": 1e-8}, distances,
                                dark_prob_Pd=1e-7)
    assert sweep.index.tolist() == [0, 1, 2, 3, 4]
    faint = sweep.eta * 1e-8 < _FAINT
    rough = sweep.eta * sweep.param_value + 1e-7 < _ROUGH
    assert faint.tolist() == [False, True, True, True, True]
    assert rough.tolist() == [False, False, False, True, True]


@pytest.mark.parametrize("family", list(SourceFamily))
def test_lockstep_refinement_with_an_f_table_takes_the_section_steps(family):
    # R_raw has a kink wherever e crosses a knot of TABLE, and its maximum often sits on
    # one: coherent-bb84's at 14.9 km on e = 0.03.  Rows with a TableF take section steps
    distances = [0.0, 14.9, 20.0, 31.0, 60.0]
    sweep = assert_scalar_steps(family, {}, distances, f_policy=TABLE)
    if family is SourceFamily.COHERENT_BB84:
        assert sweep.index.tolist() == [0, 1, 2]
        assert abs(sweep.breakdown.e[1] - 0.03) < 1e-6


def golden_reference(s, etas, rtol=1e-13):
    """(param, R) of the optimum per total efficiency: a fine grid, then golden section."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    grid = np.geomspace(1e-5, 4.0, 2000)
    best = np.argmax(_breakdown(s, etas[:, None], grid).R, axis=1)
    lo, hi = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, len(grid) - 1)]
    active = hi - lo > rtol * 0.5 * (lo + hi)
    while active.any():
        c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        left = _breakdown(s, etas, c).R >= _breakdown(s, etas, d).R
        lo, hi = np.where(active & ~left, c, lo), np.where(active & left, d, hi)
        active &= hi - lo > rtol * 0.5 * (lo + hi)
    param = 0.5 * (lo + hi)
    return param, _breakdown(s, etas, param).R


@pytest.mark.parametrize("family", list(SourceFamily))
def test_search_reaches_a_tight_golden_section_optimum(family):
    distances = [float(l) for l in range(79)]
    s = scenario(family)
    etas = np.array([s.channel.eta_at(l) for l in distances])
    ref_param, ref_r = golden_reference(s, etas)
    sweep = sweep_distance([s], distances)[0]
    assert sweep.index.tolist() == np.flatnonzero(ref_r > 0.0).tolist()
    for k, param, rate in zip(sweep.index.tolist(), sweep.param_value.tolist(),
                              sweep.breakdown.R.tolist()):
        assert rate >= (1.0 - 1e-8) * ref_r[k], distances[k]
        assert abs(param - ref_param[k]) <= 1e-5 * ref_param[k], distances[k]
    assert len(sweep.index) >= 25


@pytest.mark.parametrize("family", list(SourceFamily))
def test_batched_sweep_equals_per_distance_search(family):
    distances = [float(l) for l in range(101)]
    s = scenario(family)
    sweep = sweep_distance([s], distances)[0]
    singles = [optimize_param(s.at_distance(distance)) for distance in distances]
    assert sweep.index.tolist() == [k for k, single in enumerate(singles) if single is not None]
    for row, k in enumerate(sweep.index.tolist()):
        single = singles[k]
        assert sweep.param_value[row] == single.param_value, distances[k]
        assert tuple(sweep.bracket[row].tolist()) == single.bracket, distances[k]
        assert max(worst_excess(sweep.breakdown.at(row), single.breakdown).values()) <= 0.0
    assert 0 < len(sweep.index) < len(distances)


@functools.cache
def optimum_bisection(family):
    """The distances that a binary search over the multiples 0..10,000 of 0.01 km
    probes with the refined optimum, each with whether the optimum is secure there,
    and the last secure multiple it ends at."""
    s = scenario(family)

    def multiple(j):  # j times the float 0.01, rounded once
        return float(j * Fraction(0.01))

    def secure_by_optimum(distance):
        point = optimize_param(s.at_distance(distance))
        return point is not None and point.breakdown.R_raw > 0.0

    probes = {0.0: secure_by_optimum(0.0), 100.0: secure_by_optimum(100.0)}
    lo, hi = 0, 10_000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes[multiple(mid)] = secure_by_optimum(multiple(mid))
        lo, hi = (mid, hi) if probes[multiple(mid)] else (lo, mid)
    return probes, multiple(lo)


@pytest.mark.parametrize("family", list(SourceFamily))
def test_grid_only_cutoff_predicate_agrees_with_the_optimum(family):
    s = scenario(family)
    grid, _ = _search("sweep_distance")
    probes, cutoff = optimum_bisection(family)
    own = np.full(1, _FAMILIES.index(family))
    for distance, secure in probes.items():
        assert _secure_at(s, [distance], grid, own)[0] == secure, distance
    # every family's probes in one call, rows enough for the two-level pass
    rows = [(code, distance, secure) for code, other in enumerate(SourceFamily)
            for distance, secure in optimum_bisection(other)[0].items()]
    codes, distances, want = map(list, zip(*rows))
    assert len(rows) * len(grid) > _BLOCK_CELLS
    assert _secure_at(s, distances, grid, np.array(codes)).tolist() == want
    assert cutoff_distance(s, 100.0) == cutoff == KTH15_CUTOFFS_KM[family]
