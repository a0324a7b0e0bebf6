"""Kernel-call budgets of the searches, and the cutoff that sweeps and ``cutoff_distance`` share.

Every rate goes through ``optimizer._breakdown``, and one call costs about the
same for one cell as for a few hundred, so the number of calls is the cost
of a search, and beyond a few thousand cells per call the number of cells too.
The counts are deterministic.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcs_qkd import (
    ChannelModel,
    ConstantF,
    SourceFamily,
    cutoff_distance,
    optimize_param,
    sweep_distance,
)
from mcs_qkd import cli, optimizer
from mcs_qkd.cli import main
from reference import BOX, KTH15, TABLE, scenario


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that grows by one entry per kernel call: the number of cells it evaluated."""
    calls = []
    kernel = optimizer._breakdown

    def counted(*args, **kwargs):
        breakdown = kernel(*args, **kwargs)
        calls.append(breakdown.R.size)
        return breakdown

    monkeypatch.setattr(optimizer, "_breakdown", counted)
    return calls


@pytest.mark.parametrize("distance_km", [10.0, 20.0])
@pytest.mark.parametrize("family", list(SourceFamily))
def test_optimize_param_budget(family, distance_km, kernel_calls):
    # one coarse call, then three Newton steps of a 3-cell stencil each
    assert optimize_param(scenario(family, distance_km)) is not None
    assert kernel_calls == [200, 3, 3, 3]


@pytest.mark.parametrize("family", list(SourceFamily))
def test_optimize_param_past_the_cutoff_is_one_call(family, kernel_calls):
    # the coarse grid finds no secure point, so there is no optimum to refine
    assert optimize_param(scenario(family, 150.0)) is None
    assert kernel_calls == [200]


@pytest.mark.parametrize("family", list(SourceFamily))
def test_cutoff_distance_budget(family, kernel_calls):
    assert 0.0 < cutoff_distance(scenario(family), 100.0) < 100.0
    assert len(kernel_calls) <= 6


@pytest.mark.parametrize("family", list(SourceFamily))
def test_fine_cutoff_on_a_large_grid_budget(family, kernel_calls):
    # a cutoff round asks for up to 15 distances; at 2,000 points the full grid
    # took them in blocks of 2 rows (8 calls), the two-level pass takes 2 calls
    s = scenario(family)
    assert 0.0 < cutoff_distance(s, 100.0, resolution_km=1e-4, grid_points=2000) < 100.0
    assert len(kernel_calls) <= 11
    assert sum(kernel_calls) <= 18_000


def test_kth15_sweep_budget(kernel_calls):
    distances = [float(l) for l in range(101)]
    sweeps = sweep_distance([scenario(family) for family in SourceFamily], distances)
    assert all(sweep.cutoff_l is not None for sweep in sweeps)
    # 3 coarse calls, 4 Newton steps of up to 150 rows x 3 cells, 3 cutoff rounds
    assert len(kernel_calls) == 10
    assert sum(kernel_calls) == 18_750
    assert kernel_calls[3:7] == [450, 450, 435, 147]


#: A channel of the benchmark's sweep box (seed 5, op 22) where a row's stencil at 43 km
#: gives d1 == 0 exactly, which must end its steps.
FLAT_CHANNEL = {"loss_coeff_a": 0.18821758613315126, "detector_eff": 0.15650569569528044,
                "dark_prob_Pd": 0.00019729678046921689, "baseline_error_c": 0.005703056526341586}


@settings(max_examples=15, deadline=None)
@given(channel=st.fixed_dictionaries({key: st.floats(*bounds) for key, bounds in BOX.items()}),
       table=st.booleans())
@example(channel=FLAT_CHANNEL, table=False)
# maxima on the knots of TABLE, where Newton steps took 7 calls: rows with a TableF take
# the section steps
@example(channel={"loss_coeff_a": 0.1891862282509112, "detector_eff": 0.1409971629576487,
                  "dark_prob_Pd": 0.00031704514242083956,
                  "baseline_error_c": 0.011691894252637915}, table=True)
def test_newton_steps_take_no_more_calls_than_the_section_steps(channel, table):
    # over 0-100 km in 1 km steps the 16-probe section search took 5 probe calls (a
    # sweep 11, at times 12, with the coarse pass and the cutoff rounds, which did not
    # change); the Newton steps may take no more.  A TableF keeps the section search
    calls, kernel, steps = [], optimizer._breakdown, optimizer._newton_steps

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    def newton(*args, **kwargs):
        start = len(calls)
        try:
            return steps(*args, **kwargs)
        finally:
            newton_calls.append(len(calls) - start)

    newton_calls = []
    f_policy = TABLE if table else ConstantF(1.16)
    optimizer._breakdown, optimizer._newton_steps = counted, newton
    try:
        sweep_distance([scenario(family, 0.0, f_policy, **channel) for family in SourceFamily],
                       [float(l) for l in range(101)])
    finally:
        optimizer._breakdown, optimizer._newton_steps = kernel, steps
    assert bool(newton_calls) is not table
    assert max(newton_calls, default=0) <= 5
    assert len(calls) <= 12


def test_no_kernel_call_of_a_fine_kth15_sweep_exceeds_the_block(kernel_calls):
    # 594 secure rows: the coarse pass's calls are blocked; a Newton step takes 3 cells a row
    distances = [0.25 * k for k in range(601)]
    sweeps = sweep_distance([scenario(family) for family in SourceFamily], distances)
    assert sum(len(sweep.index) for sweep in sweeps) == 594
    assert max(kernel_calls) <= optimizer._BLOCK_CELLS


def test_sweep_from_past_a_cutoff(kernel_calls):
    # coherent-bb84 is insecure from the first distance on; 0 km is multiple 0 of the
    # resolution, and the cutoff rounds decide it with the others
    scenarios = [scenario(family) for family in SourceFamily]
    sweeps = sweep_distance(scenarios, [30.0 + 5.0 * k for k in range(15)])
    assert not len(sweeps[0].index)
    assert len(kernel_calls) <= 13
    assert [sweep.cutoff_l for sweep in sweeps] == [cutoff_distance(s, 100.0) for s in scenarios]


@pytest.mark.parametrize("resolution_km", [0.01, 1e-300])
def test_sweep_insecure_from_0_km_budget(resolution_km, kernel_calls):
    # a detector this noisy is insecure at 0 km; multiple 0 is among the first cut
    # points of a span with nothing known secure, so one round closes every span
    scenarios = [scenario(family, dark_prob_Pd=0.9) for family in SourceFamily]
    sweeps = sweep_distance(scenarios, [30.0 + 5.0 * k for k in range(15)],
                            cutoff_resolution_km=resolution_km)
    assert [sweep.cutoff_l for sweep in sweeps] == [None] * len(scenarios)
    # no row is secure, so no call refines one
    assert len(kernel_calls) <= 4 and 0 not in kernel_calls


#: Two figure2-like ranges, an ``l_max`` and a step, with 11 to 501 distances each.  Each
#: grid ends at or past its ``l_max``, so past every cutoff of the ``BOX`` channels (at
#: most about 109 km).
RANGES = st.tuples(st.floats(110.0, 250.0), st.floats(0.5, 11.0))


@settings(max_examples=25, deadline=None)
@given(channel=st.fixed_dictionaries({key: st.floats(*bounds) for key, bounds in BOX.items()}),
       ranges=st.lists(RANGES, min_size=2, max_size=2))
# a grid that stopped at the last step below l_max ended this one at 105 km, before the
# mcs-sarg04 cutoff of 105.97 km
@example(channel={"loss_coeff_a": 0.18359375, "detector_eff": 0.25, "dark_prob_Pd": 0.0001,
                  "baseline_error_c": 0.0078125}, ranges=[(110.0, 7.0), (110.0, 1.0)])
def test_cutoff_is_the_last_secure_multiple_whatever_the_range(channel, ranges):
    resolution = Fraction(optimizer.DEFAULT_CUTOFF_RESOLUTION_KM)
    scenarios = [scenario(family, **channel) for family in SourceFamily]
    sweeps = [sweep_distance(scenarios, [step * k for k in range(math.ceil(l_max / step) + 1)])
              for l_max, step in ranges]
    for s, first, second in zip(scenarios, *sweeps):
        cutoff = first.cutoff_l
        assert cutoff is not None
        assert second.cutoff_l == cutoff == cutoff_distance(s, 300.0)
        j = round(Fraction(cutoff) / resolution)
        assert float(j * resolution) == cutoff
        point = optimize_param(s.at_distance(cutoff))
        assert point is not None and point.breakdown.R_raw > 0.0
        assert optimize_param(s.at_distance(float((j + 1) * resolution))) is None


def _channels():
    rng = random.Random(6)
    drawn = [{key: rng.uniform(*bounds) for key, bounds in BOX.items()} for _ in range(6)]
    # at 2,000 grid points the sweep rows and the cutoff rounds take the two-level
    # pass; at a 1e-300 km resolution every cutoff search ends at adjacent floats
    return [KTH15, *drawn, {**KTH15, "grid_points": 2000},
            {**KTH15, "grid_points": 60, "cutoff_resolution_km": 1e-300}]


@pytest.mark.parametrize("first_km, step_km", [(0.0, 1.0), (2.5, 2.5)])
@pytest.mark.parametrize("channel", _channels())
def test_sweep_cutoff_equals_cutoff_distance(channel, first_km, step_km):
    # the sweep decides multiples outside its last secure grid cell without
    # evaluating them; the monotone predicate makes that exact
    channel = dict(channel)
    search = {"grid_points": channel.pop("grid_points", optimizer.DEFAULT_GRID_POINTS)}
    resolution_km = channel.pop("cutoff_resolution_km", optimizer.DEFAULT_CUTOFF_RESOLUTION_KM)
    distances = [first_km + step_km * k for k in range(int((150.0 - first_km) / step_km) + 1)]
    for family in SourceFamily:
        s = scenario(family, **channel)
        sweep = sweep_distance([s], distances, cutoff_resolution_km=resolution_km, **search)[0]
        assert sweep.cutoff_l is not None, (family, channel)
        assert sweep.cutoff_l == cutoff_distance(s, distances[-1], resolution_km=resolution_km,
                                                 **search), (family, channel)


def test_lockstep_cutoffs_end_at_adjacent_floats():
    # at a 1e-300 km resolution every float is a multiple: the three lockstep searches
    # run until their spans end at adjacent floats
    families = list(SourceFamily)
    distances = [5.0 * k for k in range(21)]
    sweeps = sweep_distance([scenario(family) for family in families], distances,
                            cutoff_resolution_km=1e-300, grid_points=60)
    for family, sweep in zip(families, sweeps):
        s, cutoff = scenario(family), sweep.cutoff_l
        assert cutoff == cutoff_distance(s, 100.0, resolution_km=1e-300, grid_points=60)
        assert optimize_param(s.at_distance(cutoff), grid_points=60) is not None
        after = np.nextafter(cutoff, np.inf)
        assert optimize_param(s.at_distance(after), grid_points=60) is None


def test_kth15_figure2_kernel_calls_repeat_exactly(kernel_calls, tmp_path, capsys):
    counts = []
    for _ in range(2):
        start = len(kernel_calls)
        assert main(["figure2", "--out", str(tmp_path)]) == 0
        counts.append((len(kernel_calls) - start, sum(kernel_calls[start:])))
    assert counts[0] == counts[1]
    calls, cells = counts[0]
    assert calls == 10 and cells == 18_750


def test_kth15_figure2_writes_the_efficiencies_the_sweep_searched(monkeypatch, tmp_path, capsys):
    # figure2 prints sweep.eta and computes no efficiency of its own
    calls, sweeps = [], []
    eta_at = ChannelModel.eta_at

    def counted(self, distance_l):
        calls.append(distance_l)
        return eta_at(self, distance_l)

    def recorded(*args, **kwargs):
        sweeps.extend(sweep_distance(*args, **kwargs))
        return sweeps

    monkeypatch.setattr(ChannelModel, "eta_at", counted)
    monkeypatch.setattr(cli, "sweep_distance", recorded)
    assert main(["figure2", "--out", str(tmp_path)]) == 0
    # 101 for the sweep's distances and 60 for the cutoff rounds' probes
    assert len(calls) == 161
    rows = [line.split(",") for line in (tmp_path / "figure2.csv").read_text().splitlines()
            if not line.startswith(("#", "family,"))]
    channel = scenario(SourceFamily.COHERENT_BB84).channel
    l_grid = np.arange(0.0, 101.0)
    assert [sweep.eta.size for sweep in sweeps] == [25, 46, 79]  # 0 km up to each cutoff
    for family, sweep in zip(SourceFamily, sweeps):
        cells = [row[2] for row in rows if row[0] == family.value]
        assert cells == ["%.17g" % eta for eta in sweep.eta.tolist()]
        assert [eta.hex() for eta in sweep.eta.tolist()] == [
            eta_at(channel, l).hex() for l in l_grid[sweep.index].tolist()]
