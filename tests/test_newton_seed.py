"""The seed of the Newton polish depends on the row alone.

``optimizer._best_cells`` gives each row a seed: the peak of the polynomial through up
to 7 grid points near its best grid point, within the window that a two-level coarse
pass evaluates.  A whole row finds that window around the best sample of its own
curve, so the seed, and with it the optimum, is the same whether the row is searched
alone (``optimize_param``), in a sweep of any length, or stacked with other families.
The Newton steps start at the seed only where it lies strictly between the best grid
point's neighbours, and the optimum never falls below the best grid point.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcs_qkd import SourceFamily, optimize_param, rate_at, sweep_distance
from mcs_qkd import optimizer
from reference import BOX, KTH15, bits_equal, scenario

FIELDS = optimizer._FIELDS

#: Grids whose windows hold under 3 points (7, 8, 49), 3 (50), 5 (75, 99) and 7 or more
#: points; at 7 and 8 points and in short sweeps every row is whole.
GRID_POINTS = [7, 8, 49, 50, 75, 99, 100, 200, 2000]


def starts_of_the_newton_steps(run):
    """``run()``, and per ``_newton_steps`` call its grid, best cells and first stencil's
    centres, where each of its rows starts."""
    kernel, steps, starts = optimizer._breakdown, optimizer._newton_steps, []

    def newton(*args):
        first = []

        def kernel_once(scenario, eta, param, families=None):
            if not first:
                first.append(param[:, 1].copy())
            return kernel(scenario, eta, param, families)

        optimizer._breakdown = kernel_once
        try:
            return steps(*args)
        finally:
            optimizer._breakdown = kernel
            starts.append((args[3], args[4], first[0]))

    optimizer._newton_steps = newton
    try:
        return run(), starts
    finally:
        optimizer._newton_steps = steps


@settings(max_examples=25, deadline=None)
@given(channel=st.fixed_dictionaries({key: st.floats(*bounds) for key, bounds in BOX.items()}),
       grid_points=st.sampled_from(GRID_POINTS), stacked=st.booleans(),
       family=st.sampled_from(list(SourceFamily)),
       distances=st.lists(st.floats(0.0, 110.0), min_size=1, max_size=30))
# at 75 points coherent-bb84's best cell at 7 km is the last of its 5-point window (49-53),
# and 90 stacked rows take the two-level pass
@example(channel=KTH15, grid_points=75, stacked=True, family=SourceFamily.COHERENT_BB84,
         distances=[7.0 + k for k in range(30)])
def test_every_row_is_seeded_as_if_alone(channel, grid_points, stacked, family, distances):
    families = list(SourceFamily) if stacked else [family]
    scenarios = [scenario(f, **channel) for f in families]
    distances = sorted(distances)
    sweeps, starts = starts_of_the_newton_steps(
        lambda: sweep_distance(scenarios, distances, grid_points=grid_points))
    for grid, cell, start in starts:
        lo, hi = grid[np.clip((cell - 1, cell + 1), 0, len(grid) - 1)]
        assert np.all(((lo < start) & (start < hi)) | (start == grid[cell]))
    grid = np.geomspace(optimizer.DEFAULT_PARAM_MIN, optimizer.DEFAULT_PARAM_MAX, grid_points)
    for s, sweep in zip(scenarios, sweeps):
        for row, k in enumerate(sweep.index.tolist()):
            at = s.at_distance(distances[k])
            point = optimize_param(at, grid_points=grid_points)
            assert point.param_value == sweep.param_value[row], (s.source_family, distances[k])
            assert point.bracket == tuple(sweep.bracket[row].tolist())
            for name in FIELDS:
                assert bits_equal(getattr(point.breakdown, name),
                                  getattr(sweep.breakdown, name)[row]), name
            assert sweep.breakdown.R_raw[row] >= np.nanmax(rate_at(at, grid).R_raw)
