"""The two-level coarse pass of the optimizer picks what the full grid picks.

``optimizer._best_cells`` evaluates about 25 grid points a stride apart, then
the points around the best of them, locating by the unclamped ``R_raw``.  It
must agree with the full grid, evaluated in one kernel call, on every row's
secure flag and rate bit for bit, and on the best cell of every secure row.
(Past the cutoff ``R_raw`` may peak both at ``param_min`` and inside the range,
all of it <= 0; which of those cells a pass picks changes nothing.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcs_qkd import ChannelModel, ConstantF, DetectorModel, Scenario, SourceFamily
from mcs_qkd import optimizer
from reference import TABLE, scenario

DARK_COUNTS = st.floats(-6.0, np.log10(3e-3)).map(lambda x: 10.0 ** x)


def full_grid(scenario, families, etas, grid):
    """Index and rate of each row's best grid point, from every point at once."""
    rates = optimizer._breakdown(scenario, etas[:, None], grid, families).R
    return np.argmax(rates, axis=1), rates.max(axis=1)


def assert_full_grid_cells(scenario, distances, grid):
    families = np.repeat(np.arange(len(SourceFamily)), len(distances))
    etas = np.tile([scenario.channel.eta_at(l) for l in distances], len(SourceFamily))
    cell, (rate,) = optimizer._best_cells(scenario, families, etas, grid, ("R",))
    want_cell, want_rate = full_grid(scenario, families, etas, grid)
    secure = want_rate > 0.0
    assert np.array_equal(cell[secure], want_cell[secure])
    assert np.array_equal(rate.view(np.int64), want_rate.view(np.int64))
    return secure


@st.composite
def boxes(draw, dark_counts=DARK_COUNTS):
    """A scenario and a coarse grid from the box the pass was checked on."""
    scenario = Scenario(
        source_family=SourceFamily.COHERENT_BB84,
        channel=ChannelModel(draw(st.floats(0.15, 0.3)), 0.0, draw(st.floats(0.0, 3.0)),
                             draw(st.floats(0.05, 0.5))),
        detector=DetectorModel(draw(dark_counts), draw(st.floats(0.0, 0.02))),
        f_policy=draw(st.one_of(st.builds(ConstantF, st.floats(1.0, 1.5)), st.just(TABLE))),
    )
    points = draw(st.one_of(st.integers(2, 2000), st.integers(40, 260)))
    grid = np.geomspace(10.0 ** draw(st.floats(-6.0, -3.0)), draw(st.floats(1.0, 100.0)), points)
    return scenario, grid


def padded(distances, rows_per_distance, points):
    """``distances`` and evenly spread ones from 0 to 200 km, rows enough for the full
    grid to take more than one kernel call, where the two-level pass takes over."""
    pad = optimizer._BLOCK_CELLS // (rows_per_distance * points) + 1 - len(distances)
    return distances + [200.0 * k / pad for k in range(pad)]


@st.composite
def searches(draw):
    """A scenario, a distance list and a coarse grid from the box the pass was checked on."""
    scenario, grid = draw(boxes())
    distances = draw(st.lists(st.floats(0.0, 200.0), min_size=1, max_size=40))
    return scenario, padded(distances, len(SourceFamily), len(grid)), grid


@settings(max_examples=80, deadline=None)
@given(searches())
def test_two_level_pass_equals_the_full_grid(search):
    assert_full_grid_cells(*search)


def full_grid_cutoffs(scenario, grid):
    """Per family, the last distance the full grid finds secure and the first it finds
    insecure, bisected from [0, 3000] km to 1e-9 km; None where insecure at 0 km."""
    codes = np.arange(len(SourceFamily))

    def secure(distances):
        etas = np.array([scenario.channel.eta_at(l) for l in distances.tolist()])
        return full_grid(scenario, codes, etas, grid)[1] > 0.0

    lo, hi = np.zeros(len(codes)), np.full(len(codes), 3000.0)
    at_zero = secure(lo)
    assert not secure(hi).any()
    while (hi - lo > 1e-9).any():
        mid = 0.5 * (lo + hi)
        lo, hi = np.where(secure(mid), (mid, hi), (lo, mid))
    return [(a, b) if ok else None for a, b, ok in zip(lo.tolist(), hi.tolist(), at_zero)]


@settings(max_examples=50, deadline=None)
@given(boxes(dark_counts=st.one_of(st.just(0.0), DARK_COUNTS)))
def test_cutoff_predicate_equals_the_full_grid_near_each_cutoff(box):
    # the cutoff rounds ask the two-level pass whether a distance is secure,
    # right where the secure window shrinks to a few grid cells (or, without dark
    # counts, where the rows turn faint)
    scenario, grid = box
    distances, families = [], []
    for code, bracket in enumerate(full_grid_cutoffs(scenario, grid)):
        if bracket is not None:
            near = [bracket[0] + d for width in (0.5, 1e-3) for d in np.linspace(-width, width, 21)]
            near = [*bracket, *(l for l in near if l >= 0.0)]
            distances += near
            families += [code] * len(near)
    distances = padded(distances, 1, len(grid))
    families += [k % len(SourceFamily) for k in range(len(distances) - len(families))]
    families = np.array(families)
    etas = np.array([scenario.channel.eta_at(l) for l in distances])
    want = full_grid(scenario, families, etas, grid)[1] > 0.0
    assert np.array_equal(optimizer._secure_at(scenario, distances, grid, families), want)


def test_kth15_sweep_rows_equal_the_full_grid():
    s = scenario(SourceFamily.COHERENT_BB84)
    for points in (49, 50, 51, 200, 2000):
        grid = np.geomspace(1e-5, 4.0, points)
        secure = assert_full_grid_cells(s, [0.25 * k for k in range(401)], grid)
        assert 0 < secure.sum() < len(secure)


def test_best_cell_at_the_top_edge_of_the_grid():
    # param_max lies below every optimum, so each secure row peaks at the last grid
    # point; at 201 points (stride 8) the samples from 0 on stop a stride short of it
    s = scenario(SourceFamily.COHERENT_BB84)
    grid = np.geomspace(1e-5, 0.01, 201)
    distances = [float(l) for l in range(0, 30, 3)]
    secure = assert_full_grid_cells(s, distances, grid)
    families = np.repeat(np.arange(len(SourceFamily)), len(distances))
    etas = np.tile([s.channel.eta_at(l) for l in distances], len(SourceFamily))
    cell, _ = optimizer._best_cells(s, families, etas, grid, ())
    assert secure.sum() >= 10 and (cell[secure] == 200).all()


def test_faint_rows_without_dark_counts_equal_the_full_grid():
    # with no dark counts the rows stay secure far out, where 1 - p0 keeps a few
    # digits and R_raw is ragged; such rows take every grid point
    s = scenario(SourceFamily.COHERENT_BB84, dark_prob_Pd=0.0)
    grid = np.geomspace(1e-5, 4.0, 200)
    distances = [2.0 * k for k in range(501)]
    families = np.repeat(np.arange(len(SourceFamily)), len(distances))
    etas = np.tile([s.channel.eta_at(l) for l in distances], len(SourceFamily))
    assert (etas * grid[0] < optimizer._FAINT).any() and (etas * grid[0] >= optimizer._FAINT).any()
    assert_full_grid_cells(s, distances, grid)


def test_literal_sign_keeps_the_full_grid():
    # With the literal (additive) error-correction sign, R_raw can peak twice within
    # one stride: at the u = 1/2 cap of tau and next to it.  Here the best of the
    # 25 samples (cell 120) sits by the lower peak (123), more than a stride from
    # the higher one (131), so a two-level pass would miss the maximum.  The
    # literal sign therefore evaluates every grid point.
    scenario = Scenario(SourceFamily.COHERENT_BB84, ChannelModel(0.16, 31.5, 1.0, 0.084),
                        DetectorModel(1.6e-4, 0.006), ConstantF(1.4), paper_literal_sign=True)
    grid = np.geomspace(1e-5, 4.0, 200)
    raw = optimizer.rate_at(scenario, grid).R_raw
    peaks = [k for k in range(1, len(grid) - 1) if raw[k - 1] < raw[k] >= raw[k + 1]]
    stride = len(grid) // optimizer._SAMPLES
    samples = np.append(np.arange(0, len(grid) - 1, stride), len(grid) - 1)
    best_sample = samples[np.argmax(raw[samples])]
    assert peaks == [123, 131] and np.argmax(raw) == 131 and best_sample == 120
    assert abs(best_sample - 131) >= stride
    distances = [0.5 * k for k in range(121)]  # rows enough for a two-level pass
    secure = assert_full_grid_cells(scenario, distances, grid)
    assert secure[distances.index(31.5)]
