"""The CSV and SVG writers against the one-cell-at-a-time formatting they replaced.

``rate``, figure1 and figure2 write a family's rows with one ``%``-format: the
family, a preformatted lead cell, the float columns in ``%.17g`` and a literal
tail.  ``rate`` formats each row's ``l``, ``eta`` and ``param`` together,
figure1 its shared ``param`` cells once for all three families, and figure2
its shared ``l`` cells, with ``eta`` as a float column of each row and the
cutoff cell as the tail.  One writer takes the comment lines, the header and
then the rows block by block, and several blocks must write the bytes of one
block holding all their rows.  The renderer places each curve's points with
numpy and formats all of its coordinates in one ``%``-format.  The references
are the per-cell CSV join in ``reference``, the per-point renderer in
``svgplot_reference``, one ``rate_at`` per distance or family and, for figure2,
one ``optimize_param`` per row; every drawn cell, rate table, chart, figure1 and
figure2 must come out byte for byte the same.
"""

import contextlib
import io
import itertools
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svgplot_reference
from mcs_qkd import (
    KTH15_CHANNEL, KTH15_DETECTOR, ConstantF, DegenerateInputError, DetectorModel,
    DomainError, Scenario, SourceFamily, TableF, cli, cutoff_distance, optimize_param, rate_at,
    svgplot,
)
from mcs_qkd.cli import FIGURE1_HEADER, FIGURE2_HEADER, RATE_HEADER, VERIFY_HEADER
from reference import BOX, reference_csv, reference_fmt, scenario

MAX_FLOAT = 1.7976931348623157e308
MIN_NORMAL = 2.2250738585072014e-308
EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, MIN_NORMAL, -MIN_NORMAL,
    MIN_NORMAL - 5e-324, 1e308, -1e308, MAX_FLOAT, -MAX_FLOAT, 0.1, 1.0 / 3.0,
)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    st.floats(min_value=-MIN_NORMAL, max_value=MIN_NORMAL),  # subnormals
    st.floats(min_value=1e300, max_value=MAX_FLOAT),
    st.floats(min_value=-MAX_FLOAT, max_value=-1e300),
)
#: An int in a float column: "%.17g" writes it as str() does while it is an exact float.
FLOAT_CELLS = st.one_of(FLOATS, st.integers(min_value=-(2**53), max_value=2**53))


@settings(max_examples=200, deadline=None)
@given(FLOAT_CELLS)
def test_17_digit_cell_format_matches_the_per_cell_join(value):
    assert "%.17g" % value == format(value, ".17g") == reference_fmt(value)


def csv_text(comments, header, blocks) -> str:
    """What ``cli._write_csv`` writes for ``blocks`` of formatted rows."""
    buffer = io.StringIO()
    cli._write_csv(buffer, comments, header, blocks)
    return buffer.getvalue()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20),
                max_size=3))
def test_csv_of_no_rows_is_comments_and_header(comments):
    for header in (RATE_HEADER, FIGURE1_HEADER, FIGURE2_HEADER, VERIFY_HEADER):
        for blocks in ([], [[]]):
            assert csv_text(comments, header, blocks) == reference_csv(comments, header, [])


@pytest.mark.parametrize("cutoff", ["", 45.8, math.nan], ids=["no cutoff", "cutoff", "nan"])
def test_family_lines_write_every_edge_float_like_the_per_cell_join(cutoff):
    # figure2's layout: a lead cell (l, eta), the float columns, then the cutoff cell
    values = np.array(EDGE_FLOATS)
    lead = [f"{reference_fmt(value)},{reference_fmt(value)}" for value in EDGE_FLOATS]
    lines = cli._family_lines(SourceFamily.MCS_BB84, lead, [values] * (len(FIGURE2_HEADER) - 4),
                              "," + reference_fmt(cutoff))
    rows = [("mcs-bb84", *([value] * (len(FIGURE2_HEADER) - 2)), reference_fmt(cutoff))
            for value in EDGE_FLOATS]
    assert csv_text([], FIGURE2_HEADER, [lines]) == reference_csv([], FIGURE2_HEADER, rows)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from(EDGE_FLOATS), max_size=4), max_size=4))
def test_several_blocks_write_the_bytes_of_one_block_holding_their_rows(block_values):
    # figure1's layout, one family per block; an empty block is a family without rows
    families = itertools.cycle(SourceFamily)
    blocks = [cli._family_lines(next(families), [reference_fmt(v) for v in values],
                                [np.array(values, dtype=float)] * (len(FIGURE1_HEADER) - 2))
              for values in block_values]
    one_block = [line for lines in blocks for line in lines]
    families = itertools.cycle(SourceFamily)
    rows = [(family.value, *([value] * (len(FIGURE1_HEADER) - 1)))
            for family, values in zip(families, block_values) for value in values]
    comments = ["distance_km = 5"]
    assert (csv_text(comments, FIGURE1_HEADER, iter(blocks))
            == csv_text(comments, FIGURE1_HEADER, [one_block])
            == reference_csv(comments, FIGURE1_HEADER, rows))


@given(FLOATS, FLOATS)
def test_svg_point_format_matches_two_fixed_decimals(x, y):
    assert "%.2f,%.2f" % (x, y) == f"{x:.2f},{y:.2f}"


FINITE = st.floats(min_value=-1e6, max_value=1e6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=20),
                min_size=1, max_size=3))
def test_polyline_points_match_the_per_coordinate_format(curves):
    svg = svgplot.render_line_chart(
        [(f"curve {i}", points) for i, points in enumerate(curves)],
        title="t", x_label="x", y_label="y",
    )
    xs = [x for points in curves for x, _ in points]
    ys = [y for points in curves for _, y in points]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    x_hi = x_hi if x_hi > x_lo else x_lo + 1.0
    y_hi = y_hi if y_hi > y_lo else y_lo + 1.0
    plot_w = svgplot.WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_TOP - svgplot.MARGIN_BOTTOM
    expected = [
        " ".join(
            f"{svgplot.MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w:.2f},"
            f"{svgplot.MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h:.2f}"
            for x, y in points
        )
        for points in curves
    ]
    assert re.findall(r'<polyline points="([^"]*)"', svg) == expected


@pytest.mark.parametrize("points", [[(1e17, 0.5)], [(1.0, 1e300), (2.0, 1e300)]],
                         ids=["flat x at 1e17", "flat y at 1e300"])
def test_flat_range_where_adding_one_does_not_move_it(points):
    svg = svgplot.render_line_chart([("a", points)], title="t", x_label="x", y_label="y")
    # the range is widened to the next float up, so the curve starts at the lower left
    coords = re.findall(r'<polyline points="([^"]*)"', svg)[0].split()
    bottom = svgplot.HEIGHT - svgplot.MARGIN_BOTTOM
    assert coords[0] == f"{svgplot.MARGIN_LEFT:.2f},{bottom:.2f}"


def test_flat_range_keeps_its_padding_of_one():
    svg = svgplot.render_line_chart([("a", [(3.0, 0.5)])], title="t", x_label="x", y_label="y")
    labels = re.findall(r'font-size="12">([^<]*)</text>', svg)
    assert labels[:12] == ["3", "3.2", "3.4", "3.6", "3.8", "4", "0.5", "0.7", "0.9", "1.1",
                           "1.3", "1.5"]
    # log axis: a single rate below 0.01 still spans the decades around it
    svg = svgplot.render_line_chart([("a", [(0.0, 0.005)])], title="t", x_label="x",
                                    y_label="y", log_y=True)
    assert re.findall(r'font-size="12">(1e[^<]*)</text>', svg) == ["1e-3", "1e-2", "1e-1"]


@pytest.mark.parametrize("points", [[(1.7976931348623157e308, 0.5)],
                                    [(-1.79e308, 0.5), (1.79e308, 0.6)]],
                         ids=["flat x at the largest float", "x from -1.79e308 to 1.79e308"])
def test_range_wider_than_the_float_range_is_rejected(points):
    # the widened or the drawn range would put nan and inf into the ticks and coordinates
    with pytest.raises(DomainError, match="wider than the float range"):
        svgplot.render_line_chart([("a", points)], title="t", x_label="x", y_label="y")


def first_difference(got: str, want: str):
    """(index, got line, wanted line) of the first line, with its end, where two texts differ.

    None when they are equal.  A failing ``==`` on texts this long would have pytest
    diff them, which takes seconds per example while Hypothesis shrinks.
    """
    pairs = itertools.zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)


def render_outcome(render, curves, log_y):
    """The SVG that ``render`` draws of ``curves``, or the message of its ``DomainError``."""
    try:
        return render(curves, title="t", x_label="x", y_label="y", log_y=log_y)
    except DomainError as err:
        return f"DomainError: {err}"


#: Values a chart repeats: both zeros, the non-finite values that are dropped, and
#: non-positive values, which a log axis drops too.
CHART_EDGES = (0.0, -0.0, math.nan, math.inf, -math.inf, -1.0, 1e-3, 0.5, 1.0, 2.0)


@st.composite
def charts(draw):
    """0-3 curves of 0-60 points whose coordinates come from a pool of at most 8 values."""
    pool = draw(st.lists(st.one_of(st.sampled_from(CHART_EDGES), st.floats(-1e6, 1e6), FLOATS),
                         min_size=1, max_size=8))
    value = st.sampled_from(pool)
    return draw(st.lists(st.lists(st.tuples(value, value), max_size=60), max_size=3))


@settings(max_examples=300, deadline=None)
@given(charts(), st.booleans(), st.lists(st.booleans(), min_size=3, max_size=3))
def test_renderer_matches_the_per_point_reference(curves, log_y, as_array):
    labelled = [(f"curve {i}", points) for i, points in enumerate(curves)]
    # each curve is handed over as a list of (x, y) tuples or as an (n, 2) array
    handed = [(label, np.array(points, dtype=float).reshape(-1, 2) if array else points)
              for (label, points), array in zip(labelled, as_array)]
    assert first_difference(render_outcome(svgplot.render_line_chart, handed, log_y),
                            render_outcome(svgplot_reference.render_line_chart, labelled,
                                           log_y)) is None


def test_renderer_memory_is_bounded_by_the_svg():
    # figure1's chart: three curves of 2,000 points; each curve's text is made on its own
    params = np.linspace(0.0, 0.6, 2000)
    rates = np.random.default_rng(29).uniform(0.0, 1e-3, (3, 2000))
    curves = [(f"curve {i}", np.column_stack((params, r))) for i, r in enumerate(rates)]
    chart = dict(title="t", x_label="x", y_label="y")
    svgplot.render_line_chart(curves, **chart)  # a first render fills numpy's lazy caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        svg = svgplot.render_line_chart(curves, **chart)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(svg)


F_TABLE_KNOTS = ((0.0, 1.05), (0.05, 1.2), (0.1, 1.3))


@settings(max_examples=25, deadline=None)
@given(points=st.integers(2, 300), param_max=st.floats(1e-3, 10.0),
       distance=st.floats(0.0, 150.0), dark=st.one_of(st.just(0.0), st.floats(1e-7, 1e-3)),
       table=st.booleans())
def test_figure1_matches_one_rate_at_per_family_and_the_reference_renderer(
        points, param_max, distance, dark, table):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "f.csv").write_text("".join(f"{e!r},{f!r}\n" for e, f in F_TABLE_KNOTS))
        f_spec = f"table:{out / 'f.csv'}" if table else "const:1.16"
        config = out / "c.cfg"
        config.write_text(f"fig1_points = {points}\nfig1_param_max = {param_max!r}\n"
                          f"distance_km = {distance!r}\ndark_prob_Pd = {dark!r}\n"
                          f"f_policy = {f_spec}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["figure1", "--config", str(config), "--out", str(out)]) == 0
        csv_text = (out / "figure1.csv").read_text(encoding="utf-8")
        svg_text = (out / "figure1.svg").read_text(encoding="utf-8")

    # one rate_at per family; a parameter without detection events (dark = 0 and a
    # vacuum source at param 0) has no row and no point
    params = [param_max * i / (points - 1) for i in range(points)]
    channel = KTH15_CHANNEL.at_distance(distance)
    detector = DetectorModel(dark_prob_Pd=dark, baseline_error_c=KTH15_DETECTOR.baseline_error_c)
    f_policy = TableF(F_TABLE_KNOTS) if table else ConstantF(1.16)
    rows, curves = [], []
    for family in SourceFamily:
        b = rate_at(Scenario(family, channel, detector, f_policy), np.array(params))
        kept = [i for i in range(points) if b.p_s_bar[i] > 0.0]
        rows += [(family.value, params[i], *(float(getattr(b, name)[i]) for name in
                                             FIGURE1_HEADER[2:])) for i in kept]
        curves.append((f"{family.value} ({family.param_name})",
                       [(params[i], float(b.R[i])) for i in kept]))
    eta_db = 10.0 * math.log10(channel.total_eta())
    comments = [f"distance_km = {reference_fmt(distance)}", f"eta_db = {reference_fmt(eta_db)}",
                "sign = corrected", f"f_policy = {f_spec}"]
    assert first_difference(csv_text, reference_csv(comments, FIGURE1_HEADER, rows)) is None
    assert first_difference(svg_text, svgplot_reference.render_line_chart(
        curves, title=f"Secure rate vs source parameter at l = {distance:g} km",
        x_label="source parameter (mean photon number alpha2 or squeeze nu)",
        y_label="secure rate per slot",
    )) is None


#: A source parameter: 0 (a vacuum source, which has no detection events without
#: dark counts) or up to 10.
PARAMS = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


@settings(max_examples=25, deadline=None)
@given(points=st.lists(st.tuples(st.lists(PARAMS, min_size=1, max_size=4),
                                 st.lists(st.floats(0.0, 150.0), min_size=1, max_size=3)),
                       min_size=3, max_size=3),
       dark=st.one_of(st.just(0.0), st.floats(1e-7, 1e-3)), table=st.booleans())
def test_rate_matches_one_rate_at_per_distance_and_the_reference_join(points, dark, table):
    detector = DetectorModel(dark_prob_Pd=dark, baseline_error_c=KTH15_DETECTOR.baseline_error_c)
    f_policy = TableF(F_TABLE_KNOTS) if table else ConstantF(1.16)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "f.csv").write_text("".join(f"{e!r},{f!r}\n" for e, f in F_TABLE_KNOTS))
        f_spec = f"table:{out / 'f.csv'}" if table else "const:1.16"
        config = out / "c.cfg"
        config.write_text(f"dark_prob_Pd = {dark!r}\nf_policy = {f_spec}\n")
        for family, (params, distances) in zip(SourceFamily, points):
            argv = ["rate", "--config", str(config), "--family", family.value]
            argv += [arg for p in params for arg in (f"--{family.param_name}", repr(p))]
            argv += [arg for l in distances for arg in ("--l", repr(l))]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)

            # one rate_at per distance; a point without detection events ends the command
            rows, error = [], None
            for l in distances:
                channel = KTH15_CHANNEL.at_distance(l)
                b = rate_at(Scenario(family, channel, detector, f_policy), np.array(params))
                if not np.all(b.p_s_bar > 0.0):
                    error = (f"config error: {family.value} at l = {l:g} km: no detection events "
                             "(no signal and no dark counts), so the error rate is undefined\n")
                    break
                rows += [(family.value, l, channel.total_eta(), p,
                          *(float(getattr(b, name)[i]) for name in RATE_HEADER[4:]))
                         for i, p in enumerate(params)]
            if error is not None:
                assert (code, stdout.getvalue(), stderr.getvalue()) == (2, "", error)
                continue
            comments = ["sign = corrected", f"f_policy = {f_spec}"]
            assert (code, stderr.getvalue()) == (0, "")
            assert first_difference(stdout.getvalue(),
                                    reference_csv(comments, RATE_HEADER, rows)) is None


def reference_distances(l_max, l_step):
    """0, l_step, 2 * l_step, ... up to l_max, where a last step past it by rounding alone
    stays (3 * 0.1 = 0.30000000000000004 ends a 0.3 km range)."""
    steps = range(int(l_max / l_step) + 2)
    return [k * l_step for k in steps if k * l_step <= l_max * (1.0 + 4.0 * sys.float_info.epsilon)]


@settings(max_examples=25, deadline=None)
@given(grid_points=st.integers(40, 80), l_step=st.floats(2.0, 10.0), l_max=st.floats(10.0, 100.0),
       channel=st.fixed_dictionaries({key: st.floats(*bounds) for key, bounds in BOX.items()}),
       table=st.booleans(), literal=st.booleans())
def test_figure2_matches_one_optimize_param_per_row_and_the_reference_renderer(
        grid_points, l_step, l_max, channel, table, literal):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "f.csv").write_text("".join(f"{e!r},{f!r}\n" for e, f in F_TABLE_KNOTS))
        f_spec = f"table:{out / 'f.csv'}" if table else "const:1.16"
        config = out / "c.cfg"
        config.write_text("".join(f"{key} = {value!r}\n" for key, value in channel.items())
                          + f"grid_points = {grid_points}\nl_max_km = {l_max!r}\n"
                          f"l_step_km = {l_step!r}\nf_policy = {f_spec}\n"
                          f"paper_literal_sign = {literal}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["figure2", "--config", str(config), "--out", str(out)]) == 0
        csv_text = (out / "figure2.csv").read_text(encoding="utf-8")
        svg_text = (out / "figure2.svg").read_text(encoding="utf-8")

    # one optimize_param per (family, distance), and the family's cutoff_distance over
    # the swept range when that range ends insecure and starts secure
    distances = reference_distances(l_max, l_step)
    f_policy = TableF(F_TABLE_KNOTS) if table else ConstantF(1.16)
    rows, curves = [], []
    for family in SourceFamily:
        s = scenario(family, 0.0, f_policy, literal, **channel)
        optima = [(l, optimize_param(s.at_distance(l), grid_points=grid_points))
                  for l in distances]
        cutoff = None
        if optima[-1][1] is None:
            try:
                cutoff = cutoff_distance(s, distances[-1], grid_points=grid_points)
            except DegenerateInputError:  # insecure from 0 km on
                pass
        secure = [(l, optimum) for l, optimum in optima if optimum is not None]
        rows += [(family.value, l, s.channel.eta_at(l), optimum.param_value,
                  *(getattr(optimum.breakdown, name) for name in FIGURE2_HEADER[4:-1]),
                  "" if cutoff is None else reference_fmt(cutoff)) for l, optimum in secure]
        curves.append((f"{family.value} ({family.param_name})",
                       [(l, optimum.breakdown.R) for l, optimum in secure]))
    comments = [f"l_max_km = {reference_fmt(l_max)}", f"l_step_km = {reference_fmt(l_step)}",
                f"sign = {'paper-literal' if literal else 'corrected'}", f"f_policy = {f_spec}"]
    assert first_difference(csv_text, reference_csv(comments, FIGURE2_HEADER, rows)) is None
    assert first_difference(svg_text, svgplot_reference.render_line_chart(
        curves, title="Optimal secure rate vs transmission distance",
        x_label="distance (km)", y_label="optimal secure rate per slot", log_y=True,
    )) is None
