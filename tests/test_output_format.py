"""The CSV and SVG writers against the one-cell-at-a-time formatting they replaced.

Each table row is written with one ``%``-format built from its header, and
each polyline point with one ``"%.2f,%.2f"``.  The references below are the
per-cell formatters those replaced; every drawn table must come out byte for
byte the same.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcs_qkd import DomainError, cli, svgplot
from mcs_qkd.cli import FIGURE1_HEADER, FIGURE2_HEADER, RATE_HEADER, VERIFY_HEADER


def reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def reference_csv(comments, header, rows) -> str:
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    lines.extend(",".join(reference_fmt(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


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
TEXT = st.one_of(
    st.sampled_from(["coherent-bb84", "mcs-bb84", "mcs-sarg04", "p_multi_min", "fock"]),
    st.text(max_size=12),
)
#: figure2's cutoff cell: a float, or "" when the family has no cutoff in range.
CUTOFFS = st.one_of(st.just(""), FLOATS)
COLUMNS = {
    "family": TEXT, "formula": TEXT, "method": TEXT,
    "resolution": st.integers(), "within_tol": st.booleans(), "cutoff_km": CUTOFFS,
}
HEADERS = {"rate": RATE_HEADER, "figure1": FIGURE1_HEADER,
           "figure2": FIGURE2_HEADER, "verify": VERIFY_HEADER}


def cli_row(header, row) -> tuple:
    """``row`` as the command hands it to ``_csv_text``.

    figure2 formats its cutoff first, and verify writes its flag as true/false.
    """
    def cell(name, value):
        if name == "cutoff_km" and value != "":
            return cli._fmt(value)
        if name == "within_tol":
            return "true" if value else "false"
        return value

    return tuple(cell(name, value) for name, value in zip(header, row))


@st.composite
def tables(draw):
    header = HEADERS[draw(st.sampled_from(sorted(HEADERS)))]
    row = st.tuples(*(COLUMNS.get(name, FLOAT_CELLS) for name in header))
    comments = draw(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                                     max_size=20), max_size=3))
    return comments, header, draw(st.lists(row, max_size=8))


@settings(max_examples=200, deadline=None)
@given(tables())
def test_csv_text_matches_the_per_cell_join(table):
    comments, header, rows = table
    written = cli._csv_text(comments, header, [cli_row(header, row) for row in rows])
    assert written == reference_csv(comments, header, rows)


def test_csv_text_of_no_rows_is_comments_and_header():
    for header in HEADERS.values():
        assert cli._csv_text(["a = 1"], header, []) == reference_csv(["a = 1"], header, [])


def test_csv_text_writes_every_edge_float_like_the_per_cell_join():
    rows = [("mcs-bb84", *([value] * (len(FIGURE1_HEADER) - 1))) for value in EDGE_FLOATS]
    assert cli._csv_text([], FIGURE1_HEADER, rows) == reference_csv([], FIGURE1_HEADER, rows)


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
