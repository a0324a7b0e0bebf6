"""Polyline SVG charts with byte-stable output, written without a plotting library.

Figures are written as standalone 800x600 SVG documents.  Each curve's points
are placed with numpy and its coordinates formatted with two fixed decimals
in one ``%``-format, and tick labels with ``%g``, so a fixed input always
renders to identical bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = ["render_line_chart"]

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 80
MARGIN_RIGHT = 160
MARGIN_TOP = 50
MARGIN_BOTTOM = 60

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

#: A label and its (x, y) points: a sequence of pairs or an (n, 2) array.
Curve = tuple[str, "Sequence[tuple[float, float]] | np.ndarray"]


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 5
    return [lo + i * step for i in range(6)]


def _span(values: np.ndarray) -> tuple[float, float]:
    """Least and greatest of ``values``, or (0, 1) when empty; ``hi - lo`` is finite, > 0."""
    # a flat range gets hi = lo + 1, or the next float up where adding 1 does not move lo
    lo, hi = (float(values.min()), float(values.max())) if values.size else (0.0, 1.0)
    hi = hi if hi > lo else max(lo + 1.0, math.nextafter(lo, math.inf))
    if math.isinf(hi - lo):
        raise DomainError(f"plot range from {lo!r} to {hi!r} is wider than the float range")
    return lo, hi


def render_line_chart(
    curves: Sequence[Curve],
    *,
    title: str,
    x_label: str,
    y_label: str,
    log_y: bool = False,
) -> str:
    """Render labelled curves into an SVG document string.

    ``log_y`` plots log10 of the y values with decade ticks; non-positive y
    values are dropped from log-scale curves since they have no image.
    """
    plotted: list[tuple[str, np.ndarray]] = []
    for label, points in curves:
        pts = np.array(points, dtype=float).reshape(-1, 2)
        pts = pts[np.isfinite(pts).all(axis=1) & ((pts[:, 1] > 0.0) if log_y else True)]
        if log_y:  # math.log10, which numpy's vectorised log10 need not match bit for bit
            pts[:, 1] = [math.log10(y) for y in pts[:, 1].tolist()]
        plotted.append((label, pts))

    kept = np.concatenate([np.empty((0, 2)), *(pts for _, pts in plotted)])
    x_lo, x_hi = _span(kept[:, 0])
    y_lo, y_hi = _span(kept[:, 1])
    if log_y:
        y_lo, y_hi = math.floor(y_lo), math.ceil(y_hi)
        y_ticks = [float(d) for d in range(y_lo, y_hi + 1)]
    else:
        y_ticks = _ticks(y_lo, y_hi)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="28" text-anchor="middle" font-size="18">{title}</text>',
    ]

    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        lines.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP}" x2="{x:.2f}" '
            f'y2="{MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-size="12">{tick:g}</text>'
        )
    for tick in y_ticks:
        y = py(tick)
        label = f"1e{tick:g}" if log_y else f"{tick:g}"
        lines.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12">{label}</text>'
        )

    # axes drawn after the grid so they stay visible
    lines.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    lines.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>'
    )
    lines.append(
        f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.0f})">{y_label}</text>'
    )

    for i, (label, pts) in enumerate(plotted):
        color = PALETTE[i % len(PALETTE)]
        if len(pts):  # px and py are elementwise: each coordinate has its per-point bits
            placed = np.column_stack((px(pts[:, 0]), py(pts[:, 1])))
            coords = " ".join(["%.2f,%.2f"] * len(pts)) % tuple(placed.ravel().tolist())
            lines.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        legend_y = MARGIN_TOP + 16 + 22 * i
        legend_x = MARGIN_LEFT + plot_w + 12
        lines.append(
            f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 24}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{legend_x + 30}" y="{legend_y + 4}" font-size="12">{label}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
