"""Minimal standalone SVG line charts (no display dependency).

One chart style: a polyline over numeric data with axes, tick labels,
optional shaded x-spans (used to mark peak integration windows), and a
title. Output is a self-contained SVG file.
"""

from __future__ import annotations

import numpy as np

from .model import ValidationError

_WIDTH = 920
_HEIGHT = 430
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50


def _ticks(lo: float, hi: float) -> np.ndarray:
    """Round-valued ticks, about six of them, from lo to hi."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    return np.arange(first, hi + step / 2.0, step)


def _fmt(v: float) -> str:
    return "%g" % (0.0 if v == 0 else round(v, 10))


def line_chart_svg(
    path,
    x,
    y,
    x_label: str,
    y_label: str,
    title: str,
    shaded_spans=None,
) -> None:
    """Write a line chart of y versus x with optional shaded x-intervals."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValidationError("chart needs two equal-length arrays (n >= 2)")
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo = float(min(np.min(y), 0.0))
    y_hi = float(np.max(y))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.05
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT),
        '<rect width="%d" height="%d" fill="white"/>' % (_WIDTH, _HEIGHT),
    ]
    for span in shaded_spans or []:
        lo, hi = float(span[0]), float(span[1])
        lo = max(lo, x_lo)
        hi = min(hi, x_hi)
        if hi <= lo:
            continue
        parts.append(
            '<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="#aecbe8" '
            'fill-opacity="0.45"/>' % (px(lo), _MARGIN_T, px(hi) - px(lo), plot_h)
        )
    axis = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black"/>'
    parts.append(axis % (_MARGIN_L, _MARGIN_T, _MARGIN_L, _MARGIN_T + plot_h))
    parts.append(
        axis % (_MARGIN_L, _MARGIN_T + plot_h, _MARGIN_L + plot_w, _MARGIN_T + plot_h)
    )
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            axis % (px(tx), _MARGIN_T + plot_h, px(tx), _MARGIN_T + plot_h + 5)
        )
        parts.append(
            '<text x="%.2f" y="%d" font-size="12" text-anchor="middle">%s</text>'
            % (px(tx), _MARGIN_T + plot_h + 20, _fmt(tx))
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(axis % (_MARGIN_L - 5, py(ty), _MARGIN_L, py(ty)))
        parts.append(
            '<text x="%d" y="%.2f" font-size="12" text-anchor="end">%s</text>'
            % (_MARGIN_L - 9, py(ty) + 4, _fmt(ty))
        )
    xy = np.column_stack((px(x), py(y))).ravel().tolist()
    pts = " ".join(["%.2f,%.2f"] * x.size) % tuple(xy)
    parts.append(
        '<polyline points="%s" fill="none" stroke="#1f4e8c" stroke-width="1"/>' % pts
    )
    parts += [
        '<text x="%d" y="24" font-size="15" text-anchor="middle">%s</text>'
        % (_WIDTH // 2, title),
        '<text x="%d" y="%d" font-size="13" text-anchor="middle">%s</text>'
        % (_MARGIN_L + plot_w // 2, _HEIGHT - 12, x_label),
        '<text x="16" y="%d" font-size="13" text-anchor="middle" '
        'transform="rotate(-90 16 %d)">%s</text>'
        % (_MARGIN_T + plot_h // 2, _MARGIN_T + plot_h // 2, y_label),
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def histogram_svg(path, hist, peak_spans):
    """Chart a correlation histogram with its peak windows shaded."""
    line_chart_svg(
        path,
        hist.bin_centers_ps,
        hist.counts,
        x_label="delay (ps)",
        y_label="coincidences per bin",
        title="Correlation histogram",
        shaded_spans=peak_spans,
    )

