"""SVG charts: the polyline's points, formatted as one string."""

import numpy as np

from homsim import svgplot


def _points_reference(x, y):
    """The polyline points of line_chart_svg, formatted one point at a time."""
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(min(np.min(y), 0.0)), float(np.max(y))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.05
    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B
    return " ".join(
        "%.2f,%.2f" % (
            svgplot._MARGIN_L + (a - x_lo) / (x_hi - x_lo) * plot_w,
            svgplot._MARGIN_T + (y_hi - b) / (y_hi - y_lo) * plot_h,
        )
        for a, b in zip(x, y)
    )


def test_points_of_a_16000_bin_histogram_match_per_point_formatting(tmp_path):
    # analyze-hom's default grid: 10 ps bins over an 80 ns window
    x = np.arange(16_000) * 10.0 - 80_000.0 + 5.0
    y = np.random.default_rng(5).poisson(40.0, x.size).astype(float)
    y[::997] = 0.0
    path = tmp_path / "hist.svg"
    svgplot.line_chart_svg(path, x, y, "delay (ps)", "counts", "histogram")
    polyline = [ln for ln in path.read_text().splitlines() if ln.startswith("<polyline")]
    assert polyline == [
        '<polyline points="%s" fill="none" stroke="#1f4e8c" stroke-width="1"/>'
        % _points_reference(x, y)
    ]
