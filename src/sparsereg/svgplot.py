"""Self-contained log-log SVG plots for rate sweeps.

Output is a static artifact: fixed canvas, fixed float formatting, no
timestamps or generator metadata, so identical inputs give byte-identical
files.
"""

import math
from typing import Sequence

__all__ = ["render_rate_plot"]

_WIDTH = 640.0
_HEIGHT = 480.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 72.0, 24.0, 44.0, 58.0


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _decade_label(exponent: int) -> str:
    return f"1e{exponent:+03d}"


def render_rate_plot(
    deltas: Sequence[float],
    errors: Sequence[float],
    slope: float,
    intercept: float,
    reference_slope: float,
    title: str,
) -> str:
    """Render scatter + fitted line + reference-slope line, under a title.

    The fit is in natural logs (log err = intercept + slope * log delta);
    the reference line shares the fitted line's value at the largest
    noise level so the two visibly diverge toward small noise.
    """
    points = [
        (float(d), float(e))
        for d, e in zip(deltas, errors)
        if d > 0.0 and e > 0.0 and math.isfinite(d) and math.isfinite(e)
    ]
    if len(points) < 2:
        raise ValueError("rate plot needs at least two positive (delta, error) points")

    xs = [math.log10(d) for d, _ in points]
    ys = [math.log10(e) for _, e in points]

    # fitted and reference lines evaluated at the x extremes, in log10
    ln10 = math.log(10.0)
    x_lo, x_hi = min(xs), max(xs)

    def fit_y(x10: float) -> float:
        return (intercept + slope * x10 * ln10) / ln10

    line_ys = [fit_y(x_lo), fit_y(x_hi)]
    anchor = fit_y(x_hi)
    ref_ys = [anchor - reference_slope * (x_hi - x_lo), anchor]

    y_all = ys + line_ys + ref_ys
    y_lo, y_hi = min(y_all), max(y_all)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.08 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def px(x10: float) -> float:
        return _LEFT + (x10 - x_lo) / (x_hi - x_lo) * plot_w

    def py(y10: float) -> float:
        return _TOP + (y_hi - y10) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
    ]

    # decade grid lines and tick labels
    for k in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x = px(float(k))
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_TOP)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(_TOP + plot_h)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_TOP + plot_h + 18.0)}" '
            f'font-family="sans-serif" font-size="12" text-anchor="middle">'
            f"{_decade_label(k)}</text>"
        )
    for k in range(math.ceil(y_lo), math.floor(y_hi) + 1):
        y = py(float(k))
        parts.append(
            f'<line x1="{_fmt(_LEFT)}" y1="{_fmt(y)}" x2="{_fmt(_LEFT + plot_w)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_LEFT - 6.0)}" y="{_fmt(y + 4.0)}" '
            f'font-family="sans-serif" font-size="12" text-anchor="end">'
            f"{_decade_label(k)}</text>"
        )

    parts.append(
        f'<rect x="{_fmt(_LEFT)}" y="{_fmt(_TOP)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="black" stroke-width="1"/>'
    )

    parts.append(
        f'<line x1="{_fmt(px(x_lo + x_pad))}" y1="{_fmt(py(ref_ys[0]))}" '
        f'x2="{_fmt(px(x_hi - x_pad))}" y2="{_fmt(py(ref_ys[1]))}" '
        f'stroke="#888888" stroke-width="1.5" stroke-dasharray="6,4"/>'
    )
    parts.append(
        f'<line x1="{_fmt(px(x_lo + x_pad))}" y1="{_fmt(py(line_ys[0]))}" '
        f'x2="{_fmt(px(x_hi - x_pad))}" y2="{_fmt(py(line_ys[1]))}" '
        f'stroke="#cc3311" stroke-width="2"/>'
    )
    for x10, y10 in zip(xs, ys):
        parts.append(
            f'<circle cx="{_fmt(px(x10))}" cy="{_fmt(py(y10))}" r="4" '
            f'fill="#004488" fill-opacity="0.85"/>'
        )

    legend_x = _LEFT + 12.0
    legend_y = _TOP + 20.0
    parts.append(
        f'<text x="{_fmt(legend_x)}" y="{_fmt(legend_y)}" font-family="sans-serif" '
        f'font-size="13" fill="#cc3311">fitted slope {slope:.4f}</text>'
    )
    parts.append(
        f'<text x="{_fmt(legend_x)}" y="{_fmt(legend_y + 18.0)}" '
        f'font-family="sans-serif" font-size="13" fill="#555555">'
        f"reference slope {reference_slope:.4f}</text>"
    )
    parts.append(
        f'<text x="{_fmt(_WIDTH / 2.0)}" y="{_fmt(_TOP - 16.0)}" '
        f'font-family="sans-serif" font-size="15" text-anchor="middle">'
        f"{title}</text>"
    )
    parts.append(
        f'<text x="{_fmt(_LEFT + plot_w / 2.0)}" y="{_fmt(_HEIGHT - 14.0)}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">'
        "noise level</text>"
    )
    parts.append(
        f'<text x="18.00" y="{_fmt(_TOP + plot_h / 2.0)}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18.00 {_fmt(_TOP + plot_h / 2.0)})">'
        "reconstruction error</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
