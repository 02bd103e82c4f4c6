"""Minimal self-contained SVG plots (no rendering dependencies).

Good enough for overlaying empirical densities on analytic curves with a
correlation annotation; not a general plotting library.  All text is XML-escaped.
"""

from __future__ import annotations

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 760, 480
_ML, _MR, _MT, _MB = 64, 16, 34, 46


def _nice_ticks(lo: float, hi: float, target: int = 6):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


class SvgPlot:
    """Accumulates line/point series, then renders one SVG document."""

    def __init__(self, title: str = "", xlabel: str = "x", ylabel: str = "density"):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []
        self.annotations = []

    def add_line(self, x, y, label: str = ""):
        self.series.append(("line", list(map(float, x)), list(map(float, y)), label))

    def add_points(self, x, y, label: str = ""):
        self.series.append(("points", list(map(float, x)), list(map(float, y)), label))

    def annotate(self, text: str):
        self.annotations.append(text)

    def _bounds(self):
        xs = [v for _, x, _, _ in self.series for v in x]
        ys = [v for _, _, y, _ in self.series for v in y]
        if not xs:
            return 0.0, 1.0, 0.0, 1.0
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(0.0, min(ys)), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        return x0, x1, y0, y1 * 1.05

    def render(self) -> str:
        from xml.sax.saxutils import escape  # on use: it imports urllib.request
        x0, x1, y0, y1 = self._bounds()
        pw = _W - _ML - _MR
        ph = _H - _MT - _MB

        def px(x):
            return _ML + (x - x0) / (x1 - x0) * pw

        def py(y):
            return _MT + ph - (y - y0) / (y1 - y0) * ph

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
            f'stroke="#444" stroke-width="1"/>',
        ]
        for tx in _nice_ticks(x0, x1):
            parts.append(f'<line x1="{px(tx):.2f}" y1="{_MT + ph}" x2="{px(tx):.2f}" '
                         f'y2="{_MT + ph + 5}" stroke="#444"/>')
            parts.append(f'<text x="{px(tx):.2f}" y="{_MT + ph + 18}" '
                         f'text-anchor="middle">{_fmt_tick(tx)}</text>')
        for ty in _nice_ticks(y0, y1):
            parts.append(f'<line x1="{_ML - 5}" y1="{py(ty):.2f}" x2="{_ML}" '
                         f'y2="{py(ty):.2f}" stroke="#444"/>')
            parts.append(f'<text x="{_ML - 8}" y="{py(ty) + 4:.2f}" '
                         f'text-anchor="end">{_fmt_tick(ty)}</text>')
        if self.title:
            parts.append(f'<text x="{_W / 2}" y="20" text-anchor="middle" '
                         f'font-size="15">{escape(self.title)}</text>')
        parts.append(f'<text x="{_ML + pw / 2}" y="{_H - 8}" '
                     f'text-anchor="middle">{escape(self.xlabel)}</text>')
        parts.append(f'<text x="16" y="{_MT + ph / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_MT + ph / 2})">{escape(self.ylabel)}</text>')

        for k, (kind, xv, yv, label) in enumerate(self.series):
            color = _COLORS[k % len(_COLORS)]
            if kind == "line":
                pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xv, yv))
                parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                             f'stroke-width="1.6"/>')
            else:
                for a, b in zip(xv, yv):
                    parts.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="2.2" '
                                 f'fill="{color}" fill-opacity="0.75"/>')
        # legend and annotations in the top-right corner of the plot area
        line = 0
        for k, (_, _, _, label) in enumerate(self.series):
            if not label:
                continue
            color = _COLORS[k % len(_COLORS)]
            yy = _MT + 16 + 16 * line
            parts.append(f'<rect x="{_ML + pw - 150}" y="{yy - 9}" width="12" height="4" '
                         f'fill="{color}"/>')
            parts.append(f'<text x="{_ML + pw - 132}" y="{yy}">{escape(label)}</text>')
            line += 1
        for text in self.annotations:
            yy = _MT + 16 + 16 * line
            parts.append(f'<text x="{_ML + pw - 150}" y="{yy}">{escape(text)}</text>')
            line += 1
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
