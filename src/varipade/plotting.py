"""Standalone SVG emission for loss curves (no plotting library)."""

from __future__ import annotations

import math

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf",
)

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 70, 180, 30, 50  # margins; right one holds the legend


# An axis forms half its span, hi / 2 - lo / 2, since hi - lo can overflow for finite
# values; halving is exact, so every ratio and comparison is that of the whole span.

def _ticks(lo, hi, count=5):
    half = hi / 2 - lo / 2
    step = 10 ** math.floor(math.log10(half / (count / 2)))
    for mult in (1, 2, 5, 10):
        if half / (step * mult) <= count / 2:
            step *= mult
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t / 2 <= hi / 2 + 1e-12 * half:
        ticks.append(t)
        t += step
    return ticks


def _scale(lo, hi, start, length):
    """The map of [lo, hi] onto [start, start + length]."""
    half = hi / 2 - lo / 2
    return lambda v: start + (v / 2 - lo / 2) / half * length


def write_curves_svg(series, path, logy=False, ylabel="loss"):
    """Write one polyline per entry of `series` (label -> [(step, value)]).

    Points with a non-finite step or value are dropped, and with logy so are
    nonpositive values; returns the counts dropped, (non-finite, nonpositive).
    """
    nonfinite = nonpositive = 0
    cleaned = {}
    for label, points in series.items():
        pts = []
        for s, v in points:
            if not (math.isfinite(s) and math.isfinite(v)):
                nonfinite += 1
                continue
            if logy:
                if v <= 0:
                    nonpositive += 1
                    continue
                v = math.log10(v)
            pts.append((float(s), float(v)))
        cleaned[label] = pts
    all_pts = [p for pts in cleaned.values() for p in pts]
    if not all_pts:
        raise ValueError("no plottable points")
    xlo = min(p[0] for p in all_pts)
    xhi = max(p[0] for p in all_pts)
    ylo = min(p[1] for p in all_pts)
    yhi = max(p[1] for p in all_pts)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi, ylo = ylo + 0.5, ylo - 0.5
    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    sx = _scale(xlo, xhi, _ML, pw)
    sy = _scale(yhi, ylo, _MT, ph)  # y grows downward
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for t in _ticks(xlo, xhi):
        parts.append(
            f'<line x1="{sx(t):.1f}" y1="{_MT + ph}" x2="{sx(t):.1f}" y2="{_MT + ph + 4}" stroke="#333"/>'
            f'<text x="{sx(t):.1f}" y="{_MT + ph + 18}" font-size="11" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(ylo, yhi):
        label = f"1e{t:g}" if logy else f"{t:g}"
        parts.append(
            f'<line x1="{_ML - 4}" y1="{sy(t):.1f}" x2="{_ML}" y2="{sy(t):.1f}" stroke="#333"/>'
            f'<text x="{_ML - 8}" y="{sy(t):.1f}" font-size="11" text-anchor="end" dominant-baseline="middle">{label}</text>'
        )
    parts.append(
        f'<text x="{_ML + pw / 2:.0f}" y="{_HEIGHT - 12}" font-size="12" text-anchor="middle">step</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + ph / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + ph / 2:.0f})">{ylabel}</text>'
    )
    for i, (label, pts) in enumerate(cleaned.items()):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = _MT + 14 + i * 18
        parts.append(
            f'<line x1="{_ML + pw + 12}" y1="{ly}" x2="{_ML + pw + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{_ML + pw + 40}" y="{ly + 4}" font-size="11">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return nonfinite, nonpositive


def _esc(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
