"""Deterministic SVG rendering of piecewise functions on the unit square.

Jump discontinuities are drawn faithfully: a filled circle marks the attained
value at a breakpoint, an open circle marks a one-sided limit that differs
from it. Output is a pure function of the inputs (no timestamps, no ids), so
plots are byte-stable.
"""

from __future__ import annotations

from fractions import Fraction

from .piecewise import PiecewiseFn

_SIZE = 480
_MARGIN = 48
_PALETTE = ("#1f6fb4", "#c23b22", "#2e854b", "#8a56a3", "#b8860b", "#3b8ea5")


def _sx(x: Fraction) -> str:
    return f"{_MARGIN + float(x) * (_SIZE - 2 * _MARGIN):.2f}"


def _sy(y: Fraction) -> str:
    return f"{_SIZE - _MARGIN - float(y) * (_SIZE - 2 * _MARGIN):.2f}"


def _axes() -> list[str]:
    parts = []
    ticks = [Fraction(k, 4) for k in range(5)]
    x0, y0 = _sx(Fraction(0)), _sy(Fraction(0))
    x1, y1 = _sx(Fraction(1)), _sy(Fraction(1))
    parts.append(
        f'<rect x="{x0}" y="{y1}" width="{float(x1) - float(x0):.2f}" '
        f'height="{float(y0) - float(y1):.2f}" fill="none" stroke="#888" stroke-width="1"/>'
    )
    for t in ticks:
        label = f"{float(t):g}"
        parts.append(
            f'<text x="{_sx(t)}" y="{float(y0) + 18:.2f}" font-size="11" '
            f'text-anchor="middle" fill="#444">{label}</text>'
        )
        parts.append(
            f'<text x="{float(x0) - 8:.2f}" y="{float(_sy(t)) + 4:.2f}" font-size="11" '
            f'text-anchor="end" fill="#444">{label}</text>'
        )
    return parts


def _escape(text: str) -> str:
    # text as XML character data; not html.escape, whose import adds about
    # 0.4 MB and some milliseconds to every start of the CLI
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _series(f: PiecewiseFn, color: str) -> list[str]:
    parts = []
    open_marks = set()  # one-sided limits that differ from the attained value
    for i, (slope, intercept) in enumerate(f.pieces):
        a, b = f.breakpoints[i], f.breakpoints[i + 1]
        ya = slope * a + intercept
        yb = slope * b + intercept
        parts.append(
            f'<line x1="{_sx(a)}" y1="{_sy(ya)}" x2="{_sx(b)}" y2="{_sy(yb)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        if ya != f.values[i]:
            open_marks.add((a, ya))
        if yb != f.values[i + 1]:
            open_marks.add((b, yb))
    for x, y in sorted(open_marks):
        parts.append(
            f'<circle cx="{_sx(x)}" cy="{_sy(y)}" r="3.5" fill="#ffffff" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    for x, v in zip(f.breakpoints, f.values):
        parts.append(
            f'<circle cx="{_sx(x)}" cy="{_sy(v)}" r="3.5" fill="{color}"/>'
        )
    return parts


def render_svg(series: list[tuple[str, PiecewiseFn]]) -> str:
    """Render labeled functions to an SVG document string."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
    ]
    parts.extend(_axes())
    for idx, (label, f) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        parts.extend(_series(f, color))
        parts.append(
            f'<text x="{_SIZE - _MARGIN}" y="{_MARGIN - 10 + 14 * idx}" font-size="12" '
            f'text-anchor="end" fill="{color}">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
