"""Deterministic SVG scatter plots: physical-space point sets with visible
points filled and invisible points hollow, and Minkowski-embedding field
plots with the unit-box overlay.  Every plot is a SIZE x SIZE canvas with a
margin of PAD and dots of radius RADIUS; a field plot shows the ring
elements x with |x|, |sigma(x)| <= FIELD_HALF."""

from __future__ import annotations

import math

from .quadfield import FieldDesc, fundamental_unit, iter_ring_box

SIZE = 640
PAD = 30
RADIUS = 2.5
FIELD_HALF = 6


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _header(title: str | None) -> list[str]:
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
           f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">']
    if title:
        out.append(f'<title>{title}</title>')
    out.append(f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>')
    return out


class _Mapper:
    def __init__(self, xs, ys):
        self.x_lo = min(xs) if xs else -1.0
        self.x_hi = max(xs) if xs else 1.0
        self.y_lo = min(ys) if ys else -1.0
        self.y_hi = max(ys) if ys else 1.0
        if self.x_hi == self.x_lo:
            self.x_hi += 1.0
        if self.y_hi == self.y_lo:
            self.y_hi += 1.0

    def __call__(self, x, y):
        sx = PAD + (x - self.x_lo) / (self.x_hi - self.x_lo) * (SIZE - 2 * PAD)
        sy = SIZE - PAD - (y - self.y_lo) \
            / (self.y_hi - self.y_lo) * (SIZE - 2 * PAD)
        return sx, sy


def svg_scatter(fld: FieldDesc, P, Q, visible) -> str:
    """Scatter of the physical coordinates (first two components) of the
    columns x = (P + Q*sqrt(d))/2, as QuadInt.__float__ computes them;
    visible points are filled, invisible ones hollow.  Deterministic
    output."""
    coords = list(zip(*((P[:2] + Q[:2] * math.sqrt(fld.d)) / 2).tolist()))
    out = _header(None)
    mp = _Mapper([c[0] for c in coords], [c[1] for c in coords])
    # axes through the origin when in range
    ox, oy = mp(0.0, 0.0)
    if mp.x_lo <= 0 <= mp.x_hi:
        out.append(f'<line x1="{_fmt(ox)}" y1="{PAD}" x2="{_fmt(ox)}" '
                   f'y2="{SIZE - PAD}" stroke="#cccccc"/>')
    if mp.y_lo <= 0 <= mp.y_hi:
        out.append(f'<line x1="{PAD}" y1="{_fmt(oy)}" '
                   f'x2="{SIZE - PAD}" y2="{_fmt(oy)}" stroke="#cccccc"/>')
    for (x, y), vis in zip(coords, visible):
        sx, sy = mp(x, y)
        if vis:
            out.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" '
                       f'r="{RADIUS}" fill="black"/>')
        else:
            out.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" '
                       f'r="{RADIUS}" fill="none" stroke="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def svg_field_plot(fld: FieldDesc) -> str:
    """Minkowski embedding (x, sigma(x)) of the ring of integers with the
    box (1, lambda) x [-1, 1] overlaid; the box is empty exactly when the
    field passes the Hammarhjelm test."""
    h = FIELD_HALF
    pts = [(float(x), x.conj_float())
           for x in iter_ring_box(fld, -h, h, -h, h)]
    lam = float(fundamental_unit(fld))
    out = _header(f"Minkowski embedding, d={fld.d}")
    # never empty: the box holds the origin
    mp = _Mapper([p[0] for p in pts], [p[1] for p in pts])
    x1, y1 = mp(1.0, 1.0)
    x2, y2 = mp(min(lam, h), -1.0)
    out.append(f'<rect x="{_fmt(x1)}" y="{_fmt(y1)}" '
               f'width="{_fmt(x2 - x1)}" height="{_fmt(y2 - y1)}" '
               f'fill="none" stroke="red" stroke-width="1.5"/>')
    for x, y in pts:
        sx, sy = mp(x, y)
        out.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="{RADIUS}" '
                   f'fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
