"""Deterministic SVG scatter plots: physical-space point sets with visible
points filled and invisible points hollow, and Minkowski-embedding field
plots with the unit-box overlay."""

from __future__ import annotations

from fractions import Fraction

from .quadfield import FieldDesc, fundamental_unit, iter_ring_box


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _header(width: int, height: int, title: str | None) -> list[str]:
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">']
    if title:
        out.append(f'<title>{title}</title>')
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    return out


class _Mapper:
    def __init__(self, xs, ys, width, height, pad=30):
        self.x_lo = min(xs) if xs else -1.0
        self.x_hi = max(xs) if xs else 1.0
        self.y_lo = min(ys) if ys else -1.0
        self.y_hi = max(ys) if ys else 1.0
        if self.x_hi == self.x_lo:
            self.x_hi += 1.0
        if self.y_hi == self.y_lo:
            self.y_hi += 1.0
        self.pad = pad
        self.width = width
        self.height = height

    def __call__(self, x, y):
        sx = self.pad + (x - self.x_lo) / (self.x_hi - self.x_lo) \
            * (self.width - 2 * self.pad)
        sy = self.height - self.pad - (y - self.y_lo) \
            / (self.y_hi - self.y_lo) * (self.height - 2 * self.pad)
        return sx, sy


def svg_scatter(points, visible=None, width: int = 640, height: int = 640,
                radius: float = 2.5, title: str | None = None) -> str:
    """Scatter of the physical coordinates (first two components); visible
    points are filled, invisible ones hollow.  Deterministic output."""
    coords = [getattr(p, "coords_phys", p)[:2] for p in points]
    out = _header(width, height, title)
    mp = _Mapper([c[0] for c in coords], [c[1] for c in coords],
                 width, height)
    # axes through the origin when in range
    ox, oy = mp(0.0, 0.0)
    if mp.x_lo <= 0 <= mp.x_hi:
        out.append(f'<line x1="{_fmt(ox)}" y1="{mp.pad}" x2="{_fmt(ox)}" '
                   f'y2="{height - mp.pad}" stroke="#cccccc"/>')
    if mp.y_lo <= 0 <= mp.y_hi:
        out.append(f'<line x1="{mp.pad}" y1="{_fmt(oy)}" '
                   f'x2="{width - mp.pad}" y2="{_fmt(oy)}" stroke="#cccccc"/>')
    for i, (x, y) in enumerate(coords):
        sx, sy = mp(float(x), float(y))
        vis = True if visible is None else bool(visible[i])
        if vis:
            out.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" '
                       f'r="{radius}" fill="black"/>')
        else:
            out.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" '
                       f'r="{radius}" fill="none" stroke="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def svg_field_plot(fld: FieldDesc, x_half: float = 6.0, y_half: float = 6.0,
                   width: int = 640, height: int = 640) -> str:
    """Minkowski embedding (x, sigma(x)) of the ring of integers with the
    box (1, lambda) x [-1, 1] overlaid; the box is empty exactly when the
    field passes the Hammarhjelm test."""
    xh = Fraction(x_half).limit_denominator(10**6)
    yh = Fraction(y_half).limit_denominator(10**6)
    pts = [(float(x), x.conj_float())
           for x in iter_ring_box(fld, -xh, xh, -yh, yh)]
    lam = float(fundamental_unit(fld))
    out = _header(width, height, f"Minkowski embedding, d={fld.d}")
    mp = _Mapper([p[0] for p in pts] or [-x_half, x_half],
                 [p[1] for p in pts] or [-y_half, y_half], width, height)
    x1, y1 = mp(1.0, 1.0)
    x2, y2 = mp(min(lam, float(x_half)), -1.0)
    out.append(f'<rect x="{_fmt(x1)}" y="{_fmt(y1)}" '
               f'width="{_fmt(x2 - x1)}" height="{_fmt(y2 - y1)}" '
               f'fill="none" stroke="red" stroke-width="1.5"/>')
    for x, y in pts:
        sx, sy = mp(x, y)
        out.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="2.5" '
                   f'fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
