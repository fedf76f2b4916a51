"""Deterministic SVG rendering of a body with optional overlays.

The canvas is fixed at 800 x 450.  The world window is the bounding box
of the hexagram star grown by 5% on every side, mapped with a uniform
scale and centered; the same input always produces the same bytes (no
timestamps, no environment-dependent formatting).

Each overlay contributes exactly one <path> element: the body outline,
the inscribed hexagon, the hexagram star, and the scaled containment
region.  The centroid overlay adds one circle marker carrying its exact
world coordinates in a data attribute, plus a text label.
"""

from .geom_core import area_and_centroid
from .io_json import dump_scalar

WIDTH = 800
HEIGHT = 450
PAD = 0.05


class _View:
    """World-to-pixel map: uniform scale, centered, y flipped."""

    def __init__(self, pts):
        xs = [float(p.x) for p in pts]
        ys = [float(p.y) for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        dx = (x1 - x0) or 1.0
        dy = (y1 - y0) or 1.0
        x0 -= PAD * dx
        x1 += PAD * dx
        y0 -= PAD * dy
        y1 += PAD * dy
        self.scale = min(WIDTH / (x1 - x0), HEIGHT / (y1 - y0))
        self.cx = (x0 + x1) / 2.0
        self.cy = (y0 + y1) / 2.0

    def px(self, p):
        x = WIDTH / 2.0 + (float(p.x) - self.cx) * self.scale
        y = HEIGHT / 2.0 - (float(p.y) - self.cy) * self.scale
        return x, y


def _fmt(v):
    return format(v, ".2f")


def _path(view, pts, cls, style):
    cmds = []
    for i, p in enumerate(pts):
        x, y = view.px(p)
        cmds.append("%s%s %s" % ("M" if i == 0 else "L", _fmt(x), _fmt(y)))
    return '<path class="%s" d="%s Z" style="%s"/>' \
        % (cls, " ".join(cmds), style)


def _label(view, p, text, dx=6, dy=-6):
    x, y = view.px(p)
    return ('<text x="%s" y="%s" font-family="sans-serif" font-size="12" '
            'fill="#333">%s</text>'
            % (_fmt(x + dx), _fmt(y + dy), text))


def render_svg(body, hexagon, show_hexagon=False, show_star=False,
               show_centroid=False, ratio=None):
    """SVG document for the body and its inscribed hexagon.

    ratio scales the containment region drawn by the centroid overlay;
    it defaults to 4/21 at the call site.
    """
    star = hexagon.star_vertices()
    view = _View(star)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
             'height="%d" viewBox="0 0 %d %d">' % (WIDTH, HEIGHT,
                                                   WIDTH, HEIGHT),
             '<rect width="%d" height="%d" fill="#ffffff"/>'
             % (WIDTH, HEIGHT)]
    parts.append(_path(view, body.vertices, "body",
                       "fill:#dce9f7;stroke:#2b5f9e;stroke-width:2"))
    if show_star:
        parts.append(_path(view, star, "star",
                           "fill:none;stroke:#c08a2d;stroke-width:1.5;"
                           "stroke-dasharray:6 4"))
    if show_hexagon:
        parts.append(_path(view, hexagon.vertices, "hexagon",
                           "fill:none;stroke:#1f7a4d;stroke-width:2"))
        for i, v in enumerate(hexagon.vertices):
            parts.append(_label(view, v, "a%d" % (i + 1)))
    if show_centroid:
        _, cen = area_and_centroid(body)
        c = hexagon.c
        region = [c + (v - c) * ratio for v in hexagon.vertices]
        parts.append(_path(view, region, "bound",
                           "fill:none;stroke:#a33b3b;stroke-width:1.5"))
        x, y = view.px(cen)
        parts.append('<circle class="centroid-marker" cx="%s" cy="%s" '
                     'r="4" fill="#a33b3b" data-world="%s,%s"/>'
                     % (_fmt(x), _fmt(y),
                        dump_scalar(cen.x), dump_scalar(cen.y)))
        parts.append(_label(view, cen, "centroid (%s, %s)"
                            % (dump_scalar(cen.x), dump_scalar(cen.y))))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
