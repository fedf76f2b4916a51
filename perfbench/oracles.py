"""Correctness oracles that do not import hexacent.

Each oracle recomputes a quantity from its definition: an exact shoelace on
integers over the common denominator, a point-to-segment distance, the
gauge of an affine-regular hexagon in its own (u, v) coordinates, and the
closed form of the body_G centroid.  The *_problems functions compare a
program output with these and return a list of readable problems, empty
when the output is right.
"""

import math
from collections import namedtuple
from fractions import Fraction

RATIO = Fraction(4, 21)
GOOD_STATUSES = ("Verified", "VerifiedWithErratum")


def parse_scalar(s):
    """A JSON scalar string of hexacent ("p/q", "n" or a float repr) as
    the exact Fraction it denotes."""
    t = s.strip()
    if t.lstrip("+-").replace("/", "", 1).isdigit():
        return Fraction(t)
    v = float(t)
    if not math.isfinite(v):
        raise ValueError("non-finite scalar %r" % (s,))
    return Fraction(v)


def parse_point(pair):
    return parse_scalar(pair[0]), parse_scalar(pair[1])


def shoelace(verts):
    """Exact (signed area, (cx, cy)) of a simple polygon with rational
    vertices, summed on integers over the common denominator."""
    fs = [(Fraction(x), Fraction(y)) for x, y in verts]
    den = math.lcm(*(c.denominator for p in fs for c in p))
    xs = [int(x * den) for x, _ in fs]
    ys = [int(y * den) for _, y in fs]
    n = len(fs)
    a2 = sx = sy = 0
    for i in range(n):
        j = (i + 1) % n
        cr = xs[i] * ys[j] - xs[j] * ys[i]
        a2 += cr
        sx += (xs[i] + xs[j]) * cr
        sy += (ys[i] + ys[j]) * cr
    if a2 == 0:
        raise ValueError("zero-area polygon")
    return (Fraction(a2, 2 * den * den),
            (Fraction(sx, 3 * a2 * den), Fraction(sy, 3 * a2 * den)))


def segment_distance(p, a, b):
    """Euclidean distance from point p to segment ab, in floats."""
    px, py = float(p[0]), float(p[1])
    ax, ay = float(a[0]), float(a[1])
    dx, dy = float(b[0]) - ax, float(b[1]) - ay
    l2 = dx * dx + dy * dy
    t = 0.0 if l2 == 0 else ((px - ax) * dx + (py - ay) * dy) / l2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def boundary_distance(p, verts):
    n = len(verts)
    return min(segment_distance(p, verts[i], verts[(i + 1) % n])
               for i in range(n))


def diameter(verts):
    """Diameter of a convex polygon by antipodal pairs, O(n)."""
    pts = [(float(x), float(y)) for x, y in verts]
    if shoelace_sign(pts) < 0:
        pts.reverse()
    n = len(pts)

    def area2(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    best = 0.0
    j = 1
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        while area2(a, b, pts[(j + 1) % n]) > area2(a, b, pts[j]):
            j = (j + 1) % n
        best = max(best, math.dist(a, pts[j]), math.dist(b, pts[j]))
    return best


def shoelace_sign(pts):
    n = len(pts)
    s = sum(pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1]
            for i in range(n))
    return (s > 0) - (s < 0)


def hexagon_gauge(c, u, v, p):
    """Gauge of p for the hexagon with center c and vertex offsets u, v:
    with p - c = a*u + b*v it is max(|a|, |b|, |a + b|).  Exact."""
    dx, dy = p[0] - c[0], p[1] - c[1]
    det = u[0] * v[1] - u[1] * v[0]
    a = (dx * v[1] - dy * v[0]) / det
    b = (u[0] * dy - u[1] * dx) / det
    return max(abs(a), abs(b), abs(a + b))


def hexagon_vertices(c, u, v):
    return [(c[0] + sx * u[0] + sy * v[0], c[1] + sx * u[1] + sy * v[1])
            for sx, sy in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1),
                           (1, -1))]


def body_G_closed_form(w, z):
    """(area, centroid height) of body_G(w, z) from its docstring: area
    B/w and height P/(3wB)."""
    w, z = Fraction(w), Fraction(z)
    b = w * w - 2 * w * z + 5 * w + 4 * z
    p = (4 * z * z * (w * w - 3 * w + 2) + 4 * z * w * (2 - w)
         + w ** 4 + w ** 3 - 2 * w * w)
    return b / w, p / (3 * w * b)


Facts = namedtuple("Facts", "verts centroid diameter")


def facts(verts):
    """What the checks need to know about a body, computed once."""
    return Facts(verts, shoelace(verts)[1], diameter(verts))


def hexagon_problems(body, c, u, v, gauge=None):
    """An inscribed hexagon must touch the boundary with every vertex, to
    1e-7 of the diameter, and hold the centroid at gauge <= 4/21 (1e-9)."""
    out = []
    worst = max(boundary_distance(p, body.verts)
                for p in hexagon_vertices(c, u, v))
    if worst > 1e-7 * body.diameter:
        out.append("hexagon vertex %.3g off the boundary (diameter %.3g)"
                   % (worst, body.diameter))
    g = hexagon_gauge(c, u, v, body.centroid) if gauge is None else gauge
    if g > RATIO + Fraction(1, 10 ** 9):
        out.append("centroid gauge %.12g exceeds 4/21" % g)
    return out


def check_report_problems(doc, body, expect=()):
    """Problems with one JSON report of `hexacent check` on body.

    expect holds (key, value) pairs the report must carry verbatim."""
    out = []
    if doc.get("verdict") != "contained":
        out.append("verdict %r" % doc.get("verdict"))
    exact = doc.get("exact") == "true"
    rx, ry = parse_point(doc["centroid"])
    cx, cy = body.centroid
    tol = 0 if exact else Fraction(1, 10 ** 12) * max(abs(cx), abs(cy))
    if abs(rx - cx) > tol or abs(ry - cy) > tol:
        out.append("centroid (%s, %s) is not (%s, %s)"
                   % (float(rx), float(ry), float(cx), float(cy)))
    c, u, v = (parse_point(doc["hexagon"][k]) for k in ("center", "u", "v"))
    g = hexagon_gauge(c, u, v, body.centroid)
    reported = parse_scalar(doc["gauge"])
    if abs(reported - g) > Fraction(1, 10 ** 9):
        out.append("gauge %s, recomputed %.15g" % (doc["gauge"], g))
    margin = parse_scalar(doc["margin"])
    if abs(margin - (RATIO - reported)) > (0 if exact else 1e-15):
        out.append("margin %s is not 4/21 - gauge" % doc["margin"])
    out += hexagon_problems(body, c, u, v, gauge=g)
    for key, value in expect:
        if doc.get(key) != value:
            out.append("%s is %r, expected %r" % (key, doc.get(key), value))
    return out


def stress_report_problems(rep, trials):
    """Problems with a MonteCarloReport of `trials` mixed trials."""
    out = []
    if rep.trials != trials:
        out.append("report counts %d trials, ran %d" % (rep.trials, trials))
    for name in ("violations", "star_escapes", "wing_counterexamples"):
        if getattr(rep, name):
            out.append("%s = %d" % (name, getattr(rep, name)))
    if not -1e-9 <= rep.min_margin <= RATIO:
        out.append("min_margin %r outside [-1e-9, 4/21]" % rep.min_margin)
    return out


def ledger_problems(entries):
    """Every claim must be verified and carry no disproved witness."""
    out = []
    for e in entries:
        if e.status not in GOOD_STATUSES:
            out.append("claim %s is %s" % (e.claim, e.status))
        if "disproved_witness" in e.data:
            out.append("claim %s has a disproved witness" % e.claim)
    return out


def body_G_problems(w, z, area, centroid):
    """area_and_centroid(body_G(w, z)) against the closed form, exactly."""
    a, h = body_G_closed_form(w, z)
    if (area, tuple(centroid)) != (a, (0, h)):
        return ["body_G(%s, %s): area %s centroid %s, closed form %s, (0, %s)"
                % (w, z, area, tuple(centroid), a, h)]
    return []


def tight_pentagon_problems(verts):
    area, cen = shoelace(verts)
    if (area, cen) != (7, (0, RATIO)):
        return ["tight pentagon has area %s centroid %s" % (area, cen)]
    return []
