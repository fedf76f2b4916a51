"""The centroid bound: for any planar convex body A and any affine-regular
hexagon H inscribed in A, the centroid of A lies in the homothet (4/21)H.

Besides the checker itself this module carries the extremal two-parameter
family of bodies G(w, z) on which the bound degenerates to equality, and a
Monte Carlo harness over random convex bodies.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .geom_core import (
    ConvexPolygon,
    DegenerateInput,
    GeomError,
    Line,
    Point,
    area_and_centroid,
    as_fraction,
    clip_halfplane,
    convex_hull,
    cross3,
    gauge,
    on_segment,
    point_segment_dist,
    scale_exponent,
    scale_point,
)
from .hexagon import AffineRegularHexagon, InscriptionFailed, inscribe

RATIO = Fraction(4, 21)


class NotCanonical(GeomError):
    """The body is not in canonical position: (1, 1) is not on its boundary."""


def canonical_hexagon():
    """Center (0,0), vertices (1,1), (-1,1), (-2,0), (-1,-1), (1,-1), (2,0)."""
    F = Fraction
    return AffineRegularHexagon(Point(F(0), F(0)), Point(F(1), F(1)),
                                Point(F(-1), F(1)))


# the constant coordinates of body_G
_ZERO, _ONE, _TWO = Fraction(0), Fraction(1), Fraction(2)
_MINUS_ONE, _MINUS_TWO = Fraction(-1), Fraction(-2)


def body_G(w, z):
    """Extremal body: canonical hexagon, a cap with apex (0, w) over the top
    edge, and two symmetric wings whose apexes p1 = wing_apex(w, z) and its
    mirror image slide along the cap edge lines, parametrized by z in [0, 1].

    Valid for 1 <= w <= 2, checked on the numerators: with w = a/b and
    z = c/d, b <= a <= 2b and 0 <= c <= d.  ConvexPolygon validation drops
    the vertices that repeat or fall on an edge at z = 0, z = 1 and w = 2.
    Exact facts: area = B/w and centroid (0, P/(3wB)) with
    B = w^2 - 2wz + 5w + 4z and
    P = 4z^2(w^2-3w+2) + 4zw(2-w) + w^4 + w^3 - 2w^2.
    """
    w, z = as_fraction(w), as_fraction(z)
    a, b = w.numerator, w.denominator
    if not b <= a <= 2 * b:
        raise GeomError("cap height w must lie in [1, 2]")
    if not 0 <= z.numerator <= z.denominator:
        raise GeomError("wing parameter z must lie in [0, 1]")
    p1 = wing_apex(w, z)
    pts = [Point(_ZERO, w), Point(-p1.x, p1.y), Point(_MINUS_TWO, _ZERO),
           Point(_MINUS_ONE, _MINUS_ONE), Point(_ONE, _MINUS_ONE),
           Point(_TWO, _ZERO), p1]
    return ConvexPolygon(pts)


def body_P(w):
    """The one-cap pentagon family, body_G with fully extended wings."""
    return body_G(w, 1)


def tight_pentagon():
    """The equality case: body_P(2), centroid exactly at (0, 4/21)."""
    return body_P(2)


def centroid_height_G(w, z):
    """Closed form of the centroid height of body_G, exact."""
    w, z = Fraction(w), Fraction(z)
    P = 4 * z * z * (w * w - 3 * w + 2) + 4 * z * w * (2 - w) \
        + w ** 4 + w ** 3 - 2 * w * w
    B = w * w - 2 * w * z + 5 * w + 4 * z
    return P / (3 * w * B)


def wing_apex(w, z):
    """Right wing apex p1 = ((w + 2z)/w, (w + z(2 - 2w))/w): it slides along
    the cap edge line from (1,1) at z=0 to the full-wing apex m1 at z=1.

    Built on integers: with w = a/b and z = c/d it is
    ((ad + 2bc)/(ad), (ad + 2c(b - a))/(ad)), two Fractions and no other
    rational arithmetic."""
    w, z = as_fraction(w), as_fraction(z)
    a, b = w.numerator, w.denominator
    c, d = z.numerator, z.denominator
    ad = a * d
    return Point(Fraction(ad + 2 * b * c, ad),
                 Fraction(ad + 2 * c * (b - a), ad))


def full_wing_apex(w):
    """m1: where the cap edge line through (0,w) and (1,1) meets the
    extension of the lower right hexagon edge, x - y = 2."""
    w = Fraction(w)
    return Point((2 + w) / w, (2 - w) / w)


def wing_wedge(w, z):
    """Triangle (p1, (2,0), m1): the part of the full wing that the body
    gives up when its wing apex stops at parameter z < 1.  Degenerate when
    z = 1 or w = 2."""
    return (wing_apex(w, z), Point(_TWO, _ZERO), full_wing_apex(w))


def support_parameter_w(body, tol=1e-7):
    """Cap height of a body in canonical position: the y-intercept of its
    supporting line at (1, 1), taken along the boundary edge that leaves
    (1, 1) counterclockwise (toward the upper left).

    Raises NotCanonical when (1, 1) is not on the boundary.  The intercept
    is asserted to lie in [1 - tol, 2 + tol] and clamped to [1, 2]; exact
    input gives an exact Fraction.
    """
    return _support_w(body.vertices, body.exact, tol)


def _support_w(verts, exact, tol):
    """support_parameter_w on a CCW vertex list, exact or not."""
    n = len(verts)
    a1 = Point(Fraction(1), Fraction(1)) if exact else Point(1.0, 1.0)
    p = q = None
    for i, v in enumerate(verts):
        if exact:
            hit = v.x == 1 and v.y == 1
        else:
            hit = math.hypot(v.x - 1.0, v.y - 1.0) <= tol
        if hit:
            p, q = v, verts[(i + 1) % n]
            break
    if p is None:
        for i in range(n):
            u, v = verts[i], verts[(i + 1) % n]
            if exact:
                on = on_segment(a1, u, v)
            else:
                on = point_segment_dist(a1, u, v) <= tol
            if on:
                p, q = u, v
                break
    if p is None:
        raise NotCanonical("(1, 1) is not on the body boundary")
    dx = q.x - p.x
    if dx == 0 or (not exact and abs(dx) <= 1e-15 * max(1.0, abs(q.y - p.y))):
        raise NotCanonical("supporting line at (1, 1) is vertical")
    w = (p.y * q.x - q.y * p.x) / dx
    lo, hi = (1, 2) if exact else (1 - tol, 2 + tol)
    if not lo <= w <= hi:
        raise NotCanonical("supporting line intercept %r outside [1, 2]" % (w,))
    return min(max(w, 1), 2) if exact else float(min(max(w, 1.0), 2.0))


def hexagon_gauge(hexagon, p):
    """Gauge of p w.r.t. the hexagon: 0 at the center, 1 on the boundary."""
    return gauge(hexagon.c, hexagon.vertices, p)


def in_star(p, tol=0):
    """Membership in the hexagram star of the canonical hexagon.

    The star is the union of the two tip triangles (3,1), (-3,1), (0,-2)
    and (0,2), (-3,-1), (3,-1).
    """
    x, y = p.x, p.y
    t1 = y <= 1 + tol and x - y <= 2 + tol and -x - y <= 2 + tol
    if t1:
        return True
    return -y <= 1 + tol and x + y <= 2 + tol and -x + y <= 2 + tol


def in_upper_star(p, tol=0):
    """Membership in the hexagon plus its three upper wings, i.e. the star
    minus the interiors of the three wings below the waist y = ±1 line
    pattern: hexagon, top wing, right wing, left wing."""
    x, y = p.x, p.y
    if -1 - tol <= y <= 1 + tol and abs(x - y) <= 2 + tol \
            and abs(x + y) <= 2 + tol:
        return True
    if y >= 1 - tol and x + y <= 2 + tol and -x + y <= 2 + tol:
        return True
    if x + y >= 2 - tol and y <= 1 + tol and x - y <= 2 + tol:
        return True
    return -x + y >= 2 - tol and y <= 1 + tol and -x - y <= 2 + tol


@dataclass(frozen=True)
class BoundReport:
    verdict: str  # "contained" or "violated"
    gauge_value: object
    ratio: object
    margin: object
    centroid: Point
    hexagon: AffineRegularHexagon
    fit: object
    w_extracted: object
    exact: bool

    @property
    def ok(self):
        return self.verdict == "contained"


def _extract_w(vertices, exact, hexagon):
    """Supporting-line cap height of the body mapped to canonical
    coordinates; None when the mapped body has no boundary point at (1,1)
    within tolerance (e.g. for a sloppy inscription)."""
    M = hexagon.to_canonical()
    pts = [M.apply(v) for v in vertices]
    exact = exact and all(pt.exact for pt in pts)
    try:
        return _support_w(pts, exact, tol=1e-5)
    except NotCanonical:
        return None


def check_theorem(body, ratio=RATIO, hexagon=None, fit=None, margin_tol=1e-9):
    """Verify centroid(body) lies in ratio * H for an inscribed hexagon H.

    With neither hexagon nor fit an inscription is computed (floating).
    Passing an exact hexagon together with an exact body gives an exact
    verdict; the tight pentagon yields margin exactly 0.
    """
    if hexagon is None and fit is None:
        fit = inscribe(body)
    if hexagon is None:
        hexagon = fit.hexagon
    _, cen = area_and_centroid(body)
    exact = (body.exact and cen.exact and hexagon.c.exact
             and hexagon.u.exact and hexagon.v.exact)
    if not exact:
        cen = Point(float(cen.x), float(cen.y))
        ratio_val = float(ratio)
    else:
        ratio_val = Fraction(ratio)
    # the gauge and the support parameter do not change when everything
    # is scaled; for a float hexagon far from 1 in size, they are taken on
    # copies scaled by a power of two, which is exact, so that their
    # products neither overflow nor underflow
    hexa, verts, c = hexagon, body.vertices, cen
    e = 0 if hexagon.u.exact and hexagon.v.exact else scale_exponent(
        max(abs(t) for t in (hexagon.u.x, hexagon.u.y,
                             hexagon.v.x, hexagon.v.y)))
    if e:
        hexa = AffineRegularHexagon(*(scale_point(p, -e) for p in
                                      (hexagon.c, hexagon.u, hexagon.v)))
        verts = [scale_point(v, -e) for v in verts]
        c = scale_point(cen, -e)
    g = hexagon_gauge(hexa, c)
    margin = ratio_val - g
    ok = margin >= 0 if exact else margin >= -margin_tol
    return BoundReport(verdict="contained" if ok else "violated",
                       gauge_value=g, ratio=ratio_val, margin=margin,
                       centroid=cen, hexagon=hexagon, fit=fit,
                       w_extracted=_extract_w(verts, body.exact, hexa),
                       exact=exact)


def star_violations(body, fit, tol=1e-6):
    """Vertices of body that escape the hexagram star of its inscribed
    hexagon (mapped to canonical coordinates); empty in exact theory."""
    M = fit.hexagon.to_canonical()
    bad = []
    for i, v in enumerate(body.vertices):
        if not in_star(M.apply(v), tol=tol):
            bad.append(i)
    return bad


def wing_monotonicity(body, w, tol=1e-9):
    """Wedge check for a body in canonical position with cap height w: clip
    the body to the wedge triangle (p1, (2,0), m1) taken at the optimal wing
    parameter for w; the clipped piece must not center higher than the wedge
    itself.

    Returns True/False, or None when the check does not apply: w below the
    threshold where the optimal wing parameter reaches 1, a degenerate
    wedge, or an empty intersection.
    """
    from .proof_verifier.formulas import DomainError, z_star
    try:
        z = z_star(w)
    except DomainError:
        return None
    z = min(float(z), 1.0)
    wedge = wing_wedge(w, z)
    tri = [Point(float(p.x), float(p.y)) for p in wedge]
    area2 = cross3(tri[0], tri[1], tri[2])
    if abs(area2) <= 1e-18:
        return None
    if area2 < 0:
        tri = [tri[0], tri[2], tri[1]]
    piece = body if not body.exact else ConvexPolygon(
        [Point(float(v.x), float(v.y)) for v in body.vertices])
    for i in range(3):
        piece = clip_halfplane(piece, Line.through(tri[i], tri[(i + 1) % 3]),
                               keep="ge")
        if piece is None:
            return None
    pa, pc = area_and_centroid(piece)
    if float(pa) <= 1e-15:
        return None
    cen_wedge = (tri[0].y + tri[1].y + tri[2].y) / 3.0
    return float(pc.y) <= cen_wedge + tol


def _random_affine_points(rng, pts):
    while True:
        m11, m12, m21, m22 = (rng.uniform(-2, 2) for _ in range(4))
        if abs(m11 * m22 - m12 * m21) >= 0.1:
            break
    tx, ty = rng.uniform(-3, 3), rng.uniform(-3, 3)
    return [Point(m11 * p.x + m12 * p.y + tx, m21 * p.x + m22 * p.y + ty)
            for p in pts]


def random_body(rng, generator="a"):
    """Random convex body.  Generator "a": hull of 3..64 points drawn
    uniformly from a random ellipse.  Generator "b": canonical hexagon
    fattened by random points of the star's upper part (hexagon plus the
    three wings adjacent to the top edge) kept below random supporting
    lines at the two top vertices; the hexagon stays inscribed and the
    body stays inside the star by construction."""
    if generator == "a":
        while True:
            n = rng.randrange(3, 65)
            pts = []
            for _ in range(n):
                r = math.sqrt(rng.random())
                a = rng.uniform(0.0, 2.0 * math.pi)
                pts.append(Point(r * math.cos(a), r * math.sin(a)))
            try:
                return convex_hull(_random_affine_points(rng, pts))
            except DegenerateInput:
                continue
    if generator == "b":
        hexpts = [Point(1.0, 1.0), Point(-1.0, 1.0), Point(-2.0, 0.0),
                  Point(-1.0, -1.0), Point(1.0, -1.0), Point(2.0, 0.0)]
        # supporting slopes at (1,1) and (-1,1), between the adjacent edges
        t = rng.uniform(-1, 0)
        s = rng.uniform(0, 1)
        k = rng.randrange(1, 13)
        extra = []
        attempts = 0
        while len(extra) < k and attempts < 10000:
            attempts += 1
            p = Point(rng.uniform(-3, 3), rng.uniform(-1, 2))
            if not in_upper_star(p):
                continue
            if p.y > 1 + t * (p.x - 1) or p.y > 1 + s * (p.x + 1):
                continue
            extra.append(p)
        return convex_hull(hexpts + extra)
    raise GeomError("unknown generator %r" % (generator,))


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    seed: int
    generator: str
    violations: int
    wing_counterexamples: int
    star_escapes: int
    min_margin: float
    argmin_trial: int
    argmin_body: tuple
    max_residual_ratio: float
    inscription_failures: int
    failed_trials: tuple


def monte_carlo(trials, seed=0, generator="mixed", margin_tol=1e-9):
    """Deterministic Monte Carlo sweep of the centroid bound.

    Each trial draws its own random stream from (seed, index), so results
    do not depend on execution order.  Generator "b" bodies carry the
    canonical hexagon by construction, so no inscription runs for them;
    they get the wedge monotonicity check instead.  Generator "a" bodies
    are inscribed; a failed inscription is recorded and skipped, never
    fatal.  Reports bound violations (margin below -margin_tol), wedge
    counterexamples, star containment failures, the worst margin with the
    body achieving it, and the worst inscription residual relative to the
    body diameter.
    """
    if generator not in ("a", "b", "mixed"):
        raise GeomError("unknown generator %r" % (generator,))
    violations = 0
    wing_bad = 0
    star_escapes = 0
    min_margin = math.inf
    argmin_trial = -1
    argmin_body = ()
    max_res = 0.0
    insc_failures = 0
    failed = []
    for i in range(trials):
        rng = random.Random(seed * 1000003 + i)
        gen = generator if generator != "mixed" else ("a", "b")[i % 2]
        body = random_body(rng, gen)
        if gen == "b":
            chk = check_theorem(body, hexagon=canonical_hexagon(),
                                margin_tol=margin_tol)
            if chk.w_extracted is not None:
                if wing_monotonicity(body, chk.w_extracted) is False:
                    wing_bad += 1
                    if len(failed) < 20:
                        failed.append(i)
            if any(not in_star(v, tol=1e-9) for v in body.vertices):
                star_escapes += 1
        else:
            try:
                fit = inscribe(body)
            except InscriptionFailed:
                insc_failures += 1
                if len(failed) < 20:
                    failed.append(i)
                continue
            chk = check_theorem(body, fit=fit, margin_tol=margin_tol)
            max_res = max(max_res, fit.residual / body.diameter())
            if star_violations(body, fit):
                star_escapes += 1
        m = float(chk.margin)
        if m < min_margin:
            min_margin = m
            argmin_trial = i
            argmin_body = tuple((float(v.x), float(v.y))
                                for v in body.vertices)
        if not chk.ok:
            violations += 1
            if len(failed) < 20:
                failed.append(i)
    return MonteCarloReport(trials=trials, seed=seed, generator=generator,
                            violations=violations,
                            wing_counterexamples=wing_bad,
                            star_escapes=star_escapes,
                            min_margin=min_margin,
                            argmin_trial=argmin_trial,
                            argmin_body=argmin_body,
                            max_residual_ratio=max_res,
                            inscription_failures=insc_failures,
                            failed_trials=tuple(failed))
