"""Exact-and-floating planar geometry kernel.

Coordinates are either all fractions.Fraction (exact mode) or all float
(floating mode); the mode is a property of each object and mixing modes
inside one polygon is rejected.

Exact mode computes on integers.  Polygon validation and the shoelace
sums give each vertex its own homogeneous form (X, Y, d): integers with
x = X/d, y = Y/d and d the lcm of the two coordinate denominators.  An
orientation test is then the sign of the 3x3 determinant of three such
rows, which is cross3 times the three positive d's.  The area and
centroid sums keep one running denominator, widened only when a term's
denominator does not divide it, so each result is a single Fraction built
by one division at the end.
"""

import math
from fractions import Fraction
from math import gcd, lcm


class GeomError(Exception): ...


class DegenerateInput(GeomError): ...


class NonConvex(GeomError):
    def __init__(self, triple, indices):
        self.triple = triple
        self.indices = indices
        shown = ", ".join("(%s, %s)" % (x, y) for x, y in triple)
        super().__init__(
            "vertex triple %s at indices %s turns the wrong way"
            % (shown, indices))


class Parallel(GeomError): ...


class SingularMap(GeomError): ...


class EmptyInput(GeomError): ...


class NonPositiveRatio(GeomError): ...


def _is_exact(x):
    return isinstance(x, (Fraction, int))


def as_fraction(x):
    """x as a Fraction; a Fraction is returned as it is, not copied."""
    return x if isinstance(x, Fraction) else Fraction(x)


# Float work on coordinates whose magnitude lies within [_SAFE_LO,
# _SAFE_HI] neither overflows nor underflows in products of up to three
# of them.
_SAFE_LO, _SAFE_HI = 2.0 ** -300, 2.0 ** 300


def _exponent(x):
    """e with |x| / 2**e in [1/2, 2), for a nonzero float or rational."""
    if isinstance(x, float):
        return math.frexp(x)[1]
    x = as_fraction(x)
    return abs(x.numerator).bit_length() - x.denominator.bit_length()


def magnitude_exponent(values):
    """e with max |v| / 2**e in [1/2, 2) over the nonzero values; 0 when
    every value is 0."""
    return max((_exponent(v) for v in values if v), default=0)


def scale_exponent(m):
    """The power of two that brings a body of magnitude m to about 1: 0
    when m is 0 or lies within [_SAFE_LO, _SAFE_HI], else the exponent of
    m."""
    if not m or _SAFE_LO <= abs(m) <= _SAFE_HI:
        return 0
    return _exponent(m)


def scale_point(p, e):
    """p times 2**e: exact for a rational point, and for a float point
    whose scaled coordinates stay within the float range."""
    if not p.exact:
        return Point(math.ldexp(p.x, e), math.ldexp(p.y, e))
    f = Fraction(2) ** e
    return Point(p.x * f, p.y * f)


class Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def __add__(self, o):
        return Point(self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        return Point(self.x - o.x, self.y - o.y)

    def __mul__(self, s):
        return Point(self.x * s, self.y * s)

    __rmul__ = __mul__

    def cross(self, o):
        return self.x * o.y - self.y * o.x

    def dot(self, o):
        return self.x * o.x + self.y * o.y

    def __eq__(self, o):
        return isinstance(o, Point) and self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self):
        return "Point(%s, %s)" % (self.x, self.y)

    @property
    def exact(self):
        return _is_exact(self.x) and _is_exact(self.y)


def cross3(a, b, c):
    """Cross product of (b-a) and (c-a); >0 means left turn."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def on_segment(p, a, b):
    """Closed-segment membership of p in ab, exact for rational points.

    The bounding box is tested first: it rejects most edges with
    comparisons alone, before any products are formed."""
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y)
            and cross3(a, b, p) == 0)


class Line:
    """a*x + b*y = c with (a,b) != (0,0)."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        if a == 0 and b == 0:
            raise DegenerateInput("line with zero normal")
        self.a = a
        self.b = b
        self.c = c

    @classmethod
    def through(cls, p, q):
        """Line through p and q; points left of p->q get side() > 0."""
        if p == q:
            raise DegenerateInput("line through coincident points")
        a, b = p.y - q.y, q.x - p.x
        return cls(a, b, a * p.x + b * p.y)

    def side(self, p):
        """a*x + b*y - c: 0 on the line, sign tells the half-plane."""
        return self.a * p.x + self.b * p.y - self.c

    def __repr__(self):
        return "Line(%s, %s, %s)" % (self.a, self.b, self.c)


def line_intersect(l1, l2, tol=0.0):
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        raise Parallel("parallel lines")
    if tol and not _is_exact(det):
        scale = max(abs(l1.a), abs(l1.b), abs(l2.a), abs(l2.b)) ** 2
        if abs(det) <= tol * scale:
            raise Parallel("nearly parallel lines")
    x = (l1.c * l2.b - l2.c * l1.b) / det
    y = (l1.a * l2.c - l2.a * l1.c) / det
    return Point(x, y)


class ConvexPolygon:
    """Ordered CCW vertex list; convex, no repeated or collinear vertices."""

    __slots__ = ("vertices", "exact")

    def __init__(self, vertices, _trust=False):
        pts = list(vertices)
        if len(pts) < 3:
            raise DegenerateInput("need at least 3 vertices")
        exact = pts[0].exact
        for p in pts:
            if p.exact != exact:
                raise GeomError("mixed exact/floating coordinates in one polygon")
        self.exact = exact
        if _trust:
            self.vertices = pts
            return
        if exact:
            self.vertices = _exact_convex(pts)
            return

        # the float tests take cross products of coordinate differences; a
        # body whose size is far from 1 is validated as a copy scaled by a
        # power of two, which is exact, so that they neither overflow nor
        # underflow
        d = _diameter(pts)
        e = (scale_exponent(d) if math.isfinite(d)
             else magnitude_exponent(c for p in pts for c in p))
        if not e:
            self.vertices = _float_convex(pts, d)
            return
        orig = {}
        scaled = []
        for p in pts:
            q = scale_point(p, -e)
            orig.setdefault(q, p)
            scaled.append(q)
        try:
            kept = _float_convex(scaled, _diameter(scaled))
        except NonConvex as err:
            raise NonConvex(tuple(tuple(orig[Point(*t)]) for t in err.triple),
                            err.indices) from None
        self.vertices = [orig[q] for q in kept]

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __repr__(self):
        return "ConvexPolygon(%d vertices, %s)" % (
            len(self.vertices), "exact" if self.exact else "float")

    def diameter(self):
        return _diameter(self.vertices)

    def contains(self, p, tol=0.0):
        """Closed containment; tol is an absolute slack on the edge tests."""
        n = len(self.vertices)
        for i in range(n):
            if cross3(self.vertices[i], self.vertices[(i + 1) % n], p) < -tol:
                return False
        return True


def _float_convex(pts, d):
    """ConvexPolygon validation in floating mode, for a body of diameter
    d: CCW order, repeated vertices and those within a 1e-12 * d^2 cross
    product of collinear dropped, strict convexity checked."""
    area2 = _signed_area2(pts)
    if area2 < 0:
        pts.reverse()
        area2 = -area2
    if area2 == 0:
        raise DegenerateInput("zero-area polygon")

    tol2 = 1e-12 * d * d

    def flat(a, b, c):
        return abs(cross3(a, b, c)) <= tol2

    pts = _drop_flat(_drop_repeats(pts), flat)
    if len(pts) < 3:
        raise DegenerateInput("polygon collapses after pruning")

    n = len(pts)
    up = pts[0].y > pts[-1].y
    rises = 0
    for i in range(n):
        a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        if cross3(a, b, c) <= 0:
            raise NonConvex((tuple(a), tuple(b), tuple(c)),
                            (i, (i + 1) % n, (i + 2) % n))
        was, up = up, b.y > a.y
        rises += up and not was
    _check_winding(rises)
    return pts


def _drop_repeats(pts):
    """Drop each vertex equal to its predecessor, cyclically."""
    out = []
    for p in pts:
        if out and p == out[-1]:
            continue
        out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _drop_flat(out, flat):
    """Drop the middle vertex of every triple that flat() calls collinear.

    Collinearity must be re-tested against the surviving neighbor after
    each removal: two near-duplicate points each look collinear w.r.t. the
    other, and a stale-neighbor pass would drop both instead of merging
    them.
    """
    changed = True
    while changed and len(out) > 2:
        changed = False
        keep = []
        for b in out:
            while len(keep) >= 2 and flat(keep[-2], keep[-1], b):
                keep.pop()
                changed = True
            keep.append(b)
        while len(keep) > 2 and flat(keep[-2], keep[-1], keep[0]):
            keep.pop()
            changed = True
        while len(keep) > 2 and flat(keep[-1], keep[0], keep[1]):
            keep.pop(0)
            changed = True
        out = keep
    return out


def _homogeneous(pts):
    """Exact points as integer triples (X, Y, d) with x = X/d, y = Y/d.

    d = lcm(den x, den y) > 0.  The triple is in lowest terms, so equal
    points give equal triples.
    """
    out = []
    for p in pts:
        x, y = p.x, p.y
        dx, dy = x.denominator, y.denominator
        if dx == dy:
            out.append((x.numerator, y.numerator, dx))
        else:
            d = lcm(dx, dy)
            out.append((x.numerator * (d // dx), y.numerator * (d // dy), d))
    return out


def _turn(a, b, c):
    """det [a; b; c] of homogeneous rows = cross3 * da * db * dc."""
    ax, ay, ad = a
    bx, by, bd = b
    cx, cy, cd = c
    return (ax * (by * cd - cy * bd) - ay * (bx * cd - cx * bd)
            + ad * (bx * cy - cx * by))


def _flat_exact(a, b, c):
    return _turn(a, b, c) == 0


def _area2_scaled(h):
    """Twice the signed area of homogeneous vertices h, times a positive
    common denominator: an integer with the sign of the area."""
    den = 1
    a2 = 0
    x0, y0, d0 = h[-1]
    for x1, y1, d1 in h:
        d = d0 * d1
        if den % d:
            m = d // gcd(den, d)
            den *= m
            a2 *= m
        a2 += (x0 * y1 - y0 * x1) * (den // d)
        x0, y0, d0 = x1, y1, d1
    return a2


def _exact_convex(pts):
    """ConvexPolygon validation in exact mode: CCW order, repeated and
    collinear vertices dropped, strict convexity checked, all on the
    homogeneous integer forms of the vertices."""
    h = _homogeneous(pts)
    a2 = _area2_scaled(h)
    if a2 < 0:
        pts.reverse()
        h.reverse()
    if a2 == 0:
        raise DegenerateInput("zero-area polygon")
    point = {}
    for t, p in zip(h, pts):
        point.setdefault(t, p)
    h = _drop_flat(_drop_repeats(h), _flat_exact)
    if len(h) < 3:
        raise DegenerateInput("polygon collapses after pruning")

    n = len(h)
    up = h[1][1] * h[0][2] > h[0][1] * h[1][2]
    rises = 0
    for i in range(n):
        j, k = (i + 1) % n, (i + 2) % n
        (ax, ay, ad), (bx, by, bd), (cx, cy, cd) = h[i], h[j], h[k]
        # _turn(h[i], h[j], h[k]) written out: its first minor is
        # (y_b - y_c) * bd * cd, which also tells whether edge bc rises
        dy = by * cd - cy * bd
        if ax * dy - ay * (bx * cd - cx * bd) + ad * (bx * cy - cx * by) <= 0:
            raise NonConvex(tuple(tuple(point[h[m]]) for m in (i, j, k)),
                            (i, j, k))
        was, up = up, dy < 0
        rises += up and not was
    _check_winding(rises)
    return [point[t] for t in h]


def _check_winding(rises):
    """rises counts the edges of a cycle of left turns that go up after
    one that did not.  The edge direction turns once round per such edge,
    so the cycle is simple, and convex, only when there is exactly one: a
    pentagram's vertices all turn left, but it rises twice."""
    if rises != 1:
        raise GeomError("self-intersecting polygon: the boundary winds %d "
                        "times round" % rises)


def _signed_area2(pts):
    # cross products taken relative to the first vertex, so that floating
    # coordinates far from the origin lose no more than their own size
    if not pts:
        return 0
    o = pts[0]
    s = 0
    for p, q in zip(pts[1:], pts[2:]):
        s += cross3(o, p, q)
    return s


_CROSS_ERR = (3 + 16 * 2.0 ** -53) * 2.0 ** -53


def _cross_sign(a, b, c, d):
    """Exact sign of (b - a) x (d - c) for float pairs a, b, c, d.

    The float value is trusted when it clears Shewchuk's error bound for
    a two-product determinant of rounded differences; otherwise the
    determinant is redone in Fractions, which hold floats exactly.
    """
    lft = (b[0] - a[0]) * (d[1] - c[1])
    rgt = (b[1] - a[1]) * (d[0] - c[0])
    det = lft - rgt
    if abs(det) > _CROSS_ERR * (abs(lft) + abs(rgt)):
        return (det > 0) - (det < 0)
    a, b, c, d = ((Fraction(x), Fraction(y)) for x, y in (a, b, c, d))
    det = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
    return (det > 0) - (det < 0)


def _monotone_chain(pts, turn):
    """Andrew's monotone chain over sorted distinct points: their CCW
    hull, without the points where turn(a, b, c) <= 0."""

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _float_hull(pts):
    """Strictly convex CCW hull of the points as float pairs, from exact
    turn signs; fewer than three pairs when the points are collinear."""
    pts = sorted(set((float(p.x), float(p.y)) for p in pts))
    if len(pts) < 3:
        return pts
    return _monotone_chain(pts, lambda a, b, c: _cross_sign(a, b, a, c))


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _diameter(pts):
    """Largest distance between two of the points, as a float.

    Rotating calipers (Shamos 1978): the farthest pair is antipodal on
    the convex hull, and the vertex farthest from each hull edge only
    moves forward as the edge goes round, so one pass visits every
    antipodal pair.  Distances are taken on the float coordinates exactly
    as an all-pairs loop takes them, so the result is that loop's float.
    """
    h = _float_hull(pts)
    n = len(h)
    if n < 3:
        return _dist(h[0], h[-1]) if h else 0.0
    best = 0.0
    j = 1
    for i in range(n):
        a, b = h[i], h[(i + 1) % n]
        while _cross_sign(a, b, h[j], h[(j + 1) % n]) > 0:
            j = (j + 1) % n
        best = max(best, _dist(a, h[j]), _dist(b, h[j]))
    return best


def polygon_area2(pts):
    """Twice the signed area of a (possibly non-convex) simple polygon."""
    return _signed_area2(list(pts))


def area_and_centroid(poly):
    """Shoelace area and area centroid; exact in rational mode."""
    if isinstance(poly, ConvexPolygon):
        pts, exact = poly.vertices, poly.exact
    else:
        pts = list(poly)
        exact = all(p.exact for p in pts)
    if not pts:
        raise DegenerateInput("zero-area polygon")
    if exact:
        return _exact_area_and_centroid(_homogeneous(pts))
    # relative to the first vertex o, the two shoelace terms at o vanish
    o = pts[0]
    rel = [p - o for p in pts[1:]]
    a2, sx, sy = _float_moments(rel)
    e = 0
    if not (_SAFE_LO ** 2 <= abs(a2) <= _SAFE_HI ** 2
            and math.isfinite(sx + sy)):
        # a body far from 1 in size: the same sums on its offsets scaled
        # by 2**-e, which is exact
        e = scale_exponent(max((max(abs(p.x), abs(p.y)) for p in rel),
                               default=0))
        if e:
            a2, sx, sy = _float_moments([scale_point(p, -e) for p in rel])
    if a2 == 0:
        raise DegenerateInput("zero-area polygon")
    cx, cy = sx / (3 * a2), sy / (3 * a2)
    if not e:
        return a2 / 2, Point(o.x + cx, o.y + cy)
    try:
        area = math.ldexp(a2 / 2, 2 * e)
    except OverflowError:
        area = math.inf
    return area, Point(o.x + math.ldexp(cx, e), o.y + math.ldexp(cy, e))


def _float_moments(rel):
    """Twice the signed area and the shoelace moment sums of a polygon
    given by its vertices after the first, relative to the first."""
    a2 = 0
    sx = 0
    sy = 0
    for p, q in zip(rel, rel[1:]):
        cr = p.cross(q)
        a2 += cr
        sx += (p.x + q.x) * cr
        sy += (p.y + q.y) * cr
    return a2, sx, sy


def _exact_area_and_centroid(h):
    # twice the area is a2 / den and the moment sums are sx / den^2 and
    # sy / den^2, so the centroid is sx / (3 a2 den)
    den = 1
    a2 = sx = sy = 0
    x0, y0, d0 = h[-1]
    for x1, y1, d1 in h:
        d = d0 * d1
        if den % d:
            m = d // gcd(den, d)
            den *= m
            a2 *= m
            m *= m
            sx *= m
            sy *= m
        k = den // d
        cr = (x0 * y1 - y0 * x1) * k
        a2 += cr
        cr *= k
        sx += (x0 * d1 + x1 * d0) * cr
        sy += (y0 * d1 + y1 * d0) * cr
        x0, y0, d0 = x1, y1, d1
    if a2 == 0:
        raise DegenerateInput("zero-area polygon")
    c = 3 * a2 * den
    return Fraction(a2, 2 * den), Point(Fraction(sx, c), Fraction(sy, c))


def composite_centroid(parts):
    """Area-weighted centroid of disjoint pieces: ((area, centroid), ...)."""
    parts = list(parts)
    if not parts:
        raise EmptyInput("no parts")
    total = 0
    sx = 0
    sy = 0
    for area, cen in parts:
        if area <= 0:
            raise GeomError("nonpositive part area")
        total += area
        sx += area * cen.x
        sy += area * cen.y
    return Point(sx / total, sy / total)


def convex_hull(points):
    """Andrew monotone chain; collinear boundary points pruned."""
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) < 3:
        raise DegenerateInput("fewer than 3 distinct points")
    hull = _monotone_chain([Point(x, y) for x, y in pts], cross3)
    if len(hull) < 3:
        raise DegenerateInput("all points collinear")
    return ConvexPolygon(hull)


def clip_halfplane(poly, line, keep="le"):
    """Intersection of poly with {side <= 0} ('le') or {side >= 0} ('ge').

    Returns a ConvexPolygon, or None when the intersection has zero area.
    """
    sign = 1 if keep == "le" else -1
    pts = poly.vertices
    n = len(pts)
    out = []
    sides = [sign * line.side(p) for p in pts]
    for i in range(n):
        p, q = pts[i], pts[(i + 1) % n]
        sp, sq = sides[i], sides[(i + 1) % n]
        if sp <= 0:
            out.append(p)
        if (sp < 0 < sq) or (sq < 0 < sp):
            t = sp / (sp - sq)
            out.append(Point(p.x + (q.x - p.x) * t, p.y + (q.y - p.y) * t))
    if len(out) < 3:
        return None
    try:
        return ConvexPolygon(out)
    except DegenerateInput:
        return None


def homothet(poly, ratio, center):
    if ratio <= 0:
        raise NonPositiveRatio("ratio must be > 0")
    return ConvexPolygon(
        [Point(center.x + ratio * (v.x - center.x),
               center.y + ratio * (v.y - center.y)) for v in poly.vertices],
        _trust=True)


def gauge(center, vertices, p):
    """Minkowski gauge of p w.r.t. the convex polygon (center, vertices).

    Smallest t >= 0 with p in center + t*(poly - center).  Exact for
    rational inputs.  gauge(center) = 0; vertices are at gauge 1.
    """
    n = len(vertices)
    best = 0
    for i in range(n):
        va, vb = vertices[i], vertices[(i + 1) % n]
        # outward normal of the centered edge
        ex, ey = vb.x - va.x, vb.y - va.y
        nx, ny = ey, -ex
        h = nx * (va.x - center.x) + ny * (va.y - center.y)
        if h <= 0:
            raise DegenerateInput("center not interior to polygon")
        val = (nx * (p.x - center.x) + ny * (p.y - center.y)) / h
        if val > best:
            best = val
    return best


class AffineMap:
    """x -> (m11*x + m12*y + tx, m21*x + m22*y + ty)."""

    __slots__ = ("m11", "m12", "m21", "m22", "tx", "ty")

    def __init__(self, m11, m12, m21, m22, tx, ty):
        if m11 * m22 - m12 * m21 == 0:
            raise SingularMap("determinant is zero")
        self.m11, self.m12, self.m21, self.m22 = m11, m12, m21, m22
        self.tx, self.ty = tx, ty

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1, 0, 0)

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, p):
        return Point(self.m11 * p.x + self.m12 * p.y + self.tx,
                     self.m21 * p.x + self.m22 * p.y + self.ty)

    def apply_vec(self, p):
        return Point(self.m11 * p.x + self.m12 * p.y,
                     self.m21 * p.x + self.m22 * p.y)

    def inverse(self):
        d = self.det()
        i11, i12 = self.m22 / d, -self.m12 / d
        i21, i22 = -self.m21 / d, self.m11 / d
        return AffineMap(i11, i12, i21, i22,
                         -(i11 * self.tx + i12 * self.ty),
                         -(i21 * self.tx + i22 * self.ty))

    def compose(self, other):
        """self after other."""
        return AffineMap(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
            self.m11 * other.tx + self.m12 * other.ty + self.tx,
            self.m21 * other.tx + self.m22 * other.ty + self.ty)

    @classmethod
    def from_point_pairs(cls, src, dst):
        """Affine map sending three src points to three dst points."""
        (s0, s1, s2), (d0, d1, d2) = src, dst
        e1, e2 = s1 - s0, s2 - s0
        det = e1.cross(e2)
        if det == 0:
            raise SingularMap("source points collinear")
        f1, f2 = d1 - d0, d2 - d0
        # columns of the linear part solve M*e_i = f_i
        m11 = (f1.x * e2.y - f2.x * e1.y) / det
        m12 = (f2.x * e1.x - f1.x * e2.x) / det
        m21 = (f1.y * e2.y - f2.y * e1.y) / det
        m22 = (f2.y * e1.x - f1.y * e2.x) / det
        tx = d0.x - (m11 * s0.x + m12 * s0.y)
        ty = d0.y - (m21 * s0.x + m22 * s0.y)
        return cls(m11, m12, m21, m22, tx, ty)


def apply_map(M, poly):
    pts = [M.apply(v) for v in poly.vertices]
    return ConvexPolygon(pts)


def supporting_cone(poly, i):
    """The two extreme supporting lines at vertex i: (line through
    v[i-1]v[i], line through v[i]v[i+1])."""
    n = len(poly.vertices)
    v = poly.vertices
    return (Line.through(v[(i - 1) % n], v[i]),
            Line.through(v[i], v[(i + 1) % n]))


def point_segment_dist(p, a, b):
    ax, ay = float(a.x), float(a.y)
    bx, by = float(b.x), float(b.y)
    px, py = float(p.x), float(p.y)
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = 0.0 if t < 0 else (1.0 if t > 1 else t)
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def boundary_distance(poly, p):
    """Distance from p to the polygon's boundary (min over edges)."""
    v = poly.vertices
    n = len(v)
    return min(point_segment_dist(p, v[i], v[(i + 1) % n]) for i in range(n))
