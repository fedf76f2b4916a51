"""Affine-regular hexagons and their inscription in convex bodies.

An affine-regular hexagon is an affine image of the regular hexagon.  It is
determined by a center c and two adjacent vertex offsets u, v; the vertices
are c+u, c+v, c+v-u, c-u, c-v, c+u-v in CCW order.

Inscription works chord-wise.  Fix a direction and look at the chords of the
body parallel to it: two "edge" chords of equal length 2s at levels y1 < y2
plus the chord at the middle level (y1+y2)/2, which must be twice as long.
The length condition pins s for each direction; rotating the direction until
the three chord midpoints align yields the hexagon.  A half turn flips the
sign of the misalignment, so a zero of it always exists.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import sub

from .geom_core import (
    ConvexPolygon,
    DegenerateInput,
    GeomError,
    Point,
    _cross_sign,
    boundary_distance,
    magnitude_exponent,
    scale_exponent,
    scale_point,
)


class InscriptionFailed(GeomError): ...


class ThinBody(InscriptionFailed): ...


CANONICAL_U = (1, 1)
CANONICAL_V = (-1, 1)


class AffineRegularHexagon:
    __slots__ = ("c", "u", "v")

    def __init__(self, c, u, v):
        cr = u.cross(v)
        if not (cr > 0 or cr < 0) and all(
                isinstance(t, float) and math.isfinite(t) for t in (*u, *v)):
            # a float 0 or NaN may be an underflow or an overflow of the
            # products: take the sign exactly
            cr = _cross_sign((0.0, 0.0), tuple(u), (0.0, 0.0), tuple(v))
        if cr == 0:
            raise DegenerateInput("hexagon offsets are collinear")
        if cr < 0:
            u, v = v, u
        self.c = c
        self.u = u
        self.v = v

    @property
    def vertices(self):
        c, u, v = self.c, self.u, self.v
        return [c + u, c + v, c + v - u, c - u, c - v, c + u - v]

    def area(self):
        return 3 * self.u.cross(self.v)

    def polygon(self):
        return ConvexPolygon(self.vertices)

    def outer_vertices(self):
        """Tips of the hexagram obtained by extending alternate edges.

        Tip i lies beyond edge (a_{i-1}, a_i) and equals a_{i-1} + a_i - c.
        """
        a = self.vertices
        return [a[i - 1] + a[i] - self.c for i in range(6)]

    def star_vertices(self):
        """The hexagram as a 12-gon cycle: vertices and tips interleaved.

        The star is not convex, so this is a plain point list in CCW order.
        """
        a = self.vertices
        t = self.outer_vertices()
        out = []
        for i in range(6):
            out.append(a[i])
            out.append(t[(i + 1) % 6])
        return out

    def wing_triangles(self):
        """The six tip triangles (a_{i-1}, tip_i, a_i) of the hexagram."""
        a = self.vertices
        t = self.outer_vertices()
        return [(a[i - 1], t[i], a[i]) for i in range(6)]

    def to_canonical(self):
        """Affine map taking this hexagon onto the canonical one."""
        from .geom_core import AffineMap

        c, u, v = self.c, self.u, self.v
        src = (c, c + u, c + v)
        dst = (Point(0, 0), Point(*CANONICAL_U), Point(*CANONICAL_V))
        return AffineMap.from_point_pairs(src, dst)

    def __repr__(self):
        return "AffineRegularHexagon(c=%r, u=%r, v=%r)" % (self.c, self.u, self.v)


@dataclass(frozen=True)
class HexagonFit:
    hexagon: AffineRegularHexagon
    angle: float
    edge_half_length: float
    alignment_error: float
    residual: float
    # _alignment calls the inscription made: scan angles and refinement
    # steps together
    evaluations: int
    # the scan step k whose sign change between angles (k - 1)*pi/n and
    # k*pi/n was refined into the fit; None when scan angle k hit zero
    bracket: int | None


def _interp(ys, xs, y):
    # piecewise-linear interpolation on increasing ys, clamped at the ends
    if y <= ys[0]:
        return xs[0]
    if y >= ys[-1]:
        return xs[-1]
    i = bisect_left(ys, y)
    if ys[i] == y:
        return xs[i]
    t = (y - ys[i - 1]) / (ys[i] - ys[i - 1])
    return xs[i - 1] + t * (xs[i] - xs[i - 1])


def _snap(vals, tol):
    """Collapse values closer than tol to a common representative.

    Chord directions parallel to an edge must see that edge as an exactly
    flat plateau; without snapping, rounding in cos/sin leaves a 1-ulp tilt
    and the slack logic never fires.
    """
    # a convex polygon's levels are two monotone runs, which sort in
    # linear time; when no two are within tol, each represents itself
    order = sorted(vals)
    if min(map(sub, order[1:], order)) > tol:
        return vals
    rep = {}
    group = order[0]
    prev = order[0]
    for v in order:
        if v - prev > tol:
            group = v
        rep[v] = group
        prev = v
    return [rep[v] for v in vals]


def _level_ends(qx, qy, y):
    """First index of the smallest and of the largest x at level y."""
    i = qy.index(y)
    at = [i]
    for _ in range(qy.count(y) - 1):
        i = qy.index(y, i + 1)
        at.append(i)
    xs = [qx[i] for i in at]
    return at[xs.index(min(xs))], at[xs.index(max(xs))]


def _walk(vals, a, b):
    """vals[a], vals[a + 1], ..., vals[b], cyclically."""
    return vals[a:b + 1] if a <= b else vals[a:] + vals[:b + 1]


def _chain(ys, xs, keep_max_x):
    """A chain as (levels, x): ys must not decrease, and a repeated level
    keeps its largest x (keep_max_x) or its smallest."""
    if ys != sorted(ys):
        raise InscriptionFailed("chain not monotone")
    if len(set(ys)) == len(ys):
        return ys, xs
    oy, ox = [], []
    for y, x in zip(ys, xs):
        if oy and y == oy[-1]:
            if (x > ox[-1]) == keep_max_x:
                ox[-1] = x
            continue
        oy.append(y)
        ox.append(x)
    return oy, ox


class _Frame:
    """Chord table of a convex polygon against horizontal lines.

    ry, rx and ly, lx are the right and left chains from the bottom level
    to the top one, with one point per level: where snapping makes a level
    repeat, the outer x.  ys holds the levels of both chains in increasing
    order and ell the chord length max(0, right - left) at each; imax and
    jmax are the first and the last index of the longest chord.

    Building the table costs O(n).  Each chain is a slice of the vertex
    cycle that may wrap past index 0, one merge of the two chains walks
    ys in order, and each breakpoint's x on the other chain is taken on
    the segment that spans it, by the formula of _interp.
    """

    def __init__(self, qx, qy, snap_tol=0.0):
        if snap_tol > 0:
            qy = _snap(qy, snap_tol)
        ibl, ibr = _level_ends(qx, qy, min(qy))
        itl, itr = _level_ends(qx, qy, max(qy))
        self.ry, self.rx = _chain(_walk(qy, ibr, itr), _walk(qx, ibr, itr),
                                  keep_max_x=True)
        self.ly, self.lx = _chain(_walk(qy, itl, ibl)[::-1],
                                  _walk(qx, itl, ibl)[::-1], keep_max_x=False)

        ry, rx, ly, lx = self.ry, self.rx, self.ly, self.lx
        ys, ell = [], []
        # both chains run from the bottom level to the top one, so the
        # merge starts and ends on a shared level, and a level of one chain
        # alone lies strictly inside a segment of the other
        i = j = 0
        while i < len(ry):
            y, yl = ry[i], ly[j]
            if y == yl:
                L = rx[i] - lx[j]
                i += 1
                j += 1
            elif y < yl:
                t = (y - ly[j - 1]) / (yl - ly[j - 1])
                L = rx[i] - (lx[j - 1] + t * (lx[j] - lx[j - 1]))
                i += 1
            else:
                y = yl
                t = (y - ry[i - 1]) / (ry[i] - ry[i - 1])
                L = rx[i - 1] + t * (rx[i] - rx[i - 1]) - lx[j]
                j += 1
            ys.append(y)
            ell.append(L if L > 0.0 else 0.0)
        self.ys = ys
        self.ell = ell
        self._rev = ell[::-1]
        self.ell_max = max(ell)
        self.imax = ell.index(self.ell_max)
        self.jmax = len(ell) - 1 - self._rev.index(self.ell_max)

    def right(self, y):
        return _interp(self.ry, self.rx, y)

    def left(self, y):
        return _interp(self.ly, self.lx, y)

    def chord_len(self, y):
        return max(0.0, _interp(self.ys, self.ell, y))

    def level_low(self, target):
        """Smallest y with chord_len >= target (clamped at the bottom)."""
        ys, ell = self.ys, self.ell
        if target <= ell[0]:
            return ys[0]
        i = bisect_left(ell, target, 0, self.imax + 1)
        if ell[i] == target:
            return ys[i]
        t = (target - ell[i - 1]) / (ell[i] - ell[i - 1])
        return ys[i - 1] + t * (ys[i] - ys[i - 1])

    def level_high(self, target):
        """Largest y with chord_len >= target (clamped at the top)."""
        ys, ell = self.ys, self.ell
        if target <= ell[-1]:
            return ys[-1]
        # the bisection for the last index lo >= jmax with ell[lo] >= target,
        # which ell need not be monotone for: on the reversed table
        # bisect_left probes the mirror of each index it would probe
        n = len(ell)
        lo = n - 1 - bisect_left(self._rev, target, 1, n - 1 - self.jmax)
        hi = lo + 1
        if ell[lo] == target:
            return ys[lo]
        t = (target - ell[lo]) / (ell[hi] - ell[lo])
        return ys[lo] + t * (ys[hi] - ys[lo])


def _solve_levels(fr, diam):
    """Find s with chord_len((y1+y2)/2) = 4s where y1, y2 bound {len >= 2s}."""

    def H(s):
        y1 = fr.level_low(2 * s)
        y2 = fr.level_high(2 * s)
        return fr.chord_len((y1 + y2) / 2) - 4 * s, y1, y2

    lo, hi = 0.0, fr.ell_max / 2
    flo, y1, y2 = H(lo)
    if flo <= 0:
        # already matched at the degenerate end; only possible within noise
        return lo, y1, y2
    fhi = H(hi)[0]
    if fhi >= 0:
        raise InscriptionFailed("length equation has no sign change")
    tol = 1e-13 * diam
    prev_s, prev_f = lo, flo
    s, f = hi, fhi
    for _ in range(200):
        if hi - lo <= tol:
            break
        if f != prev_f:
            cand = s - f * (s - prev_s) / (f - prev_f)
        else:
            cand = (lo + hi) / 2
        if not (lo + 0.1 * (hi - lo) <= cand <= hi - 0.1 * (hi - lo)):
            cand = (lo + hi) / 2
        fc, y1c, y2c = H(cand)
        prev_s, prev_f = s, f
        s, f = cand, fc
        if fc > 0:
            lo = cand
        elif fc < 0:
            hi = cand
        else:
            return cand, y1c, y2c
        if abs(fc) <= tol:
            return cand, y1c, y2c
    s = (lo + hi) / 2
    _, y1, y2 = H(s)
    return s, y1, y2


def _alignment(poly_xy, theta, diam):
    """Misalignment of the three chord midpoints at direction theta.

    Returns (g, data): g is the signed distance after plateau slack has been
    used up, so g = 0 means a hexagon exists at this angle.
    """
    xs0, ys0 = poly_xy
    ct, st = math.cos(theta), math.sin(theta)
    qx = [x * ct + y * st for x, y in zip(xs0, ys0)]
    qy = [-x * st + y * ct for x, y in zip(xs0, ys0)]
    fr = _Frame(qx, qy, snap_tol=1e-12 * diam)
    s, y1, y2 = _solve_levels(fr, diam)
    m = (y1 + y2) / 2

    def mid_and_slack(y):
        lft, rgt = fr.left(y), fr.right(y)
        return (lft + rgt) / 2, max(0.0, (rgt - lft - 2 * s) / 2)

    xt, sig_t = mid_and_slack(y2)
    xb, sig_b = mid_and_slack(y1)
    xm = (fr.left(m) + fr.right(m)) / 2
    delta = xm - (xt + xb) / 2
    slack = (sig_t + sig_b) / 2
    if delta > slack:
        g = delta - slack
    elif delta < -slack:
        g = delta + slack
    else:
        g = 0.0
    return g, (s, y1, y2, m, xt, sig_t, xb, sig_b, xm)


def _clamp(x, lo, hi):
    return lo if x < lo else (hi if x > hi else x)


def _build_fit(poly, theta, g, data, diam, evaluations, bracket):
    s, y1, y2, m, xt, sig_t, xb, sig_b, xm = data
    want = 2 * (xm - (xt + xb) / 2)
    dt = _clamp(want, -sig_t, sig_t)
    db = _clamp(want - dt, -sig_b, sig_b)
    xt += dt
    xb += db
    cx = (xt + xb) / 2
    ct, st = math.cos(theta), math.sin(theta)

    def back(x, y):
        return Point(x * ct - y * st, x * st + y * ct)

    c = back(cx, m)
    u = back(xt + s - cx, y2 - m)
    v = back(xt - s - cx, y2 - m)
    hexagon = AffineRegularHexagon(c, u, v)
    residual = max(boundary_distance(poly, p) for p in hexagon.vertices)
    if residual > 1e-7 * diam:
        raise InscriptionFailed(
            "inscribed hexagon misses the boundary by %.3g (diam %.3g)"
            % (residual, diam))
    return HexagonFit(hexagon=hexagon, angle=theta, edge_half_length=s,
                      alignment_error=abs(g), residual=residual,
                      evaluations=evaluations, bracket=bracket)


# the fit of a body whose offsets are below 2**_MIN_EXP would have
# coordinates near or below the smallest normal float, 2**-1022
_MIN_EXP = -960


def inscribe(poly, n_angles=64):
    """Inscribe an affine-regular hexagon in a convex polygon.

    All six hexagon vertices land on the boundary of poly (up to a relative
    residual of 1e-7 of the diameter).  The smallest direction angle in
    [0, pi] that admits a hexagon is preferred.  Bodies with width below
    1e-6 of the diameter are rejected as too thin.

    The scan walks the n_angles + 1 angles k*pi/n_angles upward.  It stops
    at the first angle whose misalignment is zero within tolerance, and
    refines each sign change as soon as it meets one; the first refinement
    that converges gives the fit, and only a failed one lets the scan go
    on.  HexagonFit.evaluations counts the misalignment evaluations, and
    HexagonFit.bracket is the scan step whose bracket gave the fit.

    The body is moved to put its first vertex at the origin before the
    float work (exactly, for an exact body, before it is converted to
    float), and the fit is moved back, so the float work sees coordinates
    of the body's own size wherever the body sits in the plane.  A body
    whose offsets from that vertex are far from 1 in size is also scaled
    by a power of two 2**-e, exactly, before the float work, and the fit
    by 2**e after it: the float work does not overflow or underflow, and
    its result is the one for the body at size 1, scaled.
    """
    if not isinstance(poly, ConvexPolygon):
        raise GeomError("inscribe expects a ConvexPolygon")
    vs = poly.vertices
    o = vs[0]
    try:
        shift = Point(float(o.x), float(o.y))
        xs = [float(v.x - o.x) for v in vs]
        ys = [float(v.y - o.y) for v in vs]
        m = max(max(map(abs, xs)), max(map(abs, ys)))
    except OverflowError:
        m = math.inf
    # a float offset overflows to inf, an exact one raises
    if m == math.inf:
        raise InscriptionFailed("body coordinates exceed the float range")
    e = scale_exponent(m)
    if poly.exact and (e or not m):
        # the exponent of the exact offsets, whose floats may be 0
        rel = [v - o for v in vs]
        e = magnitude_exponent(t for p in rel for t in p)
        pts = [scale_point(p, -e) for p in rel]
        xs = [float(p.x) for p in pts]
        ys = [float(p.y) for p in pts]
    elif e:
        xs = [math.ldexp(x, -e) for x in xs]
        ys = [math.ldexp(y, -e) for y in ys]
    if e < _MIN_EXP:
        raise InscriptionFailed("body coordinates fall below the float range")
    # a float body was validated as given; an exact one is validated, and
    # pruned, once more as floats
    fit = _inscribe_float(
        ConvexPolygon(list(map(Point, xs, ys)), _trust=not poly.exact),
        n_angles)
    if e:
        try:
            fit = _scaled_fit(fit, e)
        except OverflowError:
            raise InscriptionFailed(
                "body coordinates exceed the float range") from None
    h = fit.hexagon
    moved = AffineRegularHexagon(h.c + shift, h.u, h.v)
    return replace(fit, hexagon=moved)


def _scaled_fit(fit, e):
    """The fit scaled by 2**e; OverflowError beyond the float range."""
    h = fit.hexagon
    return replace(
        fit,
        hexagon=AffineRegularHexagon(*(scale_point(p, e)
                                       for p in (h.c, h.u, h.v))),
        edge_half_length=math.ldexp(fit.edge_half_length, e),
        alignment_error=math.ldexp(fit.alignment_error, e),
        residual=math.ldexp(fit.residual, e))


def _inscribe_float(poly, n_angles):
    diam = poly.diameter()
    if _min_width(poly) < 1e-6 * diam:
        raise ThinBody("body is too thin to inscribe reliably")
    xs0 = [v.x for v in poly.vertices]
    ys0 = [v.y for v in poly.vertices]
    poly_xy = (xs0, ys0)
    tol_g = 1e-10 * diam

    evals = {}

    def g_at(theta):
        if theta not in evals:
            evals[theta] = _alignment(poly_xy, theta, diam)
        return evals[theta]

    def fit(t, g, data, bracket=None):
        return _build_fit(poly, t, g, data, diam, len(evals), bracket)

    prev_t = None
    prev_g = None
    bracketed = False
    for k in range(n_angles + 1):
        t = k * math.pi / n_angles
        g, data = g_at(t)
        if abs(g) <= tol_g:
            return fit(t, g, data)
        if prev_g is not None and (g > 0) != (prev_g > 0):
            bracketed = True
            hit = _refine_bracket(g_at, prev_t, t, tol_g)
            if hit is not None:
                return fit(*hit, bracket=k)
        prev_t, prev_g = t, g

    if not bracketed:
        raise InscriptionFailed("no sign change found in the angle scan")
    raise InscriptionFailed("angle refinement did not converge")


def _refine_bracket(g_at, a, b, tol):
    fa = g_at(a)[0]
    fb = g_at(b)[0]
    best = None
    side = 0
    for _ in range(120):
        if fb != fa:
            x = b - fb * (b - a) / (fb - fa)
        else:
            x = (a + b) / 2
        if not (a < x < b):
            x = (a + b) / 2
        fx, data = g_at(x)
        if best is None or abs(fx) < abs(best[1]):
            best = (x, fx, data)
        if abs(fx) <= tol:
            return x, fx, data
        if (fx > 0) == (fb > 0):
            b, fb = x, fx
            if side == 1:
                fa /= 2
            side = 1
        else:
            a, fa = x, fx
            if side == -1:
                fb /= 2
            side = -1
        if b - a < 1e-15:
            break
    if best is not None and abs(best[1]) <= 64 * tol:
        return best
    return None


def _min_width(poly):
    """Smallest edge-to-vertex height: the width of a convex polygon.

    One rotating-calipers pass (Toussaint 1983): the vertex farthest from
    edge i only moves forward as i does.
    """
    v = poly.vertices
    n = len(v)
    best = math.inf
    j = 1
    for i in range(n):
        p, q = v[i], v[(i + 1) % n]
        ex, ey = q.x - p.x, q.y - p.y
        L = math.hypot(ex, ey)
        if L == 0:
            continue

        def height(w):
            return abs((w.x - p.x) * ey - (w.y - p.y) * ex)

        # p and q have height exactly 0, so the walk stops short of them
        while height(v[(j + 1) % n]) > height(v[j]):
            j = (j + 1) % n
        best = min(best, height(v[j]) / L)
    return best
