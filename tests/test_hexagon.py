import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexacent.geom_core import (
    ConvexPolygon,
    DegenerateInput,
    Point,
    area_and_centroid,
    convex_hull,
    polygon_area2,
    scale_point,
)
from hexacent import hexagon
from hexacent.centroid_bound import check_theorem
from hexacent.hexagon import (
    AffineRegularHexagon,
    InscriptionFailed,
    ThinBody,
    _Frame,
    _interp,
    _min_width,
    inscribe,
)

F = Fraction


def P(x, y):
    return Point(F(x), F(y))


def canon():
    return AffineRegularHexagon(P(0, 0), P(1, 1), P(-1, 1))


def close(p, q, tol=1e-9):
    return math.hypot(float(p.x) - float(q.x), float(p.y) - float(q.y)) <= tol


class TestAffineRegularHexagon:
    def test_canonical_vertices(self):
        assert [tuple(p) for p in canon().vertices] == [
            (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1), (2, 0)]

    def test_area(self):
        assert canon().area() == 6

    def test_orientation_normalized(self):
        h = AffineRegularHexagon(P(0, 0), P(-1, 1), P(1, 1))
        assert h.area() == 6
        assert set(map(tuple, h.vertices)) == set(map(tuple, canon().vertices))

    def test_collinear_offsets_rejected(self):
        with pytest.raises(DegenerateInput):
            AffineRegularHexagon(P(0, 0), P(1, 1), P(2, 2))

    def test_outer_vertices(self):
        t = canon().outer_vertices()
        assert tuple(t[0]) == (3, 1)
        assert tuple(t[1]) == (0, 2)
        # tips come in opposite pairs through the center
        for i in range(3):
            assert t[i] + t[i + 3] == Point(0, 0) + Point(0, 0)

    def test_star_area_is_twice_hexagon(self):
        star = canon().star_vertices()
        assert len(star) == 12
        assert polygon_area2(star) == 24

    def test_wing_triangles(self):
        wings = canon().wing_triangles()
        assert len(wings) == 6
        for tri in wings:
            assert abs(polygon_area2(tri)) == 2
        top = wings[1]
        assert set(map(tuple, top)) == {(1, 1), (0, 2), (-1, 1)}

    def test_to_canonical_exact(self):
        h = AffineRegularHexagon(P(3, -2), P(2, 1), P(1, 3))
        M = h.to_canonical()
        for got, want in zip(h.vertices, canon().vertices):
            assert M.apply(got) == want


class TestInscribe:
    def test_hexagon_body_recovers_itself(self):
        fit = inscribe(canon().polygon())
        assert fit.angle == 0.0
        assert fit.edge_half_length == pytest.approx(1.0, abs=1e-12)
        for got, want in zip(fit.hexagon.vertices, canon().vertices):
            assert close(got, want, 1e-9)

    def test_square_uses_plateau_slack(self):
        sq = ConvexPolygon([P(-1, -1), P(1, -1), P(1, 1), P(-1, 1)])
        fit = inscribe(sq)
        assert fit.angle == 0.0
        got = {(round(float(p.x), 9), round(float(p.y), 9))
               for p in fit.hexagon.vertices}
        assert got == {(0.5, 1.0), (-0.5, 1.0), (-1.0, 0.0),
                       (-0.5, -1.0), (0.5, -1.0), (1.0, 0.0)}
        assert fit.hexagon.area() == pytest.approx(3.0)

    def test_triangle_thirds(self):
        tri = ConvexPolygon([P(0, 0), P(1, 0), P(0, 1)])
        fit = inscribe(tri)
        got = {(round(float(p.x), 9), round(float(p.y), 9))
               for p in fit.hexagon.vertices}
        third = round(1 / 3, 9)
        two = round(2 / 3, 9)
        assert got == {(third, two), (0.0, two), (0.0, third),
                       (third, 0.0), (two, 0.0), (two, third)}
        assert fit.hexagon.area() == pytest.approx(1 / 3)

    def test_regular_polygon(self):
        pts = [Point(math.cos(2 * math.pi * k / 17),
                     math.sin(2 * math.pi * k / 17)) for k in range(17)]
        body = ConvexPolygon(pts)
        fit = inscribe(body)
        assert fit.residual <= 1e-7 * body.diameter()
        for v in fit.hexagon.vertices:
            assert body.contains(v, tol=1e-6)

    def test_random_hulls(self):
        rng = random.Random(20240817)
        for _ in range(60):
            pts = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
                   for _ in range(rng.randrange(4, 24))]
            try:
                body = convex_hull(pts)
            except DegenerateInput:
                continue
            fit = inscribe(body)
            d = body.diameter()
            assert fit.residual <= 1e-7 * d
            tol = 1e-6 * d * d
            for v in fit.hexagon.vertices:
                assert body.contains(v, tol=tol)
            area, _ = area_and_centroid(body)
            assert fit.hexagon.area() <= area + 1e-9

    def test_exact_input_accepted(self):
        body = ConvexPolygon([P(0, 0), P(3, 1), P(2, 4), P(-1, 2)])
        fit = inscribe(body)
        assert fit.residual <= 1e-7 * body.diameter()

    def test_thin_body_rejected(self):
        with pytest.raises(ThinBody):
            inscribe(ConvexPolygon([Point(0.0, 0.0), Point(1.0, 0.0),
                                    Point(1.0, 1e-8), Point(0.0, 1e-8)]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                min_size=3, max_size=14))
def test_inscription_properties(coords):
    pts = [P(x, y) for x, y in coords]
    try:
        body = convex_hull(pts)
    except DegenerateInput:
        return
    fit = inscribe(body)
    d = body.diameter()
    assert fit.residual <= 1e-7 * d
    area, _ = area_and_centroid(body)
    assert 0 < fit.hexagon.area() <= float(area) + 1e-9


class TestScan:
    QUAD = [(0, 0), (3, 0), (4, 2), (1, 3)]

    def test_scan_stops_at_first_sign_change(self, monkeypatch):
        thetas = []
        real = hexagon._alignment

        def counted(poly_xy, theta, diam):
            thetas.append(theta)
            return real(poly_xy, theta, diam)

        monkeypatch.setattr(hexagon, "_alignment", counted)
        fit = inscribe(ConvexPolygon([P(x, y) for x, y in self.QUAD]))
        # the misalignment changes sign between scan angles 8 and 9 of 64
        assert 8 * math.pi / 64 < fit.angle < 9 * math.pi / 64
        assert fit.evaluations == len(thetas) < 65
        assert max(thetas) == 9 * math.pi / 64
        assert fit.bracket == 9

    def test_exact_grid_hit_takes_one_evaluation(self):
        fit = inscribe(canon().polygon())
        assert (fit.evaluations, fit.bracket) == (1, None)


# O(n^2) reference for the rotating-calipers _min_width: the loop it
# replaced.

def ref_min_width(poly):
    v = poly.vertices
    n = len(v)
    best = math.inf
    for i in range(n):
        p, q = v[i], v[(i + 1) % n]
        ex, ey = q.x - p.x, q.y - p.y
        L = math.hypot(ex, ey)
        if L == 0:
            continue
        h = max(abs((w.x - p.x) * ey - (w.y - p.y) * ex) for w in v) / L
        best = min(best, h)
    return best


@st.composite
def convex_bodies(draw):
    """Float hulls of random points, squashed to thin ones or with
    near-parallel edges."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["blob", "thin", "ring"]))
    if kind == "ring":
        # a regular 2m-gon has parallel opposite edges; jitter makes them
        # nearly parallel
        m = rng.randrange(2, 20)
        jit = draw(st.sampled_from([0.0, 1e-12, 1e-6]))
        pts = [(math.cos(math.pi * k / m) + jit * rng.random(),
                math.sin(math.pi * k / m)) for k in range(2 * m)]
    else:
        squash = 1.0 if kind == "blob" else 10.0 ** -rng.randrange(3, 9)
        pts = [(rng.uniform(-5, 5), squash * rng.uniform(-5, 5))
               for _ in range(rng.randrange(3, 40))]
    t = rng.uniform(0, math.pi)
    c, s = math.cos(t), math.sin(t)
    try:
        return convex_hull([Point(x * c - y * s, x * s + y * c)
                            for x, y in pts])
    except DegenerateInput:
        return None


@settings(max_examples=300, deadline=None)
@given(convex_bodies())
def test_min_width_matches_quadratic_reference(body):
    if body is None:
        return
    # the calipers stop at the first of several vertices whose heights
    # tie up to rounding, so the two agree to rounding of the diameter
    assert abs(_min_width(body) - ref_min_width(body)) \
        <= 1e-13 * body.diameter()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                min_size=3, max_size=14),
       st.sampled_from([1000.0, 2.0 ** 30, -2.0 ** 30]))
def test_float_inscription_is_translation_invariant(coords, shift):
    try:
        body = convex_hull([Point(float(x), float(y)) for x, y in coords])
    except DegenerateInput:
        return
    moved = ConvexPolygon([Point(v.x + shift, v.y - shift) for v in body])
    fit, fit_m = inscribe(body), inscribe(moved)
    d = body.diameter()
    # what moving the body may change is the rounding of the coordinates
    # that carry the shift
    ulp = math.ulp(shift)
    assert fit_m.residual <= 1e-7 * d
    for p, q in zip(fit.hexagon.vertices, fit_m.hexagon.vertices):
        assert close(p, Point(q.x - shift, q.y + shift), 1e-9 * d + 4 * ulp)
    chk, chk_m = check_theorem(body, fit=fit), check_theorem(moved, fit=fit_m)
    assert chk.verdict == chk_m.verdict == "contained"
    assert abs(chk.gauge_value - chk_m.gauge_value) \
        <= 1e-9 + 100 * ulp / _min_width(body)



def scaled(p, k):
    return Point(math.ldexp(p.x, k), math.ldexp(p.y, k))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                min_size=3, max_size=14),
       st.integers(-900, 900), st.booleans())
@example([(0, 0), (1, 0), (0, 1)], 532, True)
@example([(0, 0), (3, 0), (4, 2), (1, 3)], -665, False)
def test_inscription_scales_with_the_body(coords, k, exact):
    try:
        hull = convex_hull([P(x, y) for x, y in coords])
    except DegenerateInput:
        return
    if exact:
        body = hull
        big = ConvexPolygon([scale_point(v, k) for v in hull])
    else:
        body = ConvexPolygon([Point(float(v.x), float(v.y)) for v in hull])
        big = ConvexPolygon([scaled(v, k) for v in body])
        # validation keeps the same vertices at every scale
        assert big.vertices == [scaled(v, k) for v in body]
    fit, fit_k = inscribe(body), inscribe(big)
    # a power of two is exact: the fit of the scaled body is the fit of
    # the body, scaled, to the last bit
    h, h_k = fit.hexagon, fit_k.hexagon
    for p, q in ((h.c, h_k.c), (h.u, h_k.u), (h.v, h_k.v)):
        assert scaled(p, k) == q
    assert fit_k.angle == fit.angle
    for a, b in ((fit.edge_half_length, fit_k.edge_half_length),
                 (fit.alignment_error, fit_k.alignment_error),
                 (fit.residual, fit_k.residual)):
        assert math.ldexp(a, k) == b
    assert (fit_k.evaluations, fit_k.bracket) \
        == (fit.evaluations, fit.bracket)
    chk, chk_k = check_theorem(body, fit=fit), check_theorem(big, fit=fit_k)
    assert chk.verdict == chk_k.verdict == "contained"
    assert chk_k.gauge_value == chk.gauge_value
    assert chk_k.w_extracted == chk.w_extracted
    assert chk_k.centroid == scaled(chk.centroid, k)

# Reference for the chord table of _Frame: the O(n log n) construction it
# replaced, with one _interp (a bisect) per breakpoint and the extremes and
# maxima taken by min/max over key tuples, and the snapping and the
# level_high bisection as they were written with it.

def ref_snap(vals, tol):
    order = sorted(set(vals))
    rep = {}
    group = prev = order[0]
    for v in order:
        if v - prev > tol:
            group = v
        rep[v] = group
        prev = v
    return [rep[v] for v in vals]


def ref_frame(qx, qy, snap_tol):
    if snap_tol > 0:
        qy = ref_snap(qy, snap_tol)
    n = len(qx)
    ibr = min(range(n), key=lambda i: (qy[i], -qx[i]))
    itr = max(range(n), key=lambda i: (qy[i], qx[i]))
    itl = max(range(n), key=lambda i: (qy[i], -qx[i]))
    ibl = min(range(n), key=lambda i: (qy[i], qx[i]))

    def walk(start, stop):
        out = [start]
        while out[-1] != stop:
            out.append((out[-1] + 1) % n)
        return out

    def compress(idx, keep_max_x):
        ys, xs = [], []
        for i in idx:
            y, x = qy[i], qx[i]
            if ys and y == ys[-1]:
                if (x > xs[-1]) == keep_max_x:
                    xs[-1] = x
                continue
            if ys and y < ys[-1]:
                raise InscriptionFailed("chain not monotone")
            ys.append(y)
            xs.append(x)
        return ys, xs

    ry, rx = compress(walk(ibr, itr), keep_max_x=True)
    ly, lx = compress(walk(itl, ibl)[::-1], keep_max_x=False)
    ys = sorted(set(ry) | set(ly))
    ell = [max(0.0, _interp(ry, rx, y) - _interp(ly, lx, y)) for y in ys]
    imax = max(range(len(ell)), key=lambda i: (ell[i], -i))
    jmax = max(range(len(ell)), key=lambda i: (ell[i], i))
    return dict(ry=ry, rx=rx, ly=ly, lx=lx, ys=ys, ell=ell, imax=imax,
                jmax=jmax, ell_max=ell[imax])


def ref_level_high(table, target):
    ys, ell = table["ys"], table["ell"]
    if target <= ell[-1]:
        return ys[-1]
    lo, hi = table["jmax"], len(ell) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ell[mid] >= target:
            lo = mid
        else:
            hi = mid
    if ell[lo] == target:
        return ys[lo]
    t = (target - ell[lo]) / (ell[hi] - ell[lo])
    return ys[lo] + t * (ys[hi] - ys[lo])


FRAME_KEYS = ("ry", "rx", "ly", "lx", "ys", "ell", "imax", "jmax", "ell_max")


def frame_outcome(qx, qy, snap_tol):
    """repr of the table, or of the error: repr tells 0.0 from -0.0."""
    try:
        fr = _Frame(qx, qy, snap_tol)
    except InscriptionFailed as e:
        return repr(e)
    return repr({k: getattr(fr, k) for k in FRAME_KEYS})


def ref_outcome(qx, qy, snap_tol):
    try:
        return repr(ref_frame(qx, qy, snap_tol))
    except InscriptionFailed as e:
        return repr(e)


@st.composite
def frame_inputs(draw):
    """Rotated vertex lists of convex polygons, as _alignment makes them.

    Grid hulls and regular polygons, seen along directions parallel to
    their edges, have plateaus and ties at the extremes; jitter below the
    snapping tolerance makes plateaus that only snapping flattens; the
    start index is arbitrary, so chains wrap past index 0; and zeros of
    either sign appear at the grid directions.  Some lists are shuffled,
    which makes chains that are not monotone, and some are reversed, which
    makes chains with repeated levels."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["grid", "regular", "blob"]))
    if kind == "regular":
        m = rng.randrange(3, 13)
        pts = [(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m))
               for k in range(m)]
    else:
        span = 4 if kind == "grid" else 1000
        pts = [(float(rng.randint(-span, span)),
                float(rng.randint(-span, span)))
               for _ in range(rng.randrange(3, 30))]
        try:
            pts = [tuple(v) for v in convex_hull([Point(*p) for p in pts])]
        except DegenerateInput:
            pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    if rng.random() < 0.3:
        # rest on both axes, so that zeros come at the extremes
        x0, y0 = min(x for x, _ in pts), min(y for _, y in pts)
        pts = [(x - x0, y - y0) for x, y in pts]
    jit = draw(st.sampled_from([0.0, 1e-14, 1e-9]))
    pts = [(x + jit * rng.random(), y + jit * rng.random()) for x, y in pts]
    r = rng.randrange(len(pts))
    pts = pts[r:] + pts[:r]
    if rng.random() < 0.1:
        rng.shuffle(pts)
    elif rng.random() < 0.2:
        pts.reverse()
    theta = draw(st.one_of(
        st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi]),
        st.integers(0, 64).map(lambda k: k * math.pi / 64),
        st.floats(0, math.pi)))
    ct, st_ = math.cos(theta), math.sin(theta)
    qx = [x * ct + y * st_ for x, y in pts]
    qy = [-x * st_ + y * ct for x, y in pts]
    if draw(st.booleans()):
        qx = [-0.0 if v == 0 and rng.random() < 0.5 else v for v in qx]
        qy = [-0.0 if v == 0 and rng.random() < 0.5 else v for v in qy]
    diam = max(math.hypot(a[0] - b[0], a[1] - b[1]) for a in pts for b in pts)
    snap_tol = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-2])) * diam
    return qx, qy, snap_tol


@settings(max_examples=500, deadline=None)
@given(frame_inputs())
# a unit square whose bottom level is 0.0 on the left and -0.0 on the right
@example(([0.0, 1.0, 1.0, 0.0], [0.0, -0.0, 1.0, 1.0], 0.0))
def test_frame_matches_bisect_reference(args):
    got = frame_outcome(*args)
    assert got == ref_outcome(*args)
    if got.startswith("InscriptionFailed"):
        return
    fr = _Frame(*args)
    ref = ref_frame(*args)
    lo, hi = fr.ell[-1], fr.ell_max
    for k in range(9):
        target = lo + (hi - lo) * k / 8
        assert repr(fr.level_high(target)) == repr(ref_level_high(ref, target))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=2, max_size=40),
       st.integers(0, 7))
def test_level_high_probes_like_the_reference(ell, k):
    # a chord table need not be monotone after its maximum when rounding
    # wiggles it; level_high must still pick the reference's segment
    fr = _Frame.__new__(_Frame)
    fr.ell = [float(v) for v in ell]
    fr.ys = [float(i) for i in range(len(ell))]
    fr.ell_max = max(fr.ell)
    fr._rev = fr.ell[::-1]
    fr.jmax = len(ell) - 1 - fr._rev.index(fr.ell_max)
    ref = {"ys": fr.ys, "ell": fr.ell, "jmax": fr.jmax}
    target = k + 0.5
    if target <= fr.ell_max:
        assert repr(fr.level_high(target)) == repr(ref_level_high(ref, target))


def test_frame_rejects_a_chain_that_is_not_monotone():
    # a regular pentagon in the order 0, 2, 4, 1, 3
    order = [0, 2, 4, 1, 3]
    qx = [math.cos(2 * math.pi * k / 5) for k in order]
    qy = [math.sin(2 * math.pi * k / 5) for k in order]
    with pytest.raises(InscriptionFailed, match="chain not monotone"):
        _Frame(qx, qy)
    assert ref_outcome(qx, qy, 0.0) == frame_outcome(qx, qy, 0.0)
