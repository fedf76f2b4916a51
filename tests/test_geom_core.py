import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexacent.geom_core import (
    AffineMap,
    ConvexPolygon,
    DegenerateInput,
    GeomError,
    Line,
    NonConvex,
    Parallel,
    Point,
    _diameter,
    apply_map,
    area_and_centroid,
    boundary_distance,
    clip_halfplane,
    composite_centroid,
    convex_hull,
    cross3,
    gauge,
    homothet,
    line_intersect,
    on_segment,
    polygon_area2,
    supporting_cone,
)

F = Fraction


def P(x, y):
    return Point(F(x), F(y))


def poly(*coords):
    return ConvexPolygon([P(x, y) for x, y in coords])


class TestConvexPolygon:
    def test_canonical_hexagon_accepted(self, canon_hexagon):
        assert len(canon_hexagon) == 6
        assert canon_hexagon.exact

    def test_cw_input_reversed_to_ccw(self):
        p = poly((0, 0), (0, 1), (1, 1), (1, 0))
        assert polygon_area2(p.vertices) == 2

    def test_collinear_vertex_pruned(self):
        p = poly((0, 0), (1, 0), (2, 0), (2, 2), (0, 2))
        assert len(p) == 4

    def test_duplicate_vertex_pruned(self):
        p = poly((0, 0), (2, 0), (2, 0), (2, 2), (0, 2))
        assert len(p) == 4

    def test_nonconvex_names_violating_triple(self):
        with pytest.raises(NonConvex) as ei:
            poly((0, 0), (2, 0), (1, 1), (2, 2), (0, 2))
        assert (F(1), F(1)) in ei.value.triple

    @pytest.mark.parametrize("k", [-1000, -700, 0, 700, 1000])
    def test_float_validation_at_any_scale(self, k):
        # 2**1000 squared overflows a float, 2**-700 squared underflows
        def pts(*coords):
            return [Point(math.ldexp(x, k), math.ldexp(y, k))
                    for x, y in coords]

        p = ConvexPolygon(pts((0, 0), (0, 2), (1, 2 + 1e-13), (2, 2),
                              (2, 0), (2, 0), (1, 0)))
        assert len(p) == 4
        assert set(p.vertices) == set(pts((0, 0), (2, 0), (2, 2), (0, 2)))
        with pytest.raises(NonConvex) as ei:
            ConvexPolygon(pts((0, 0), (2, 0), (1, 1), (2, 2), (0, 2)))
        assert tuple(pts((1, 1))[0]) in ei.value.triple
        with pytest.raises(DegenerateInput):
            ConvexPolygon(pts((0, 0), (1, 1), (2, 2)))
        area, cen = area_and_centroid(ConvexPolygon(pts((0, 0), (3, 0),
                                                        (0, 3))))
        assert cen == pts((1, 1))[0]
        assert area == (math.ldexp(4.5, 2 * k) if abs(k) < 500
                        else math.inf if k > 0 else 0.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInput):
            poly((0, 0), (1, 1), (2, 2))
        with pytest.raises(DegenerateInput):
            ConvexPolygon([P(0, 0), P(1, 0)])

    def test_mixed_modes_rejected(self):
        with pytest.raises(GeomError):
            ConvexPolygon([P(0, 0), Point(1.0, 0.0), P(0, 1)])

    def test_contains(self, canon_hexagon):
        assert canon_hexagon.contains(P(0, 0))
        assert canon_hexagon.contains(P(2, 0))        # vertex is inside (closed)
        assert canon_hexagon.contains(P(0, 1))        # edge midpoint
        assert not canon_hexagon.contains(P(2, 1))


class TestAreaCentroid:
    def test_canonical_hexagon(self, canon_hexagon):
        area, cen = area_and_centroid(canon_hexagon)
        assert area == 6
        assert (cen.x, cen.y) == (0, 0)

    def test_tight_pentagon_exact(self, tight_pentagon):
        area, cen = area_and_centroid(tight_pentagon)
        assert area == 7
        assert cen.x == 0
        assert cen.y == F(4, 21)

    def test_cap_triangle(self):
        # cap over the top edge with apex (0, 3/2)
        area, cen = area_and_centroid(poly((1, 1), (-1, 1), (0, F(3, 2))))
        assert area == F(1, 2)
        assert cen.y == F(7, 6)

    def test_cyclic_rotation_invariance(self, tight_pentagon):
        v = tight_pentagon.vertices
        for k in range(1, len(v)):
            area, cen = area_and_centroid(ConvexPolygon(v[k:] + v[:k]))
            assert area == 7 and cen == Point(F(0), F(4, 21))

    def test_float_mode(self):
        sq = ConvexPolygon([Point(0.0, 0.0), Point(2.0, 0.0),
                            Point(2.0, 2.0), Point(0.0, 2.0)])
        area, cen = area_and_centroid(sq)
        assert area == pytest.approx(4.0)
        assert cen.x == pytest.approx(1.0) and cen.y == pytest.approx(1.0)


class TestCompositeCentroid:
    def test_split_recombines(self, tight_pentagon):
        # split the pentagon along y = 1: hexagon part + cap triangle
        hexagon = clip_halfplane(tight_pentagon, Line(0, 1, 1), keep="le")
        cap = clip_halfplane(tight_pentagon, Line(0, 1, 1), keep="ge")
        parts = [area_and_centroid(hexagon), area_and_centroid(cap)]
        assert sum(a for a, _ in parts) == 7
        cen = composite_centroid(parts)
        assert (cen.x, cen.y) == (0, F(4, 21))


class TestConvexHull:
    def test_hull_of_hexagon_with_interior_noise(self, canon_hexagon):
        pts = list(canon_hexagon.vertices) + [P(0, 0), P(1, 0), P(F(-1, 2), F(1, 2))]
        hull = convex_hull(pts)
        assert set(hull.vertices) == set(canon_hexagon.vertices)

    def test_collinear_input_rejected(self):
        with pytest.raises(DegenerateInput):
            convex_hull([P(0, 0), P(1, 1), P(2, 2), P(3, 3)])

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=3, max_size=30))
    def test_hull_contains_all_inputs(self, coords):
        pts = [P(x, y) for x, y in coords]
        try:
            hull = convex_hull(pts)
        except DegenerateInput:
            return
        for p in pts:
            assert hull.contains(p)


class TestLines:
    def test_star_outer_vertices(self, canon_hexagon):
        v = canon_hexagon.vertices
        # extend edge a5a6 against edge a2a1
        l1 = Line.through(v[4], v[5])
        l2 = Line.through(v[1], v[0])
        assert line_intersect(l1, l2) == P(3, 1)
        # extend edge a6a1 against edge a3a2
        l3 = Line.through(v[5], v[0])
        l4 = Line.through(v[2], v[1])
        assert line_intersect(l3, l4) == P(0, 2)

    def test_parallel_raises(self):
        with pytest.raises(Parallel):
            line_intersect(Line(0, 1, 0), Line(0, 1, 1))

    def test_side_sign(self):
        l = Line.through(P(0, 0), P(1, 0))
        assert l.side(P(0, 1)) > 0
        assert l.side(P(0, -1)) < 0
        assert l.side(P(5, 0)) == 0

    def test_supporting_cone(self, canon_hexagon):
        l_in, l_out = supporting_cone(canon_hexagon, 0)
        a1 = canon_hexagon.vertices[0]
        assert l_in.side(a1) == 0 and l_out.side(a1) == 0


class TestClip:
    def test_tight_pentagon_clips_to_hexagon(self, tight_pentagon, canon_hexagon):
        got = clip_halfplane(tight_pentagon, Line(0, 1, 1), keep="le")
        assert set(got.vertices) == set(canon_hexagon.vertices)

    def test_clip_away_everything(self, canon_hexagon):
        assert clip_halfplane(canon_hexagon, Line(0, 1, -5), keep="le") is None

    def test_clip_is_identity_when_line_misses(self, canon_hexagon):
        got = clip_halfplane(canon_hexagon, Line(0, 1, 5), keep="le")
        assert set(got.vertices) == set(canon_hexagon.vertices)

    def test_clip_through_vertex(self, canon_hexagon):
        got = clip_halfplane(canon_hexagon, Line(0, 1, 0), keep="ge")
        area, _ = area_and_centroid(got)
        assert area == 3


class TestGaugeHomothet:
    def test_gauge_frozen_values(self, canon_hexagon):
        c = P(0, 0)
        v = canon_hexagon.vertices
        assert gauge(c, v, c) == 0
        assert gauge(c, v, P(2, 0)) == 1
        assert gauge(c, v, P(0, F(4, 21))) == F(4, 21)

    def test_gauge_homogeneous(self, canon_hexagon):
        c = P(0, 0)
        v = canon_hexagon.vertices
        p = P(F(1, 3), F(-2, 7))
        assert gauge(c, v, Point(p.x * 3, p.y * 3)) == 3 * gauge(c, v, p)

    def test_gauge_needs_interior_center(self, canon_hexagon):
        with pytest.raises(DegenerateInput):
            gauge(P(5, 5), canon_hexagon.vertices, P(0, 0))

    def test_homothet_scales_area(self, canon_hexagon):
        small = homothet(canon_hexagon, F(4, 21), P(0, 0))
        area, cen = area_and_centroid(small)
        assert area == 6 * F(4, 21) ** 2
        assert (cen.x, cen.y) == (0, 0)

    def test_homothet_ratio_validated(self, canon_hexagon):
        with pytest.raises(GeomError):
            homothet(canon_hexagon, 0, P(0, 0))


class TestAffineMap:
    def test_roundtrip_inverse(self, canon_hexagon):
        M = AffineMap(F(2), F(1), F(-1), F(3), F(5), F(-2))
        back = M.inverse()
        for v in canon_hexagon.vertices:
            assert back.apply(M.apply(v)) == v

    def test_compose(self):
        A = AffineMap(F(2), F(0), F(0), F(1), F(1), F(0))
        B = AffineMap(F(1), F(1), F(0), F(1), F(0), F(2))
        p = P(3, 4)
        assert A.compose(B).apply(p) == A.apply(B.apply(p))

    def test_from_point_pairs(self):
        src = (P(0, 0), P(1, 0), P(0, 1))
        dst = (P(2, 1), P(4, 2), P(1, 5))
        M = AffineMap.from_point_pairs(src, dst)
        for s, d in zip(src, dst):
            assert M.apply(s) == d

    def test_area_scales_by_det(self, canon_hexagon):
        M = AffineMap(F(2), F(1), F(-1), F(3), F(5), F(-2))
        img = apply_map(M, canon_hexagon)
        area, _ = area_and_centroid(img)
        assert area == 6 * M.det()

    def test_centroid_is_affine_equivariant(self, tight_pentagon):
        M = AffineMap(F(1), F(2), F(0), F(1), F(-3), F(7))
        _, cen = area_and_centroid(tight_pentagon)
        _, cen_img = area_and_centroid(apply_map(M, tight_pentagon))
        assert cen_img == M.apply(cen)


class TestBoundaryDistance:
    def test_vertex_and_interior(self, canon_hexagon):
        assert boundary_distance(canon_hexagon, P(2, 0)) == 0
        assert boundary_distance(canon_hexagon, P(0, 0)) == pytest.approx(1.0)


@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                min_size=3, max_size=12))
def test_hull_area_matches_triangulation(coords):
    pts = [P(x, y) for x, y in coords]
    try:
        hull = convex_hull(pts)
    except DegenerateInput:
        return
    area, _ = area_and_centroid(hull)
    v = hull.vertices
    fan = sum(cross3(v[0], v[i], v[i + 1]) for i in range(1, len(v) - 1))
    assert area == F(fan, 2)


# Plain-Fraction reference for the exact kernel: the validation and the
# shoelace written directly on Fraction coordinates.

def _ref_cross(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def ref_convex(coords):
    pts = [(F(x), F(y)) for x, y in coords]
    area2 = sum(p[0] * q[1] - p[1] * q[0]
                for p, q in zip(pts, pts[1:] + pts[:1]))
    if area2 < 0:
        pts.reverse()
    if area2 == 0:
        raise DegenerateInput("zero-area polygon")
    out = []
    for p in pts:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) > 2:
        changed = False
        keep = []
        for b in out:
            while len(keep) >= 2 and _ref_cross(keep[-2], keep[-1], b) == 0:
                keep.pop()
                changed = True
            keep.append(b)
        while len(keep) > 2 and _ref_cross(keep[-2], keep[-1], keep[0]) == 0:
            keep.pop()
            changed = True
        while len(keep) > 2 and _ref_cross(keep[-1], keep[0], keep[1]) == 0:
            keep.pop(0)
            changed = True
        out = keep
    if len(out) < 3:
        raise DegenerateInput("polygon collapses after pruning")
    n = len(out)
    for i in range(n):
        j, k = (i + 1) % n, (i + 2) % n
        if _ref_cross(out[i], out[j], out[k]) <= 0:
            raise NonConvex((out[i], out[j], out[k]), (i, j, k))
    # the edge direction goes round once per edge that starts a rise
    rises = sum(1 for i in range(n)
                if out[i - 1][1] >= out[i][1] < out[(i + 1) % n][1])
    if rises != 1:
        raise GeomError("self-intersecting polygon: the boundary winds %d "
                        "times round" % rises)
    return out


def ref_area_and_centroid(coords):
    pts = [(F(x), F(y)) for x, y in coords]
    a2 = sx = sy = F(0)
    for p, q in zip(pts, pts[1:] + pts[:1]):
        cr = p[0] * q[1] - p[1] * q[0]
        a2 += cr
        sx += (p[0] + q[0]) * cr
        sy += (p[1] + q[1]) * cr
    if a2 == 0:
        raise DegenerateInput("zero-area polygon")
    return a2 / 2, (sx / (3 * a2), sy / (3 * a2))


def _outcome(fn, arg):
    try:
        return ("ok", fn(arg))
    except GeomError as e:
        return (type(e), str(e), getattr(e, "triple", None),
                getattr(e, "indices", None))


def _kernel_convex(coords):
    return [tuple(v) for v in ConvexPolygon([Point(x, y) for x, y in coords])]


def _kernel_area(coords):
    area, cen = area_and_centroid([Point(x, y) for x, y in coords])
    return area, tuple(cen)


# parabola points are in convex position and, taken left to right, form a
# CCW convex polygon; the edits below break that in every way validation
# has to see
_xs = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=13),
               min_size=3, max_size=9, unique=True)
_edit = st.tuples(st.sampled_from(["reverse", "duplicate", "collinear",
                                   "dent", "flatten", "rotate", "star",
                                   "int"]),
                  st.integers(0, 20),
                  st.fractions(min_value=0, max_value=1, max_denominator=7))


@st.composite
def polygon_inputs(draw):
    if draw(st.booleans()):
        coord = st.one_of(st.integers(-3, 3),
                          st.fractions(min_value=-3, max_value=3,
                                       max_denominator=4))
        return draw(st.lists(st.tuples(coord, coord), min_size=3,
                             max_size=8))
    pts = [(x, x * x) for x in sorted(draw(_xs))]
    for op, i, t in draw(st.lists(_edit, max_size=4)):
        i %= len(pts)
        a, b = pts[i], pts[(i + 1) % len(pts)]
        if op == "reverse":
            pts.reverse()
        elif op == "duplicate":
            pts.insert(i, a)
        elif op == "collinear":
            pts.insert(i + 1, (a[0] + t * (b[0] - a[0]),
                               a[1] + t * (b[1] - a[1])))
        elif op == "dent":
            n = len(pts)
            pts[i] = (F(sum(p[0] for p in pts), n),
                      F(sum(p[1] for p in pts), n))
        elif op == "flatten":
            pts = [(x, 2 * x + 1) for x, _ in pts]
        elif op == "rotate":
            pts = pts[i:] + pts[:i]
        elif op == "star":
            # every second vertex: with an odd count, a star whose turns
            # may all be left turns
            pts = pts[::2] + pts[1::2]
        else:
            pts = [tuple(int(c) if F(c).denominator == 1 else c for c in p)
                   for p in pts]
    return pts


@settings(max_examples=400, deadline=None)
@given(polygon_inputs())
def test_exact_kernel_matches_fraction_reference(coords):
    got = _outcome(_kernel_convex, coords)
    assert got == _outcome(ref_convex, coords)
    assert _outcome(_kernel_area, coords) == \
        _outcome(ref_area_and_centroid, coords)
    if got[0] == "ok":
        area, cen = area_and_centroid(
            ConvexPolygon([Point(x, y) for x, y in coords]))
        assert type(area) is F and type(cen.x) is F and type(cen.y) is F
        assert (area, tuple(cen)) == ref_area_and_centroid(got[1])


def test_exact_kernel_distinct_denominators():
    # vertex k of a 64-gon on a parabola has denominator 101 + k
    pts = [(F(k * 7 - 220, 101 + k), F(k * 7 - 220, 101 + k) ** 2)
           for k in range(64)]
    assert len({x.denominator for x, _ in pts}) == 64
    assert _kernel_convex(pts) == ref_convex(pts)
    assert _kernel_area(pts) == ref_area_and_centroid(pts)


# All-pairs reference for the rotating-calipers _diameter: the loop it
# replaced, on the same float coordinates.

def ref_diameter(pts):
    best = 0.0
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            best = max(best, math.hypot(float(p.x) - float(q.x),
                                        float(p.y) - float(q.y)))
    return best


@st.composite
def float_point_sets(draw):
    """Float points in any order, with repeats and collinear runs."""
    coord = st.floats(min_value=-100, max_value=100, allow_nan=False)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=24))
    for op, i, t in draw(st.lists(st.tuples(
            st.sampled_from(["duplicate", "run", "shift"]),
            st.integers(0, 30), st.floats(0, 1)), max_size=4)):
        i %= len(pts)
        (ax, ay), (bx, by) = pts[i], pts[(i + 1) % len(pts)]
        if op == "duplicate":
            pts.insert(draw(st.integers(0, len(pts))), pts[i])
        elif op == "run":
            k = draw(st.integers(1, 6))
            pts[i + 1:i + 1] = [(ax + j / (k + 1) * (bx - ax),
                                 ay + j / (k + 1) * (by - ay))
                                for j in range(1, k + 1)]
        else:
            pts = [(x + 1e9 * t, y - 1e9 * t) for x, y in pts]
    return [Point(x, y) for x, y in draw(st.permutations(pts))]


class TestDiameter:
    @settings(max_examples=400, deadline=None)
    @given(float_point_sets())
    def test_float_points_match_all_pairs(self, pts):
        assert _diameter(pts) == ref_diameter(pts)

    @settings(max_examples=300, deadline=None)
    @given(polygon_inputs())
    def test_exact_points_match_all_pairs(self, coords):
        pts = [Point(F(x), F(y)) for x, y in coords]
        assert _diameter(pts) == ref_diameter(pts)

    def test_ties_and_degenerate_sets(self):
        for n in range(3, 41):
            ring = [Point(math.cos(2 * math.pi * k / n),
                          math.sin(2 * math.pi * k / n)) for k in range(n)]
            assert _diameter(ring) == ref_diameter(ring)
        rng = random.Random(5)
        box = [P(x, y) for x in range(4) for y in range(3)]
        rng.shuffle(box)
        assert _diameter(box) == ref_diameter(box) == math.hypot(3, 2)
        line = [P(k, 2 * k) for k in (3, -1, 0, 2, 2)]
        assert _diameter(line) == ref_diameter(line)
        assert _diameter([P(1, 1)] * 3) == _diameter([]) == 0.0


def test_on_segment():
    a, b = P(0, 0), P(2, 4)
    assert on_segment(P(1, 2), a, b) and on_segment(a, a, b)
    assert not on_segment(P(3, 6), a, b)
    assert not on_segment(P(1, F(2) + F(1, 10 ** 9)), a, b)
