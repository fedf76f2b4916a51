import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexacent.geom_core import (
    ConvexPolygon,
    DegenerateInput,
    Point,
    area_and_centroid,
    convex_hull,
    polygon_area2,
)
from hexacent import hexagon
from hexacent.centroid_bound import check_theorem
from hexacent.hexagon import (
    AffineRegularHexagon,
    ThinBody,
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

    def test_exact_grid_hit_takes_one_evaluation(self):
        assert inscribe(canon().polygon()).evaluations == 1


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
