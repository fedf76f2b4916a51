import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexacent.centroid_bound import (
    NotCanonical,
    body_G,
    body_P,
    canonical_hexagon,
    centroid_height_G,
    check_theorem,
    hexagon_gauge,
    in_star,
    in_upper_star,
    monte_carlo,
    random_body,
    star_violations,
    support_parameter_w,
    tight_pentagon,
    wing_apex,
    wing_monotonicity,
)
from hexacent.geom_core import (
    ConvexPolygon,
    GeomError,
    Point,
    area_and_centroid,
    boundary_distance,
)
from hexacent.hexagon import AffineRegularHexagon, inscribe

F = Fraction

GRID_W = [F(1), F(5, 4), F(3, 2), F(8, 5), F(9, 5), F(2)]
GRID_Z = [F(5, 7), F(4, 5), F(9, 10), F(1)]


class TestBodyFamily:
    def test_area_closed_form(self):
        for w in GRID_W:
            for z in GRID_Z:
                area, _ = area_and_centroid(body_G(w, z))
                B = w * w - 2 * w * z + 5 * w + 4 * z
                assert area == B / w

    def test_centroid_closed_form(self):
        for w in GRID_W:
            for z in GRID_Z:
                _, cen = area_and_centroid(body_G(w, z))
                assert cen.x == 0
                assert cen.y == centroid_height_G(w, z)

    def test_frozen_centroid_values(self):
        assert centroid_height_G(1, 1) == F(1, 6)
        assert centroid_height_G(F(8, 5), F(5, 7)) == F(26293, 204540)
        assert centroid_height_G(F(3, 2), 1) == F(95, 774)
        assert centroid_height_G(2, F(5, 7)) == F(4, 21)

    def test_w2_is_tight_pentagon_for_any_z(self):
        want = set(map(tuple, tight_pentagon().vertices))
        for z in GRID_Z:
            assert set(map(tuple, body_G(2, z).vertices)) == want

    def test_tight_pentagon_vertices(self):
        assert set(map(tuple, tight_pentagon().vertices)) == {
            (0, 2), (-2, 0), (-1, -1), (1, -1), (2, 0)}

    def test_pentagon_family_collapses(self):
        assert len(body_P(F(3, 2))) == 5
        assert set(map(tuple, body_P(1).vertices)) == {
            (3, 1), (-3, 1), (-1, -1), (1, -1)}

    def test_parameter_validation(self):
        with pytest.raises(GeomError):
            body_G(F(5, 2), 1)
        with pytest.raises(GeomError):
            body_G(F(3, 2), 2)

    def test_support_parameter(self):
        for w in GRID_W:
            assert support_parameter_w(body_G(w, F(4, 5))) == w

    def test_support_parameter_off_vertex(self):
        # (1, 1) interior to the cap edge, not a vertex
        assert support_parameter_w(tight_pentagon()) == 2

    def test_support_parameter_rejects_shifted_body(self):
        shifted = body_G(F(3, 2), F(1, 2))
        moved = type(shifted)([Point(v.x + 10, v.y) for v in
                               shifted.vertices])
        with pytest.raises(NotCanonical):
            support_parameter_w(moved)


class TestCheckTheorem:
    def test_tight_margin_is_exactly_zero(self):
        chk = check_theorem(tight_pentagon(), hexagon=canonical_hexagon())
        assert chk.exact
        assert chk.margin == 0
        assert chk.ok
        assert chk.gauge_value == F(4, 21)

    def test_exact_family_margins(self):
        hexa = canonical_hexagon()
        assert check_theorem(body_G(1, 1), hexagon=hexa).margin == F(1, 42)
        assert check_theorem(body_G(F(8, 5), F(5, 7)),
                             hexagon=hexa).margin == F(12667, 204540)
        assert check_theorem(body_G(F(3, 2), 1),
                             hexagon=hexa).margin == F(367, 5418)

    def test_family_margin_nonnegative_everywhere_on_grid(self):
        hexa = canonical_hexagon()
        for w in GRID_W:
            for z in GRID_Z:
                chk = check_theorem(body_G(w, z), hexagon=hexa)
                assert chk.exact and chk.margin >= 0
                assert (chk.margin == 0) == (w == 2)

    def test_inscribed_path_on_family(self):
        for w, z in [(F(3, 2), F(5, 7)), (F(8, 5), F(9, 10)), (2, 1)]:
            chk = check_theorem(body_G(w, z))
            assert not chk.exact
            assert chk.ok
            assert chk.fit is not None

    def test_violation_is_reported(self):
        tiny = AffineRegularHexagon(Point(F(0), F(0)),
                                    Point(F(1, 100), F(1, 100)),
                                    Point(F(-1, 100), F(1, 100)))
        chk = check_theorem(tight_pentagon(), hexagon=tiny)
        assert not chk.ok
        assert chk.margin < 0

    def test_custom_ratio(self):
        chk = check_theorem(tight_pentagon(), ratio=F(1, 5),
                            hexagon=canonical_hexagon())
        assert chk.ok and chk.margin == F(1, 105)
        chk = check_theorem(tight_pentagon(), ratio=F(1, 6),
                            hexagon=canonical_hexagon())
        assert not chk.ok and chk.margin == -F(1, 42)


class TestStar:
    def test_membership_frozen(self):
        assert in_star(Point(0, 0))
        assert in_star(Point(0, 2))
        assert in_star(Point(3, 1))
        assert in_star(Point(-3, -1))
        assert in_star(Point(F(0), F(-2)))
        assert not in_star(Point(3.01, 1.0))
        assert not in_star(Point(2.5, 0.4))
        assert not in_star(Point(0.0, 2.2))

    def test_gauge_values(self):
        hexa = canonical_hexagon()
        assert hexagon_gauge(hexa, Point(F(0), F(4, 21))) == F(4, 21)
        assert hexagon_gauge(hexa, Point(F(1), F(1))) == 1

    def test_family_inside_star(self):
        for w in GRID_W:
            for z in GRID_Z:
                for v in body_G(w, z).vertices:
                    assert in_star(v)

    def test_star_violations_on_random_bodies(self):
        rng = random.Random(99)
        for _ in range(25):
            body = random_body(rng, "a")
            chk = check_theorem(body)
            assert star_violations(body, chk.fit) == []

    def test_upper_star_membership(self):
        assert in_upper_star(Point(0.0, 2.0))
        assert in_upper_star(Point(3.0, 1.0))
        assert in_upper_star(Point(-3.0, 1.0))
        assert in_upper_star(Point(0.0, -1.0))
        assert not in_upper_star(Point(0.0, -2.0))   # bottom tip excluded
        assert not in_upper_star(Point(3.0, -1.0))
        assert not in_upper_star(Point(0.0, 2.2))


class TestWingMonotonicity:
    def test_full_wing_pentagon_passes(self):
        # body keeps the whole wedge, so the clipped piece is the wedge
        for wv in (F(17, 10), F(9, 5), F(19, 10)):
            assert wing_monotonicity(body_P(wv), float(wv)) is True

    def test_short_wing_body_has_empty_wedge(self):
        # wing stops short of the optimal apex: nothing to clip
        assert wing_monotonicity(body_G(F(17, 10), F(9, 10)), 1.7) is None

    def test_below_threshold_does_not_apply(self):
        assert wing_monotonicity(body_G(F(3, 2), F(1, 2)), 1.2) is None


class TestGenerators:
    def test_generator_a_valid(self):
        rng = random.Random(5)
        for _ in range(40):
            body = random_body(rng, "a")
            assert len(body) >= 3 and not body.exact

    def test_generator_b_keeps_top_edge(self):
        rng = random.Random(6)
        for _ in range(40):
            body = random_body(rng, "b")
            assert boundary_distance(body, Point(1.0, 1.0)) <= 1e-9
            assert boundary_distance(body, Point(-1.0, 1.0)) <= 1e-9

    def test_unknown_generator(self):
        rng = random.Random(0)
        with pytest.raises(GeomError):
            random_body(rng, "c")
        with pytest.raises(GeomError):
            monte_carlo(1, generator="z")


class TestMonteCarlo:
    def test_small_sweep_clean(self):
        rep = monte_carlo(trials=120, seed=424242, generator="mixed")
        assert rep.violations == 0
        assert rep.wing_counterexamples == 0
        assert rep.star_escapes == 0
        assert rep.failed_trials == ()
        assert rep.min_margin >= -1e-9
        assert rep.max_residual_ratio <= 1e-7

    def test_deterministic(self):
        a = monte_carlo(trials=40, seed=7, generator="mixed")
        b = monte_carlo(trials=40, seed=7, generator="mixed")
        assert a == b

    def test_single_generator_runs(self):
        assert monte_carlo(30, seed=3, generator="a").violations == 0
        assert monte_carlo(30, seed=3, generator="b").violations == 0


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=1, max_value=2, max_denominator=64),
       st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_family_margin_nonnegative_property(w, z):
    chk = check_theorem(body_G(w, z), hexagon=canonical_hexagon())
    assert chk.exact
    assert chk.margin >= 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_bodies_satisfy_bound(i):
    rng = random.Random(i)
    body = random_body(rng, ("a", "b")[i % 2])
    chk = check_theorem(body)
    assert chk.ok


# Reference for body_G and wing_apex: the forms they had before they were
# built on integer numerators and denominators, in Fraction arithmetic.

def ref_body_G(w, z):
    w, z = Fraction(w), Fraction(z)
    if not 1 <= w <= 2:
        raise GeomError("cap height w must lie in [1, 2]")
    if not 0 <= z <= 1:
        raise GeomError("wing parameter z must lie in [0, 1]")
    p1 = ref_wing_apex(w, z)
    p2 = Point(-p1.x, p1.y)
    pts = [Point(F(0), w), p2, Point(F(-2), F(0)), Point(F(-1), F(-1)),
           Point(F(1), F(-1)), Point(F(2), F(0)), p1]
    return ConvexPolygon(pts)


def ref_wing_apex(w, z):
    w, z = Fraction(w), Fraction(z)
    return Point((w + 2 * z) / w, (w + z * (2 - 2 * w)) / w)


def outcome(fn, *args, message=True):
    """(coordinates, their types) of the points fn returns, or the type
    (and the message) of what it raises."""
    try:
        got = fn(*args)
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return "raises", type(e), str(e) if message else None
    pts = got.vertices if isinstance(got, ConvexPolygon) else [got]
    return ([(p.x, p.y) for p in pts],
            [(type(p.x), type(p.y)) for p in pts])


def near(lo, hi):
    """Rationals in [lo, hi] and a little beyond, with denominators of up
    to 30 digits."""
    return st.integers(1, 10 ** 30).flatmap(
        lambda d: st.integers(lo * d - d // 8, hi * d + d // 8).map(
            lambda k: Fraction(k, d)))


BOUNDARY = [0, 1, 2, F(0), F(1), F(2), 0.0, 1.0, 2.0, 1.5, 0.25,
            F(10 ** 30 - 1, 10 ** 30), F(10 ** 30 + 1, 10 ** 30),
            F(2 * 10 ** 30 + 1, 10 ** 30), F(-1, 10 ** 30), -1, 3]
cap_heights = st.one_of(near(1, 2), st.sampled_from(BOUNDARY),
                        st.integers(-2, 4), st.floats(0.5, 2.5))
wing_params = st.one_of(near(0, 1), st.sampled_from(BOUNDARY),
                        st.integers(-2, 3), st.floats(-0.5, 1.5))


@settings(max_examples=400, deadline=None)
@given(cap_heights, wing_params)
def test_body_G_matches_reference(w, z):
    assert outcome(body_G, w, z) == outcome(ref_body_G, w, z)


@settings(max_examples=300, deadline=None)
@given(st.one_of(near(-3, 3), st.sampled_from(BOUNDARY),
                 st.floats(-3, 3, allow_nan=False)),
       st.one_of(near(-2, 2), st.sampled_from(BOUNDARY),
                 st.floats(-2, 2, allow_nan=False)))
def test_wing_apex_matches_reference(w, z):
    # at w = 0 both divide by zero, in different places
    assert outcome(wing_apex, w, z, message=False) \
        == outcome(ref_wing_apex, w, z, message=False)
