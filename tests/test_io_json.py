from fractions import Fraction

import pytest

from hexacent.geom_core import ConvexPolygon, GeomError, Point
from hexacent.centroid_bound import check_theorem, tight_pentagon
from hexacent.hexagon import AffineRegularHexagon
from hexacent.io_json import (
    dump_bound_report,
    dump_hexagon,
    dump_polygon,
    dump_scalar,
    load_hexagon,
    load_point,
    load_polygon,
    load_scalar,
)

F = Fraction


class TestScalars:
    @pytest.mark.parametrize("value, text", [
        (F(4, 21), "4/21"),
        (F(-3), "-3"),
        (F(0), "0"),
        (7, "7"),
        (True, "true"),
        (False, "false"),
    ])
    def test_dump(self, value, text):
        assert dump_scalar(value) == text

    def test_float_roundtrips_exactly(self):
        for x in (0.1, -2.5e-17, 3.0, float(F(1, 3))):
            assert load_scalar(dump_scalar(x)) == x

    def test_fraction_roundtrips(self):
        for x in (F(4, 21), F(-95, 774), F(12)):
            assert load_scalar(dump_scalar(x)) == x

    def test_load_decimal_is_float(self):
        v = load_scalar("2.5")
        assert isinstance(v, float) and v == 2.5

    def test_load_bare_integer_is_fraction(self):
        v = load_scalar("-14")
        assert isinstance(v, Fraction) and v == -14

    def test_rejects_junk(self):
        for bad in ("", "nan", "inf", "1e999", "1/0", "two", None, [1]):
            with pytest.raises(GeomError):
                load_scalar(bad)

    def test_dump_rejects_unknown_type(self):
        with pytest.raises(GeomError):
            dump_scalar(object())


class TestPolygons:
    def test_roundtrip_exact(self):
        poly = tight_pentagon()
        again = load_polygon(dump_polygon(poly))
        assert again.vertices == poly.vertices
        assert again.exact

    def test_roundtrip_float(self):
        poly = ConvexPolygon([Point(0.0, 0.0), Point(2.5, 0.1),
                              Point(1.0, 3.0)])
        again = load_polygon(dump_polygon(poly))
        assert again.vertices == poly.vertices
        assert not again.exact

    def test_bad_shapes_rejected(self):
        with pytest.raises(GeomError):
            load_polygon({"vertices": "nope"})
        with pytest.raises(GeomError):
            load_polygon({"points": []})
        with pytest.raises(GeomError):
            load_point(["1", "2", "3"])
        with pytest.raises(GeomError):
            load_hexagon({"foo": 1})
        with pytest.raises(GeomError):
            load_hexagon({"center": ["0", "0"], "u": ["1", "1"]})

    def test_load_applies_convexity_check(self):
        bad = {"vertices": [["0", "0"], ["2", "0"], ["1", "1/2"],
                            ["0", "2"]]}
        with pytest.raises(GeomError):
            load_polygon(bad)


class TestHexagons:
    def test_roundtrip(self):
        hexa = AffineRegularHexagon(Point(F(0), F(0)), Point(F(1), F(1)),
                                    Point(F(-1), F(1)))
        again = load_hexagon(dump_hexagon(hexa))
        assert again.c == hexa.c and again.u == hexa.u and again.v == hexa.v
        assert [p for p in again.vertices] == [p for p in hexa.vertices]


class TestReports:
    @staticmethod
    def _exact_report():
        hexa = AffineRegularHexagon(Point(F(0), F(0)), Point(F(1), F(1)),
                                    Point(F(-1), F(1)))
        return check_theorem(tight_pentagon(), hexagon=hexa)

    def test_bound_report_shape(self):
        doc = dump_bound_report(self._exact_report())
        assert doc["verdict"] == "contained"
        assert doc["margin"] == "0"
        assert doc["gauge"] == "4/21"
        assert doc["ratio"] == "4/21"
        assert doc["exact"] == "true"
        assert doc["centroid"] == ["0", "4/21"]
        assert set(doc["hexagon"]) == {"center", "u", "v"}

    def test_every_leaf_is_string(self):
        doc = dump_bound_report(self._exact_report())

        def walk(v):
            if isinstance(v, dict):
                for x in v.values():
                    walk(x)
            elif isinstance(v, list):
                for x in v:
                    walk(x)
            else:
                assert isinstance(v, str), v

        walk(doc)
