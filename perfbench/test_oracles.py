"""Tests of the benchmark's own checks, tracer and gauge: each check accepts a
right output of hexacent and rejects a wrong one.

    python3 -m pytest perfbench/test_oracles.py
"""

import contextlib
import dataclasses
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bodies  # noqa: E402
import oracles  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Gauge, reference  # noqa: E402

from hexacent import area_and_centroid, monte_carlo  # noqa: E402
from hexacent.cli import dispatch  # noqa: E402
from hexacent.geom_core import ConvexPolygon, Point  # noqa: E402
from hexacent.proof_verifier.ledger import run_claim  # noqa: E402

F = Fraction
TIGHT = [(F(x), F(y)) for x, y in bodies.TIGHT_PENTAGON]


def small_ellipse(seed=3, k=5):
    return bodies.ellipse_body(random.Random(seed), k)


def check_doc(tmp_path, verts):
    path = tmp_path / "body.json"
    path.write_text(json.dumps(
        {"vertices": [[str(x), str(y)] for x, y in verts]}))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert dispatch(["check", str(path)]) == 0
    return json.loads(buf.getvalue())


def test_parse_scalar_is_exact():
    assert oracles.parse_scalar("-3/4") == F(-3, 4)
    assert oracles.parse_scalar("7") == 7
    assert oracles.parse_scalar("0.1") == F(0.1)
    assert oracles.parse_scalar("1e-3") == F(1e-3)


def test_shoelace():
    assert oracles.shoelace([(0, 0), (1, 0), (1, 1), (0, 1)]) == \
        (1, (F(1, 2), F(1, 2)))
    assert oracles.shoelace(TIGHT) == (7, (0, F(4, 21)))
    verts = small_ellipse()
    area, cen = area_and_centroid(ConvexPolygon([Point(x, y)
                                                 for x, y in verts]))
    assert oracles.shoelace(verts) == (area, (cen.x, cen.y))


def test_segment_distance():
    assert oracles.segment_distance((1, 1), (0, 0), (2, 0)) == 1
    assert oracles.segment_distance((3, 4), (0, 0), (0, 0)) == 5
    assert oracles.segment_distance((-3, 4), (0, 0), (2, 0)) == 5


def test_hexagon_gauge():
    c, u, v = (0, 0), (1, 1), (-1, 1)
    for p in oracles.hexagon_vertices(c, u, v):
        assert oracles.hexagon_gauge(c, u, v, p) == 1
    assert oracles.hexagon_gauge(c, u, v, c) == 0
    assert oracles.hexagon_gauge(c, u, v, (0, F(4, 21))) == F(4, 21)


def test_diameter_matches_all_pairs():
    for seed in range(5):
        verts = small_ellipse(seed, 3)
        pts = [(float(x), float(y)) for x, y in verts]
        brute = max(math.dist(p, q) for p in pts for q in pts)
        assert math.isclose(oracles.diameter(verts), brute, rel_tol=1e-15)
        assert math.isclose(oracles.diameter(verts[::-1]), brute,
                            rel_tol=1e-15)


def test_body_G_closed_form():
    assert oracles.body_G_closed_form(2, 1) == (7, F(4, 21))
    assert oracles.body_G_problems(2, 1, F(7), (0, F(4, 21))) == []
    assert oracles.body_G_problems(2, 1, F(7), (0, F(4, 21) + F(1, 10 ** 6)))


def test_ellipse_bodies_are_strictly_convex():
    for k in (3, 4, 7):
        verts = bodies.ellipse_body(random.Random(k), k)
        assert len(verts) == 2 ** (k + 1)
        poly = ConvexPolygon([Point(x, y) for x, y in verts])
        assert len(poly) == len(verts)
    names = [name for name, _ in bodies.sweep(0)]
    assert names == ["n5", "n256", "n512", "n1024", "n2048", "n4096"]


def test_check_report_accepted(tmp_path):
    tight = oracles.facts(TIGHT)
    assert oracles.check_report_problems(check_doc(tmp_path, TIGHT), tight,
                                         (("margin", "0"),)) == []
    verts = small_ellipse()
    doc = check_doc(tmp_path, verts)
    assert doc["exact"] == "false"
    assert oracles.check_report_problems(doc, oracles.facts(verts)) == []


def test_centroid_off_by_1e_6_rejected(tmp_path):
    for verts in (TIGHT, small_ellipse()):
        doc = check_doc(tmp_path, verts)
        x = oracles.parse_scalar(doc["centroid"][0])
        doc["centroid"][0] = repr(float(x) + 1e-6)
        problems = oracles.check_report_problems(doc, oracles.facts(verts))
        assert any("centroid" in p for p in problems), problems


def test_hexagon_vertex_off_boundary_rejected(tmp_path):
    verts = small_ellipse()
    body = oracles.facts(verts)
    doc = check_doc(tmp_path, verts)
    ux, uy = oracles.parse_point(doc["hexagon"]["u"])
    doc["hexagon"]["u"] = [repr(float(ux) * (1 + 1e-5)), repr(float(uy))]
    problems = oracles.check_report_problems(doc, body)
    assert any("off the boundary" in p for p in problems), problems


def test_tight_expectations_rejected(tmp_path):
    doc = check_doc(tmp_path, TIGHT)
    doc["exact"] = "false"
    problems = oracles.check_report_problems(doc, oracles.facts(TIGHT),
                                             (("exact", "true"),))
    assert problems


def test_inconclusive_claim_rejected():
    entry = run_claim("TIGHT")
    assert oracles.ledger_problems([entry]) == []
    bad = dataclasses.replace(entry, status="Inconclusive")
    assert oracles.ledger_problems([bad]) == ["claim TIGHT is Inconclusive"]
    witness = dataclasses.replace(entry, data={"disproved_witness": {}})
    assert oracles.ledger_problems([witness])


def test_stress_report_checks():
    rep = monte_carlo(4, seed=1)
    assert oracles.stress_report_problems(rep, 4) == []
    assert oracles.stress_report_problems(
        dataclasses.replace(rep, violations=1), 4)
    assert oracles.stress_report_problems(
        dataclasses.replace(rep, min_margin=-1e-6), 4)
    assert oracles.stress_report_problems(rep, 5)


def test_tracer_self_times_and_missing():
    import hexacent.geom_core as gc_mod
    original = gc_mod.area_and_centroid
    tracer = Tracer()
    tracer.install([
        ("area", "hexacent.geom_core", "area_and_centroid", None),
        ("gone", "hexacent.geom_core", "no_such_function", None),
        ("gone", "no_such_module_for_the_tracer", "f", None),
    ])
    assert sorted(tracer.missing) == ["hexacent.geom_core.no_such_function",
                                      "no_such_module_for_the_tracer.f"]
    import hexacent
    assert hexacent.area_and_centroid is gc_mod.area_and_centroid
    assert gc_mod.area_and_centroid is not original
    with tracer.span("op"):
        hexacent.area_and_centroid(ConvexPolygon([Point(x, y)
                                                  for x, y in TIGHT]))
    tracer.uninstall()
    assert gc_mod.area_and_centroid is original
    assert hexacent.area_and_centroid is original
    (op, _, _, parent_op, root_op), (area, _, _, parent, root) = tracer.spans
    assert (op, parent_op, root_op) == ("op", -1, 0)
    assert (area, parent, root) == ("area", 0, 0)
    own = tracer.self_times()
    op_s = tracer.spans[0][2] - tracer.spans[0][1]
    area_s = tracer.spans[1][2] - tracer.spans[1][1]
    assert own["area"] == (area_s, 1)
    assert math.isclose(own["op"][0], op_s - area_s)


def test_gauge_counts_reference_loops_without_its_own_samples():
    # with a 5 ms interval the handler's 3 ms samples take about half of
    # the block's CPU time; left in, they would about double the cost
    k = 50
    gauge = Gauge()
    gauge.start_timer(0.005)
    try:
        costs = []
        with gauge.measure(costs):
            for _ in range(k):
                reference()
    finally:
        gauge.stop_timer()
    cost, net, _ = costs[0]
    assert len(gauge.samples) > 10
    assert 0.7 * k < cost < 1.35 * k
    assert net > 0

