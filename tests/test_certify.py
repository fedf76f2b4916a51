import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexacent.proof_verifier.bipoly import BiPoly, UniPoly
from hexacent.proof_verifier.certify import (
    RELATIONS,
    Region,
    SignCertificate,
    _bernstein_1d,
    _bernstein_2d,
    _box_samples,
    _satisfies,
    _split_box,
    _tri_bbox,
    _tri_box_disjoint,
    _tri_inside,
    certify_sign,
    critical_points,
)

F = Fraction
W = BiPoly.w()
Z = BiPoly.z()


class TestRegion:
    def test_box_normalizes_to_fractions(self):
        r = Region.box(1, 2, F(5, 7), 1)
        assert r.kind == "box"
        assert r.data == (1, 2, F(5, 7), 1)
        assert all(isinstance(v, Fraction) for v in r.data)

    def test_degenerate_regions_rejected(self):
        with pytest.raises(ValueError):
            Region.box(1, 1, 0, 1)
        with pytest.raises(ValueError):
            Region.interval(2, 2)
        with pytest.raises(ValueError):
            Region.triangle((0, 0), (1, 1), (2, 2))

    def test_triangle_orientation_normalized(self):
        a = Region.triangle((0, 0), (1, 0), (0, 1))
        b = Region.triangle((0, 0), (0, 1), (1, 0))
        assert a.data == b.data


class TestIntervalCertificates:
    def test_strict_positive(self):
        p = UniPoly([F(1), F(0), F(1)])  # 1 + x^2
        cert = certify_sign(p, Region.interval(-3, 3), ">0")
        assert cert.status == "Proved"
        assert cert.max_depth <= 30

    def test_weak_with_boundary_zero(self):
        p = UniPoly([F(-2), F(1)])  # x - 2, zero at the right endpoint
        cert = certify_sign(p, Region.interval(1, 2), "<=0")
        assert cert.status == "Proved"

    def test_disproved_with_exact_witness(self):
        p = UniPoly([F(-4), F(-2), F(1), F(1)])  # root inside [1, 2]
        cert = certify_sign(p, Region.interval(1, 2), "<0")
        assert cert.status == "Disproved"
        pt, val = cert.witness
        assert p(pt[0]) == val and val >= 0

    def test_witness_value_rechecks(self):
        p = UniPoly([F(1), F(-1)])  # 1 - x, negative for x > 1
        cert = certify_sign(p, Region.interval(2, 3), ">=0")
        assert cert.status == "Disproved"
        (x,), val = cert.witness
        assert val == 1 - x < 0

    def test_endpoint_zero_disproves_strict(self):
        # x - 2 < 0 fails at the right endpoint, caught by sampling
        p = UniPoly([F(-2), F(1)])
        cert = certify_sign(p, Region.interval(1, 2), "<0")
        assert cert.status == "Disproved"
        assert cert.witness == ((F(2),), F(0))

    def test_budget_exhaustion_is_inconclusive(self):
        # true but with a thin margin: one box is not enough
        p = UniPoly([F(9, 4) + F(1, 10 ** 6), F(-3), F(1)])  # (x-3/2)^2+eps
        cert = certify_sign(p, Region.interval(1, 2), ">0", budget=1)
        assert cert.status == "Inconclusive"
        assert cert.boxes_examined <= 1

    def test_depth_exhaustion_is_inconclusive(self):
        p = UniPoly([F(9, 4) + F(1, 10 ** 6), F(-3), F(1)])
        cert = certify_sign(p, Region.interval(1, 2), ">0", max_depth=0)
        assert cert.status == "Inconclusive"
        assert cert.max_depth == 0


class TestBoxCertificates:
    def test_strict_positive_product(self):
        p = (W * W + 1) * (Z * Z + 1)
        cert = certify_sign(p, Region.box(-1, 1, -1, 1), ">0")
        assert cert.status == "Proved"

    def test_needs_subdivision(self):
        # positive on the box but with small margin near a corner
        p = (W - 2) * (W - 2) + (Z - 1) * (Z - 1) + BiPoly.const(F(1, 100))
        cert = certify_sign(p, Region.box(1, 2, 0, 1), ">0")
        assert cert.status == "Proved"
        assert cert.boxes_examined >= 1

    def test_disproved_inside_box(self):
        p = W + Z - 3  # changes sign across the box
        cert = certify_sign(p, Region.box(1, 2, 0, 1), "<0")
        assert cert.status == "Disproved"
        (wv, zv), val = cert.witness
        assert p(wv, zv) == val and val >= 0

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            certify_sign(W, Region.box(1, 2, 0, 1), "!=0")


class TestTriangleCertificates:
    def test_strict_negative_on_triangle(self):
        p = W + Z - 4  # max over the triangle is -4/7 < 0 at (2, 10/7)
        tri = Region.triangle((2, 1), (F(8, 5), 1), (2, F(10, 7)))
        cert = certify_sign(p, tri, "<0")
        assert cert.status == "Proved"

    def test_sign_flip_on_triangle_disproved(self):
        p = W - Z - 1
        tri = Region.triangle((0, 0), (4, 0), (0, 4))
        cert = certify_sign(p, tri, ">0")
        assert cert.status == "Disproved"

    def test_value_off_triangle_does_not_matter(self):
        # p dips negative at the bbox corner (0, 1) outside the triangle;
        # subdivision discards boxes disjoint from the triangle
        p = W - Z + F(1, 10)
        tri = Region.triangle((0, 0), (1, 0), (1, 1))
        cert = certify_sign(p, tri, ">0")
        assert cert.status == "Proved"

    def test_zero_edge_weak_relation_stays_sound(self):
        # p vanishes on a slanted triangle edge: the box cover can neither
        # prove the weak relation nor produce a witness, so it must end
        # Inconclusive rather than claim either verdict
        p = W - Z
        tri = Region.triangle((0, 0), (1, 0), (1, 1))
        cert = certify_sign(p, tri, ">=0", max_depth=8)
        assert cert.status == "Inconclusive"
        assert cert.witness is None


class TestCriticalPoints:
    def test_saddle_free_quadratic(self):
        p = (W - F(3, 2)) ** 2 + (Z - F(1, 2)) ** 2
        got = critical_points(p, Region.box(1, 2, 0, 1))
        assert len(got["interior"]) == 1
        wv, zv, val = got["interior"][0]
        assert abs(wv - 1.5) < 1e-9 and abs(zv - 0.5) < 1e-9
        assert abs(val) < 1e-9

    def test_maximum_reported_over_all_candidates(self):
        p = -((W - F(3, 2)) ** 2) - (Z - F(1, 2)) ** 2
        got = critical_points(p, Region.box(1, 2, 0, 1))
        wv, zv, val = got["maximum"]
        assert abs(wv - 1.5) < 1e-9 and abs(zv - 0.5) < 1e-9
        assert abs(val) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=10),
       st.fractions(min_value=-3, max_value=3, max_denominator=10))
def test_linear_sign_certificates_match_truth(a, b):
    # p = (w - a) + (z - b) on a box strictly right of the zero line
    p = (W - a) + (Z - b)
    lo = a + b
    cert = certify_sign(p, Region.box(lo + 1, lo + 2, 0, 1), ">0")
    assert cert.status == "Proved"


# Reference: the three subdivision loops certify_sign ran before they were
# merged into one, kept as they were apart from the call forms of the
# Bernstein helpers (an interval piece is passed as one pair, and the 2-D
# coefficients come flattened).

def ref_certify_sign(p, region, relation, budget=10 ** 6, max_depth=30):
    if region.kind == "interval":
        return _ref_interval(p, region, relation, budget, max_depth)
    if region.kind == "box":
        return _ref_box(p, region, relation, budget, max_depth)
    return _ref_triangle(p, region, relation, budget, max_depth)


def _ref_interval(p, region, relation, budget, max_depth):
    stack = [(region.data[0], region.data[1], 0)]
    examined = 0
    deepest = 0
    exhausted = False
    while stack:
        if examined >= budget:
            exhausted = True
            break
        a, b, d = stack.pop()
        examined += 1
        deepest = max(deepest, d)
        for x in (a, (a + b) / 2, b):
            v = p(x)
            if not _satisfies(v, relation):
                return SignCertificate(relation, region, "Disproved",
                                       ((x,), v), examined, deepest)
        bern = _bernstein_1d(p, (a, b))
        if all(_satisfies(c, relation) for c in bern):
            continue
        if d >= max_depth:
            exhausted = True
            break
        mid = (a + b) / 2
        stack.append((a, mid, d + 1))
        stack.append((mid, b, d + 1))
    status = "Inconclusive" if exhausted else "Proved"
    return SignCertificate(relation, region, status, None, examined, deepest)


def _ref_box(p, region, relation, budget, max_depth):
    stack = [(region.data, 0)]
    examined = 0
    deepest = 0
    exhausted = False
    while stack:
        if examined >= budget:
            exhausted = True
            break
        box, d = stack.pop()
        examined += 1
        deepest = max(deepest, d)
        for w, z in _box_samples(box):
            v = p(w, z)
            if not _satisfies(v, relation):
                return SignCertificate(relation, region, "Disproved",
                                       ((w, z), v), examined, deepest)
        bern = _bernstein_2d(p, box)
        if all(_satisfies(c, relation) for c in bern):
            continue
        if d >= max_depth:
            exhausted = True
            break
        b1, b2 = _split_box(box)
        stack.append((b1, d + 1))
        stack.append((b2, d + 1))
    status = "Inconclusive" if exhausted else "Proved"
    return SignCertificate(relation, region, status, None, examined, deepest)


def _ref_triangle(p, region, relation, budget, max_depth):
    tri = region.data
    xs = [v[0] for v in tri]
    ys = [v[1] for v in tri]
    stack = [((min(xs), max(xs), min(ys), max(ys)), 0)]
    examined = 0
    deepest = 0
    exhausted = False
    while stack:
        if examined >= budget:
            exhausted = True
            break
        box, d = stack.pop()
        examined += 1
        deepest = max(deepest, d)
        if _tri_box_disjoint(tri, box):
            continue
        for w, z in _box_samples(box):
            if _tri_inside(tri, (w, z)):
                v = p(w, z)
                if not _satisfies(v, relation):
                    return SignCertificate(relation, region, "Disproved",
                                           ((w, z), v), examined, deepest)
        bern = _bernstein_2d(p, box)
        if all(_satisfies(c, relation) for c in bern):
            continue
        if d >= max_depth:
            exhausted = True
            break
        b1, b2 = _split_box(box)
        stack.append((b1, d + 1))
        stack.append((b2, d + 1))
    status = "Inconclusive" if exhausted else "Proved"
    return SignCertificate(relation, region, status, None, examined, deepest)


def _random_case(rng, kind):
    """A polynomial, a region of the kind, a relation, a budget and a depth
    cap.  Half the polynomials are a square about a point of the region's
    bounding box plus a small shift, whose sign takes subdivision to
    settle, so that every status turns up."""
    def q():
        return F(rng.randint(-12, 12), rng.randint(1, 4))

    def near(lo, hi):
        return lo + (hi - lo) * F(rng.randint(0, 7), 7)

    if kind == "interval":
        lo = q()
        region = Region.interval(lo, lo + F(rng.randint(1, 8), 4))
    elif kind == "box":
        w1, z1 = q(), q()
        region = Region.box(w1, w1 + F(rng.randint(1, 8), 4),
                            z1, z1 + F(rng.randint(1, 8), 4))
    else:
        while True:
            try:
                # Region.triangle takes the vertices in either orientation
                region = Region.triangle(*((q(), q()) for _ in range(3)))
                break
            except ValueError:
                continue
    shift = rng.choice([F(-1, 50), 0, F(1, 50), F(1, 4)])
    square = rng.random() < 0.5
    if kind == "interval":
        if square:
            x = UniPoly([-near(*region.data), F(1)])
            p = x * x + UniPoly([shift])
        else:
            p = UniPoly([F(rng.randint(-8, 8))] + [
                F(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))])
    elif square:
        w1, w2, z1, z2 = (region.data if kind == "box"
                          else _tri_bbox(region.data))
        p = (W - near(w1, w2)) ** 2 + (Z - near(z1, z2)) ** 2 \
            + BiPoly.const(shift)
    else:
        p = BiPoly({(i, j): F(rng.randint(-3, 3)) for i in range(3)
                    for j in range(3) if i + j <= 2})
        p = p + BiPoly.const(rng.randint(-8, 8))
    relation = rng.choice(RELATIONS)
    budget = rng.choice([1, 2, 5, 40, 10 ** 6])
    depth = rng.choice([0, 1, 3, 6])
    return p, region, relation, budget, depth


@pytest.mark.parametrize("kind", ["interval", "box", "triangle"])
def test_merged_loop_matches_reference(kind):
    rng = random.Random(kind)
    statuses, relations, ends = set(), set(), set()
    for _ in range(200):
        p, region, relation, budget, depth = _random_case(rng, kind)
        got = certify_sign(p, region, relation, budget, depth)
        want = ref_certify_sign(p, region, relation, budget, depth)
        assert (got.status, got.witness, got.boxes_examined, got.max_depth) \
            == (want.status, want.witness, want.boxes_examined,
                want.max_depth)
        assert (got.relation, got.region) == (relation, region)
        statuses.add(got.status)
        relations.add(relation)
        if got.status == "Inconclusive":
            # the budget ran out before the depth cap was reached, or the
            # depth cap stopped the run with budget to spare
            if got.max_depth < depth:
                ends.add("budget")
            if got.boxes_examined < budget:
                ends.add("depth")
    assert statuses == {"Proved", "Disproved", "Inconclusive"}
    assert relations == set(RELATIONS)
    assert ends == {"budget", "depth"}
