"""Certified sign checks of exact polynomials on intervals, boxes and
triangles.

The engine subdivides the region and bounds the polynomial on each piece by
its exact Bernstein coefficients (the polynomial is trapped between their
minimum and maximum).  A relation is Proved only when every piece is
settled this way; a Disproved result carries an exactly evaluated witness
point inside the region; budget or depth exhaustion yields Inconclusive,
never a wrong verdict.  Triangles are covered by boxes and pieces disjoint
from the triangle are discarded by an exact separating-axis test."""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bipoly import BiPoly, UniPoly, resultant_z
from .roots import bisect_root, bracket_roots

RELATIONS = ("<=0", "<0", ">=0", ">0")


def _satisfies(value, relation):
    if relation == "<=0":
        return value <= 0
    if relation == "<0":
        return value < 0
    if relation == ">=0":
        return value >= 0
    if relation == ">0":
        return value > 0
    raise ValueError("unknown relation %r" % (relation,))


@dataclass(frozen=True)
class Region:
    kind: str
    data: tuple

    @classmethod
    def box(cls, w1, w2, z1, z2):
        w1, w2, z1, z2 = (Fraction(v) for v in (w1, w2, z1, z2))
        if not (w1 < w2 and z1 < z2):
            raise ValueError("degenerate box")
        return cls("box", (w1, w2, z1, z2))

    @classmethod
    def interval(cls, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise ValueError("degenerate interval")
        return cls("interval", (lo, hi))

    @classmethod
    def triangle(cls, v1, v2, v3):
        vs = tuple((Fraction(x), Fraction(y)) for x, y in (v1, v2, v3))
        area2 = ((vs[1][0] - vs[0][0]) * (vs[2][1] - vs[0][1])
                 - (vs[1][1] - vs[0][1]) * (vs[2][0] - vs[0][0]))
        if area2 == 0:
            raise ValueError("degenerate triangle")
        if area2 < 0:
            vs = (vs[0], vs[2], vs[1])
        return cls("triangle", vs)


@dataclass(frozen=True)
class SignCertificate:
    relation: str
    region: Region
    status: str  # "Proved" | "Disproved" | "Inconclusive"
    witness: tuple  # ((w, z) or (x,), exact value) when Disproved, else None
    boxes_examined: int
    max_depth: int


def _bernstein_1d(p, interval):
    """Bernstein coefficients of p on [a, b]; b_0 = p(a), b_n = p(b)."""
    a, b = interval
    q = p.compose_linear(a, b - a)
    cs = q.coeffs
    n = max(len(cs) - 1, 0)
    out = []
    for k in range(n + 1):
        s = Fraction(0)
        for i in range(min(k, len(cs) - 1) + 1):
            if cs[i]:
                s += Fraction(comb(k, i), comb(n, i)) * cs[i]
        out.append(s)
    return out


def _unit_square_coeffs(p, box):
    """Power-basis coefficients of p pulled back to the unit square."""
    w1, w2, z1, z2 = box
    bw, bz = w2 - w1, z2 - z1
    m, n = max(p.degree_w, 0), max(p.degree_z, 0)
    A = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
    for (i, j), c in p.coeffs.items():
        for k in range(i + 1):
            ck = comb(i, k) * w1 ** (i - k) * bw ** k
            if ck == 0:
                continue
            for l in range(j + 1):
                cl = comb(j, l) * z1 ** (j - l) * bz ** l
                if cl:
                    A[k][l] += c * ck * cl
    return A, m, n


def _bernstein_2d(p, box):
    """Bernstein coefficients of p on the box, flattened row by row."""
    A, m, n = _unit_square_coeffs(p, box)
    out = []
    for k in range(m + 1):
        for l in range(n + 1):
            s = Fraction(0)
            for i in range(k + 1):
                for j in range(l + 1):
                    a = A[i][j]
                    if a:
                        s += Fraction(comb(k, i) * comb(l, j),
                                      comb(m, i) * comb(n, j)) * a
            out.append(s)
    return out


def _split_box(box):
    w1, w2, z1, z2 = box
    if w2 - w1 >= z2 - z1:
        mid = (w1 + w2) / 2
        return (w1, mid, z1, z2), (mid, w2, z1, z2)
    mid = (z1 + z2) / 2
    return (w1, w2, z1, mid), (w1, w2, mid, z2)


def _box_samples(box):
    w1, w2, z1, z2 = box
    return ((w1, z1), (w2, z1), (w1, z2), (w2, z2),
            ((w1 + w2) / 2, (z1 + z2) / 2))


def _tri_inside(tri, pt):
    """Closed containment, exact."""
    x, y = pt
    for i in range(3):
        (x1, y1), (x2, y2) = tri[i], tri[(i + 1) % 3]
        if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) < 0:
            return False
    return True


def _tri_bbox(tri):
    xs = [v[0] for v in tri]
    ys = [v[1] for v in tri]
    return min(xs), max(xs), min(ys), max(ys)


def _tri_box_disjoint(tri, box):
    """Exact separating-axis test between a triangle and a box."""
    w1, w2, z1, z2 = box
    lo_x, hi_x, lo_y, hi_y = _tri_bbox(tri)
    if hi_x < w1 or lo_x > w2 or hi_y < z1 or lo_y > z2:
        return True
    corners = ((w1, z1), (w2, z1), (w1, z2), (w2, z2))
    for i in range(3):
        (x1, y1), (x2, y2) = tri[i], tri[(i + 1) % 3]
        if all((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) < 0
               for x, y in corners):
            return True
    return False


def _interval_samples(interval):
    a, b = interval
    return (a,), ((a + b) / 2,), (b,)


def _split_interval(interval):
    a, b = interval
    mid = (a + b) / 2
    return (a, mid), (mid, b)


def _parts(region):
    """The region kind's parts of the subdivision: start piece, sample
    points inside a piece, Bernstein coefficients, split, and a discard
    test (None when no piece is discarded)."""
    if region.kind == "interval":
        return (region.data, _interval_samples, _bernstein_1d,
                _split_interval, None)
    if region.kind == "box":
        return region.data, _box_samples, _bernstein_2d, _split_box, None
    tri = region.data

    def samples(box):
        return (pt for pt in _box_samples(box) if _tri_inside(tri, pt))

    return (_tri_bbox(tri), samples, _bernstein_2d, _split_box,
            lambda box: _tri_box_disjoint(tri, box))


def certify_sign(p, region, relation, budget=10 ** 6, max_depth=30):
    """Certify that p satisfies the relation everywhere on the region.

    Proved rests on exact Bernstein bounds over a finished subdivision;
    Disproved returns an exactly evaluated witness inside the region;
    Inconclusive reports an exhausted budget or depth cap."""
    if relation not in RELATIONS:
        raise ValueError("unknown relation %r" % (relation,))
    if region.kind == "interval":
        if not isinstance(p, UniPoly):
            raise TypeError("interval region needs a univariate polynomial")
    elif not isinstance(p, BiPoly):
        raise TypeError("box/triangle region needs a bivariate polynomial")
    start, samples, bernstein, split, discard = _parts(region)
    stack = [(start, 0)]
    examined = 0
    deepest = 0
    status = "Proved"
    while stack:
        if examined >= budget:
            status = "Inconclusive"
            break
        piece, d = stack.pop()
        examined += 1
        deepest = max(deepest, d)
        if discard is not None and discard(piece):
            continue
        for pt in samples(piece):
            v = p(*pt)
            if not _satisfies(v, relation):
                return SignCertificate(relation, region, "Disproved",
                                       (pt, v), examined, deepest)
        if all(_satisfies(c, relation) for c in bernstein(p, piece)):
            continue
        if d >= max_depth:
            status = "Inconclusive"
            break
        stack.extend((half, d + 1) for half in split(piece))
    return SignCertificate(relation, region, status, None, examined, deepest)


def _upoly_crit_roots(p, lo, hi, samples=256):
    """Roots of p' strictly inside (lo, hi), refined to tiny brackets;
    returns floats."""
    d = p.derivative()
    if d.degree < 1:
        return []
    out = []
    brackets, hits = bracket_roots(d, lo, hi, samples)
    for a, b in brackets:
        ra, rb = bisect_root(d, a, b, width=Fraction(1, 10 ** 13))
        r = (ra + rb) / 2
        if lo < r < hi:
            out.append(float(r))
    for x in hits:
        if lo < x < hi:
            out.append(float(x))
    return sorted(out)


def critical_points(p, region):
    """Candidates for the extrema of p on a box or triangle: interior
    critical points (via an exact resultant eliminating z, sign-change root
    isolation and back-substitution), critical points of every edge
    restriction, and the vertices.  Returns them with values plus the
    maximum over the list."""
    interior = []
    edges = []
    vertices = []

    def _interior_candidates(w_lo, w_hi, z_lo, z_hi, keep):
        pw, pz = p.deriv_w(), p.deriv_z()
        if pw.is_zero() or pz.is_zero():
            return

        def _uni_roots(q, lo, hi, samples):
            brackets, hits = bracket_roots(q, lo, hi, samples)
            out = [sum(bisect_root(q, a, b, width=Fraction(1, 10 ** 12))) / 2
                   for a, b in brackets]
            out.extend(hits)
            return out

        def _emit(wm, zm):
            if w_lo < wm < w_hi and z_lo < zm < z_hi and keep(wm, zm):
                interior.append((float(wm), float(zm), float(p(wm, zm))))

        def _solve_z_then_emit(wm, q):
            slice_z = q.subs_w(wm)
            if slice_z.degree < 1:
                return
            for zm in _uni_roots(slice_z, z_lo, z_hi, 128):
                _emit(wm, zm)

        if pw.degree_z < 1 and pz.degree_z < 1:
            return  # both partials depend on w alone: no isolated points
        if pw.degree_z < 1 or pz.degree_z < 1:
            # one partial is a function of w alone: its roots pin w and
            # the other partial then pins z along each root line
            flat, other = (pw, pz) if pw.degree_z < 1 else (pz, pw)
            uni = flat.subs_z(0)
            if uni.degree < 1:
                return
            for wm in _uni_roots(uni, w_lo, w_hi, 512):
                _solve_z_then_emit(wm, other)
            return
        res = resultant_z(pw, pz)
        if res.degree < 1:
            return
        for wm in _uni_roots(res, w_lo, w_hi, 512):
            _solve_z_then_emit(wm, pz)

    if region.kind == "box":
        w1, w2, z1, z2 = region.data
        _interior_candidates(w1, w2, z1, z2, lambda w, z: True)
        for zc in (z1, z2):
            edge = p.subs_z(zc)
            for r in _upoly_crit_roots(edge, w1, w2):
                edges.append((r, float(zc), float(edge(Fraction(r)))))
        for wc in (w1, w2):
            edge = p.subs_w(wc)
            for r in _upoly_crit_roots(edge, z1, z2):
                edges.append((float(wc), r, float(edge(Fraction(r)))))
        for w in (w1, w2):
            for z in (z1, z2):
                vertices.append((float(w), float(z), float(p(w, z))))
    elif region.kind == "triangle":
        tri = region.data
        _interior_candidates(*_tri_bbox(tri),
                             lambda w, z: _tri_inside(tri, (w, z)))
        for i in range(3):
            (x1, y1), (x2, y2) = tri[i], tri[(i + 1) % 3]
            edge = p.compose_linear(x1, x2 - x1, y1, y2 - y1)
            for t in _upoly_crit_roots(edge, Fraction(0), Fraction(1)):
                tf = Fraction(t)
                edges.append((float(x1 + (x2 - x1) * tf),
                              float(y1 + (y2 - y1) * tf),
                              float(edge(tf))))
        for x, y in tri:
            vertices.append((float(x), float(y), float(p(x, y))))
    else:
        raise ValueError("critical_points needs a box or triangle region")

    everything = interior + edges + vertices
    best = max(everything, key=lambda t: t[2])
    return {"interior": interior, "edges": edges, "vertices": vertices,
            "maximum": best}
