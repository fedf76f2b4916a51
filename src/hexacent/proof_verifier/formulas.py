"""Exact formula layer for the capped-hexagon family.

The family G(w, z) is the convex heptagon obtained from the canonical
hexagon by replacing the top edge with a flat cap at height w whose corners
sit at parameter z along the tip segments; w = 1, z = 0 recovers the
hexagon and w = 2 collapses the cap to the tight pentagon apex.

Everything here is rebuilt from plain polygon geometry with exact rational
arithmetic: the area and moment polynomials come from the shoelace formula
applied to the w-scaled vertices (scaling clears the 1/w in the cap corner
coordinates), the derivative numerator comes from an exact quotient-rule
division, and every printed closed form is kept side by side with its
re-derivation so mismatches surface as erratum records instead of being
silently repaired."""

import math
from dataclasses import dataclass
from fractions import Fraction

from ..geom_core import as_fraction
from .bipoly import BiPoly, UniPoly, resultant_z
from .roots import bisect_root


class DomainError(ValueError):
    """Input outside the range where a formula is defined."""


F = Fraction
W = BiPoly.w()
Z = BiPoly.z()


def _u(*coeffs):
    """UniPoly from low-to-high coefficients."""
    return UniPoly([F(c) for c in coeffs])


def _div_w(p):
    """Exact division of a BiPoly by the monomial w."""
    out = {}
    for (i, j), c in p.coeffs.items():
        if i < 1:
            raise ValueError("term without a factor of w")
        out[(i - 1, j)] = c
    return BiPoly(out)


def _scaled_cap_body():
    """Vertices of G(w, z) with every coordinate multiplied by w, in
    counterclockwise order; each coordinate is then a polynomial."""
    zero = BiPoly.const(0)
    apex = (zero, W * W)
    cap_y = W + Z * (2 - 2 * W)
    p1 = (W + 2 * Z, cap_y)
    p2 = (-(W + 2 * Z), cap_y)
    return [apex, p2, (-2 * W, zero), (-W, -W), (W, -W), (2 * W, zero), p1]


def _shoelace_sums(verts):
    """(sum of cross terms, sum of cross * (y_i + y_next)) for a polygon
    with polynomial coordinates; the first is twice the area, the second
    six times the moment about the x-axis."""
    s_area = BiPoly.const(0)
    s_mom = BiPoly.const(0)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        cross = x1 * y2 - x2 * y1
        s_area = s_area + cross
        s_mom = s_mom + cross * (y1 + y2)
    return s_area, s_mom


_POLYS = None


def polys():
    """Registry of every exact polynomial the verification uses, keyed by
    role.  Built once; treat the result as read-only."""
    global _POLYS
    if _POLYS is not None:
        return _POLYS

    s_area, s_mom = _shoelace_sums(_scaled_cap_body())
    # scaled area = w^2 * (B/w), scaled moment = w^3 * (P/(3 w^2))
    area_b = _div_w(s_area) * F(1, 2)
    moment_p = _div_w(s_mom) * F(1, 2)

    # printed closed form of the centroid height, cleared of 1/w
    num_disp = 2 * (2 * W + Z * (2 - 2 * W)) * (Z * (2 - W)) \
        + (W * W + W - 2) * (W * W)
    den_clear = 6 * (Z * (2 - W)) + 3 * W * W + 15 * W

    r_num = moment_p.deriv_z() * area_b - moment_p * area_b.deriv_z()
    q_quad = r_num.div_exact_in_w(W - 2) * F(1, 2)
    q_printed = 4 * (Z ** 2) * (3 * W - W * W - 2) \
        + 4 * Z * (W * W + 4 * W - 5) + (W ** 4 - W ** 3 - 12 * W * W)

    seven = 7 * moment_p - 4 * W * area_b
    seven_printed = 28 * (Z ** 2) * (W * W - 3 * W + 2) \
        + 20 * Z * W * (2 - W) + W * W * (7 * W * W + 3 * W - 34)
    c7 = 28 * (Z ** 2) * (W - 1) - 20 * Z * W + 7 * W ** 3 + 17 * W * W

    cap_line = Z * (2 - 2 * W) + W          # 2w * (cap midpoint height)
    nine = 3 * area_b * cap_line - 2 * moment_p
    nine_printed = 4 * (Z ** 2) * (W * W) - 12 * (Z ** 2) * W \
        + 8 * (Z ** 2) - 6 * (W ** 3) * Z - 22 * (W * W) * Z \
        + 26 * W * Z - 2 * W ** 4 + W ** 3 + 19 * W * W

    qz = q_quad.as_poly_in_z()
    disc_q = qz[1] * qz[1] - 4 * qz[2] * qz[0]
    delta = _u(1, -6, -1, 4, 2)
    delta_derived = disc_q.div_exact(_u(0, 0, 16))

    f4 = _u(-1, 1) * _u(4, 3, 1)
    p = {
        "B": area_b,
        "B_printed": W * W - 2 * W * Z + 5 * W + 4 * Z,
        "P": moment_p,
        "P_printed": 4 * (Z ** 2) * (W * W - 3 * W + 2)
        + 4 * Z * W * (2 - W) + W ** 4 + W ** 3 - 2 * W * W,
        "N_disp": num_disp,
        "D_clear": den_clear,
        "R": r_num,
        "q": q_quad,
        "q_printed": q_printed,
        "seven": seven,
        "seven_printed": seven_printed,
        "C7": c7,
        "nine": nine,
        "nine_printed": nine_printed,
        "cap_line_clear": cap_line,             # 2w * midpoint height
        "wedge_num": Z * (2 - 2 * W) + 2,       # 3w * wedge centroid height
        "delta": delta,
        "delta_derived": delta_derived,
        "delta3": _u(-1, 5, 6, 2),
        "g": _u(-5, 4, 1),
        "kappa": _u(12, 1, -1),
        "e0": _u(-4, -2, 1, 1),
        "e3": _u(10, 4, -1, -1),
        "f2c": _u(50, 44, -3, -7),
        "F4": f4,
        "S4": _u(0, 0, 1) * delta - f4 * f4,
        "S4_printed": _u(-1, 1) * _u(-2, 1) * _u(3, 1) * _u(-4, -2, 1, 1),
        "F4s": _u(530, -372, 75, 19),
        "q4": _u(22472, -28408, 18960, -10571, 2839),
        "c70": _u(70, -90, -11, 7),
        "quint7": _u(392, -1400, 1796, -583, -154, 49),
        "cubic7": _u(-28, 8, 17, 7),
        "h": _u(-400, 1800, 1946, 0, 105, -196, 49),
        "w34": _u(4, -4, 0, 1),
        "wsq33": _u(-3, 3, 1),
        "sm2": _u(7, 0, -1),
        "crit_quartic7": _u(-576, 1140, -456, -329, 196),
        "res9_core": _u(68, -447, 356, 359, -262, -141, 68),
        "onset_cubic": _u(-900, 450, -329, 191),
        "printed_hyp_core": _u(-11236, 5247, -3801, 3238),
        "corrected_hyp_restriction": _u(1800, -1170, 611, -711, 212),
        "pentagon_B": _u(4, 3, 1),
        "pentagon_P": _u(8, -4, -2, 1, 1),
        "nine_at_2": _u(52, -84),
        "nine_at_2_printed": _u(52, -84, 8),
        "wedge_tip_num": _u(2),                 # 3w * tip-triangle centroid
        "wedge_tip_num_printed": _u(4, -2),
    }
    p["e3_gap"] = delta * 4 - p["e3"] * p["e3"]
    p["S2c"] = p["f2c"] * p["f2c"] - delta * 100
    p["S4s"] = p["F4s"] * p["F4s"] - (_u(53, -20) ** 2) * delta * 4
    p["F6"] = p["kappa"] * p["wsq33"] - p["sm2"] * p["g"]
    p["S6"] = p["delta3"] * p["delta3"] - (p["sm2"] ** 2) * delta
    p["F7"] = _u(0, 7) * p["kappa"] * _u(-1, 1) - _u(14, -4) * p["g"]
    p["S7"] = p["F7"] * p["F7"] - (_u(14, -4) ** 2) * delta
    p["inner7"] = _u(-4, 1) * _u(3, 1) * p["quint7"]
    _POLYS = p
    return p


@dataclass(frozen=True)
class PolyRecord:
    """A printed closed form next to its re-derivation."""
    name: str
    printed: object
    derived: object
    match: bool
    erratum_group: str  # None when the forms agree
    note: str


def proof_polynomials():
    """Every printed polynomial rebuilt from scratch and compared against
    its printed form.  Exactly the mismatches are tagged with an erratum
    group; everything else must agree coefficient for coefficient."""
    p = polys()
    records = []

    def rec(name, printed, derived, group, note):
        records.append(PolyRecord(name, printed, derived,
                                  printed == derived,
                                  group if printed != derived else None,
                                  note))

    rec("area_factor", p["B_printed"], p["B"], "unexpected",
        "w * area of the capped body, from the scaled shoelace sum")
    rec("moment_factor", p["P_printed"], p["P"], "unexpected",
        "3w^2 * moment about the x-axis, from the scaled shoelace sum")
    rec("centroid_numerator", p["N_disp"], p["P"], "unexpected",
        "printed centroid numerator cleared by w^2 equals the moment factor")
    rec("centroid_denominator", p["D_clear"], p["B"] * 3, "unexpected",
        "printed centroid denominator cleared by w equals 3B")
    rec("derivative_numerator", p["q_printed"], p["q"], "eq4-middle-term",
        "printed middle term 4z(w^2+4w-5) is missing a factor w; the exact "
        "quotient-rule numerator divided by 2(w-2) has 4zw(w^2+4w-5)")
    rec("margin_polynomial", p["seven_printed"], p["seven"], "unexpected",
        "21wB * (centroid height - 4/21), expanded")
    rec("margin_factorization", (W - 2) * p["C7"], p["seven"], "unexpected",
        "margin polynomial as (w-2) times a positive cofactor")
    rec("cap_gap_polynomial", p["nine_printed"], p["nine"], "unexpected",
        "6wB * (cap midpoint height - centroid height), expanded")
    rec("cap_gap_right_edge", p["nine_at_2_printed"], p["nine"].subs_w(2),
        "part5",
        "printed w = 2 restriction keeps a spurious 8z^2 term; the exact "
        "restriction is linear")
    rec("derivative_discriminant", p["delta"], p["delta_derived"],
        "unexpected",
        "quartic under the square root, from the discriminant of the "
        "derivative numerator divided by 16w^2")
    rec("radicand_factorization", p["S4_printed"], p["S4"],
        "part4-sextic-quartic",
        "printed factorization of w^2*Delta - F^2 uses (w+3); the exact "
        "factor is (w+2)")
    rec("tip_triangle_centroid", p["wedge_tip_num_printed"],
        p["wedge_tip_num"], "part8-triangle-centroid",
        "printed tip-triangle centroid height (4-2w)/(3w); the vertex "
        "heights w*1, 0 and (2-w) sum to 2, so it is 2/(3w)")
    return records


def chain_identities():
    """Exact polynomial identities that splice the inequality chains
    together; returns (name, holds) pairs, all expected to hold."""
    p = polys()
    out = []

    def ck(name, a, b):
        out.append((name, a == b))

    ck("derivative numerator factors through w-2",
       p["R"], (W - 2) * p["q"] * 2)
    ck("margin polynomial from moments",
       p["seven"], 7 * p["P"] - 4 * W * p["B"])
    ck("cap gap from moments",
       p["nine"], 3 * p["B"] * p["cap_line_clear"] - 2 * p["P"])
    ck("upper square gap factorization",
       p["e3_gap"], _u(4, -1) * _u(2, 1) * _u(3, 1) * p["e0"])
    ck("lower square gap factorization",
       p["S2c"],
       _u(-4, 1) * _u(-2, 1) * _u(3, 1) * _u(5, 7) * _u(20, 22, 7))
    ck("radicand true factorization",
       p["S4"], _u(-1, 1) * _u(-2, 1) * _u(2, 1) * p["e0"])
    ck("printed hypotenuse square gap factorization",
       p["S4s"], _u(4, -1) * _u(3, 1) * p["q4"])
    ck("curve forcing term collapses",
       p["F6"], p["delta3"])
    ck("curve square gap factorization",
       p["S6"], _u(4, -1) * _u(3, 1) * p["w34"] * p["delta3"])
    ck("wedge forcing factorization",
       p["F7"], _u(1, -1) * p["c70"])
    ck("wedge square gap factorization",
       p["S7"], _u(-1, 1) * p["inner7"])
    ck("pentagon restriction of margin polynomial",
       p["seven"].subs_z(1), _u(-2, 1) * p["cubic7"])
    ck("pentagon area factor",
       p["B"].subs_z(1), p["pentagon_B"])
    ck("pentagon moment factor",
       p["P"].subs_z(1), p["pentagon_P"])
    ck("shifted root cubic expansion",
       _u(2, 1) * p["e0"], _u(-8, -8, 0, 3, 1))
    ck("margin critical resultant factorization",
       resultant_z(p["seven"].deriv_w(), p["seven"].deriv_z()),
       _u(0, 448) * (_u(-2, 1) ** 2) * p["crit_quartic7"])
    ck("cap gap critical resultant factorization",
       resultant_z(p["nine"].deriv_w(), p["nine"].deriv_z()),
       _u(0, -16) * p["res9_core"])
    ck("cap gap on printed hypotenuse",
       p["nine"].compose_linear(0, 1, F(53, 21), F(-20, 21)) * 441,
       _u(-2, 1) * p["printed_hyp_core"])
    ck("cap gap on corrected hypotenuse",
       p["nine"].compose_linear(0, 1, F(15, 7), F(-5, 7)) * 49,
       p["corrected_hyp_restriction"])
    ck("cap gap right edge restriction",
       p["nine"].subs_w(2), p["nine_at_2"])
    ck("derivative discriminant reduction",
       p["delta_derived"], p["delta"])
    ck("delta splits off its root at 1",
       p["delta"], _u(-1, 1) * p["delta3"])
    return out


def _exact_inputs(*vals):
    return all(isinstance(v, (int, Fraction)) for v in vals)


def cen_G_formula(w, z):
    """Centroid height of G(w, z) by the closed form cleared of
    denominators; exact Fraction for exact inputs, float otherwise."""
    p = polys()
    if _exact_inputs(w, z):
        wf, zf = as_fraction(w), as_fraction(z)
        if wf <= 0:
            raise DomainError("cap height w must be positive")
        # N / (3 w B) with N = nn/nd, w = a/b and B = bn/bd, in one division
        nn, nd = p["N_disp"].num_den(wf, zf)
        bn, bd = p["B"].num_den(wf, zf)
        assert bn > 0
        return F(nn * wf.denominator * bd, 3 * wf.numerator * bn * nd)
    wf, zf = float(w), float(z)
    if wf <= 0:
        raise DomainError("cap height w must be positive")
    den = 3.0 * wf * p["B"](wf, zf)
    assert den > 0
    return p["N_disp"](wf, zf) / den


def dcenG_dz(w, z):
    """(value of d/dz of the centroid height, derivative numerator
    quadratic).  The quadratic q satisfies d/dz = 2(w-2) q / (3 w B^2), so
    its sign against (w-2) gives the slope sign without cancellation."""
    p = polys()
    if _exact_inputs(w, z):
        wf, zf = F(w), F(z)
        if wf <= 0:
            raise DomainError("cap height w must be positive")
        b = p["B"](wf, zf)
        assert b > 0
        return p["R"](wf, zf) / (3 * wf * b * b), p["q"]
    wf, zf = float(w), float(z)
    if wf <= 0:
        raise DomainError("cap height w must be positive")
    b = p["B"](wf, zf)
    return p["R"](wf, zf) / (3.0 * wf * b * b), p["q"]


def margin_pair(w, z):
    """(centroid height - 4/21, margin polynomial / (21 w B)), exact;
    the two are equal, so either side certifies the sign of the margin."""
    p = polys()
    wf, zf = F(w), F(z)
    b = p["B"](wf, zf)
    assert b > 0 and wf > 0
    return cen_G_formula(wf, zf) - F(4, 21), p["seven"](wf, zf) / (21 * wf * b)


def cap_pair(w, z):
    """(cap midpoint height - centroid height, cap gap polynomial /
    (6 w B)), exact; equality ties the printed inequality to its cleared
    polynomial form."""
    p = polys()
    wf, zf = F(w), F(z)
    b = p["B"](wf, zf)
    assert b > 0 and wf > 0
    lhs = p["cap_line_clear"](wf, zf) / (2 * wf)
    return lhs - cen_G_formula(wf, zf), p["nine"](wf, zf) / (6 * wf * b)


def wedge_centroid_height(w, z):
    """Centroid height of the wing wedge (cap corner, right hexagon vertex,
    full-wing tip): (z(2-2w) + 2) / (3w)."""
    if _exact_inputs(w, z):
        wf, zf = F(w), F(z)
        if wf <= 0:
            raise DomainError("cap height w must be positive")
        return (zf * (2 - 2 * wf) + 2) / (3 * wf)
    wf, zf = float(w), float(z)
    if wf <= 0:
        raise DomainError("cap height w must be positive")
    return (zf * (2.0 - 2.0 * wf) + 2.0) / (3.0 * wf)


def pentagon_centroid_height(w):
    """Centroid height of the pentagon slice z = 1 of the family."""
    p = polys()
    if _exact_inputs(w):
        wf = F(w)
        if wf <= 0:
            raise DomainError("cap height w must be positive")
        return p["pentagon_P"](wf) / (3 * wf * p["pentagon_B"](wf))
    wf = float(w)
    if wf <= 0:
        raise DomainError("cap height w must be positive")
    return p["pentagon_P"](wf) / (3.0 * wf * p["pentagon_B"](wf))


_W0 = None


def w0():
    """Cap height where the maximizing z reaches 1: the root in [1, 2] of
    w^3 + w^2 - 2w - 4, by the depressed-cubic closed form plus a Newton
    polish; the residual is checked."""
    global _W0
    if _W0 is not None:
        return _W0
    s = math.sqrt(177.0)
    val = ((44.0 - 3.0 * s) ** (1.0 / 3.0)
           + (44.0 + 3.0 * s) ** (1.0 / 3.0) - 1.0) / 3.0
    for _ in range(2):
        f = ((val + 1.0) * val - 2.0) * val - 4.0
        fp = (3.0 * val + 2.0) * val - 2.0
        val -= f / fp
    assert abs(((val + 1.0) * val - 2.0) * val - 4.0) <= 1e-12
    _W0 = val
    return val


_W0_BRACKET = None


def w0_bracket(width=F(1, 10 ** 13)):
    """Exact rational bracket (lo, hi) around the root of w^3+w^2-2w-4
    with a strict sign change, for use in exact chains."""
    global _W0_BRACKET
    if _W0_BRACKET is None or _W0_BRACKET[1] - _W0_BRACKET[0] > width:
        _W0_BRACKET = bisect_root(polys()["e0"], F(1), F(2), width=width)
    return _W0_BRACKET


def z_star(w, tol=1e-9):
    """Cap parameter maximizing the centroid height at cap height w, by the
    rationalized root form z* = w*kappa / (2(g + sqrt(Delta))), which stays
    finite at w = 2 and returns the exact limit 5/7 there."""
    p = polys()
    if isinstance(w, (int, Fraction)) and F(w) == 2:
        return F(5, 7)
    wf = float(w)
    lo = w0()
    if wf < lo - tol or wf > 2.0 + tol:
        raise DomainError("cap height %r outside [%.12f, 2]" % (w, lo))
    wf = min(max(wf, lo), 2.0)
    kv = p["kappa"](wf)
    gv = p["g"](wf)
    dv = p["delta"](wf)
    if dv < 0:
        dv = 0.0
    return wf * kv / (2.0 * (gv + math.sqrt(dv)))


def verify_reduction_identity(nu, delta, area_v, cen_v):
    """Truth values of the two sides of the mass-splitting step: removing a
    piece of the given area and centroid height from a body of area delta
    and moment nu drops the remainder's average height to at most nu/delta
    exactly when the piece's height is at least nu/delta.  Returns
    (left, right); the caller checks they agree."""
    nu, delta, area_v, cen_v = map(as_fraction, (nu, delta, area_v, cen_v))
    if not delta > area_v > 0:
        raise DomainError("need total mass > piece mass > 0")
    ratio = nu / delta
    left = (nu - area_v * cen_v) / (delta - area_v) <= ratio
    right = cen_v >= ratio
    return left, right
