"""Claim catalog and verification ledger.

Each claim is re-verified from scratch: polynomial identities are checked
coefficient for coefficient, sign conditions are certified by the exact
Bernstein engine, grids and random tuples are evaluated in rational
arithmetic, and every printed form that disagrees with its re-derivation is
reported as an erratum note attached to the claims whose proofs touch it.
The ledger is deterministic: fixed seeds, fixed grids, no floats anywhere a
verdict depends on one."""

import random
from dataclasses import dataclass
from fractions import Fraction

from ..centroid_bound import (
    body_G,
    body_P,
    canonical_hexagon,
    hexagon_gauge,
    support_parameter_w,
    tight_pentagon,
    wing_apex,
)
from ..geom_core import GeomError, Point, area_and_centroid, composite_centroid
from ..io_json import dump_scalar
from .bipoly import BiPoly, UniPoly
from .certify import Region, certify_sign, critical_points
from .formulas import (
    cen_G_formula,
    chain_identities,
    dcenG_dz,
    pentagon_centroid_height,
    polys,
    proof_polynomials,
    verify_reduction_identity,
    w0,
    w0_bracket,
    wedge_centroid_height,
    z_star,
)
from .roots import bracket_roots, isolate_single_root

F = Fraction
W = BiPoly.w()
Z = BiPoly.z()


def _u(*coeffs):
    return UniPoly([F(c) for c in coeffs])


@dataclass(frozen=True)
class LedgerEntry:
    claim: str
    description: str
    status: str  # "Verified" | "VerifiedWithErratum" | "Inconclusive"
    data: dict


@dataclass(frozen=True)
class VerificationLedger:
    entries: tuple
    budget: int

    def entry(self, claim):
        for e in self.entries:
            if e.claim == claim:
                return e
        raise KeyError("unknown claim %r" % (claim,))

    def status_counts(self):
        out = {}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    def erratum_groups(self):
        groups = set()
        for e in self.entries:
            g = e.data.get("erratum", {}).get("group")
            if g:
                groups.add(g)
        return sorted(groups)

    def disproved_witnesses(self):
        return [(e.claim, e.data["disproved_witness"]) for e in self.entries
                if "disproved_witness" in e.data]

    @property
    def ok(self):
        return all(e.status in ("Verified", "VerifiedWithErratum")
                   for e in self.entries) and not self.disproved_witnesses()


def _s(v):
    """Value as a string for ledger data: a scalar as dump_scalar writes
    it, exact for rationals, and anything else as str(v)."""
    try:
        return dump_scalar(v)
    except GeomError:
        return str(v)


def _cert_data(cert):
    out = {"status": cert.status,
           "boxes": _s(cert.boxes_examined),
           "depth": _s(cert.max_depth)}
    if cert.witness is not None:
        pt, val = cert.witness
        out["witness"] = {"point": [_s(x) for x in pt], "value": _s(val)}
    return out


class _Run:
    """Collects certificates and gate conditions for one claim."""

    def __init__(self, budget, depth=30):
        self.budget = budget
        self.depth = depth
        self.certs = {}
        self.gates = []

    def cert(self, name, poly, region, relation):
        c = certify_sign(poly, region, relation, budget=self.budget,
                         max_depth=self.depth)
        self.certs[name] = c
        self.gates.append(c.status == "Proved")
        return c

    def need(self, condition):
        self.gates.append(bool(condition))
        return bool(condition)

    def finish(self, data, erratum=None):
        if self.certs:
            data["certificates"] = {k: _cert_data(c)
                                    for k, c in self.certs.items()}
        for name, c in self.certs.items():
            if c.status == "Disproved":
                data["disproved_witness"] = dict(
                    _cert_data(c)["witness"], certificate=name)
        if erratum is not None:
            data["erratum"] = erratum
        if not all(self.gates):
            return "Inconclusive", data
        return ("VerifiedWithErratum" if erratum else "Verified"), data


def _ident(run, names):
    table = dict(chain_identities())
    out = {}
    for n in names:
        out[n] = _s(table[n])
        run.need(table[n])
    return out


def _record(name):
    for r in proof_polynomials():
        if r.name == name:
            return r
    raise KeyError(name)


# ---------------------------------------------------------------- claims


def _run_p1(budget, depth=30):
    run = _Run(budget, depth)
    mismatches = 0
    first = None
    for i in range(101):
        w = 1 + F(i, 100)
        for j in range(101):
            z = F(j, 100)
            formula = cen_G_formula(w, z)
            geometry = area_and_centroid(body_G(w, z))[1].y
            if formula != geometry:
                mismatches += 1
                if first is None:
                    first = {"w": _s(w), "z": _s(z),
                             "formula": _s(formula), "geometry": _s(geometry)}
    run.need(mismatches == 0)
    data = {"grid": "101 x 101", "w_range": "[1, 2]", "z_range": "[0, 1]",
            "comparison": "exact rational equality of closed form and "
                          "polygon shoelace centroid",
            "mismatches": _s(mismatches)}
    if first:
        data["first_mismatch"] = first
    return run.finish(data)


def _run_p2(budget, depth=30):
    run = _Run(budget, depth)
    rng = random.Random(74614)
    trials = 10 ** 4
    agree = 0
    for k in range(trials):
        area = F(rng.randint(1, 300), rng.randint(1, 40))
        delta = area + F(rng.randint(1, 300), rng.randint(1, 40))
        nu = F(rng.randint(-300, 300), rng.randint(1, 40))
        if k % 97 == 0:
            cen = nu / delta  # boundary case: equality on both sides
        else:
            cen = F(rng.randint(-300, 300), rng.randint(1, 40))
        left, right = verify_reduction_identity(nu, delta, area, cen)
        agree += left == right
    run.need(agree == trials)
    data = {"trials": _s(trials), "agreements": _s(agree), "seed": "74614",
            "note": "both sides evaluated exactly and compared; "
                    "equality-boundary tuples included every 97th draw"}
    return run.finish(data)


def _run_p3(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    run.need(not _record("derivative_numerator").match)
    idents = _ident(run, ["derivative numerator factors through w-2"])

    sign_ok = 0
    total = 0
    for i in range(1, 40):
        w = 1 + F(i, 39)
        for j in range(40):
            z = F(j, 39)
            val, _ = dcenG_dz(w, z)
            ref = (w - 2) * p["q"](w, z)
            total += 1
            sign_ok += ((val > 0) == (ref > 0)) and ((val < 0) == (ref < 0))
    run.need(sign_ok == total)

    rng = random.Random(3317)
    fd_n = 120
    fd_ok = 0
    worst = 0.0
    step = 1e-6
    for _ in range(fd_n):
        w = rng.uniform(1.02, 1.98)
        z = rng.uniform(0.02, 0.98)
        exact, _ = dcenG_dz(w, z)
        fd = (cen_G_formula(w, z + step) - cen_G_formula(w, z - step)) \
            / (2 * step)
        err = abs(fd - exact) / max(1.0, abs(exact))
        worst = max(worst, err)
        fd_ok += err <= 1e-5
    run.need(fd_ok == fd_n)

    profile = []
    for wv in (1.7, 1.8, 1.9):
        zs = z_star(wv)
        rising = cen_G_formula(wv, zs) > cen_G_formula(wv, 1.0) \
            > cen_G_formula(wv, 0.0)
        profile.append({"w": _s(wv), "z_star": _s(zs),
                        "peak_above_endpoints": _s(rising)})
        run.need(rising)

    wd, zd = F(8, 5), F(5, 7)
    erratum = {
        "group": "eq4-middle-term",
        "printed": "derivative numerator middle term 4z(w^2+4w-5)",
        "derived": "middle term 4zw(w^2+4w-5)",
        "evidence": {"at": "(8/5, 5/7)",
                     "printed_value": _s(p["q_printed"](wd, zd)),
                     "derived_value": _s(p["q"](wd, zd))},
        "note": "exact quotient-rule numerator divided by 2(w-2); the "
                "printed quadratic drops a factor w from the middle term",
    }
    data = {"identities": idents,
            "sign_grid": {"points": _s(total), "agreements": _s(sign_ok)},
            "finite_difference": {"points": _s(fd_n),
                                  "within_1e-5": _s(fd_ok),
                                  "worst_relative_error": _s(worst)},
            "profile": profile}
    return run.finish(data, erratum)


def _run_p4a(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    run.need(_record("margin_factorization").match)
    idents = _ident(run, ["margin polynomial from moments"])
    box = Region.box(1, 2, F(5, 7), 1)
    run.cert("cofactor_positive", p["C7"], box, ">0")
    run.need(p["seven"](F(1), F(1)) == -4)
    run.need(p["seven"](F(1), F(5, 7)) == F(-68, 7))
    run.need(p["seven"](F(2), F(1)) == 0 and p["seven"](F(2), F(5, 7)) == 0)
    corners = {"(1, 5/7)": _s(p["seven"](F(1), F(5, 7))),
               "(1, 1)": _s(p["seven"](F(1), F(1))),
               "(2, 5/7)": _s(p["seven"](F(2), F(5, 7))),
               "(2, 1)": _s(p["seven"](F(2), F(1)))}

    crit = critical_points(p["seven"], box)
    run.need(not crit["interior"])
    run.need(crit["maximum"][2] == 0.0)
    data = {"region": "[1, 2] x [5/7, 1]",
            "identities": idents,
            "factorization": "(w - 2) * cofactor",
            "margin_corner_values": corners,
            "critical_points": {
                "interior": [],
                "edges": [{"w": _s(a), "z": _s(b), "value": _s(v)}
                          for a, b, v in crit["edges"]],
                "maximum": {"w": _s(crit["maximum"][0]),
                            "z": _s(crit["maximum"][1]),
                            "value": _s(crit["maximum"][2])}},
            "conclusion": "margin polynomial <= 0 on the rectangle, zero "
                          "exactly on the w = 2 edge, so the centroid "
                          "height never exceeds 4/21 there"}
    return run.finish(data)


def _run_p4b(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    run.need(not _record("radicand_factorization").match)
    idents = _ident(run, ["upper square gap factorization",
                          "lower square gap factorization",
                          "radicand true factorization"])
    iv = Region.interval(1, 2)
    run.cert("upper_forcing_positive", p["e3"], iv, ">0")
    run.cert("lower_forcing_positive", p["f2c"], iv, ">0")
    run.cert("four_minus_w_positive", _u(4, -1), iv, ">0")
    run.cert("w_plus_2_positive", _u(2, 1), iv, ">0")
    run.cert("w_plus_3_positive", _u(3, 1), iv, ">0")
    run.cert("w_minus_2_nonpositive", _u(-2, 1), iv, "<=0")
    run.cert("lower_factor_7w5_positive", _u(5, 7), iv, ">0")
    run.cert("lower_factor_quadratic_positive", _u(20, 22, 7), iv, ">0")
    run.cert("root_slope_positive", p["e0"].derivative(), iv, ">0")
    run.cert("stable_form_denominator_positive", p["g"],
             Region.interval(F(8, 5), 2), ">0")
    run.need(p["e0"](F(8, 5)) == F(-68, 125))  # crossover sits right of 8/5

    lo, hi = w0_bracket()
    run.need(p["e0"](lo) < 0 < p["e0"](hi))
    spots = {"z_star(w0)": _s(z_star(w0())),
             "z_star(17/10)": _s(z_star(1.7)),
             "z_star(19/10)": _s(z_star(1.9)),
             "z_star(2)": _s(z_star(F(2)))}
    run.need(z_star(F(2)) == F(5, 7))
    run.need(abs(z_star(w0()) - 1.0) <= 1e-9)

    erratum = {
        "group": "part4-sextic-quartic",
        "printed": "radicand factorization (w-1)(w-2)(w+3)(w^3+w^2-2w-4)",
        "derived": "(w-1)(w-2)(w+2)(w^3+w^2-2w-4)",
        "evidence": {"at": "w = 3",
                     "printed_value": _s(p["S4_printed"](F(3))),
                     "derived_value": _s(p["S4"](F(3)))},
        "note": "w^2*Delta - F^2 expanded and refactored exactly; the "
                "printed form swaps (w+2) for (w+3)",
    }
    data = {
        "identities": idents,
        "upper_chain": "z* <= 1 iff the cubic forcing term stays below "
                       "2 sqrt(Delta); the squared gap factors through the "
                       "crossover cubic, so equality happens exactly at its "
                       "root w0",
        "lower_chain": "z* >= 5/7 via a positive forcing cubic whose "
                       "squared gap factors with the single vanishing "
                       "factor (w-2), so equality happens exactly at w = 2",
        "w0_bracket": [_s(lo), _s(hi)],
        "e0_at_8/5": _s(p["e0"](F(8, 5))),
        "spot_values": spots}
    return run.finish(data, erratum)


def _run_p5a(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    tri = Region.triangle((2, 1), (F(8, 5), 1), (2, F(5, 7)))
    run.cert("cap_gap_negative", p["nine"], tri, "<0")
    run.need(p["nine"](F(2), F(1)) == -32)
    run.need(p["nine"](F(8, 5), F(1)) == F(-392, 625))
    run.need(p["nine"](F(2), F(5, 7)) == -8)
    run.need(not _record("cap_gap_right_edge").match)
    run.need(p["nine"](F(2), F(13, 21)) == 0)
    vertex_values = {"(2, 1)": _s(p["nine"](F(2), F(1))),
                     "(8/5, 1)": _s(p["nine"](F(8, 5), F(1))),
                     "(2, 5/7)": _s(p["nine"](F(2), F(5, 7)))}
    erratum = {
        "group": "part5",
        "printed": "vertex values -44, about -11.827 and about -4.598; "
                   "right-edge restriction 8z^2 - 84z + 52; corner at "
                   "(2, 13/21)",
        "derived": "vertex values -32, -392/625 and -8; right-edge "
                   "restriction 52 - 84z (linear); corner (2, 5/7)",
        "evidence": {"value_at_printed_corner":
                     _s(p["nine"](F(2), F(13, 21))),
                     "note": "the printed corner lies exactly on the zero "
                             "set of the cap gap, so no strict certificate "
                             "can exist on the printed triangle"},
        "note": "certified strictly negative on the corrected triangle; "
                "exact vertex values recomputed from the cleared polynomial",
    }
    data = {"triangle": "(2, 1), (8/5, 1), (2, 5/7)",
            "vertex_values": vertex_values,
            "conclusion": "cap midpoint height stays strictly below the "
                          "centroid height on the corner triangle"}
    return run.finish(data, erratum)


def _run_p5b(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    iv = Region.interval(F(8, 5), 2)
    idents = _ident(run, ["printed hypotenuse square gap factorization",
                          "cap gap on printed hypotenuse"])
    run.cert("hypotenuse_forcing_positive", p["F4s"], iv, ">0")
    run.cert("gap_quartic_positive", p["q4"], iv, ">0")
    run.cert("four_minus_w_positive", _u(4, -1), iv, ">0")
    run.cert("w_plus_3_positive", _u(3, 1), iv, ">0")
    run.cert("stable_form_denominator_positive", p["g"], iv, ">0")
    run.cert("gap_on_hypotenuse_cofactor_positive",
             p["printed_hyp_core"], iv, ">0")

    # clamped stretch w in [8/5, w0]: the curve sits at z = 1, and the
    # printed hypotenuse meets z = 1 exactly at w = 8/5
    run.need(F(53, 21) - F(20, 21) * F(8, 5) == 1)
    run.need(p["e0"](F(8, 5)) < 0)  # so w0 > 8/5 and the clamp regime exists

    # the repaired hypotenuse through (2, 5/7) fails containment: exact
    # witness at w = 19/10, where z* < 11/14
    wv = F(19, 10)
    forcing = 7 * wv * p["kappa"](wv) - 11 * p["g"](wv)
    square_gap = forcing * forcing - 121 * p["delta"](wv)
    run.need(forcing == F(68547, 1000))
    run.need(square_gap == F(-79622991, 10 ** 6))
    run.need(forcing > 0 and square_gap < 0)
    lo, hi = isolate_single_root(p["onset_cubic"], F(8, 5), F(2))
    onset = float((lo + hi) / 2)

    erratum = {
        "group": "part5",
        "printed": "corner triangle with hypotenuse z = (53-20w)/21 "
                   "through (2, 13/21)",
        "derived": "the curve-containment chain goes through for the "
                   "printed hypotenuse; moving the corner to (2, 5/7) "
                   "breaks containment",
        "evidence": {"witness_w": "19/10",
                     "forcing_value": _s(forcing),
                     "squared_gap": _s(square_gap),
                     "z_star": _s(z_star(1.9)),
                     "repaired_hypotenuse_at_witness": "11/14",
                     "failure_onset_near": _s(onset)},
        "note": "the printed corner is wrong for the strict sign claim "
                "(see the companion triangle entry) yet right for "
                "containment; both facts are certified exactly",
    }
    data = {
        "triangle": "(2, 1), (8/5, 1), (2, 13/21)",
        "identities": idents,
        "containment": "for w in [8/5, w0] the curve is clamped at z = 1, "
                       "which meets the hypotenuse exactly at the (8/5, 1) "
                       "corner; for w in [w0, 2] the forcing cubic "
                       "dominates the square root, keeping z* above the "
                       "hypotenuse",
        "gap_on_hypotenuse": "441 * gap = (w - 2) * positive cubic, so the "
                             "cap gap stays nonpositive along the printed "
                             "hypotenuse with zero only at w = 2"}
    return run.finish(data, erratum)


def _run_p6(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    beta = -2 * W * (W * W + 3 * W - 3)
    gamma = W * W * (7 - W * W)
    run.need(p["nine"] == -p["q"] + beta * Z + gamma)
    idents = _ident(run, ["curve forcing term collapses",
                          "curve square gap factorization"])
    iv = Region.interval(1, 2)
    run.cert("curve_cubic_positive", p["delta3"], iv, ">0")
    run.cert("third_factor_positive", p["w34"], iv, ">0")
    run.cert("beta_factor_positive", p["wsq33"], iv, ">0")
    run.cert("seven_minus_wsq_positive", p["sm2"], iv, ">0")
    run.cert("four_minus_w_positive", _u(4, -1), iv, ">0")
    run.cert("w_plus_3_positive", _u(3, 1), iv, ">0")
    run.cert("stable_form_denominator_positive", p["g"],
             Region.interval(F(8, 5), 2), ">0")
    run.need(p["nine"](F(2), F(5, 7)) == -8)
    data = {
        "identities": idents,
        "on_curve_reduction": "where the derivative numerator vanishes, "
                              "the cap gap collapses to beta*z + gamma "
                              "with beta < 0, so its sign along the curve "
                              "reduces to z* clearing a rational ratio",
        "square_gap": "the cleared inequality squares to a product of "
                      "certified-positive factors on [1, 2], strict "
                      "including w = 2",
        "endpoint_value": {"(2, 5/7)": _s(p["nine"](F(2), F(5, 7)))},
        "conclusion": "cap gap stays strictly negative along the "
                      "maximizing curve up to and including w = 2"}
    return run.finish(data)


def _run_p7a(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    iv = Region.interval(1, 2)
    run.cert("wing_sextic_positive", p["h"], iv, ">0")
    run.need(p["h"](F(1)) == 3304)
    outside = []
    for a, b in bracket_roots(p["h"], F(-2), F(1), 512)[0]:
        lo, hi = isolate_single_root(p["h"], a, b)
        outside.append(_s(float((lo + hi) / 2)))
    run.need(len(outside) == 2)
    data = {"interval": "[1, 2]",
            "value_at_1": _s(p["h"](F(1))),
            "real_roots_outside": outside,
            "conclusion": "the wing comparison sextic is certified "
                          "positive across the whole cap-height range"}
    return run.finish(data)


def _run_p7b(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    # wedge centroid: vertex heights of the w-scaled wedge triangle sum to
    # z(2-2w) + 2, which re-derives the 3w * centroid numerator
    cap_y = W + Z * (2 - 2 * W)
    run.need(cap_y + (2 - W) == p["wedge_num"])
    idents = _ident(run, ["wedge forcing factorization",
                          "wedge square gap factorization"])
    iv = Region.interval(F(8, 5), 2)
    run.cert("wedge_cubic_negative", p["c70"], iv, "<0")
    run.cert("wedge_quintic_negative", p["quint7"], iv, "<0")
    run.cert("w_minus_1_positive", _u(-1, 1), iv, ">0")
    run.cert("four_minus_w_positive", _u(4, -1), iv, ">0")
    run.cert("w_plus_3_positive", _u(3, 1), iv, ">0")
    run.cert("seven_minus_2w_positive", _u(7, -2), iv, ">0")
    run.cert("stable_form_denominator_positive", p["g"], iv, ">0")
    # clamped stretch: at z = 1 the wedge centroid is (4-2w)/(3w), which
    # drops below 4/21 exactly at w = 14/9, left of 8/5
    run.need(F(14, 9) < F(8, 5))
    run.need(wedge_centroid_height(F(14, 9), F(1)) == F(4, 21))
    spot = wedge_centroid_height(F(2), F(5, 7))
    run.need(spot == F(2, 21))
    data = {
        "identities": idents,
        "curve_chain": "along z* the cleared inequality squares to "
                       "(w-1)(w-4)(w+3) * quintic with every factor sign "
                       "certified on [8/5, 2]",
        "clamped_chain": "for w in [8/5, w0] the curve sits at z = 1 and "
                         "the wedge centroid (4-2w)/(3w) is at most 4/21 "
                         "for every w >= 14/9",
        "wedge_centroid_at_(2,5/7)": _s(spot),
        "conclusion": "the wedge the body discards never has centroid "
                      "height above 4/21 along the maximizing curve"}
    return run.finish(data)


def _run_p7c(budget, depth=30):
    run = _Run(budget, depth)
    rng = random.Random(90125)
    trials = 200
    agree = 0
    cases = [(F(1), F(0)), (F(2), F(1)), (F(2), F(1, 2)), (F(1), F(1))]
    while len(cases) < trials:
        cases.append((1 + F(rng.randint(0, 200), 200),
                      F(rng.randint(0, 200), 200)))
    for w, z in cases:
        body = body_G(w, z)
        whole_area, whole_cen = area_and_centroid(body)
        parts = [(F(6), Point(F(0), F(0)))]
        if w > 1:
            cap = [Point(F(-1), F(1)), Point(F(1), F(1)), Point(F(0), w)]
            parts.append(area_and_centroid(cap))
        if z > 0 and w < 2:
            wing = [Point(F(1), F(1)), Point(F(2), F(0)), wing_apex(w, z)]
            a, c = area_and_centroid(wing)
            parts.append((a, c))
            parts.append((a, Point(-c.x, c.y)))
        comp = composite_centroid(parts)
        total = sum(a for a, _ in parts)
        ok = (total == whole_area and comp.x == whole_cen.x == 0
              and comp.y == whole_cen.y == cen_G_formula(w, z))
        agree += ok
    run.need(agree == trials)
    data = {"trials": _s(trials), "agreements": _s(agree), "seed": "90125",
            "pieces": "hexagon (area 6, centroid at the origin), cap "
                      "triangle, two wing triangles",
            "note": "piece areas and centroids from exact shoelace sums; "
                    "totals compared against both polygon geometry and "
                    "the closed form"}
    return run.finish(data)


def _run_p8a(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    idents = _ident(run, ["pentagon area factor",
                          "pentagon moment factor",
                          "pentagon restriction of margin polynomial"])
    mismatches = 0
    equality_points = []
    for i in range(101):
        w = 1 + F(i, 100)
        closed = pentagon_centroid_height(w)
        if closed != cen_G_formula(w, F(1)):
            mismatches += 1
            continue
        if closed != area_and_centroid(body_P(w))[1].y:
            mismatches += 1
            continue
        margin = closed - F(4, 21)
        cleared = (w - 2) * p["cubic7"](w)
        if (margin > 0) != (cleared > 0) or (margin < 0) != (cleared < 0):
            mismatches += 1
        if margin == 0:
            equality_points.append(_s(w))
    run.need(mismatches == 0)
    run.need(equality_points == ["2"])
    data = {"grid": "101 points, w in [1, 2]",
            "identities": idents,
            "mismatches": _s(mismatches),
            "equality_points": equality_points,
            "conclusion": "pentagon closed form, polygon geometry and the "
                          "factored margin agree exactly; the bound is "
                          "tight only at w = 2"}
    return run.finish(data)


def _run_p8b(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    idents = _ident(run, ["pentagon restriction of margin polynomial"])
    iv = Region.interval(1, 2)
    run.cert("cofactor_cubic_positive", p["cubic7"], iv, ">0")
    run.cert("w_minus_2_nonpositive", _u(-2, 1), iv, "<=0")
    run.need(p["cubic7"](F(1)) == 4)
    run.need(p["seven"](F(1), F(1)) == -4)
    data = {
        "identities": idents,
        "cofactor_at_1": _s(p["cubic7"](F(1))),
        "conclusion": "the pentagon margin polynomial (w-2) * cubic is "
                      "nonpositive on all of [1, 2], hence on [1, w0], "
                      "strictly negative below w = 2"}
    return run.finish(data)


def _run_p8c(budget, depth=30):
    run = _Run(budget, depth)
    p = polys()
    idents = _ident(run, ["shifted root cubic expansion"])
    iv = Region.interval(1, 2)
    run.cert("w_plus_2_positive", _u(2, 1), iv, ">0")
    run.cert("root_slope_positive", p["e0"].derivative(), iv, ">0")
    lo, hi = w0_bracket()
    run.need(p["e0"](F(1)) == -4)
    run.need(p["e0"](lo) < 0 < p["e0"](hi))
    run.need(not _record("tip_triangle_centroid").match)
    demo_w = F(8, 5)
    erratum = {
        "group": "part8-triangle-centroid",
        "printed": "tip-triangle centroid height (4-2w)/(3w)",
        "derived": "2/(3w): the tip triangle's vertex heights are 1, 0 "
                   "and (2-w)/w, and they sum to 2/w",
        "evidence": {"at": "w = 8/5",
                     "printed_value": _s((4 - 2 * demo_w) / (3 * demo_w)),
                     "derived_value": _s(2 / (3 * demo_w)),
                     "note": "the printed expression coincides with the "
                             "wedge centroid formula at full extension, "
                             "not with the tip triangle"},
        "note": "the corrected value only strengthens the comparison the "
                "claim needs",
    }
    data = {
        "identities": idents,
        "w0_bracket": [_s(lo), _s(hi)],
        "e0_at_bracket": [_s(p["e0"](lo)), _s(p["e0"](hi))],
        "e0_at_1": _s(p["e0"](F(1))),
        "conclusion": "(w+2)(w^3+w^2-2w-4) < 0 on [1, w0) by certified "
                      "monotonicity of the cubic and the exact sign-change "
                      "bracket, with equality exactly at w0"}
    return run.finish(data, erratum)


def _run_tight(budget, depth=30):
    run = _Run(budget, depth)
    body = tight_pentagon()
    area, cen = area_and_centroid(body)
    run.need(area == 7)
    run.need(cen.x == 0 and cen.y == F(4, 21))
    gauge_value = hexagon_gauge(canonical_hexagon(), cen)
    run.need(gauge_value == F(4, 21))
    margin = F(4, 21) - gauge_value
    run.need(margin == 0)
    run.need(support_parameter_w(body) == 2)
    data = {"body": "pentagon (0,2), (-2,0), (-1,-1), (1,-1), (2,0)",
            "area": _s(area),
            "centroid": [_s(cen.x), _s(cen.y)],
            "gauge_of_centroid": _s(gauge_value),
            "margin": _s(margin),
            "support_parameter": "2",
            "conclusion": "the centroid sits exactly on the boundary of "
                          "the scaled hexagon, so the constant 4/21 cannot "
                          "be improved"}
    return run.finish(data)


_CATALOG = (
    ("P1", "Closed-form centroid height of the capped family agrees "
           "exactly with polygon geometry on a 101 x 101 rational grid.",
     _run_p1),
    ("P2", "Mass-splitting reduction: both sides of the averaging "
           "inequality agree on 10^4 exact rational tuples.", _run_p2),
    ("P3", "Centroid derivative in the wing parameter: exact quotient-rule "
           "numerator; the printed middle term is missing a factor w.",
     _run_p3),
    ("P4a", "Centroid height stays at most 4/21 on the admissible "
            "rectangle: the margin factors as (w-2) times a "
            "certified-positive cofactor.", _run_p4a),
    ("P4b", "The maximizing wing parameter lies in [5/7, 1] for cap "
            "heights between the crossover root and 2.", _run_p4b),
    ("P5a", "Cap-gap polynomial is certified strictly negative on the "
            "corner triangle, with corrected vertex values.", _run_p5a),
    ("P5b", "The maximizing curve stays inside the printed corner "
            "triangle; the naively repaired corner fails with an exact "
            "witness.", _run_p5b),
    ("P6", "Cap gap is strictly negative along the maximizing curve: the "
           "on-curve condition collapses to a certified-positive cubic.",
     _run_p6),
    ("P7a", "Wing comparison sextic is certified positive over the full "
            "cap-height range.", _run_p7a),
    ("P7b", "Wing wedge centroid stays at most 4/21 along the maximizing "
            "curve for cap heights in [8/5, 2].", _run_p7b),
    ("P7c", "Composite centroid of hexagon, cap and wings reproduces the "
            "body centroid exactly on random rational parameters.",
     _run_p7c),
    ("P8a", "Pentagon slice: closed form, geometry and margin "
            "factorization agree exactly on a 101-point grid.", _run_p8a),
    ("P8b", "Pentagon margin polynomial is nonpositive up to the crossover "
            "height via factored sign certificates.", _run_p8b),
    ("P8c", "Crossover cubic is strictly negative before its root and zero "
            "exactly there; the printed tip-triangle centroid is "
            "corrected.", _run_p8c),
    ("TIGHT", "Tight pentagon: the hexagon gauge of its centroid is "
              "exactly 4/21, margin exactly zero.", _run_tight),
)


def claim_ids():
    return tuple(cid for cid, _, _ in _CATALOG)


def run_claim(claim, budget=10 ** 6, depth=30):
    """Re-verify a single claim; returns its ledger entry."""
    for cid, desc, fn in _CATALOG:
        if cid == claim:
            status, data = fn(budget, depth)
            return LedgerEntry(cid, desc, status, data)
    raise KeyError("unknown claim %r" % (claim,))


def run_full_verification(budget=10 ** 6, depth=30):
    """Re-verify the whole catalog in order; deterministic."""
    entries = []
    for cid, desc, fn in _CATALOG:
        status, data = fn(budget, depth)
        entries.append(LedgerEntry(cid, desc, status, data))
    return VerificationLedger(tuple(entries), budget)
