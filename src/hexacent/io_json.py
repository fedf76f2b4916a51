"""JSON views of the geometric objects and reports.

Every numeric leaf is a string so exact rationals survive the trip:
Fractions serialize as "p/q" (or "n" for integers) and floats as their
shortest round-trip repr.  Parsing inverts this exactly, so
load(dump(x)) == x for scalars, points and polygons.
"""

import math
from fractions import Fraction

from .geom_core import ConvexPolygon, GeomError, Point
from .hexagon import AffineRegularHexagon


def dump_scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    if isinstance(v, float):
        return repr(v)
    raise GeomError("not a scalar: %r" % (v,))


def load_scalar(s):
    """Inverse of dump_scalar: "p/q" and bare integers come back as
    Fractions, anything with a decimal point or exponent as a float."""
    if not isinstance(s, str):
        raise GeomError("scalar must be a string, got %r" % (s,))
    t = s.strip()
    if t == "true":
        return True
    if t == "false":
        return False
    try:
        if "/" in t or ("." not in t and "e" not in t and "E" not in t):
            return Fraction(t)
        v = float(t)
    except (ValueError, ZeroDivisionError):
        raise GeomError("bad scalar %r" % (s,))
    if not math.isfinite(v):
        raise GeomError("bad scalar %r" % (s,))
    return v


def dump_point(p):
    return [dump_scalar(p.x), dump_scalar(p.y)]


def load_point(obj):
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise GeomError("point must be a [x, y] pair, got %r" % (obj,))
    return Point(load_scalar(obj[0]), load_scalar(obj[1]))


def dump_polygon(poly):
    return {"vertices": [dump_point(v) for v in poly.vertices]}


def load_polygon(obj):
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise GeomError('polygon must be {"vertices": [...]}')
    return ConvexPolygon([load_point(v) for v in obj["vertices"]])


def dump_hexagon(h):
    return {"center": dump_point(h.c),
            "u": dump_point(h.u),
            "v": dump_point(h.v)}


def load_hexagon(obj):
    if not isinstance(obj, dict) or not {"center", "u", "v"} <= set(obj):
        raise GeomError('hexagon must be {"center", "u", "v"}')
    return AffineRegularHexagon(load_point(obj["center"]),
                                load_point(obj["u"]),
                                load_point(obj["v"]))


def dump_fit(fit):
    return {"hexagon": dump_hexagon(fit.hexagon),
            "angle": dump_scalar(fit.angle),
            "edge_half_length": dump_scalar(fit.edge_half_length),
            "alignment_error": dump_scalar(fit.alignment_error),
            "residual": dump_scalar(fit.residual)}


def dump_bound_report(rep):
    out = {"verdict": rep.verdict,
           "gauge": dump_scalar(rep.gauge_value),
           "ratio": dump_scalar(rep.ratio),
           "margin": dump_scalar(rep.margin),
           "centroid": dump_point(rep.centroid),
           "hexagon": dump_hexagon(rep.hexagon),
           "exact": dump_scalar(rep.exact)}
    if rep.w_extracted is not None:
        out["support_parameter"] = dump_scalar(rep.w_extracted)
    if rep.fit is not None:
        out["fit"] = dump_fit(rep.fit)
    return out


def dump_monte_carlo(rep):
    return {"trials": dump_scalar(rep.trials),
            "seed": dump_scalar(rep.seed),
            "generator": rep.generator,
            "violations": dump_scalar(rep.violations),
            "wing_counterexamples": dump_scalar(rep.wing_counterexamples),
            "star_escapes": dump_scalar(rep.star_escapes),
            "min_margin": dump_scalar(rep.min_margin),
            "argmin_trial": dump_scalar(rep.argmin_trial),
            "argmin_body": [[dump_scalar(x), dump_scalar(y)]
                            for x, y in rep.argmin_body],
            "max_residual_ratio": dump_scalar(rep.max_residual_ratio),
            "inscription_failures": dump_scalar(rep.inscription_failures),
            "failed_trials": [dump_scalar(i) for i in rep.failed_trials]}


def dump_ledger_entry(e):
    return {"claim": e.claim,
            "description": e.description,
            "status": e.status,
            "data": e.data}


def dump_ledger(led):
    return {"entries": [dump_ledger_entry(e) for e in led.entries],
            "budget": dump_scalar(led.budget),
            "status_counts": {k: dump_scalar(v)
                              for k, v in sorted(led.status_counts().items())},
            "erratum_groups": led.erratum_groups(),
            "ok": dump_scalar(led.ok)}
