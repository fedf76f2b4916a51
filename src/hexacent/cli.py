"""Command-line front end.

Subcommands: inscribe, check, symmetrize, verify-proof, stress, render.
Polygons travel as JSON files with string-encoded coordinates; every
number in JSON output is a string ("p/q" or a float repr), so golden
files survive re-parsing bit for bit.

Exit codes: 0 success or verified, 1 bound violation or a disproved
claim, 2 bad input, 3 inconclusive certification.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .centroid_bound import RATIO, check_theorem, monte_carlo
from .geom_core import ConvexPolygon, GeomError, Line, Point, on_segment
from .hexagon import AffineRegularHexagon, InscriptionFailed, inscribe
from .io_json import (
    dump_bound_report,
    dump_fit,
    dump_hexagon,
    dump_ledger,
    dump_ledger_entry,
    dump_monte_carlo,
    dump_polygon,
    dump_scalar,
    load_polygon,
    load_scalar,
)
from .proof_verifier.ledger import claim_ids, run_claim, run_full_verification
from .steiner import symmetrize
from .svg import render_svg

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


class _CliError(Exception):
    pass


def _read_polygon(path, mode):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise _CliError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        raise _CliError("%s is not valid JSON: %s" % (path, e))
    try:
        poly = load_polygon(obj)
    except (GeomError, ValueError) as e:
        raise _CliError("%s: %s" % (path, e))
    return _coerce(poly, mode)


def _coerce(poly, mode):
    if mode == "float" and poly.exact:
        try:
            pts = [Point(float(v.x), float(v.y)) for v in poly.vertices]
        except OverflowError:
            raise _CliError("coordinates exceed the float range")
        try:
            return ConvexPolygon(pts)
        except GeomError:
            # a coordinate that fell to 0.0 may be what broke the body
            if any(f == 0 != t for p, v in zip(pts, poly.vertices)
                   for f, t in zip(p, v)):
                raise _CliError("body coordinates fall below the float range")
            raise
    if mode == "exact" and not poly.exact:
        raise _CliError("exact mode needs rational coordinates "
                        "(\"p/q\" or integer strings)")
    return poly


def _snap_hexagon(body, fit):
    """Rationalize a floating inscription for an exact body: round center
    and axes to nearby small rationals and keep the result only when all
    six vertices land exactly on the boundary."""
    if not body.exact:
        return None
    snapped = []
    for p in (fit.hexagon.c, fit.hexagon.u, fit.hexagon.v):
        snapped.append(Point(Fraction(p.x).limit_denominator(10 ** 6),
                             Fraction(p.y).limit_denominator(10 ** 6)))
    try:
        hexa = AffineRegularHexagon(*snapped)
    except GeomError:
        return None
    edges = list(zip(body.vertices, body.vertices[1:] + body.vertices[:1]))
    if all(any(on_segment(v, a, b) for a, b in edges) for v in hexa.vertices):
        return hexa
    return None


def _inscribe(body):
    """The floating fit of the body, and the snapped exact hexagon of an
    exact body or None."""
    fit = inscribe(body)
    return fit, _snap_hexagon(body, fit)


def _emit(obj, text_lines, fmt):
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_inscribe(args):
    fit, hexa = _inscribe(_read_polygon(args.polygon, args.mode))
    out = {"fit": dump_fit(fit)}
    lines = ["inscribed hexagon (floating fit):",
             "  center %s  u %s  v %s" % (fit.hexagon.c, fit.hexagon.u,
                                          fit.hexagon.v),
             "  residual %s" % dump_scalar(fit.residual)]
    if hexa is not None:
        out["hexagon"] = dump_hexagon(hexa)
        lines.append("exact inscription confirmed: center (%s, %s)"
                     % (dump_scalar(hexa.c.x), dump_scalar(hexa.c.y)))
    else:
        out["hexagon"] = dump_hexagon(fit.hexagon)
    _emit(out, lines, args.format)
    return EXIT_OK


def _cmd_check(args):
    body = _read_polygon(args.polygon, args.mode)
    try:
        ratio = Fraction(args.ratio)
    except (ValueError, ZeroDivisionError):
        raise _CliError("bad ratio %r, expected p/q" % (args.ratio,))
    if ratio <= 0:
        raise _CliError("ratio must be positive")
    fit, hexa = _inscribe(body)
    if hexa is not None:
        rep = check_theorem(body, ratio=ratio, hexagon=hexa)
    else:
        rep = check_theorem(body, ratio=ratio, fit=fit)
    out = dump_bound_report(rep)
    lines = ["verdict: %s" % rep.verdict,
             "gauge %s  ratio %s  margin %s"
             % (dump_scalar(rep.gauge_value), dump_scalar(rep.ratio),
                dump_scalar(rep.margin)),
             "centroid (%s, %s)" % (dump_scalar(rep.centroid.x),
                                    dump_scalar(rep.centroid.y)),
             "exact: %s" % dump_scalar(rep.exact)]
    _emit(out, lines, args.format)
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def _cmd_symmetrize(args):
    body = _read_polygon(args.polygon, args.mode)
    try:
        a, b, c = (load_scalar(t) for t in args.axis.split(","))
    except (ValueError, GeomError):
        raise _CliError("bad axis %r, expected a,b,c for the line "
                        "a*x + b*y = c" % (args.axis,))
    if args.mode == "float":
        a, b, c = float(a), float(b), float(c)
    elif not all(isinstance(t, Fraction) for t in (a, b, c)):
        raise _CliError("exact mode needs a rational axis "
                        "(\"p/q\" or integer components)")
    try:
        axis = Line(a, b, c)
        result = symmetrize(body, axis)
    except GeomError as e:
        raise _CliError(str(e))
    out = dump_polygon(result)
    lines = ["symmetrized polygon, %d vertices:" % len(result.vertices)]
    for v in result.vertices:
        lines.append("  (%s, %s)" % (dump_scalar(v.x), dump_scalar(v.y)))
    _emit(out, lines, args.format)
    return EXIT_OK


def _ledger_exit(entries):
    if any("disproved_witness" in e.data for e in entries):
        return EXIT_VIOLATION
    if any(e.status == "Inconclusive" for e in entries):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_verify_proof(args):
    if args.claim is not None:
        if args.claim not in claim_ids():
            raise _CliError("unknown claim %r; known: %s"
                            % (args.claim, ", ".join(claim_ids())))
        entry = run_claim(args.claim, budget=args.budget, depth=args.depth)
        out = {"entries": [dump_ledger_entry(entry)]}
        lines = ["%-6s %-22s %s" % (entry.claim, entry.status,
                                    entry.description)]
        _emit(out, lines, args.format)
        return _ledger_exit([entry])
    led = run_full_verification(budget=args.budget, depth=args.depth)
    out = dump_ledger(led)
    lines = []
    for e in led.entries:
        lines.append("%-6s %-22s %s" % (e.claim, e.status, e.description))
        g = e.data.get("erratum", {}).get("group")
        if g:
            lines.append("       erratum group: %s" % g)
    lines.append("errata groups: %s" % ", ".join(led.erratum_groups()))
    _emit(out, lines, args.format)
    return _ledger_exit(led.entries)


def _cmd_stress(args):
    seed = args.seed
    env = os.environ.get("HEXACENT_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise _CliError("HEXACENT_SEED must be an integer, got %r"
                            % (env,))
    rep = monte_carlo(args.trials, seed=seed, generator=args.generator)
    out = dump_monte_carlo(rep)
    lines = ["trials %d  seed %d  generator %s"
             % (rep.trials, rep.seed, rep.generator),
             "violations %d  wing counterexamples %d  star escapes %d"
             % (rep.violations, rep.wing_counterexamples, rep.star_escapes),
             "min margin %s at trial %d" % (dump_scalar(rep.min_margin),
                                            rep.argmin_trial),
             "max inscription residual ratio %s"
             % dump_scalar(rep.max_residual_ratio),
             "inscription failures %d" % rep.inscription_failures]
    _emit(out, lines, args.format)
    bad = rep.violations or rep.wing_counterexamples or rep.star_escapes
    return EXIT_VIOLATION if bad else EXIT_OK


def _cmd_render(args):
    body = _read_polygon(args.polygon, args.mode)
    fit, hexa = _inscribe(body)
    doc = render_svg(body, hexa or fit.hexagon,
                     show_hexagon=args.hexagon,
                     show_star=args.star,
                     show_centroid=args.centroid,
                     ratio=RATIO)
    try:
        with open(args.out, "w") as fh:
            fh.write(doc)
    except OSError as e:
        raise _CliError("cannot write %s: %s" % (args.out, e))
    if args.format == "text":
        print("wrote %s" % args.out)
    else:
        print(json.dumps({"out": args.out,
                          "bytes": dump_scalar(len(doc))}, indent=2))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hexacent",
        description="Inscribed-hexagon centroid bound toolkit")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--mode", choices=("exact", "float"), default="exact")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inscribe",
                       help="inscribe an affine-regular hexagon")
    p.add_argument("polygon")
    p.set_defaults(fn=_cmd_inscribe)

    p = sub.add_parser("check", help="check the centroid bound")
    p.add_argument("polygon")
    p.add_argument("--ratio", default="4/21")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("symmetrize",
                       help="Steiner symmetrization about a line")
    p.add_argument("polygon")
    p.add_argument("--axis", required=True,
                   help="a,b,c for the line a*x + b*y = c")
    p.set_defaults(fn=_cmd_symmetrize)

    p = sub.add_parser("verify-proof",
                       help="re-verify the claim catalog")
    p.add_argument("--claim", default=None)
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(fn=_cmd_verify_proof)

    p = sub.add_parser("stress", help="Monte Carlo sweep of the bound")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generator", choices=("a", "b", "mixed"),
                   default="mixed")
    p.set_defaults(fn=_cmd_stress)

    p = sub.add_parser("render", help="render a body to SVG")
    p.add_argument("polygon")
    p.add_argument("--hexagon", action="store_true")
    p.add_argument("--star", action="store_true")
    p.add_argument("--centroid", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=_cmd_render)
    return ap


def dispatch(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except (GeomError, InscriptionFailed) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
