"""Benchmark worker: one process that sets up hexacent, runs one workload
for the given seconds and prints the result as its last line of output.

Start it through run.py.  Set-up is timed from this process's start,
interpreter start-up included, and scaled to the reference speed with
samples of the reference loop taken during it (speed.py).
Every run repeats whole rounds of one workload and checks each round's
output against the oracles in oracles.py:

  ledger       a round is the full 15-claim ledger (`verify-proof`)
  stress       a round is monte_carlo(1000 trials, generator "mixed")
  check_large  a round is `hexacent check` over the tight pentagon and
               exact ellipse bodies of 256 to 4096 vertices

The rounds of one run repeat the same work.  Each round is measured in
reference loops (speed.py): its CPU time over that of a fixed pure-Python
loop timed around and during it, which cancels the slow phases of a shared
host.  round_ref is the median round of the run; on check_large, whose
sweep is long and runs only three or four times, it sums each body's
median check instead.

With --trace 1 the run first repeats rounds untraced for half the time,
then replays the same rounds with spans on the package's public functions
and reports per-layer metrics per round, with the tracing overhead.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import bodies
import oracles
from spans import Tracer
from speed import REFERENCE_S, Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


COUNTERS = ("geom_core.ConvexPolygon.vertices", "certify.boxes_examined")


def _vertices(args, result):
    return COUNTERS[0], len(args[0].vertices)


def _boxes(args, result):
    return COUNTERS[1], result.boxes_examined


# (span name, module, attribute, counter); a name shared by several
# functions sums them into one layer
TARGETS = (
    ("geom_core.ConvexPolygon", "hexacent.geom_core", "ConvexPolygon.__init__",
     _vertices),
    ("geom_core.area_and_centroid", "hexacent.geom_core", "area_and_centroid",
     None),
    # _diameter serves ConvexPolygon.diameter() and the float prune
    ("geom_core.diameter", "hexacent.geom_core", "_diameter", None),
    ("geom_core.convex_hull", "hexacent.geom_core", "convex_hull", None),
    ("geom_core.clip_halfplane", "hexacent.geom_core", "clip_halfplane", None),
    ("geom_core.gauge", "hexacent.geom_core", "gauge", None),
    ("hexagon.inscribe", "hexacent.hexagon", "inscribe", None),
    ("centroid_bound.random_body", "hexacent.centroid_bound", "random_body",
     None),
    ("centroid_bound.check_theorem", "hexacent.centroid_bound",
     "check_theorem", None),
    ("centroid_bound.star_violations", "hexacent.centroid_bound",
     "star_violations", None),
    ("centroid_bound.wing_monotonicity", "hexacent.centroid_bound",
     "wing_monotonicity", None),
    ("centroid_bound.body_G", "hexacent.centroid_bound", "body_G", None),
    ("formulas.cen_G_formula", "hexacent.proof_verifier.formulas",
     "cen_G_formula", None),
    ("formulas.polys", "hexacent.proof_verifier.formulas", "polys", None),
    ("bipoly.BiPoly.call", "hexacent.proof_verifier.bipoly",
     "BiPoly.__call__", None),
    ("certify.certify_sign", "hexacent.proof_verifier.certify",
     "certify_sign", _boxes),
    ("certify.critical_points", "hexacent.proof_verifier.certify",
     "critical_points", None),
    ("roots", "hexacent.proof_verifier.roots", "bracket_roots", None),
    ("roots", "hexacent.proof_verifier.roots", "bisect_root", None),
    ("roots", "hexacent.proof_verifier.roots", "isolate_single_root", None),
    ("io_json.load_polygon", "hexacent.io_json", "load_polygon", None),
    ("io_json.dump", "hexacent.io_json", "dump_bound_report", None),
    ("cli.dispatch", "hexacent.cli", "dispatch", None),
)


def setup(tracer):
    """Import hexacent from this checkout and build the cached polys()
    table; with a tracer, the build is traced as the span "setup"."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hexacent
    if not Path(hexacent.__file__).resolve().is_relative_to(src):
        raise SystemExit("hexacent was imported from %s, not from %s"
                         % (hexacent.__file__, src))
    from hexacent.proof_verifier import formulas
    if tracer is None:
        formulas.polys()
        return
    tracer.install(TARGETS)
    with tracer.span("setup"):
        formulas.polys()
    tracer.uninstall()


class Workload:
    """Inputs made from the seed; run(span) is one round and check(output)
    gives (operations attempted, failed, problems)."""

    gauge = None

    def round_ref(self, costs):
        """The end-to-end cost of a round in reference loops, from the
        costs of all rounds."""
        return statistics.median(costs)

    def final_problems(self):
        """Checks made once per run, outside the timed rounds."""
        return []

    def close(self):
        pass


class Ledger(Workload):
    """The full ledger; nearly all of its time is claim P1's 10,201 exact
    body_G polygons, so it stresses the exact kernel."""

    GRID_SAMPLE = 40

    def __init__(self, seed):
        rng = random.Random(seed)
        self.grid = [(1 + Fraction(rng.randrange(101), 100),
                      Fraction(rng.randrange(101), 100))
                     for _ in range(self.GRID_SAMPLE)]

    def run(self, span):
        from hexacent.proof_verifier.ledger import (
            claim_ids, run_claim, run_full_verification)
        if span is None:
            return run_full_verification().entries
        out = []
        for cid in claim_ids():
            with span("ledger." + cid):
                out.append(run_claim(cid))
        return out

    def check(self, entries):
        failed = sum(e.status == "Inconclusive" for e in entries)
        return len(entries), failed, oracles.ledger_problems(entries)

    def final_problems(self):
        from hexacent import area_and_centroid, body_G, tight_pentagon
        out = oracles.tight_pentagon_problems(
            [(v.x, v.y) for v in tight_pentagon().vertices])
        for w, z in self.grid:
            area, cen = area_and_centroid(body_G(w, z))
            out += oracles.body_G_problems(w, z, area, (cen.x, cen.y))
        return out


class Stress(Workload):
    """monte_carlo on small float bodies; inscription dominates and the
    exact kernel is idle."""

    TRIALS = 1000
    SAMPLE = 10

    def __init__(self, seed):
        from hexacent import random_body
        self.seed = seed
        rng = random.Random(seed)
        self.sample = [random_body(rng, "a") for _ in range(self.SAMPLE)]

    def run(self, span):
        from hexacent import monte_carlo
        with (span or _no_span)("stress.monte_carlo"):
            return monte_carlo(self.TRIALS, seed=self.seed,
                               generator="mixed")

    def check(self, rep):
        return (self.TRIALS, rep.inscription_failures,
                oracles.stress_report_problems(rep, self.TRIALS))

    def final_problems(self):
        from hexacent import inscribe
        out = []
        for body in self.sample:
            fit = inscribe(body)
            h = fit.hexagon
            c, u, v = ((Fraction(p.x), Fraction(p.y)) for p in (h.c, h.u, h.v))
            verts = [(Fraction(p.x), Fraction(p.y)) for p in body.vertices]
            out += oracles.hexagon_problems(oracles.facts(verts), c, u, v)
        return out


TIGHT_EXPECT = (("margin", "0"), ("gauge", "4/21"), ("exact", "true"))


class CheckLarge(Workload):
    """`hexacent check` in exact mode on large exact bodies: O(n^2)
    diameter and width passes, alignment evaluations on thousands of
    vertices, the exact kernel with big denominators and the JSON I/O."""

    def __init__(self, seed):
        self.dir = OUT / ("bodies-%d" % os.getpid())
        self.dir.mkdir(parents=True, exist_ok=True)
        self.bodies = []
        for name, verts in bodies.sweep(seed):
            path = self.dir / (name + ".json")
            path.write_text(json.dumps(
                {"vertices": [[str(x), str(y)] for x, y in verts]}))
            self.bodies.append((name, str(path), oracles.facts(verts)))
        self.costs = {}  # body name: cost of each of its checks

    def round_ref(self, costs):
        # each body's median is taken apart, so that a slow stretch on one
        # body in one round moves no other body's figure
        return sum(statistics.median(c) for c in self.costs.values())

    def run(self, span):
        from hexacent.cli import dispatch
        out = []
        for name, path, _ in self.bodies:
            buf = io.StringIO()
            cost = []
            with self.gauge.measure(cost), \
                    (span or _no_span)("check_large." + name), \
                    contextlib.redirect_stdout(buf):
                code = dispatch(["check", path])
            out.append((code, buf.getvalue(), cost[0][0]))
        return out

    def check(self, results):
        failed = 0
        problems = []
        for (name, _, body), (code, text, c) in zip(self.bodies, results):
            self.costs.setdefault(name, []).append(c)
            if code != 0:
                failed += 1
                problems.append("%s: exit code %d" % (name, code))
                continue
            expect = TIGHT_EXPECT if name == "n5" else ()
            problems += ["%s: %s" % (name, p) for p in
                         oracles.check_report_problems(json.loads(text), body,
                                                       expect)]
        return len(results), failed, problems

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"ledger": Ledger, "stress": Stress, "check_large": CheckLarge}


def _no_span(name):
    return contextlib.nullcontext()


class Tally:
    """Round costs and times, operation counts and problems of a run."""

    def __init__(self, gauge):
        self.gauge = gauge
        self.costs = []  # reference loops per round
        self.times = []  # CPU seconds per round, without the gauge's samples
        self.wall_times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def round(self, wl, span):
        gc.collect()
        measured = []
        w = time.perf_counter()
        with self.gauge.measure(measured):
            out = wl.run(span)
        self.wall_times.append(time.perf_counter() - w)
        self.costs.append(measured[0][0])
        self.times.append(measured[0][1])
        attempted, failed, problems = wl.check(out)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def repeat(wl, tally, seconds, span):
    """Whole rounds until the next one would end after `seconds`."""
    start = time.perf_counter()
    while True:
        tally.round(wl, span)
        next_end = (time.perf_counter() - start
                    + statistics.median(tally.wall_times))
        if next_end > seconds:
            return len(tally.times)


# the gauge's interval during set-up, which lasts about 0.1 s
SETUP_INTERVAL_S = 0.01


def timed_setup(gauge, tracer):
    """Set up; gives the set-up's CPU seconds from this process's start,
    scaled to the reference speed and as measured.  A traced set-up takes
    no samples inside, since they would count as the layers' own time."""
    before = time.process_time()  # interpreter start-up, unscaled yet
    if tracer is None:
        gauge.start_timer(SETUP_INTERVAL_S)
    measured = []
    try:
        with gauge.measure(measured):
            setup(tracer)
    finally:
        gauge.stop_timer()
    _, net, ref = measured[0]
    return (before + net) / ref * REFERENCE_S, before + net


# layers whose work happens once, in set-up, rather than in every round
SETUP_LAYERS = ("formulas.polys",)


def layer_metrics(tracer, names, rounds, overhead_s):
    """Per-layer metrics per round from the spans of the traced rounds.

    A name "<layer>.self_s" or "<layer>.calls" reads the spans of that
    layer, "<root>.s" the operations recorded as root spans, and a
    counter name the counter."""
    def in_setup(span):
        return tracer.spans[span[4]][0] == "setup"

    own = tracer.self_times(lambda span: not in_setup(span))
    own_setup = tracer.self_times(in_setup)
    roots = {}
    for name, start, end, parent, _ in tracer.spans:
        if parent == -1 and name != "setup":
            roots[name] = roots.get(name, 0.0) + end - start
    ms = [1000 * d for d in tracer.durations("hexagon.inscribe")]
    q = statistics.quantiles(ms, n=100, method="inclusive") \
        if len(ms) >= 2 else [sum(ms)] * 99
    special = {
        "hexagon.inscribe.p50_ms": q[49],
        "hexagon.inscribe.p99_ms": q[98],
        "trace.overhead_s": overhead_s,
        "trace.missing": len(tracer.missing),
    }
    m = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name in special:
            m[name] = special[name]
        elif name in COUNTERS:
            m[name] = tracer.counters[name] / rounds
        elif kind == "self_s" and layer in SETUP_LAYERS:
            m[name] = own_setup.get(layer, (0.0, 0))[0]
        elif kind == "self_s":
            m[name] = own.get(layer, (0.0, 0))[0] / rounds
        elif kind == "calls":
            m[name] = own.get(layer, (0.0, 0))[1] / rounds
        elif kind == "s":
            m[name] = roots.get(layer, 0.0) / rounds
        else:
            raise KeyError("no rule for per-layer metric %r" % name)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    tracer = Tracer() if args.trace else None
    gauge = Gauge()
    setup_s, setup_cpu_s = timed_setup(gauge, tracer)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    wl.gauge = gauge
    tally = Tally(gauge)
    try:
        if tracer is None:
            gauge.start_timer()
            try:
                repeat(wl, tally, args.seconds, None)
            finally:
                gauge.stop_timer()
            metrics = {
                "round_ref": wl.round_ref(tally.costs),
                "setup_s": setup_s,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            wanted = spec["end_to_end"]
        else:
            rounds = repeat(wl, tally, args.seconds / 2, _no_span)
            tracer.install(TARGETS)
            for _ in range(rounds):
                tally.round(wl, tracer.span)
            # the fastest traced round minus the fastest untraced one, in
            # wall time; the gauge samples only around rounds and bodies
            # here, so that no sample lands inside a span
            walls = tally.wall_times
            overhead_s = min(walls[rounds:]) - min(walls[:rounds])
            wanted = spec["per_layer"]
            metrics = layer_metrics(tracer, [m["name"] for m in wanted],
                                    rounds, overhead_s)
            tracer.write(OUT / ("trace-%s-seed%d.jsonl"
                                % (args.workload, args.seed)))
        tally.problems += wl.final_problems()
    finally:
        wl.close()

    for p in tally.problems:
        print("problem: %s" % p, file=sys.stderr)
    if tracer is not None and tracer.missing:
        print("trace: missing %s" % ", ".join(tracer.missing), file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (OUT / ("result-%s-seed%d-trace%d.json"
            % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(dict(result, round_costs_ref=tally.costs,
                        round_times_cpu_s=tally.times,
                        round_times_wall_s=tally.wall_times,
                        setup_cpu_s=setup_cpu_s,
                        reference_samples_s=gauge.samples), indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
