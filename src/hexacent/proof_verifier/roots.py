"""Real root location for exact univariate polynomials: sign-change
bracketing on a rational grid and bisection refinement.  Every evaluation
is exact, so a reported bracket is a certificate."""

from fractions import Fraction


def sign(x):
    return (x > 0) - (x < 0)


def bracket_roots(p, lo, hi, samples=128):
    """Scan [lo, hi] on an even rational grid; return a list of exact
    brackets (a, b) with p(a)*p(b) < 0 plus grid points where p is zero.

    Roots of even multiplicity between grid points are invisible to a sign
    scan; callers that need completeness pair this with a derivative scan.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not hi > lo:
        raise ValueError("empty interval")
    step = (hi - lo) / samples
    brackets = []
    exact_hits = []
    prev_x, prev_s = lo, sign(p(lo))
    if prev_s == 0:
        exact_hits.append(lo)
    for k in range(1, samples + 1):
        x = lo + step * k
        s = sign(p(x))
        if s == 0:
            exact_hits.append(x)
        elif prev_s and s != prev_s:
            brackets.append((prev_x, x))
        # a zero sample consumes the sign state so the hit is not also
        # reported as a bracket around it
        prev_x, prev_s = x, s
    return brackets, exact_hits


def bisect_root(p, lo, hi, width=Fraction(1, 10 ** 12)):
    """Shrink a sign-change bracket to the given rational width by exact
    bisection.  Returns (lo, hi) with the sign change preserved."""
    lo, hi = Fraction(lo), Fraction(hi)
    flo, fhi = p(lo), p(hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if sign(flo) == sign(fhi):
        raise ValueError("no sign change on the bracket")
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = p(mid)
        if fm == 0:
            return mid, mid
        if sign(fm) == sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo, hi


def isolate_single_root(p, lo, hi, samples=256, width=Fraction(1, 10 ** 12)):
    """Expect exactly one simple root in [lo, hi]; return its refined
    bracket.  Raises if the scan finds none or more than one."""
    brackets, hits = bracket_roots(p, lo, hi, samples)
    if len(hits) == 1 and not brackets:
        return hits[0], hits[0]
    if len(brackets) == 1 and not hits:
        return bisect_root(p, *brackets[0], width=width)
    raise ValueError("expected one root in [%s, %s], found %d brackets"
                     " and %d exact hits"
                     % (lo, hi, len(brackets), len(hits)))
