"""Exact rational convex bodies for the check_large workload.

Every ellipse body is the affine image of rational points on the unit
circle that share one denominator N, a product of distinct primes
p = 1 (mod 4).  With j primes, N has 4 * 2^j representations
N = p^2 + q^2 (products of Gaussian primes times units), and each gives, by
the Pythagorean parametrisation t = p/q, the point ((q^2 - p^2)/N, 2pq/N).
Sign pairs give the same point, so j primes give 2^(j+1) distinct points.

The full set is centrally symmetric, and in a symmetric body every chord
direction already carries a hexagon, so inscription would stop after one
evaluation.  A body of 2^(k+1) vertices therefore takes k + 2 primes and
keeps a seeded sample of the points on a seeded arc of 1.1 to 1.6 half
turns.  A seeded rational affine map with bounded axis ratio and a small
rational translation turn the circle into an ellipse.  One common
denominator keeps the exact sums small enough for the oracles.
"""

import functools
import math
import random
from fractions import Fraction

PRIMES_1MOD4 = (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113,
                137, 149)

# k for bodies of 2^(k+1) vertices: 256, 512, 1024, 2048 and 4096
SWEEP_K = (7, 8, 9, 10, 11)

TIGHT_PENTAGON = ((0, 2), (-2, 0), (-1, -1), (1, -1), (2, 0))


def _two_squares(p):
    for a in range(1, math.isqrt(p) + 1):
        b = math.isqrt(p - a * a)
        if a * a + b * b == p:
            return a, b
    raise ValueError("%d is not a sum of two squares" % p)


def _gmul(g, h):
    return (g[0] * h[0] - g[1] * h[1], g[0] * h[1] + g[1] * h[0])


def _ccw_cmp(a, b):
    # exact angular order around the origin, starting at the positive x axis
    ha = 0 if a[1] > 0 or (a[1] == 0 and a[0] > 0) else 1
    hb = 0 if b[1] > 0 or (b[1] == 0 and b[0] > 0) else 1
    if ha != hb:
        return ha - hb
    cr = a[0] * b[1] - a[1] * b[0]
    return -1 if cr > 0 else (1 if cr < 0 else 0)


def circle_points(primes):
    """(N, integer points (X, Y) with X^2 + Y^2 = N^2) in CCW order."""
    gs = [(1, 0)]
    n = 1
    for p in primes:
        a, b = _two_squares(p)
        gs = [_gmul(g, (a, b)) for g in gs] + [_gmul(g, (a, -b)) for g in gs]
        n *= p
    gs += [_gmul(g, (0, 1)) for g in gs]
    pts = {(q * q - p * p, 2 * p * q) for q, p in gs}
    return n, sorted(pts, key=functools.cmp_to_key(_ccw_cmp))


def ellipse_body(rng, k):
    """2^(k+1) exact vertices on a random ellipse, CCW."""
    n, pts = circle_points(sorted(rng.sample(PRIMES_1MOD4, k + 2)))
    start = rng.uniform(0, 2 * math.pi)
    width = rng.uniform(1.1, 1.6) * math.pi
    arc = [p for p in pts
           if (math.atan2(p[1], p[0]) - start) % (2 * math.pi) <= width]
    pts = [arc[i] for i in sorted(rng.sample(range(len(arc)), 2 ** (k + 1)))]
    while True:
        m11, m12, m21, m22 = (Fraction(rng.randint(-32, 32), 16)
                              for _ in range(4))
        det = m11 * m22 - m12 * m21
        # (sum of squares) / |det| = s1/s2 + s2/s1 bounds the axis ratio
        squares = m11 ** 2 + m12 ** 2 + m21 ** 2 + m22 ** 2
        if det != 0 and squares <= 5 * abs(det):
            break
    tx = Fraction(rng.randint(-48, 48), 16)
    ty = Fraction(rng.randint(-48, 48), 16)
    out = [(m11 * Fraction(x, n) + m12 * Fraction(y, n) + tx,
            m21 * Fraction(x, n) + m22 * Fraction(y, n) + ty) for x, y in pts]
    if det < 0:
        out.reverse()
    return out


def sweep(seed):
    """[(name, vertices)]: the tight pentagon, then one ellipse per size."""
    out = [("n5", [(Fraction(x), Fraction(y)) for x, y in TIGHT_PENTAGON])]
    for k in SWEEP_K:
        verts = ellipse_body(random.Random(seed * 1009 + k), k)
        out.append(("n%d" % len(verts), verts))
    return out
