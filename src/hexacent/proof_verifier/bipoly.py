"""Exact polynomial arithmetic over the rationals: dense univariate
polynomials and sparse bivariate polynomials in (w, z)."""

from fractions import Fraction
from math import lcm


class UniPoly:
    """Univariate polynomial, dense coefficient tuple, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def x(cls):
        return cls([0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "UniPoly(%r)" % (list(self.coeffs),)

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = Fraction(other)
            return UniPoly([c * a for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = UniPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod_exact_lead(self, divisor):
        """Polynomial long division; requires a divisor whose leading
        coefficient is invertible (always true over the rationals)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dn = len(dcs) - 1
        lead = dcs[-1]
        quo = [Fraction(0)] * max(0, len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / lead
            quo[i - dn] = f
            for j, d in enumerate(dcs):
                rem[i - dn + j] -= f * d
        return UniPoly(quo), UniPoly(rem)

    def div_exact(self, divisor):
        q, r = self.divmod_exact_lead(divisor)
        if not r.is_zero():
            raise ValueError("division left a remainder: %r" % (r,))
        return q

    def compose_linear(self, a, b):
        """P(a + b*x) as a UniPoly."""
        a, b = Fraction(a), Fraction(b)
        acc = UniPoly([])
        lin = UniPoly([a, b])
        for c in reversed(self.coeffs):
            acc = acc * lin + UniPoly.const(c)
        return acc


class BiPoly:
    """Bivariate polynomial in (w, z): {(deg_w, deg_z): Fraction}.

    Zero coefficients are never stored and the total degree stays at most 8,
    which covers every formula in the analysis."""

    __slots__ = ("coeffs", "_rows")
    MAX_TOTAL_DEGREE = 8

    def __init__(self, coeffs):
        out = {}
        for (i, j), c in coeffs.items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c == 0:
                continue
            if i + j > self.MAX_TOTAL_DEGREE:
                raise ValueError("total degree %d exceeds %d"
                                 % (i + j, self.MAX_TOTAL_DEGREE))
            out[(i, j)] = c
        self.coeffs = out
        self._rows = None  # integer coefficient rows, built on exact call

    @classmethod
    def const(cls, c):
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def w(cls):
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def z(cls):
        return cls({(0, 1): Fraction(1)})

    def is_zero(self):
        return not self.coeffs

    @property
    def total_degree(self):
        return max((i + j for i, j in self.coeffs), default=-1)

    @property
    def degree_w(self):
        return max((i for i, _ in self.coeffs), default=-1)

    @property
    def degree_z(self):
        return max((j for _, j in self.coeffs), default=-1)

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        return "BiPoly(%r)" % (terms,)

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            c = Fraction(other)
            return BiPoly({k: c * v for k, v in self.coeffs.items()})
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = BiPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, w, z):
        if isinstance(w, (int, Fraction)) and isinstance(z, (int, Fraction)):
            return self._call_exact(w, z)
        acc = 0
        for (i, j), c in self.coeffs.items():
            acc += c * w ** i * z ** j
        return acc

    def _call_exact(self, w, z):
        if not self.coeffs:
            return 0
        return Fraction(*self.num_den(w, z))

    def num_den(self, w, z):
        """P(w, z) at rational w and z as an integer pair (num, den) with
        den > 0, not reduced.

        Horner on integers: with w = a/b, z = p/q and den the common
        denominator of the coefficients, den * b^m * q^n * P(w, z) is the
        sum over i, j of the integers (den * c_ij) a^i b^(m-i) p^j q^(n-j),
        where m and n are the degrees in w and z."""
        if not self.coeffs:
            return 0, 1
        if self._rows is None:
            den = 1
            for c in self.coeffs.values():
                den = lcm(den, c.denominator)
            m, n = self.degree_w, self.degree_z
            rows = [[0] * (n + 1) for _ in range(m + 1)]
            for (i, j), c in self.coeffs.items():
                # highest power of w first, each row highest power of z first
                rows[m - i][n - j] = c.numerator * (den // c.denominator)
            self._rows = den, m, n, rows
        den, m, n, rows = self._rows
        a, b = w.numerator, w.denominator
        p, q = z.numerator, z.denominator
        acc = 0
        bk = 1
        for row in rows:
            r = 0
            qk = 1
            for c in row:
                r = r * p + c * qk
                qk *= q
            acc = acc * a + r * bk
            bk *= b
        return acc, den * b ** m * q ** n

    def deriv_w(self):
        return BiPoly({(i - 1, j): i * c
                       for (i, j), c in self.coeffs.items() if i})

    def deriv_z(self):
        return BiPoly({(i, j - 1): j * c
                       for (i, j), c in self.coeffs.items() if j})

    def subs_w(self, value):
        """Restrict w to a constant; returns a UniPoly in z."""
        value = Fraction(value)
        out = [Fraction(0)] * (self.degree_z + 1 or 1)
        for (i, j), c in self.coeffs.items():
            out[j] += c * value ** i
        return UniPoly(out)

    def subs_z(self, value):
        """Restrict z to a constant; returns a UniPoly in w."""
        value = Fraction(value)
        out = [Fraction(0)] * (self.degree_w + 1 or 1)
        for (i, j), c in self.coeffs.items():
            out[i] += c * value ** j
        return UniPoly(out)

    def compose_linear(self, aw, bw, az, bz):
        """Restrict to the parametrized line (w, z) = (aw + bw*t, az + bz*t);
        returns a UniPoly in t."""
        lw = UniPoly([aw, bw])
        lz = UniPoly([az, bz])
        pw = {0: UniPoly.const(1)}
        pz = {0: UniPoly.const(1)}
        for i in range(1, self.degree_w + 1):
            pw[i] = pw[i - 1] * lw
        for j in range(1, self.degree_z + 1):
            pz[j] = pz[j - 1] * lz
        acc = UniPoly([])
        for (i, j), c in self.coeffs.items():
            acc = acc + pw[i] * pz[j] * c
        return acc

    def as_poly_in_z(self):
        """Coefficient list [c_0(w), ..., c_n(w)] of powers of z."""
        n = self.degree_z
        out = [dict() for _ in range(n + 1)]
        for (i, j), c in self.coeffs.items():
            out[j][(i,)] = c
        return [UniPoly([d.get((i,), Fraction(0))
                         for i in range(max((k[0] for k in d), default=0) + 1)])
                for d in out]

    def div_exact_in_w(self, divisor):
        """Exact division by a divisor polynomial, both viewed as
        polynomials in w with UniPoly-in-z coefficients; the remainder must
        vanish.  Used to pull known root-line factors such as (w - 2)."""
        num = self._coeff_rows_w()
        den = divisor._coeff_rows_w()
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
        lead = den[-1]
        if lead.degree != 0:
            raise ValueError("divisor leading w-coefficient must be constant")
        inv = 1 / lead.coeffs[0]
        quo = [UniPoly([]) for _ in range(max(0, len(num) - len(den) + 1))]
        rem = list(num)
        for i in range(len(rem) - 1, len(den) - 2, -1):
            c = rem[i]
            if c.is_zero():
                continue
            f = c * inv
            quo[i - (len(den) - 1)] = f
            for j, d in enumerate(den):
                rem[i - (len(den) - 1) + j] = rem[i - (len(den) - 1) + j] - f * d
        if any(not r.is_zero() for r in rem):
            raise ValueError("division left a remainder")
        out = {}
        for i, cz in enumerate(quo):
            for j, c in enumerate(cz.coeffs):
                if c:
                    out[(i, j)] = c
        return BiPoly(out)

    def _coeff_rows_w(self):
        """[c_0(z), ..., c_m(z)] coefficients of powers of w."""
        m = self.degree_w
        rows = []
        for i in range(m + 1):
            cs = [Fraction(0)] * (self.degree_z + 1)
            for (iw, jz), c in self.coeffs.items():
                if iw == i:
                    cs[jz] = c
            rows.append(UniPoly(cs))
        return rows


def _poly_det(mat):
    """Determinant of a small square matrix of UniPoly, cofactor expansion."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    acc = UniPoly([])
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [[mat[r][c] for c in range(n) if c != j]
                 for r in range(1, n)]
        term = mat[0][j] * _poly_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def resultant_z(p, q):
    """Sylvester resultant of two BiPoly eliminating z; UniPoly in w."""
    pc = list(reversed(p.as_poly_in_z()))  # leading z-coefficient first
    qc = list(reversed(q.as_poly_in_z()))
    m, n = len(pc) - 1, len(qc) - 1
    if m < 1 or n < 1:
        raise ValueError("both polynomials must involve z")
    size = m + n
    zero = UniPoly([])
    mat = []
    for i in range(n):
        mat.append([zero] * i + pc + [zero] * (size - m - 1 - i))
    for i in range(m):
        mat.append([zero] * i + qc + [zero] * (size - n - 1 - i))
    return _poly_det(mat)

