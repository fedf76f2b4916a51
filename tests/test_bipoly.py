from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexacent.proof_verifier.bipoly import BiPoly, UniPoly, resultant_z

F = Fraction
W = BiPoly.w()
Z = BiPoly.z()

coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
unis = st.lists(coeff, min_size=0, max_size=5).map(UniPoly)
points = st.fractions(min_value=-4, max_value=4, max_denominator=8)


class TestUniPoly:
    def test_trailing_zeros_stripped(self):
        assert UniPoly([1, 2, 0, 0]).degree == 1
        assert UniPoly([0, 0]).degree == -1
        assert UniPoly([]).is_zero()

    def test_evaluation(self):
        p = UniPoly([F(1), F(-2), F(3)])  # 1 - 2x + 3x^2
        assert p(F(0)) == 1
        assert p(F(2)) == 1 - 4 + 12
        assert p(0.5) == 1 - 1.0 + 0.75

    def test_derivative(self):
        p = UniPoly([F(5), F(0), F(7), F(2)])
        assert p.derivative() == UniPoly([F(0), F(14), F(6)])
        assert UniPoly.const(3).derivative().is_zero()

    def test_compose_linear(self):
        p = UniPoly([F(1), F(1), F(1)])
        q = p.compose_linear(F(2), F(-3))  # p(2 - 3t)
        for t in (F(0), F(1), F(-1, 2), F(7, 3)):
            assert q(t) == p(2 - 3 * t)

    def test_division_roundtrip(self):
        a = UniPoly([F(2), F(-1), F(4)])
        b = UniPoly([F(-3), F(1), F(0), F(5)])
        assert (a * b).div_exact(a) == b
        q, r = (a * b + UniPoly([F(1)])).divmod_exact_lead(a)
        assert q == b and r == UniPoly([F(1)])

    def test_inexact_division_raises(self):
        with pytest.raises(ValueError):
            UniPoly([F(1), F(1)]).div_exact(UniPoly([F(0), F(1)]))
        with pytest.raises(ZeroDivisionError):
            UniPoly([F(1)]).div_exact(UniPoly([]))

    def test_scalar_ops_both_sides(self):
        p = UniPoly([F(1), F(2)])
        assert 3 * p == p * 3 == UniPoly([F(3), F(6)])
        assert 1 + p == p + 1 == UniPoly([F(2), F(2)])
        assert (1 - p)(F(5)) == 1 - p(F(5))

    def test_pow(self):
        p = UniPoly([F(1), F(1)])
        assert p ** 3 == UniPoly([F(1), F(3), F(3), F(1)])
        assert (p ** 0) == UniPoly.const(1)


class TestBiPoly:
    def test_evaluation_matches_structure(self):
        p = W * W * Z - 3 * Z + 5
        assert p(F(2), F(3)) == 12 - 9 + 5
        assert p(0.0, 0.0) == 5

    def test_total_degree_cap(self):
        with pytest.raises(ValueError):
            (W ** 4) * (Z ** 5)

    def test_substitutions_agree_with_eval(self):
        p = (W - 2) * (Z * Z * W + 3 * Z - 1)
        for wv in (F(1), F(3, 2), F(2)):
            q = p.subs_w(wv)
            for zv in (F(0), F(5, 7), F(1)):
                assert q(zv) == p(wv, zv)
                assert p.subs_z(zv)(wv) == p(wv, zv)

    def test_derivatives(self):
        p = W * W * Z + 4 * W * Z * Z
        assert p.deriv_w() == 2 * W * Z + 4 * Z * Z
        assert p.deriv_z() == W * W + 8 * W * Z

    def test_compose_linear_restricts_to_segment(self):
        p = W * Z * Z - 2 * W + Z
        # w = 1 + t, z = 1 - t/2
        q = p.compose_linear(F(1), F(1), F(1), F(-1, 2))
        for t in (F(0), F(1), F(1, 3)):
            assert q(t) == p(1 + t, 1 - t / 2)

    def test_div_exact_in_w(self):
        p = (W - 2) * (W * Z + 3)
        assert p.div_exact_in_w(W - 2) == W * Z + 3
        with pytest.raises(ValueError):
            (p + 1).div_exact_in_w(W - 2)

    def test_resultant_detects_common_root(self):
        # both vanish on z = w, so the resultant in z is identically zero
        a = (Z - W) * (Z - 1)
        b = (Z - W) * (Z + 2)
        assert resultant_z(a, b).is_zero()

    def test_resultant_of_coprime_pair(self):
        a = Z - W          # root z = w
        b = Z - (W + 1)    # root z = w + 1
        r = resultant_z(a, b)
        assert not r.is_zero()
        assert r(F(5)) != 0


@settings(max_examples=80, deadline=None)
@given(unis, unis, points)
def test_ring_homomorphism_at_points(a, b, x):
    assert (a + b)(x) == a(x) + b(x)
    assert (a * b)(x) == a(x) * b(x)
    assert (a - b)(x) == a(x) - b(x)


@settings(max_examples=60, deadline=None)
@given(unis, points, points, points)
def test_compose_linear_is_substitution(p, a, b, t):
    assert p.compose_linear(a, b)(t) == p(a + b * t)


def term_sum(p, w, z):
    """P(w, z) summed term by term in the order the coefficients are
    stored."""
    acc = 0
    for (i, j), c in p.coeffs.items():
        acc += c * w ** i * z ** j
    return acc


bipolys = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
        lambda k: k[0] + k[1] <= BiPoly.MAX_TOTAL_DEGREE),
    st.fractions(min_value=-9, max_value=9, max_denominator=30),
    max_size=12).map(BiPoly)
exact_args = st.one_of(st.integers(-5, 5),
                       st.fractions(min_value=-4, max_value=4,
                                    max_denominator=40))
float_args = st.floats(min_value=-4, max_value=4, allow_nan=False)


class TestBiPolyCall:
    def test_zero_polynomial(self):
        zero = BiPoly({})
        assert zero.is_zero()
        for w, z in ((F(3, 7), F(-2, 5)), (2, -3), (0.5, 1.5)):
            assert zero(w, z) == 0 == term_sum(zero, w, z)

    def test_int_and_negative_arguments(self):
        p = 3 * W ** 3 * Z - F(1, 6) * W * Z ** 4 + F(5, 4) * Z - 7
        for w, z in ((2, 3), (-2, 5), (F(-3, 4), -1), (0, 0), (-1, F(-5, 9))):
            got = p(w, z)
            assert type(got) is F
            assert got == term_sum(p, F(w), F(z))

    def test_repeated_calls_reuse_rows(self):
        p = F(2, 3) * W * W - F(1, 5) * Z + 1
        first = p(F(1, 2), F(3, 4))
        assert p(F(1, 2), F(3, 4)) == first == term_sum(p, F(1, 2), F(3, 4))
        assert p(F(-7, 3), 2) == term_sum(p, F(-7, 3), F(2))


@settings(max_examples=200, deadline=None)
@given(bipolys, exact_args, exact_args)
def test_exact_call_matches_term_sum(p, w, z):
    assert p(w, z) == term_sum(p, F(w), F(z))


@settings(max_examples=200, deadline=None)
@given(bipolys, float_args, float_args)
def test_float_call_is_bit_identical_to_term_sum(p, w, z):
    got, want = p(w, z), term_sum(p, w, z)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(bipolys, exact_args, exact_args)
def test_num_den_is_the_exact_call_before_reduction(p, w, z):
    num, den = p.num_den(w, z)
    assert type(num) is int and type(den) is int and den > 0
    got = p(w, z)
    if p.is_zero():
        assert (num, den) == (0, 1) and got == 0 and type(got) is int
    else:
        assert type(got) is F and got == F(num, den)
