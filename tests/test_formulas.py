import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexacent.centroid_bound import body_G
from hexacent.geom_core import area_and_centroid
from hexacent.proof_verifier.formulas import (
    DomainError,
    cap_pair,
    cen_G_formula,
    chain_identities,
    dcenG_dz,
    margin_pair,
    pentagon_centroid_height,
    polys,
    proof_polynomials,
    verify_reduction_identity,
    w0,
    w0_bracket,
    wedge_centroid_height,
    z_star,
)

F = Fraction

ws = st.fractions(min_value=1, max_value=2, max_denominator=40)
zs = st.fractions(min_value=0, max_value=1, max_denominator=40)


class TestClosedForm:
    def test_frozen_values(self):
        assert cen_G_formula(1, 1) == F(1, 6)
        assert cen_G_formula(F(8, 5), F(5, 7)) == F(26293, 204540)
        assert cen_G_formula(F(3, 2), 1) == F(95, 774)
        assert cen_G_formula(2, F(5, 7)) == F(4, 21)

    def test_agrees_with_geometry(self):
        for w in (F(1), F(7, 5), F(2)):
            for z in (F(0), F(1, 3), F(1)):
                assert cen_G_formula(w, z) == \
                    area_and_centroid(body_G(w, z))[1].y

    def test_float_path(self):
        got = cen_G_formula(1.5, 1.0)
        assert math.isclose(got, float(F(95, 774)), rel_tol=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cen_G_formula(0, F(1, 2))
        with pytest.raises(DomainError):
            cen_G_formula(-1.0, 0.5)


class TestDerivative:
    def test_sign_matches_factored_form(self):
        p = polys()
        for w in (F(11, 10), F(8, 5), F(19, 10)):
            for z in (F(0), F(5, 7), F(1)):
                val, q = dcenG_dz(w, z)
                ref = (w - 2) * q(w, z)
                assert (val > 0) == (ref > 0)
                assert (val < 0) == (ref < 0)

    def test_vanishes_on_critical_curve(self):
        for wv in (1.7, 1.8, 1.95):
            val, _ = dcenG_dz(wv, z_star(wv))
            assert abs(val) < 1e-12

    def test_finite_difference(self):
        h = 1e-6
        for wv, zv in ((1.3, 0.4), (1.8, 0.9), (1.95, 0.72)):
            exact, _ = dcenG_dz(wv, zv)
            fd = (cen_G_formula(wv, zv + h) - cen_G_formula(wv, zv - h)) \
                / (2 * h)
            assert math.isclose(exact, fd, rel_tol=1e-6, abs_tol=1e-9)


class TestMarginAndCapPairs:
    def test_margin_pair_equal_and_frozen(self):
        lhs, rhs = margin_pair(F(8, 5), F(5, 7))
        assert lhs == rhs == -F(12667, 204540)
        lhs, rhs = margin_pair(2, F(5, 7))
        assert lhs == rhs == 0
        lhs, rhs = margin_pair(1, 1)
        assert lhs == rhs == -F(1, 42)

    def test_cap_pair_equal(self):
        for w in (F(8, 5), F(9, 5), F(2)):
            for z in (F(5, 7), F(9, 10), F(1)):
                lhs, rhs = cap_pair(w, z)
                assert lhs == rhs

    def test_wedge_and_pentagon_heights(self):
        assert wedge_centroid_height(F(2), F(5, 7)) == F(2, 21)
        assert wedge_centroid_height(F(14, 9), F(1)) == F(4, 21)
        assert pentagon_centroid_height(F(2)) == F(4, 21)
        assert pentagon_centroid_height(F(3, 2)) == F(95, 774)


class TestConstants:
    def test_w0_value_and_residual(self):
        p = polys()
        r = w0()
        assert abs(r - 1.6589670) < 1e-6
        assert abs(p["e0"](r)) <= 1e-12

    def test_w0_bracket_is_exact(self):
        p = polys()
        lo, hi = w0_bracket()
        assert p["e0"](lo) < 0 < p["e0"](hi)
        assert hi - lo <= F(1, 10 ** 13)

    def test_z_star_endpoints(self):
        assert z_star(F(2)) == F(5, 7)
        assert abs(z_star(2.0) - 5 / 7) < 1e-12
        assert abs(z_star(w0()) - 1.0) < 1e-9

    def test_z_star_spot_value(self):
        assert abs(z_star(1.9) - 0.7824078662408678) < 1e-12

    def test_z_star_domain(self):
        with pytest.raises(DomainError):
            z_star(1.2)
        with pytest.raises(DomainError):
            z_star(2.5)

    def test_z_star_monotone_decreasing(self):
        vals = [z_star(w0() + k * (2 - w0()) / 20) for k in range(21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(5 / 7 - 1e-12 <= v <= 1 + 1e-12 for v in vals)


class TestProofPolynomials:
    def test_exactly_four_mismatches(self):
        records = proof_polynomials()
        bad = sorted(r.name for r in records if not r.match)
        assert bad == ["cap_gap_right_edge", "derivative_numerator",
                       "radicand_factorization", "tip_triangle_centroid"]

    def test_mismatch_groups_pinned(self):
        groups = {r.name: r.erratum_group for r in proof_polynomials()
                  if not r.match}
        assert groups == {
            "derivative_numerator": "eq4-middle-term",
            "radicand_factorization": "part4-sextic-quartic",
            "cap_gap_right_edge": "part5",
            "tip_triangle_centroid": "part8-triangle-centroid",
        }

    def test_matching_records_have_no_group(self):
        for r in proof_polynomials():
            if r.match:
                assert r.erratum_group is None

    def test_all_chain_identities_hold(self):
        table = chain_identities()
        assert len(table) == 22
        failures = [name for name, ok in table if not ok]
        assert failures == []


class TestReductionIdentity:
    def test_boundary_tuple(self):
        assert verify_reduction_identity(4, 21, 1, F(4, 21)) == (True, True)

    def test_two_sided_agreement_samples(self):
        assert verify_reduction_identity(4, 21, 1, 1) == (True, True)
        assert verify_reduction_identity(4, 21, 1, 0) == (False, False)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            verify_reduction_identity(1, 1, 1, 0)   # delta == areaV
        with pytest.raises(DomainError):
            verify_reduction_identity(1, 2, 0, 0)   # areaV == 0
        with pytest.raises(DomainError):
            verify_reduction_identity(1, -2, -3, 0)


@settings(max_examples=120, deadline=None)
@given(ws, zs)
def test_closed_form_matches_polygon_geometry(w, z):
    assert cen_G_formula(w, z) == area_and_centroid(body_G(w, z))[1].y


@settings(max_examples=120, deadline=None)
@given(ws, zs)
def test_margin_pair_sides_agree(w, z):
    lhs, rhs = margin_pair(w, z)
    assert lhs == rhs
    assert lhs <= 0  # the bound itself, exactly, on the whole rectangle


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-50, max_value=50, max_denominator=20),
       st.fractions(min_value=1, max_value=40, max_denominator=10),
       st.fractions(min_value=1, max_value=30, max_denominator=10),
       st.fractions(min_value=-20, max_value=20, max_denominator=12))
def test_reduction_identity_sides_agree(nu, delta_extra, area_v, cen_v):
    delta = area_v + delta_extra
    left, right = verify_reduction_identity(nu, delta, area_v, cen_v)
    assert left == right


# Reference for cen_G_formula: the closed form N_disp / (3 w B) as it was
# evaluated before, through BiPoly.__call__ and three Fraction operations.

def ref_cen_G_formula(w, z):
    p = polys()
    if all(isinstance(v, (int, Fraction)) for v in (w, z)):
        wf, zf = F(w), F(z)
        if wf <= 0:
            raise DomainError("cap height w must be positive")
        den = 3 * wf * p["B"](wf, zf)
        assert den > 0
        return p["N_disp"](wf, zf) / den
    wf, zf = float(w), float(z)
    if wf <= 0:
        raise DomainError("cap height w must be positive")
    den = 3.0 * wf * p["B"](wf, zf)
    assert den > 0
    return p["N_disp"](wf, zf) / den


def value_or_error(fn, *args):
    try:
        got = fn(*args)
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        # pytest rewrites the reference's assert to carry a message
        return "raises", type(e), \
            None if isinstance(e, AssertionError) else str(e)
    return got, type(got)


def big_rationals(lo, hi):
    """Rationals in [lo, hi] with denominators of up to 30 digits."""
    return st.integers(1, 10 ** 30).flatmap(
        lambda d: st.integers(lo * d, hi * d).map(lambda k: F(k, d)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(big_rationals(-1, 3), st.integers(-2, 3),
                 st.sampled_from([0, 1, 2, F(0), F(1), F(2), 1.0, 2.0]),
                 st.floats(-1, 3)),
       st.one_of(big_rationals(-2, 2), st.integers(-3, 3),
                 st.sampled_from([0, 1, F(0), F(1), 0.0, 1.0]),
                 st.floats(-2, 2)))
def test_cen_G_formula_matches_reference(w, z):
    assert value_or_error(cen_G_formula, w, z) \
        == value_or_error(ref_cen_G_formula, w, z)


# References for dcenG_dz, wedge_centroid_height and
# pentagon_centroid_height: their exact and float branches as they were
# written before one coercion helper replaced them.

def _ref_exact(*vals):
    return all(isinstance(v, (int, Fraction)) for v in vals)


def ref_dcenG_dz(w, z):
    p = polys()
    if _ref_exact(w, z):
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


def ref_wedge_centroid_height(w, z):
    if _ref_exact(w, z):
        wf, zf = F(w), F(z)
        if wf <= 0:
            raise DomainError("cap height w must be positive")
        return (zf * (2 - 2 * wf) + 2) / (3 * wf)
    wf, zf = float(w), float(z)
    if wf <= 0:
        raise DomainError("cap height w must be positive")
    return (zf * (2.0 - 2.0 * wf) + 2.0) / (3.0 * wf)


def ref_pentagon_centroid_height(w):
    p = polys()
    if _ref_exact(w):
        wf = F(w)
        if wf <= 0:
            raise DomainError("cap height w must be positive")
        return p["pentagon_P"](wf) / (3 * wf * p["pentagon_B"](wf))
    wf = float(w)
    if wf <= 0:
        raise DomainError("cap height w must be positive")
    return p["pentagon_P"](wf) / (3.0 * wf * p["pentagon_B"](wf))


cap_heights = st.one_of(big_rationals(-1, 3), st.integers(-2, 3),
                        st.sampled_from([0, 1, 2, F(0), F(1), F(2), 1.0,
                                         2.0, True]),
                        st.floats(-1, 3))
cap_params = st.one_of(big_rationals(-2, 2), st.integers(-3, 3),
                       st.sampled_from([0, 1, F(0), F(1), 0.0, 1.0]),
                       st.floats(-2, 2))


@settings(max_examples=300, deadline=None)
@given(cap_heights, cap_params)
def test_dcenG_dz_matches_reference(w, z):
    want = value_or_error(ref_dcenG_dz, w, z)
    if want[0] != "raises" and isinstance(want[0][0], float) \
            and not polys()["B"](float(w), float(z)) > 0:
        # outside the family (B <= 0) the float path now keeps the exact
        # path's assertion, as cen_G_formula does in both
        want = "raises", AssertionError, None
    assert value_or_error(dcenG_dz, w, z) == want
    if want[0] != "raises":
        assert type(dcenG_dz(w, z)[0]) is type(want[0][0])


@settings(max_examples=300, deadline=None)
@given(cap_heights, cap_params)
def test_wedge_centroid_height_matches_reference(w, z):
    assert value_or_error(wedge_centroid_height, w, z) \
        == value_or_error(ref_wedge_centroid_height, w, z)


@settings(max_examples=300, deadline=None)
@given(cap_heights)
def test_pentagon_centroid_height_matches_reference(w):
    assert value_or_error(pentagon_centroid_height, w) \
        == value_or_error(ref_pentagon_centroid_height, w)
