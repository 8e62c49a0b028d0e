from fractions import Fraction

import pytest

from ffzeta.errors import (
    AllCoefficientsVanish,
    InsufficientPadicPrecision,
    PreconditionViolated,
)
from ffzeta.ffpoly import FiniteField, Poly
from ffzeta.newton import (
    NewtonPolygon,
    hensel_root,
    newton_polygon,
    rh_verdict,
    zero_spectrum,
)
from ffzeta.nonarch import LaurentSeries, PadicExponent, SvPoint
from ffzeta.zeta import special_polynomial, zeta_family_infty, zeta_family_vadic

F2 = FiniteField(2)
F3 = FiniteField(3)


class TestHull:
    def test_flat_pair(self):
        np_ = NewtonPolygon([(0, 0), (1, 0)])
        assert np_.vertices == [(0, 0), (1, 0)]
        assert [(s.slope, s.length) for s in np_.segments] == [(Fraction(0), 1)]

    def test_convexity_filter(self):
        # (1,2) lies above the chord; hull is one segment of slope 3/2
        np_ = NewtonPolygon([(0, 0), (1, 2), (2, 3)])
        assert np_.vertices == [(0, 0), (2, 3)]
        seg = np_.segments[0]
        assert seg.slope == Fraction(3, 2) and seg.length == 2

    def test_collinear_point_absorbed(self):
        np_ = NewtonPolygon([(0, 0), (1, 1), (2, 2)])
        assert np_.vertices == [(0, 0), (2, 2)]
        assert np_.segments[0].length == 2

    def test_empty_raises(self):
        with pytest.raises(AllCoefficientsVanish):
            NewtonPolygon([])

    def test_slopes_strictly_increase(self):
        np_ = NewtonPolygon([(0, 0), (1, 1), (2, 4), (3, 9)])
        slopes = [s.slope for s in np_.segments]
        assert slopes == sorted(set(slopes))


class TestProvisional:
    def test_interior_marker_below_hull(self):
        assert NewtonPolygon([(0, 0), (2, 2)], bounds=[(1, 0)]).provisional

    def test_interior_marker_above_hull(self):
        assert not NewtonPolygon([(0, 0), (2, 2)], bounds=[(1, 5)]).provisional

    def test_trailing_markers_shrink_window(self):
        np_ = NewtonPolygon([(0, 0), (1, 10)], bounds=[(2, 12), (3, 12)])
        assert not np_.provisional
        assert np_.vertices == [(0, 0), (1, 10)]

    def test_leading_marker_flags(self):
        assert NewtonPolygon([(1, 0), (2, 1)], bounds=[(0, 64)]).provisional

    def test_exact_zeros_are_harmless(self):
        np_ = NewtonPolygon([(0, 0), (2, 1)], exact_zeros=[1, 3])
        assert not np_.provisional
        assert np_.vertices == [(0, 0), (2, 1)]


class TestSpectrumVerdict:
    def test_single_unit_slope(self):
        sp = zero_spectrum(NewtonPolygon([(0, 0), (1, 1)]))
        assert len(sp.segments) == 1
        seg = sp.segments[0]
        assert seg.zero_valuation == -1 and seg.abs_value_exponent == 1

    def test_slope_zero_abs_one(self):
        sp = zero_spectrum(NewtonPolygon([(0, 0), (1, 0)]))
        assert sp.segments[0].abs_value_exponent == 0

    def test_two_distinct_slopes(self):
        sp = zero_spectrum(NewtonPolygon([(0, 0), (1, 1), (2, 3)]))
        assert [s.slope for s in sp.segments] == [1, 2]
        assert rh_verdict(sp).passed

    def test_verdict_all_simple(self):
        v = rh_verdict(zero_spectrum(NewtonPolygon([(0, 0), (1, 0), (2, 1)])))
        assert v.passed and v.all_simple_beyond == 0 and not v.exceptions

    def test_verdict_lengths_1_3_1(self):
        np_ = NewtonPolygon([(0, 0), (1, 1), (4, 10), (5, 14)])
        v = rh_verdict(zero_spectrum(np_))
        assert not v.passed
        assert len(v.exceptions) == 1 and v.exceptions[0].length == 3
        assert v.all_simple_beyond == 4

    def test_removed_factor_length_two(self):
        # the polygon of 1 - x^-2 f^j alone at a degree-2 prime: two zeroes
        # of the same absolute value
        np_ = NewtonPolygon([(0, 0), (2, 5)])
        v = rh_verdict(zero_spectrum(np_))
        assert not v.passed and v.exceptions[0].length == 2

    def test_provisional_gate(self):
        np_ = NewtonPolygon([(0, 0), (2, 2)], bounds=[(1, 0)])
        with pytest.raises(PreconditionViolated):
            zero_spectrum(np_)
        assert zero_spectrum(np_, accept_provisional=True).provisional

    def test_height_equals_slope_weighted_length(self):
        np_ = NewtonPolygon([(0, 2), (1, 3), (3, 9), (4, 13)])
        total = sum(s.slope * s.length for s in np_.segments)
        assert total == np_.vertices[-1][1] - np_.vertices[0][1]


class TestPolygonFromFamilies:
    def test_special_polynomial_points(self):
        z = special_polynomial(F2, 3)
        np_ = newton_polygon(z)
        # coefficients 1, T^2+T+1, T^2+T: valuations -deg = 0, -2, -2
        assert np_.finite[:3] == [(0, 0), (1, -2), (2, -2)]
        assert not np_.provisional

    def test_zeta_family_slope_one(self):
        y = PadicExponent.from_int(2, -1, 8)
        fam = zeta_family_infty(F2, y, 4, 16)
        np_ = newton_polygon(fam)
        assert not np_.provisional
        assert [(s.slope, s.length) for s in np_.segments] == [(1, 1)]

    def test_vadic_family_polygon(self):
        s = SvPoint.from_int(-2, 2, 3, 4)
        fam = zeta_family_vadic(F3, s, Poly.variable(F3), 4, 16)
        np_ = newton_polygon(fam)
        assert not np_.provisional
        assert all(seg.length == 1 for seg in np_.segments)


class TestHensel:
    def test_constant_plus_z_over_f2(self):
        c0 = LaurentSeries(F2, 0, [1], 16)
        c1 = LaurentSeries(F2, 0, [1], 16)
        root = hensel_root([c0, c1], 0, 8)
        assert root.agrees_with(LaurentSeries(F2, 0, [1], 8))

    def test_linear_pi_coefficient(self):
        c0 = LaurentSeries(F2, 0, [1], 16)
        c1 = LaurentSeries(F2, 1, [1], 16)
        root = hensel_root([c0, c1], 1, 8)
        assert root.start == -1 and root.coeffs[0] == 1

    def test_zeta_family_root_residual(self):
        y = PadicExponent.from_int(2, -1, 8)
        fam = zeta_family_infty(F2, y, 2, 24)
        root = hensel_root(fam.coeffs, 1, 10)
        # substitution oracle
        acc = fam.coeffs[0]
        zpow = root
        for d in range(1, len(fam.coeffs)):
            acc = acc + fam.coeffs[d] * zpow
            zpow = zpow * root
        v = acc.valuation
        assert v is None or v >= 10

    def test_quadratic_family_with_two_unit_slopes(self):
        # P = 1 + pi z + pi^3 z^2 has roots of valuation -1 and -2
        coeffs = [LaurentSeries(F2, 0, [1], 24),
                  LaurentSeries(F2, 1, [1], 24),
                  LaurentSeries(F2, 3, [1], 24)]
        for slope, val in ((1, -1), (2, -2)):
            root = hensel_root(coeffs, slope, 8)
            assert root.start == val

    def test_requires_unit_length(self):
        coeffs = [LaurentSeries(F2, 0, [1], 24),
                  LaurentSeries.zero_to_precision(F2, 24),
                  LaurentSeries(F2, 2, [1], 24)]
        with pytest.raises(PreconditionViolated):
            hensel_root(coeffs, 17, 8)

    def test_requires_precision_headroom(self):
        c0 = LaurentSeries(F2, 0, [1], 6)
        c1 = LaurentSeries(F2, 1, [1], 6)
        with pytest.raises(InsufficientPadicPrecision):
            hensel_root([c0, c1], 1, 8)
