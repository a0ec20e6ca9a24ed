"""Quadrature rules and sphere areas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocap.quadrature import QuadratureSpec, gauss_legendre, unit_sphere_area


class TestGaussLegendre:
    def test_integrates_polynomials_exactly(self):
        x, w = gauss_legendre(8, -1.0, 2.0)
        for k in range(15):  # order-8 rule is exact through degree 15
            exact = (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert np.dot(w, x ** k) == pytest.approx(exact, rel=1e-13)

    def test_weights_positive_and_sum_to_length(self):
        x, w = gauss_legendre(32, 0.0, 3.0)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(3.0, rel=1e-14)
        assert np.all((x > 0.0) & (x < 3.0))

    def test_spec_enforces_minimum_order(self):
        with pytest.raises(ValueError):
            QuadratureSpec(4)

    def test_refined_doubles_order(self):
        assert QuadratureSpec(16).refined().order == 32

    @pytest.mark.parametrize("order, lo, hi", [(4, 0.0, 1.0), (8, -0.3, 0.0),
                                               (128, 0.0, 2.1), (256, 1.0, 1.5)])
    def test_matches_leggauss_bit_for_bit(self, order, lo, hi):
        x, w = np.polynomial.legendre.leggauss(order)
        half = 0.5 * (hi - lo)
        for _ in range(2):  # computed, then memoized
            got_x, got_w = gauss_legendre(order, lo, hi)
            assert np.array_equal(got_x, lo + half * (x + 1.0))
            assert np.array_equal(got_w, half * w)

    def test_returned_arrays_do_not_alias_the_memo(self):
        x, w = gauss_legendre(16, 0.0, 2.0)
        x_again, w_again = x.copy(), w.copy()
        x[:] = -1.0
        w *= 3.0
        x2, w2 = gauss_legendre(16, 0.0, 2.0)
        assert np.array_equal(x2, x_again)
        assert np.array_equal(w2, w_again)

    @given(st.integers(8, 64))
    @settings(max_examples=20, deadline=None)
    def test_smooth_integrand_convergence(self, order):
        x, w = gauss_legendre(order, 0.0, math.pi)
        assert np.dot(w, np.sin(x)) == pytest.approx(2.0, rel=1e-10)


class TestUnitSphereArea:
    def test_known_values(self):
        assert unit_sphere_area(0) == 2.0
        assert unit_sphere_area(1) == pytest.approx(2.0 * math.pi)
        assert unit_sphere_area(2) == pytest.approx(4.0 * math.pi)
        assert unit_sphere_area(3) == pytest.approx(2.0 * math.pi ** 2)

    def test_recurrence(self):
        # A_{k+1} relates to A_{k-1} through 2*pi/k
        for k in range(1, 8):
            assert unit_sphere_area(k + 1) == pytest.approx(
                2.0 * math.pi * unit_sphere_area(k - 1) / k, rel=1e-12)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            unit_sphere_area(-1)
