"""Finite-difference cross-checks of the first and second variation."""

import gc
import math
import weakref

import numpy as np
import pytest

from horocap.families import CapKind, CapSpec, build
from horocap.identities import suite
from horocap.quadrature import QuadratureSpec
from horocap.stability import (ScalarField, energy_second_difference,
                               fd_variation_check, phi_test, quadratic_form,
                               umbilicity_deficit, _grid, _variation)

FUNCTIONALS = ("AREA", "WETTING_AREA", "VOLUME", "ENERGY")


def smooth_field(S, resolution=64, coeffs=(0.15, -0.1, 0.08)):
    g = _grid(S, resolution)
    vals = sum(c * np.cos(m * math.pi * g.nodes / S.t1)
               for m, c in enumerate(coeffs))
    return ScalarField(S, vals)


def rel_err(chk):
    return abs(chk.fd_value - chk.formula_value) / max(
        abs(chk.formula_value), 1e-12)


class TestFirstVariation:
    def test_volume_rate_of_unit_normal_speed_is_area(self, tilted_cap):
        """phi = 1 moves every point at unit normal speed: V'(0) = area."""
        phi = ScalarField.from_function(tilted_cap, lambda t: 1.0, 64)
        chk = fd_variation_check(tilted_cap, phi, "VOLUME")
        g = _grid(tilted_cap, 64)
        # the formula integrates with the fine rule, the nodal area with
        # the grid rule; they agree to quadrature accuracy
        assert chk.formula_value == pytest.approx(g.area, rel=1e-6)
        assert rel_err(chk) < 1e-6

    @pytest.mark.parametrize("functional", FUNCTIONALS)
    def test_all_functionals_match_formula(self, tilted_cap, functional):
        phi = smooth_field(tilted_cap)
        chk = fd_variation_check(tilted_cap, phi, functional)
        assert rel_err(chk) < 1e-6, (functional, chk)

    def test_three_dimensional_cap(self, cap_3d):
        phi = smooth_field(cap_3d)
        for functional in FUNCTIONALS:
            chk = fd_variation_check(cap_3d, phi, functional)
            assert rel_err(chk) < 1e-6, (functional, chk)

    def test_unknown_functional_rejected(self, tilted_cap):
        phi = smooth_field(tilted_cap)
        with pytest.raises(ValueError):
            fd_variation_check(tilted_cap, phi, "PERIMETER")

    def test_energy_is_area_minus_cos_theta_wetting(self, tilted_cap):
        phi = smooth_field(tilted_cap)
        ct = math.cos(_grid(tilted_cap, 64).theta)
        e = fd_variation_check(tilted_cap, phi, "ENERGY").formula_value
        a = fd_variation_check(tilted_cap, phi, "AREA").formula_value
        w = fd_variation_check(tilted_cap, phi, "WETTING_AREA").formula_value
        assert e == pytest.approx(a - ct * w, rel=1e-12)

    def test_critical_point_energy_rate_vanishes_for_volume_preserving(
            self, tilted_cap):
        """dE = H * dVol for the constructed variations; at fixed volume
        rate the energy rate reduces to H times the volume rate."""
        phi = smooth_field(tilted_cap)
        g = _grid(tilted_cap, 64)
        dE = fd_variation_check(tilted_cap, phi, "ENERGY").formula_value
        dV = fd_variation_check(tilted_cap, phi, "VOLUME").formula_value
        assert dE == pytest.approx(g.H_mean * dV, rel=1e-8)


class TestSecondVariation:
    def test_matches_quadratic_form_on_caps(self, ortho_cap, tilted_cap):
        for S in (ortho_cap, tilted_cap):
            phi = smooth_field(S)
            g = _grid(S, 64)
            vals = phi.values - phi.integral_M() / g.area
            phi0 = ScalarField(S, vals)
            fd2, qf = energy_second_difference(S, phi0)
            assert abs(fd2 - qf) / max(abs(qf), 1e-12) < 1e-3

    def test_kernel_direction_gives_tiny_second_difference(self, tilted_cap):
        phi, _ = phi_test(tilted_cap, 64)
        fd2, qf = energy_second_difference(tilted_cap, phi)
        # both sides sit at the round-off floor of the energy evaluation
        assert abs(qf) < 1e-6 * phi.norm_sq() + 1e-18
        assert abs(fd2) < 1e-7

    def test_coarse_quadrature_controls_accuracy(self, tilted_cap):
        """The collar ramp needs a fine rule; a crude one degrades accuracy."""
        phi = smooth_field(tilted_cap)
        fine = fd_variation_check(tilted_cap, phi, "AREA",
                                  Q=QuadratureSpec(256))
        crude = fd_variation_check(tilted_cap, phi, "AREA",
                                   Q=QuadratureSpec(16))
        assert rel_err(fine) < 1e-6
        assert rel_err(fine) <= rel_err(crude)


class TestCaching:
    def test_one_variation_per_surface_and_field(self):
        S = build(CapSpec(kind=CapKind.SPHERE_CAP, a=0.6, r=0.7))
        phi = smooth_field(S)
        var = _variation(S, phi)
        # a new field object with the same values shares the cached nodes
        assert _variation(S, ScalarField(S, phi.values.copy())) is var
        assert _variation(S, ScalarField(S, phi.values + 1e-3)) is not var
        Q = QuadratureSpec(64)
        fd_variation_check(S, phi, "AREA", Q=Q)
        fd_variation_check(S, phi, "ENERGY", Q=Q)
        assert list(var._nodes) == [64]

    def test_surfaces_freed_without_the_cyclic_collector(self):
        """Node sets, grids and variations cached on a surface hold it weakly."""
        Q = QuadratureSpec(32)
        cap = build(CapSpec(kind=CapKind.SPHERE_CAP, a=0.6, r=0.7))
        phi = smooth_field(cap, 32)
        fd_variation_check(cap, phi, "AREA", Q=Q)
        suite(cap, Q)
        plane = build(CapSpec(kind=CapKind.TILTED_PLANE_CAP, beta=1.0))
        suite(plane, Q)
        umbilicity_deficit(plane, Q)
        refs = [weakref.ref(cap), weakref.ref(plane)]
        gc.disable()
        try:
            del cap, plane, phi
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
