"""Family constructors, perturbations and the angle-targeted solver."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horocap.families import (AmplitudeError, CapKind, CapSpec,
                              ConstructionError, InfeasibleError,
                              PerturbationSpec, build, bump_jet, perturb,
                              solve_for_angle)
from horocap.quadrature import QuadratureSpec


def kappas(m):
    """The principal curvatures of a Meridian: kappa_m, then kappa_a."""
    return np.array([m.kappa_m, m.kappa_a])


class TestCapSpec:
    def test_tangent_sphere_rejected(self):
        with pytest.raises(ConstructionError):
            CapSpec(kind=CapKind.SPHERE_CAP, a=2.0, r=1.0)

    def test_disjoint_sphere_rejected(self):
        with pytest.raises(ConstructionError):
            CapSpec(kind=CapKind.SPHERE_CAP, a=5.0, r=1.0)

    def test_equidistant_needs_center_inside_radius(self):
        with pytest.raises(ConstructionError):
            CapSpec(kind=CapKind.EQUIDISTANT_SPHERE_CAP, a=3.0, r=2.5)

    def test_checked_when_constructed(self):
        with pytest.raises(ConstructionError):
            CapSpec(CapKind.SPHERE_CAP, a=9.0, r=0.5)
        spec = CapSpec(CapKind.SPHERE_CAP, a=1.0, r=0.5)
        with pytest.raises(ConstructionError):
            replace(spec, a=9.0)
        for support in ((0.0, 0.9), (0.2,), (0.45, 0.46)):
            with pytest.raises(ConstructionError):
                PerturbationSpec(0.01, support)

    def test_dimension_lower_bound(self):
        with pytest.raises(ConstructionError):
            CapSpec(kind=CapKind.SPHERE_CAP, n=1)


class TestBuild:
    def test_support_centered_cap_is_orthogonal_with_positive_H(self):
        S = build(CapSpec(kind=CapKind.SPHERE_CAP, n=2, a=1.0, r=0.5))
        assert S.boundary_frame_at().theta == pytest.approx(math.pi / 2,
                                                            abs=1e-12)
        assert S.shape_at(0.5 * S.t1).H == pytest.approx(4.0, abs=1e-12)

    def test_horosphere_type_member(self):
        S = build(CapSpec(kind=CapKind.SPHERE_CAP, a=0.8, r=0.8))
        np.testing.assert_allclose(kappas(S.shape_at(0.3 * S.t1)), 1.0,
                                   atol=1e-12)

    def test_totally_geodesic_member(self, geodesic_hemisphere):
        for t in np.linspace(0.0, geodesic_hemisphere.t1, 9):
            k = kappas(geodesic_hemisphere.shape_at(t))
            assert np.max(np.abs(k)) < 1e-10

    def test_every_member_is_umbilical(self, tilted_cap, cap_3d,
                                       equidistant_cap):
        for S in (tilted_cap, cap_3d, equidistant_cap):
            for t in np.linspace(0.0, S.t1, 13):
                assert np.ptp(kappas(S.shape_at(t))) < 1e-10

    def test_tilted_plane_curvature_magnitude(self):
        # plane tilted by beta is equidistant with |curvature| = |cos(beta)|
        # in the meridian and in every translation direction
        for n, beta in ((2, math.pi / 3), (3, 1.0), (3, 2.2)):
            S = build(CapSpec(kind=CapKind.TILTED_PLANE_CAP, n=n, beta=beta,
                              extent=1.0))
            for t in (0.0, 0.3, 1.0):
                m = S.shape_at(t)
                np.testing.assert_allclose(np.abs(kappas(m)),
                                           abs(math.cos(beta)), atol=1e-12)
                assert m.H > 0


class TestBump:
    def test_compact_support_with_hard_zero(self):
        assert bump_jet(0.05, 0.1, 0.9) == (0.0, 0.0, 0.0)
        assert bump_jet(0.95, 0.1, 0.9) == (0.0, 0.0, 0.0)
        b, db, d2b = bump_jet(0.5, 0.1, 0.9)
        assert b == pytest.approx(1.0, abs=1e-12)  # peak value
        assert abs(db) < 1e-10  # symmetric peak

    def test_derivative_consistency(self):
        h = 1e-6
        for t in (0.3, 0.55, 0.8):
            b0, db, d2b = bump_jet(t, 0.1, 0.9)
            bp, *_ = bump_jet(t + h, 0.1, 0.9)
            bm, *_ = bump_jet(t - h, 0.1, 0.9)
            assert db == pytest.approx((bp - bm) / (2 * h), rel=1e-5, abs=1e-7)
            assert d2b == pytest.approx((bp - 2 * b0 + bm) / h ** 2,
                                        rel=1e-3, abs=1e-3)


class TestPerturb:
    def test_zero_amplitude_returns_base(self, ortho_cap):
        assert perturb(ortho_cap, PerturbationSpec(amplitude=0.0)) is ortho_cap

    def test_breaks_constant_mean_curvature(self, ortho_cap, bumped_cap):
        H_base = ortho_cap.shape_at(0.5 * ortho_cap.t1).H
        spread = max(abs(bumped_cap.shape_at(t).H - H_base)
                     for t in np.linspace(0.0, bumped_cap.t1, 33))
        assert spread > 1e-4

    def test_curvature_spread_large_at_bump(self, bumped_cap):
        spread = max(np.ptp(kappas(bumped_cap.shape_at(t)))
                     for t in np.linspace(0.0, bumped_cap.t1, 33))
        assert spread > 1e-3

    def test_boundary_collar_bit_identical(self, ortho_cap, bumped_cap):
        bf0 = ortho_cap.boundary_frame_at()
        bf1 = bumped_cap.boundary_frame_at()
        assert bf1.theta == bf0.theta
        assert bf1.hmumu == bf0.hmumu
        assert bumped_cap.Hhat() == ortho_cap.Hhat()
        np.testing.assert_array_equal(bf1.conormal, bf0.conormal)
        np.testing.assert_array_equal(bf1.nubar, bf0.nubar)

    def test_collar_jet_values_identical(self, ortho_cap, bumped_cap):
        # inside the 10% collars the profile jets agree exactly
        for t in (0.02 * ortho_cap.t1, 0.97 * ortho_cap.t1):
            assert bumped_cap.profile_jet(t) == ortho_cap.profile_jet(t)

    def test_excessive_amplitude_reports_feasible_value(self, ortho_cap):
        # a large inward bump drives the modulated radius negative
        with pytest.raises(AmplitudeError) as exc:
            perturb(ortho_cap, PerturbationSpec(amplitude=-50.0),
                    QuadratureSpec(32))
        assert -1.0 < exc.value.max_feasible <= 0.0

    def test_support_clearance_enforced(self, ortho_cap):
        with pytest.raises(ValueError):
            perturb(ortho_cap, PerturbationSpec(amplitude=1e-2,
                                                support=(0.01, 0.9)))


class TestSolveForAngle:
    def test_orthogonal_sphere_is_support_centered(self):
        S = solve_for_angle(CapKind.SPHERE_CAP, math.pi / 2, r=0.5)
        assert S.a == pytest.approx(1.0, abs=1e-10)

    @given(st.floats(0.4, math.pi - 0.4), st.floats(0.3, 1.5))
    @settings(max_examples=25, deadline=None)
    def test_round_trips_the_angle(self, theta, r):
        # radii above 1 cannot reach angles below arccos(1/r) (the
        # positive-H orientation flips at center height zero)
        assume(r <= 1.0 or theta > math.acos(1.0 / r) + 1e-6)
        # a fresh build of the returned member's (a, r) meets the angle
        S = solve_for_angle(CapKind.SPHERE_CAP, theta, r=r)
        spec = CapSpec(CapKind.SPHERE_CAP, a=S.a, r=S.r)
        assert build(spec).boundary_frame_at().theta == pytest.approx(
            theta, abs=1e-10)

    def test_unreachable_angle_for_large_radius(self):
        with pytest.raises(InfeasibleError, match="contact angles"):
            solve_for_angle(CapKind.SPHERE_CAP, 0.5, r=1.5)

    @pytest.mark.parametrize("kind", [CapKind.VERTICAL_PLANE_DISK,
                                      CapKind.TILTED_PLANE_CAP])
    def test_plane_kinds_rejected(self, kind):
        with pytest.raises(InfeasibleError, match="not a sphere family"):
            solve_for_angle(kind, math.pi / 2, r=0.5)

    def test_out_of_range_angle_rejected(self):
        with pytest.raises(InfeasibleError):
            solve_for_angle(CapKind.SPHERE_CAP, 0.0, r=0.5)
        with pytest.raises(InfeasibleError):
            solve_for_angle(CapKind.SPHERE_CAP, math.pi, r=0.5)
