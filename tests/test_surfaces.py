"""Shape (the Meridian), boundary frames and integration on swept surfaces."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocap.families import CapKind, CapSpec, build
from horocap.quadrature import QuadratureSpec
from horocap.surfaces import (EvaluationError, GeometryError, GridSurface,
                              ImmersionError, Meridian, ProfileSurface,
                              SupportError, check_immersion, evaluate,
                              integrate_dM, integrate_M, node_set)


def sphere_cap(n=2, a=1.0, r=0.5):
    return build(CapSpec(kind=CapKind.SPHERE_CAP, n=n, a=a, r=r))


def plane(n, beta=math.pi / 2, extent=1.0):
    return build(CapSpec(kind=CapKind.TILTED_PLANE_CAP, n=n, beta=beta,
                         extent=extent))


PLANE_CASES = [(2, math.pi / 2, 1.0), (3, math.pi / 2, 0.7), (2, 1.0, 1.3),
               (3, 1.0, 1.0), (3, 2.2, 0.8)]


def kappas(m):
    """The principal curvatures of a Meridian: kappa_m, then kappa_a."""
    return np.array([m.kappa_m, m.kappa_a])


# the (radial, vertical) pair of the outward support normal Nbar = -E_d
SUPPORT_NORMAL = np.array([0.0, -1.0])


def euclidean(n, radial, vertical):
    """The Euclidean (n+1)-vector of a (radial, vertical) pair."""
    v = np.zeros(n + 1)
    v[0], v[-1] = radial, vertical
    return v


def fd_normal_transport_curvature(S, t, delta=1e-6):
    """Independent meridian-curvature oracle.

    Transports the unit normal along the meridian by central differences
    and applies the conformal connection by hand:
    kappa = g(nabla_T nu, T) / g(T, T) with T the chart tangent.
    """
    def nu(tt):
        return euclidean(S.n, *S.shape_at(tt).normal)

    rho, z, dr, dz, *_ = S.profile_jet(t)
    x = np.zeros(S.n + 1)
    x[0], x[-1] = rho, z
    w = x[-1]
    Y = np.zeros_like(x)
    Y[0], Y[-1] = dr, dz
    nuv = nu(t)
    dnu = (nu(t + delta) - nu(t - delta)) / (2.0 * delta)
    dlnw = np.zeros_like(x)
    dlnw[-1] = 1.0 / w
    nab = (dnu - (Y[-1] / w) * nuv - (nuv[-1] / w) * Y
           + np.dot(Y, nuv) * dlnw)
    gYY = np.dot(Y, Y) / (w * w)
    return (np.dot(nab, Y) / (w * w)) / gYY


class TestShapeData:
    def test_horosphere_type_cap_has_unit_curvatures(self):
        S = sphere_cap(a=0.7, r=0.7)
        for t in np.linspace(0.0, S.t1, 9):
            np.testing.assert_allclose(kappas(S.shape_at(t)), 1.0,
                                       atol=1e-12)

    def test_vertical_plane_is_totally_geodesic(self, vertical_plane):
        for S in (vertical_plane, plane(3)):
            for t in (0.0, 0.3 * S.t1, S.t1):
                m = S.shape_at(t)
                assert abs(m.H) < 1e-12
                # h = diag(h00, kappa_a B^2, ...)
                np.testing.assert_allclose([m.h00, m.kappa_a * m.B ** 2], 0.0,
                                           atol=1e-12)
                # |kappa| = |cos(beta)| = 0 in both directions
                np.testing.assert_allclose(kappas(m), 0.0, atol=1e-12)

    def test_geodesic_sphere_curvature_value(self):
        S = sphere_cap(a=2.0, r=1.5)
        m = S.shape_at(0.4 * S.t1)
        np.testing.assert_allclose(kappas(m), 2.0 / 1.5, atol=1e-12)
        assert m.H == pytest.approx(2 * 2.0 / 1.5, abs=1e-12)

    def test_meridian_curvature_against_normal_transport_oracle(self):
        for spec in [(2, 2.0, 1.5), (2, 0.6, 0.7), (3, 1.0, 0.5)]:
            S = sphere_cap(*spec)
            for t in (0.3 * S.t1, 0.7 * S.t1):
                kappa_oracle = fd_normal_transport_curvature(S, t)
                m = S.shape_at(t)
                kappa_m = m.h00 / m.g00
                assert kappa_m == pytest.approx(kappa_oracle, abs=1e-6)

    def test_mean_curvature_positive_orientation(self):
        for spec in [(2, 1.0, 0.5), (2, 0.6, 0.7), (3, 2.0, 1.5)]:
            S = sphere_cap(*spec)
            assert S.shape_at(0.5 * S.t1).H > 0

    @given(st.floats(0.2, 3.0), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_sphere_cap_curvature_is_center_height_over_radius(self, r, frac):
        # choose a so the cut is transversal: |1 - a| < r
        a = 1.0 - r * (2.0 * frac - 1.0) * 0.99
        S = sphere_cap(a=a, r=r)
        # the positive-H orientation makes the curvature |a|/r
        np.testing.assert_allclose(kappas(S.shape_at(0.5 * S.t1)), abs(a) / r,
                                   atol=1e-10)


class TestBoundaryFrame:
    def test_support_centered_sphere_meets_orthogonally(self):
        for r in (0.3, 0.5, 0.9):
            bf = sphere_cap(a=1.0, r=r).boundary_frame_at()
            assert bf.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_vertical_plane_orthogonal_with_flat_boundary(self, vertical_plane):
        bf = vertical_plane.boundary_frame_at()
        assert bf.theta == pytest.approx(math.pi / 2, abs=1e-10)
        assert abs(vertical_plane.Hhat()) < 1e-6
        assert abs(bf.hmumu) < 1e-10

    def test_contact_angle_from_euclidean_intersection(self):
        """Conformality: the derived angle matches arccos((1-a)/r)."""
        for a, r in [(0.6, 0.7), (1.4, 0.9), (2.0, 1.5)]:
            bf = sphere_cap(a=a, r=r).boundary_frame_at()
            assert bf.theta == pytest.approx(math.acos((1 - a) / r),
                                             abs=1e-12)

    def test_plane_boundary_is_a_flat_cube(self):
        """The boundary of a plane piece, of either kind, is a cube of side
        extent in a hyperplane of the flat support: measure extent^(n-1),
        Hhat = 0."""
        cases = [(plane(n, beta, extent), n, extent)
                 for n, beta, extent in PLANE_CASES]
        cases += [(build(CapSpec(kind=CapKind.VERTICAL_PLANE_DISK, n=n,
                                 extent=0.8)), n, 0.8) for n in (2, 3)]
        for S, n, extent in cases:
            assert integrate_dM(S, 1.0) == pytest.approx(
                extent ** (n - 1), rel=1e-15)
            assert S.Hhat() == 0.0

    @pytest.mark.parametrize("kind,a,r", [
        (CapKind.SPHERE_CAP, 0.6, 0.7), (CapKind.SPHERE_CAP, 1.4, 0.9),
        (CapKind.EQUIDISTANT_SPHERE_CAP, -0.5, 2.0),
        (CapKind.EQUIDISTANT_SPHERE_CAP, 0.0, 1.5)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cap_boundary_is_a_flat_sphere_of_closed_form_radius(
            self, kind, a, r, n):
        """The sphere of center height a and radius r cuts the support in
        the flat (n-1)-sphere of radius rho1 = sqrt(r^2 - (1-a)^2): its
        mean curvature is (n-1)/rho1, its normal in the support is
        horizontal and unit, and its measure is |S^(n-1)| rho1^(n-1), with
        |S^(n-1)| = 2 pi^(n/2) / Gamma(n/2).  Every expected value comes
        from (a, r) alone."""
        S = build(CapSpec(kind=kind, n=n, a=a, r=r))
        rho1 = math.sqrt(r * r - (1.0 - a) ** 2)
        assert abs(S.Hhat()) == pytest.approx((n - 1) / rho1, rel=1e-13)
        nubar = S.boundary_frame_at().nubar  # (radial, vertical)
        assert abs(nubar[1]) < 1e-14
        assert np.linalg.norm(nubar) == pytest.approx(1.0, rel=1e-14)
        sphere = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
        assert integrate_dM(S, 1.0) == pytest.approx(sphere * rho1 ** (n - 1),
                                                     rel=1e-13)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_boundary_value_raises(self, ortho_cap, vertical_plane,
                                              value):
        for S in (ortho_cap, vertical_plane):
            with pytest.raises(EvaluationError, match="boundary integrand"):
                integrate_dM(S, value)

    def test_angle_constant_along_grid_boundary(self, tilted_plane):
        """The boundary is one translation orbit with one frame (the frame
        against per-point references along the orbit: test_array_paths)."""
        bf = tilted_plane.boundary_frame_at()
        assert tilted_plane.boundary_frame_at() is bf
        # positive-H orientation: a plane tilted by beta meets at pi - beta
        assert bf.theta == pytest.approx(math.pi - tilted_plane.beta,
                                         abs=1e-10)

    @pytest.mark.parametrize("name", ["tilted_cap", "bumped_cap",
                                      "tilted_plane"])
    def test_frame_is_the_meridian_at_t1(self, name, request):
        """The frame is the Meridian at t1, built with the orientation
        probe by one profile_jet call on (t1/2, t1) and kept: a second
        call returns the same object, and the sign costs no call."""
        S = copy.copy(request.getfixturevalue(name))
        for cached in ("_sign", "_frame", "_node_sets", "boundary_measure"):
            S.__dict__.pop(cached, None)  # a copy without the cached geometry
        calls, jet = [], S.profile_jet
        S.profile_jet = lambda t, **p: (calls.append(t), jet(t, **p))[1]
        frame = S.boundary_frame_at()
        assert S.boundary_frame_at() is frame
        S.orientation_sign()
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], [[0.5 * S.t1, S.t1]])
        assert isinstance(frame, Meridian)
        want = S.meridian(S.t1)
        for field in Meridian._fields:
            assert getattr(frame, field) == getattr(want, field), field

    def test_frame_reconstruction_identities(self, tilted_cap, tilted_plane):
        """Nbar = sin(theta) mu - cos(theta) nu and the inverse relations."""
        frames = [tilted_cap.boundary_frame_at(),
                  tilted_plane.boundary_frame_at()]
        for bf in frames:
            st_, ct = math.sin(bf.theta), math.cos(bf.theta)
            mu, nu, nubar = map(np.array, (bf.conormal, bf.normal, bf.nubar))
            Nbar = SUPPORT_NORMAL
            np.testing.assert_allclose(Nbar, st_ * mu - ct * nu, atol=1e-10)
            np.testing.assert_allclose(nubar, ct * mu + st_ * nu, atol=1e-10)
            # inverse: mu = sin(theta) Nbar + cos(theta) nubar
            np.testing.assert_allclose(mu, st_ * Nbar + ct * nubar,
                                       atol=1e-10)

    def test_position_field_pairing_with_support_normal(self, tilted_cap):
        """g(x, Nbar) = -1 at every boundary point of the support."""
        bf = tilted_cap.boundary_frame_at()
        x, w = np.array([bf.rho, bf.w]), bf.w
        assert np.dot(x, SUPPORT_NORMAL) / (w * w) == pytest.approx(
            -1.0, abs=1e-12)

    def test_boundary_off_support_rejected(self):
        # a valid sphere profile truncated before it reaches the support;
        # a failed frame is not kept, so every call raises
        bad = ProfileSurface(2, 0.5 * math.acos(0.0), lambda t: (
            0.5 * np.sin(t), 1.0 + 0.5 * np.cos(t),
            0.5 * np.cos(t), -0.5 * np.sin(t),
            -0.5 * np.sin(t), -0.5 * np.cos(t)))
        for _ in range(2):
            with pytest.raises(SupportError):
                bad.boundary_frame_at()

    @pytest.mark.parametrize("surface", ["cap", "plane"])
    def test_boundary_integral_off_support_rejected(self, surface):
        """Both sweeps check the support before a boundary integral: a
        vertical line ending at height 1.5, swept by rotations or by
        translations, has no boundary on the horosphere."""
        def jet(t):  # x(t) = (1, 1 + t) on [0, 0.5]
            t = np.asarray(t, dtype=float)
            return (1.0 + 0.0 * t, 1.0 + t, 0.0 * t, 1.0 + 0.0 * t,
                    0.0 * t, 0.0 * t)
        S = (GridSurface(2, 0.5, jet, 1.0) if surface == "plane"
             else ProfileSurface(2, 0.5, jet))
        for _ in range(2):
            with pytest.raises(SupportError):
                integrate_dM(S, 1.0)


def line_jet(t, c):
    """rho = t, z = 1 + c (1 - t) on [0, 1]: it leaves the half-space
    where c < -1."""
    t = np.asarray(t, dtype=float)
    one, zero = np.ones_like(t), np.zeros_like(t)
    return t, 1.0 + c * (1.0 - t), one, -c * one, zero, zero


class TestEvaluate:
    RULES = (QuadratureSpec(16), QuadratureSpec(32))

    def test_stacked_group_matches_each_surface_alone(self):
        """One stacked evaluation of a family gives each surface the sign,
        frame and node sets it gets alone, field for field, and that
        ``meridian`` gives under the sign (where the stacked call negates
        kappa_m and kappa_a), under either sign: the n = 2 sphere cap
        (a 0.6, r 0.7) reads -1 and the n = 2 equidistant cap (a -0.3,
        r 1.5) reads +1."""
        specs = [CapSpec(CapKind.SPHERE_CAP, n=2, a=0.6, r=0.7),
                 CapSpec(CapKind.EQUIDISTANT_SPHERE_CAP, n=2, a=-0.3, r=1.5)]
        group = [build(spec) for spec in specs]
        calls, jet = [], group[0].profile_jet
        group[0].profile_jet = lambda t, **p: (calls.append(t),
                                               jet(t, **p))[1]
        evaluate(group, self.RULES)
        assert [np.shape(t) for t in calls] == [(2, 2 + 16 + 32)]
        for S, spec, sign in zip(group, specs, (-1, 1)):
            alone = build(spec)
            assert S.orientation_sign() == alone.orientation_sign() == sign
            direct = S.meridian(S.t1)
            for field in Meridian._fields:
                got = getattr(S.boundary_frame_at(), field)
                want = getattr(alone.boundary_frame_at(), field)
                assert type(got) is type(want) and got == want, field
                assert got == getattr(direct, field), field
            for Q in self.RULES:
                ns, lone = node_set(S, Q), node_set(alone, Q)
                for name in ("nodes", "gauss_weights", "weights"):
                    np.testing.assert_array_equal(getattr(ns, name),
                                                  getattr(lone, name))
                direct = S.meridian(ns.nodes)
                for field in Meridian._fields:
                    for want in (lone.meridian, direct):
                        np.testing.assert_array_equal(
                            getattr(ns.meridian, field), getattr(want, field),
                            err_msg=field)
        # the group's, then the first surface's direct ones: no read of its
        # sign, frame or node sets made one
        assert len(calls) == 1 + 1 + len(self.RULES)

    def test_group_whose_call_raises_falls_back_to_each_surface(self):
        """A family whose stacked call raises is evaluated surface by
        surface: the good surface keeps its node sets, and only the one
        that leaves the half-space raises, where it is read."""
        good = ProfileSurface(2, 1.0, line_jet, c=0.5)
        bad = ProfileSurface(2, 1.0, line_jet, c=-2.0)
        assert good.family == bad.family
        with pytest.raises(GeometryError):
            node_set(ProfileSurface(2, 1.0, line_jet, c=-2.0), self.RULES[0])
        evaluate([good, bad], self.RULES)
        calls, jet = [], good.profile_jet
        good.profile_jet = lambda t, **p: (calls.append(t), jet(t, **p))[1]
        for Q in self.RULES:
            want = node_set(ProfileSurface(2, 1.0, line_jet, c=0.5), Q)
            np.testing.assert_array_equal(node_set(good, Q).weights,
                                          want.weights)
            with pytest.raises(GeometryError, match="upper half-space"):
                node_set(bad, Q)
        assert good.boundary_frame_at().w == 1.0
        assert calls == []
        with pytest.raises(GeometryError):
            bad.boundary_frame_at()


class TestIntegration:
    def test_zero_integrand(self, ortho_cap, quad):
        assert integrate_M(ortho_cap, 0.0, quad) == 0.0
        assert integrate_dM(ortho_cap, 0.0) == 0.0

    def test_area_self_convergence_on_geodesic_hemisphere(
            self, geodesic_hemisphere, quad):
        a1 = integrate_M(geodesic_hemisphere, 1.0, quad)
        a2 = integrate_M(geodesic_hemisphere, 1.0, quad.refined())
        assert abs(a1 - a2) / abs(a2) < 1e-10

    def test_boundary_is_flat_circle(self, ortho_cap, quad):
        """The support is intrinsically flat: circumference = 2*pi*rho."""
        circ = integrate_dM(ortho_cap, 1.0)
        assert circ == pytest.approx(2.0 * math.pi * 0.5, rel=1e-14)

    def test_bulk_boundary_identity_for_curvature_weighted_position(
            self, tilted_cap, quad):
        """int_M g(x,nu) H dA = int_dM [-cos(theta) g(x,nubar) + sin(theta)]."""
        bf = tilted_cap.boundary_frame_at()
        th = bf.theta
        m = node_set(tilted_cap, quad).meridian
        lhs = integrate_M(tilted_cap, m.gxnu * m.H, quad)
        x = np.array([bf.rho, bf.w])
        gxnubar = float(np.dot(x, bf.nubar) / x[-1] ** 2)
        rhs = integrate_dM(tilted_cap, -math.cos(th) * gxnubar + math.sin(th))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_grid_area_matches_flat_plane(self, vertical_plane, quad_fast):
        # the vertical unit-extent plane piece: area = int 1/z^2 over the strip
        area = integrate_M(vertical_plane, 1.0, quad_fast)
        # embed: z = 1 + u_0, horizontal width 1 -> int_0^1 dz/z^2 = 1/2
        assert area == pytest.approx(0.5, rel=1e-12)
        # tilted by beta, z = 1 + u sin(beta) over u in [0, e], times the
        # cube's e^(n-1): e^(n-1) (1 - (1 + e sin(beta))^(1-n)) /
        # ((n-1) sin(beta))
        for n, beta, e in PLANE_CASES:
            want = (e ** (n - 1) * (1.0 - (1.0 + e * math.sin(beta))
                                    ** (1 - n)) / ((n - 1) * math.sin(beta)))
            got = integrate_M(plane(n, beta, e), 1.0, quad_fast)
            assert got == pytest.approx(want, rel=1e-13)


class TestImmersionChecks:
    def test_degenerate_grid_chart_rejected(self):
        # the translations are independent of the meridian, so a grid chart
        # degenerates only where its meridian tangent vanishes: here at
        # t = 1/4, on (rho, z) = ((t - 1/4)^2, 2 + (t - 1/4)^3)
        def jet(t):
            v = np.asarray(t, dtype=float) - 0.25
            return (v * v, 2.0 + v ** 3, 2.0 * v, 3.0 * v * v, 2.0 + 0.0 * v,
                    6.0 * v)

        for n in (2, 3):
            S = GridSurface(n, 1.0, jet, 1.0)
            S.meridian(np.array([0.2, 0.7]))
            with pytest.raises(ImmersionError, match="tangent vanishes"):
                S.shape_at(0.25)
            with pytest.raises(ImmersionError, match="tangent vanishes"):
                S.meridian(np.array([0.2, 0.25, 0.7]))

    def test_valid_cap_passes(self, ortho_cap):
        check_immersion(ortho_cap, QuadratureSpec(32))

    def test_profile_check_is_one_meridian_evaluation(self):
        """A profile chart's A and B come from its node set of the rule,
        which the commands then integrate on (one jet call on the
        orientation probe, t1 and the nodes), and each failure is a
        ValueError, which the bump bisection of families.perturb catches."""
        calls = []

        def line(slope, height):  # rho = slope t, z = 1 + height (1 - t)
            def jet(t):
                calls.append(t)
                t = np.asarray(t, dtype=float)
                one, zero = np.ones_like(t), np.zeros_like(t)
                return (slope * t, 1.0 + height * (1.0 - t), slope * one,
                        -height * one, zero, zero)
            return ProfileSurface(2, 1.0, jet)

        S = line(1.0, 0.5)
        check_immersion(S, QuadratureSpec(16))
        assert len(calls) == 1 and np.shape(calls[0]) == (1, 2 + 16)
        node_set(S, QuadratureSpec(16))
        S.boundary_frame_at()
        assert len(calls) == 1
        with pytest.raises(ImmersionError, match="degenerate induced metric"):
            check_immersion(line(-1.0, 0.5), QuadratureSpec(16))
        with pytest.raises(GeometryError, match="upper half-space"):
            check_immersion(line(1.0, -2.0), QuadratureSpec(16))
        with pytest.raises(ImmersionError, match="tangent vanishes"):
            check_immersion(line(0.0, 0.0), QuadratureSpec(16))
        assert issubclass(GeometryError, ValueError)
        assert issubclass(ImmersionError, ValueError)

    def test_umbilical_spread_small_everywhere(self, tilted_cap, cap_3d):
        for S in (tilted_cap, cap_3d):
            for t in np.linspace(0.0, S.t1, 17):
                assert np.ptp(kappas(S.shape_at(t))) < 1e-8
