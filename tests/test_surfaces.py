"""Shape data, boundary frames and integration on parametric surfaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocap.families import CapKind, CapSpec, build
from horocap.quadrature import QuadratureSpec
from horocap.surfaces import (GeometryError, GridSurface, ImmersionError,
                              ProfileSurface, SupportError, check_immersion,
                              fields_at, integrate_dM, integrate_M)


def sphere_cap(n=2, a=1.0, r=0.5):
    return build(CapSpec(kind=CapKind.SPHERE_CAP, n=n, a=a, r=r))


def support_normal(bf):
    """Euclidean components of the outward support normal Nbar = -E_d."""
    e = np.zeros_like(bf.conormal)
    e[-1] = -1.0
    return e


def fd_normal_transport_curvature(S, t, delta=1e-6):
    """Independent meridian-curvature oracle.

    Transports the unit normal along the meridian by central differences
    and applies the conformal connection by hand:
    kappa = g(nabla_T nu, T) / g(T, T) with T the chart tangent.
    """
    def nu(tt):
        return S.shape_at(tt).normal

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
            sd = S.shape_at(t)
            np.testing.assert_allclose(sd.principal_curvatures, 1.0,
                                       atol=1e-12)

    def test_vertical_plane_is_totally_geodesic(self, vertical_plane):
        u = np.array([0.3, 0.1])
        sd = vertical_plane.shape_at(u)
        assert abs(sd.H) < 1e-12
        np.testing.assert_allclose(sd.h, 0.0, atol=1e-12)

    def test_geodesic_sphere_curvature_value(self):
        S = sphere_cap(a=2.0, r=1.5)
        sd = S.shape_at(0.4 * S.t1)
        np.testing.assert_allclose(sd.principal_curvatures, 2.0 / 1.5,
                                   atol=1e-12)
        assert sd.H == pytest.approx(2 * 2.0 / 1.5, abs=1e-12)

    def test_meridian_curvature_against_normal_transport_oracle(self):
        for spec in [(2, 2.0, 1.5), (2, 0.6, 0.7), (3, 1.0, 0.5)]:
            S = sphere_cap(*spec)
            for t in (0.3 * S.t1, 0.7 * S.t1):
                kappa_oracle = fd_normal_transport_curvature(S, t)
                sd = S.shape_at(t)
                g_tt = sd.g[0, 0]
                kappa_m = sd.h[0, 0] / g_tt
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
        sd = S.shape_at(0.5 * S.t1)
        # the positive-H orientation makes the curvature |a|/r
        np.testing.assert_allclose(sd.principal_curvatures, abs(a) / r,
                                   atol=1e-10)


class TestBoundaryFrame:
    def test_support_centered_sphere_meets_orthogonally(self):
        for r in (0.3, 0.5, 0.9):
            bf = sphere_cap(a=1.0, r=r).boundary_frame_at()
            assert bf.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_vertical_plane_orthogonal_with_flat_boundary(self, vertical_plane):
        bf = vertical_plane.boundary_frame_at(np.array([0.1]))
        assert bf.theta == pytest.approx(math.pi / 2, abs=1e-10)
        assert abs(bf.Hhat) < 1e-6
        assert abs(bf.hmumu) < 1e-10

    def test_contact_angle_from_euclidean_intersection(self):
        """Conformality: the derived angle matches arccos((1-a)/r)."""
        for a, r in [(0.6, 0.7), (1.4, 0.9), (2.0, 1.5)]:
            bf = sphere_cap(a=a, r=r).boundary_frame_at()
            assert bf.theta == pytest.approx(math.acos((1 - a) / r),
                                             abs=1e-12)

    def test_angle_constant_along_grid_boundary(self, tilted_plane):
        thetas = [tilted_plane.boundary_frame_at(np.array([s])).theta
                  for s in np.linspace(-0.4, 0.4, 32)]
        assert np.std(thetas) < 1e-10
        # positive-H orientation: a plane tilted by beta meets at pi - beta
        assert thetas[0] == pytest.approx(math.pi - tilted_plane.beta,
                                          abs=1e-10)

    def test_frame_reconstruction_identities(self, tilted_cap, tilted_plane):
        """Nbar = sin(theta) mu - cos(theta) nu and the inverse relations."""
        frames = [tilted_cap.boundary_frame_at(),
                  tilted_plane.boundary_frame_at(np.array([0.2]))]
        for bf in frames:
            st_, ct = math.sin(bf.theta), math.cos(bf.theta)
            mu, nu, nubar = bf.conormal, bf.normal, bf.boundary_normal
            Nbar = support_normal(bf)
            np.testing.assert_allclose(Nbar, st_ * mu - ct * nu, atol=1e-10)
            np.testing.assert_allclose(nubar, ct * mu + st_ * nu, atol=1e-10)
            # inverse: mu = sin(theta) Nbar + cos(theta) nubar
            np.testing.assert_allclose(mu, st_ * Nbar + ct * nubar,
                                       atol=1e-10)

    def test_position_field_pairing_with_support_normal(self, tilted_cap):
        """g(x, Nbar) = -1 at every boundary point of the support."""
        bf = tilted_cap.boundary_frame_at()
        x = bf.coords
        w = x[-1]
        assert np.dot(x, support_normal(bf)) / (w * w) == pytest.approx(
            -1.0, abs=1e-12)

    def test_skewed_face_frame_against_graph_curvature(self):
        """Non-orthogonal face tangents: nubar stays normal to the face and
        Hhat is the mean curvature of the face as a graph in the horosphere.

        The face u_0 = 0 of x = (u0 + 0.3 u1^2 + 0.2 u2^2, u1 + u2/2, u2,
        1 + u0) is the graph x_0 = f(x_1, x_2); nubar points along +x_0,
        so Hhat = -div(grad f / sqrt(1 + |grad f|^2)), evaluated by sympy.
        """
        sympy = pytest.importorskip("sympy")

        def embed_jet(u):
            u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
            x = np.stack([u0 + 0.3 * u1 ** 2 + 0.2 * u2 ** 2, u1 + 0.5 * u2,
                          u2, 1.0 + u0], axis=-1)
            J = np.zeros(u.shape[:-1] + (4, 3))
            J[..., 0, :] = np.stack([np.ones_like(u0), 0.6 * u1, 0.4 * u2],
                                    axis=-1)
            J[..., 1, 1], J[..., 1, 2], J[..., 2, 2] = 1.0, 0.5, 1.0
            J[..., 3, 0] = 1.0
            Hess = np.zeros(u.shape[:-1] + (4, 3, 3))
            Hess[..., 0, 1, 1], Hess[..., 0, 2, 2] = 0.6, 0.4
            return x, J, Hess

        S = GridSurface(3, [(0.0, 0.3), (-0.2, 0.3), (-0.2, 0.3)], embed_jet)
        s = np.array([0.1, 0.05])
        bf = S.boundary_frame_at(s)
        T = embed_jet(np.array([0.0, *s]))[1][:, 1:]
        np.testing.assert_allclose(bf.boundary_normal @ T, 0.0, atol=1e-14)
        assert bf.boundary_normal[0] > 0

        x1, x2 = sympy.symbols("x1 x2")
        f = (sympy.Rational(3, 10) * (x1 - x2 / 2) ** 2
             + sympy.Rational(1, 5) * x2 ** 2)
        norm = sympy.sqrt(1 + f.diff(x1) ** 2 + f.diff(x2) ** 2)
        Hg = (f.diff(x1) / norm).diff(x1) + (f.diff(x2) / norm).diff(x2)
        want = -float(Hg.subs({x1: sympy.Rational(1, 8),
                               x2: sympy.Rational(1, 20)}))
        assert bf.Hhat == pytest.approx(want, abs=1e-10)

    def test_boundary_off_support_rejected(self):
        # a valid sphere profile truncated before it reaches the support;
        # a failed frame is not kept, so every call raises
        bad = ProfileSurface(2, 0.5 * math.acos(0.0), lambda t: (
            0.5 * math.sin(t), 1.0 + 0.5 * math.cos(t),
            0.5 * math.cos(t), -0.5 * math.sin(t),
            -0.5 * math.sin(t), -0.5 * math.cos(t)))
        for _ in range(2):
            with pytest.raises(SupportError):
                bad.boundary_frame_at()


class TestIntegration:
    def test_zero_integrand(self, ortho_cap, quad):
        assert integrate_M(ortho_cap, lambda t: 0.0, quad) == 0.0
        assert integrate_dM(ortho_cap, lambda s: 0.0, quad) == 0.0

    def test_area_self_convergence_on_geodesic_hemisphere(
            self, geodesic_hemisphere, quad):
        a1 = integrate_M(geodesic_hemisphere, lambda t: 1.0, quad)
        a2 = integrate_M(geodesic_hemisphere, lambda t: 1.0, quad.refined())
        assert abs(a1 - a2) / abs(a2) < 1e-10

    def test_boundary_is_flat_circle(self, ortho_cap, quad):
        """The support is intrinsically flat: circumference = 2*pi*rho."""
        circ = integrate_dM(ortho_cap, lambda s: 1.0, quad)
        assert circ == pytest.approx(2.0 * math.pi * 0.5, rel=1e-14)

    def test_bulk_boundary_identity_for_curvature_weighted_position(
            self, tilted_cap, quad):
        """int_M g(x,nu) H dA = int_dM [-cos(theta) g(x,nubar) + sin(theta)]."""
        bf = tilted_cap.boundary_frame_at()
        th = bf.theta
        lhs = integrate_M(
            tilted_cap,
            lambda t: fields_at(tilted_cap, t).gxnu
            * fields_at(tilted_cap, t).H, quad)
        x = bf.coords
        gxnubar = float(np.dot(x, bf.boundary_normal) / x[-1] ** 2)
        rhs = integrate_dM(
            tilted_cap, lambda s: -math.cos(th) * gxnubar + math.sin(th),
            quad)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_grid_area_matches_flat_plane(self, vertical_plane, quad_fast):
        # the vertical unit-extent plane piece: area = int 1/z^2 over the strip
        area = integrate_M(vertical_plane, lambda u: 1.0, quad_fast)
        # embed: z = 1 + u_0, horizontal width 1 -> int_0^1 dz/z^2 = 1/2
        assert area == pytest.approx(0.5, rel=1e-12)


class TestImmersionChecks:
    def test_degenerate_grid_chart_rejected(self):
        # two parallel tangent columns: the only two at n = 2 (d = 3), the
        # last two beside an independent first one at n = 3 (d = 4)
        for n in (2, 3):
            d = n + 1
            J = np.zeros((d, n))
            J[0, 0] = 1.0
            J[n - 2, n - 2:] = 1.0  # columns n-2 and n-1 both along E_{n-2}
            Hess = np.zeros((d, n, n))
            origin = np.zeros(d)
            origin[-1] = 1.0
            S = GridSurface(n, [(0.0, 1.0)] * n,
                            lambda u: (origin + J @ u, J, Hess))
            with pytest.raises(ImmersionError, match="not positive definite"):
                S.shape_at(np.full(n, 0.5))

    def test_valid_cap_passes(self, ortho_cap):
        check_immersion(ortho_cap, QuadratureSpec(32))

    def test_profile_check_is_one_meridian_evaluation(self):
        """A profile chart's A and B come from one jet call on the nodes
        (no orientation probe), and each failure is a ValueError, which
        the bump bisection of families.perturb catches."""
        calls = []

        def line(slope, height):  # rho = slope t, z = 1 + height (1 - t)
            def jet(t):
                calls.append(t)
                t = np.asarray(t, dtype=float)
                one, zero = np.ones_like(t), np.zeros_like(t)
                return (slope * t, 1.0 + height * (1.0 - t), slope * one,
                        -height * one, zero, zero)
            return ProfileSurface(2, 1.0, jet)

        check_immersion(line(1.0, 0.5), QuadratureSpec(16))
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
                k = S.shape_at(t).principal_curvatures
                assert np.ptp(k) < 1e-8
