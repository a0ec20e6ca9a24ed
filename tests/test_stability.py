"""Fields, the Robin coefficient, the quadratic form, spectra and the deficit."""

import numpy as np
import pytest

from horocap import stability
from horocap.families import (CapKind, CapSpec, InfeasibleError, build,
                              solve_for_angle)
from horocap.quadrature import QuadratureSpec
from horocap.stability import (GridError, ScalarField, boundary_cancellation,
                               constrained_spectrum, quadratic_form, robin_q,
                               sphere_mode_multiplicity, umbilicity_deficit,
                               ZERO_MODE_TOL)
from horocap.surfaces import node_set

from conftest import cosine_field, mean_zero

ORBIT_MESSAGE = ("the modes are spherical harmonics of a rotation orbit and "
                 "a translation orbit has none")


def zero_field(S):
    return ScalarField(S, np.zeros_like, np.zeros_like)


class TestDiscreteOperators:
    def test_grid_charts_unsupported(self, vertical_plane):
        with pytest.raises(GridError):
            constrained_spectrum(vertical_plane)

    @pytest.mark.parametrize("name", ["vertical_plane", "tilted_plane"])
    def test_field_needs_a_rotation_orbit(self, name, request):
        S = request.getfixturevalue(name)
        with pytest.raises(GridError, match=f"^{ORBIT_MESSAGE}$"):
            ScalarField(S, np.cos, np.sin)


class TestRobinAndBoundary:
    def test_orthogonal_contact_coefficient(self, ortho_cap):
        # theta = pi/2: csc = 1, cot = 0 -> q = 1
        assert robin_q(ortho_cap) == pytest.approx(1.0, abs=1e-12)


class TestQuadraticForm:
    def test_zero_field(self, ortho_cap):
        assert quadratic_form(ortho_cap, zero_field(ortho_cap)) == 0.0

    def test_annihilates_the_test_function(self, ortho_cap, tilted_cap,
                                           cap_3d, distinguished_fields,
                                           norm_sq):
        """On a cap z phi_test reduces to 0 for every t, so this is Q(0) up
        to rounding; test_dilation_field_reduces_to_its_boundary is the
        check of the form that can fail."""
        for S in (ortho_cap, tilted_cap, cap_3d):
            phi, _ = distinguished_fields(S, 128)
            Q = quadratic_form(S, phi)
            assert abs(Q) < 1e-6 * norm_sq(phi) + 1e-18

    @pytest.mark.parametrize("n,a,r,want", [
        (2, 1.0, 0.5, -3.14159265359), (3, 0.8, 0.6, -6.16079767425),
        (2, 0.6, 0.7, -6.55246467749), (4, 0.0, 1.5, -37.0110165041),
        (6, 1.2, 0.4, 0.0892980768393)])
    def test_dilation_field_reduces_to_its_boundary(self, n, a, r, want,
                                                    norm_sq):
        """On a cap f = g(x, nu) = (r + a cos t)/(a + r cos t) generates
        the dilations, isometries of the half-space, so J f = 0 and Q(f)
        integrates by parts to |dM| f(t1) (f'(t1)/A(t1) - q f(t1)): the
        bulk integrand of quadratic_form against its Robin term, on a
        field where both are large (f is not mean-zero: this says nothing
        about stability).  want is Q(f) at 256 points, to 12 digits; f and
        f' are read in closed form."""
        S = build(CapSpec(CapKind.SPHERE_CAP, n=n, a=a, r=r))

        def f(t):
            return (r + a * np.cos(t)) / (a + r * np.cos(t))

        def df(t):
            return np.sin(t) * (r * r - a * a) / (a + r * np.cos(t)) ** 2
        ns = node_set(S, stability.FIELD_RULE)
        assert np.max(np.abs(ns.meridian.gxnu - f(ns.nodes))) < 1e-14
        phi = ScalarField(S, f, df)
        t1, bf = S.t1, S.boundary_frame_at()
        boundary = S.boundary_measure * f(t1) * (df(t1) / bf.A
                                                 - robin_q(S) * f(t1))
        got = quadratic_form(S, phi)
        assert abs(got - boundary) < 1e-9 * norm_sq(phi)
        assert got == pytest.approx(want, rel=1e-11)
        assert boundary == pytest.approx(want, rel=1e-11)

    def test_nonnegative_on_random_mean_zero_fields(self, tilted_cap, rng,
                                                    norm_sq):
        for _ in range(50):
            phi = mean_zero(cosine_field(tilted_cap, rng.standard_normal(5)))
            assert quadratic_form(tilted_cap, phi) >= -1e-6 * norm_sq(phi)

    def test_surface_mismatch_rejected(self, ortho_cap, tilted_cap):
        with pytest.raises(GridError):
            quadratic_form(tilted_cap, zero_field(ortho_cap))


class TestSpectra:
    def test_volume_constrained_caps_stable(self, ortho_cap, tilted_cap,
                                            cap_3d):
        for S in (ortho_cap, tilted_cap, cap_3d):
            res = constrained_spectrum(S, "VOLUME", 10)
            assert res.eigenvalues[0] >= -1e-6
            assert res.morse_index == 0
            assert np.all(np.diff(res.eigenvalues) >= -1e-12)

    def test_wetting_constrained_geodesic_stable(self, geodesic_hemisphere):
        res = constrained_spectrum(geodesic_hemisphere, "WETTING", 10)
        assert res.eigenvalues[0] >= -1e-6

    def test_unconstrained_never_above_constrained(self, tilted_cap):
        base = constrained_spectrum(tilted_cap, "NONE", 5).eigenvalues[0]
        for c in ("VOLUME", "WETTING"):
            low = constrained_spectrum(tilted_cap, c, 5).eigenvalues[0]
            assert low >= base - 1e-10

    def test_unknown_constraint_rejected(self, tilted_cap):
        with pytest.raises(ValueError):
            constrained_spectrum(tilted_cap, "AREA")

    def test_mode_multiplicities(self):
        # circle: 1, 2, 2, ...; 2-sphere: 1, 3, 5, ...
        assert [sphere_mode_multiplicity(2, l) for l in range(3)] == [1, 2, 2]
        assert [sphere_mode_multiplicity(3, l) for l in range(3)] == [1, 3, 5]

    def test_zero_modes_counted_separately(self, ortho_cap):
        res = constrained_spectrum(ortho_cap, "VOLUME", 8)
        assert res.morse_index + res.zero_modes <= len(res.eigenvalues)
        assert (res.morse_index, res.zero_modes) == (0, ortho_cap.n)

    def test_cached_forms_unchanged_by_solves(self, tilted_cap):
        # the Galerkin matrices are built once per surface and rule, a
        # rule below 2 DEGREE + 16 points shares that rule's, and no solve
        # writes into them
        Q = QuadratureSpec(2 * stability.DEGREE + 16)
        forms = stability._galerkin(tilted_cap, Q)
        before = [{c: K.copy() for c, K in forms[0].items()},
                  forms[1].copy(), forms[2].copy()]
        for c in ("VOLUME", "WETTING", "NONE"):
            constrained_spectrum(tilted_cap, c, 6, Q=Q)
            constrained_spectrum(tilted_cap, c, 6, upto=ZERO_MODE_TOL,
                                 Q=QuadratureSpec(32))
        assert stability._galerkin(tilted_cap, Q) is forms
        assert stability._galerkin(tilted_cap, QuadratureSpec(32)) is forms
        assert stability._galerkin(tilted_cap, QuadratureSpec()) is not forms
        for c, K in before[0].items():
            np.testing.assert_array_equal(forms[0][c], K, err_msg=c)
        np.testing.assert_array_equal(forms[1], before[1])
        np.testing.assert_array_equal(forms[2], before[2])

    def test_every_mode_is_one_dense_solve(self, tilted_cap, monkeypatch):
        eigvalsh, shapes = np.linalg.eigvalsh, []

        def recording(K):
            shapes.append(K.shape)
            return eigvalsh(K)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        res = constrained_spectrum(tilted_cap, "VOLUME", 6)
        assert 2 < res.modes_used < 41  # the scan stopped early
        # the last mode's lowest value ends the scan
        assert len(shapes) == res.modes_used
        # the volume constraint removes one of the degree + 1 functions
        assert shapes[0] == (stability.DEGREE, stability.DEGREE)
        assert set(shapes[1:]) == {(stability.DEGREE + 1,) * 2}

    def test_basis_is_orthonormal_and_meets_the_constraints(self, cap_3d):
        """The mass matrix of each family is the identity on the node set
        of the rule, and the mode-0 complements are those of int_M phi and
        of phi(t1): the constrained values interlace the unconstrained
        ones."""
        Q = QuadratureSpec(80)
        W = node_set(cap_3d, Q).weights
        for V in stability._legendre(Q.order)[0]:
            R = np.linalg.qr(np.sqrt(W)[:, None] * V)[1]
            U = V @ np.linalg.inv(R)
            np.testing.assert_allclose(U.T @ (W[:, None] * U),
                                       np.eye(stability.DEGREE + 1),
                                       rtol=0.0, atol=1e-12)
        mode0 = stability._galerkin(cap_3d, Q)[0]
        free = np.linalg.eigvalsh(mode0["NONE"])
        for c in ("VOLUME", "WETTING"):
            got = np.linalg.eigvalsh(mode0[c])
            assert np.all(free[:-1] <= got + 1e-9)
            assert np.all(got <= free[1:] + 1e-9)

    @pytest.mark.parametrize("constraint", ["VOLUME", "WETTING", "NONE"])
    def test_stop_equals_solving_every_mode(self, ortho_cap, tilted_cap,
                                            cap_3d, constraint):
        k = 8
        for S in (ortho_cap, tilted_cap, cap_3d):
            res = constrained_spectrum(S, constraint, k)
            assert res.modes_used < 41  # the scan stopped early
            # every mode up to MAX_MODE, and so every mode up to
            # modes_used: a scan that stops too early drops values
            (mode0, K1, P), collected = stability._galerkin(
                S, QuadratureSpec()), []
            for l in range(stability.MAX_MODE + 1):
                K = mode0[constraint] if l == 0 else K1 + l * (
                    l + S.n - 2) * P
                collected.extend(float(v) for v in np.linalg.eigvalsh(K)[:k]
                                 for _ in range(sphere_mode_multiplicity(
                                     S.n, l)))
            np.testing.assert_array_equal(res.eigenvalues,
                                          sorted(collected)[:k])

    @pytest.mark.parametrize("kind", [CapKind.SPHERE_CAP,
                                      CapKind.EQUIDISTANT_SPHERE_CAP])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bounded_spectrum_counts_as_the_full_one(self, kind, n,
                                                     bumped_cap):
        surfaces = [bumped_cap] if (kind, n) == (CapKind.SPHERE_CAP, 2) else []
        for theta in (0.45, 0.8, 1.2, 1.57, 2.0):
            for r in (0.5, 1.0):
                try:
                    surfaces.append(solve_for_angle(kind, theta, n=n, r=r))
                except InfeasibleError:
                    continue
        assert len(surfaces) >= 2
        for S in surfaces:
            for constraint in ("VOLUME", "WETTING", "NONE"):
                for Q in (QuadratureSpec(64), QuadratureSpec(128)):
                    full = constrained_spectrum(S, constraint, Q=Q)
                    got = constrained_spectrum(S, constraint, Q=Q,
                                               upto=ZERO_MODE_TOL)
                    assert (got.morse_index, got.zero_modes) == (
                        full.morse_index, full.zero_modes)
                    # the values <= the bound, or the lowest one
                    low = np.sum(full.eigenvalues <= ZERO_MODE_TOL)
                    assert len(got.eigenvalues) == max(low, 1)
                    np.testing.assert_array_equal(
                        got.eigenvalues, full.eigenvalues[:max(low, 1)])
                    assert got.modes_used <= full.modes_used

    def test_bounded_spectrum_keeps_at_most_k_values(self):
        # n = 3, no constraint: a negative value and three zero translation
        # values lie below the bound, more than k = 2
        S = solve_for_angle(CapKind.SPHERE_CAP, 1.2, n=3, r=0.5)
        full = constrained_spectrum(S, "NONE", 10)
        assert np.sum(full.eigenvalues <= ZERO_MODE_TOL) == 4
        got = constrained_spectrum(S, "NONE", 2, upto=ZERO_MODE_TOL)
        assert len(got.eigenvalues) == 2
        np.testing.assert_array_equal(got.eigenvalues, full.eigenvalues[:2])
        assert (got.morse_index, got.zero_modes) == (1, 1)

    def test_stable_bounded_spectrum_solves_modes_0_to_2_only(
            self, tilted_cap, monkeypatch):
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counting(K):
            calls.append(K.shape)
            return eigvalsh(K)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        res = constrained_spectrum(tilted_cap, "VOLUME", upto=ZERO_MODE_TOL)
        # modes 0 and 1, and mode 2, whose lowest value ends the scan
        assert len(calls) == res.modes_used == 3
        # the n translations, at round-off
        assert len(res.eigenvalues) == res.zero_modes == tilted_cap.n
        assert np.max(np.abs(res.eigenvalues)) < 1e-10


class TestDeficit:
    def test_vanishes_on_umbilical_caps(self, ortho_cap, tilted_cap, cap_3d,
                                        quad):
        for S in (ortho_cap, tilted_cap, cap_3d):
            assert abs(umbilicity_deficit(S, quad)) < 1e-8

    def test_vanishes_on_free_boundary_geodesic(self, geodesic_hemisphere,
                                                quad):
        assert abs(umbilicity_deficit(geodesic_hemisphere, quad)) < 1e-8

    def test_positive_on_control(self, bumped_cap, quad):
        assert umbilicity_deficit(bumped_cap, quad) > 1e-6

    def test_boundary_cancellation_on_caps(self, ortho_cap, tilted_cap,
                                           cap_3d, quad):
        for S in (ortho_cap, tilted_cap, cap_3d):
            assert abs(boundary_cancellation(S)) < 1e-8
