"""Fields, the Robin coefficient, the quadratic form, spectra and the deficit."""

import inspect
import math
import re

import mpmath
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
from horocap.surfaces import integrate_M


class TestDiscreteOperators:
    def test_grid_too_coarse_rejected(self, ortho_cap):
        with pytest.raises(GridError):
            ScalarField(ortho_cap, np.zeros(9))

    def test_grid_charts_unsupported(self, vertical_plane):
        with pytest.raises(GridError):
            constrained_spectrum(vertical_plane)


class TestRobinAndBoundary:
    def test_orthogonal_contact_coefficient(self, ortho_cap):
        # theta = pi/2: csc = 1, cot = 0 -> q = 1
        assert robin_q(ortho_cap) == pytest.approx(1.0, abs=1e-12)


class TestQuadraticForm:
    def test_zero_field(self, ortho_cap):
        f = ScalarField(ortho_cap, np.zeros(65))
        assert quadratic_form(ortho_cap, f) == 0.0

    def test_annihilates_the_test_function(self, ortho_cap, tilted_cap,
                                           cap_3d, distinguished_fields,
                                           norm_sq):
        for S in (ortho_cap, tilted_cap, cap_3d):
            phi, _ = distinguished_fields(S, 128)
            Q = quadratic_form(S, phi)
            assert abs(Q) < 1e-6 * norm_sq(phi) + 1e-18

    def test_nonnegative_on_random_mean_zero_fields(self, tilted_cap, rng,
                                                    norm_sq):
        from horocap.stability import _grid

        g = _grid(tilted_cap, 64)
        area = integrate_M(tilted_cap, 1.0, QuadratureSpec(256))
        for _ in range(50):
            coeffs = rng.standard_normal(5)
            vals = sum(c * np.cos(m * math.pi * g.nodes / tilted_cap.t1)
                       for m, c in enumerate(coeffs))
            vals = vals - ScalarField(tilted_cap, vals).integral_M() / area
            phi = ScalarField(tilted_cap, vals)
            assert quadratic_form(tilted_cap, phi) >= -1e-6 * norm_sq(phi)

    def test_surface_mismatch_rejected(self, ortho_cap, tilted_cap):
        f = ScalarField(ortho_cap, np.ones(65))
        with pytest.raises(GridError):
            quadratic_form(tilted_cap, f)


class TestSpectra:
    def test_volume_constrained_caps_stable(self, ortho_cap, tilted_cap,
                                            cap_3d):
        for S in (ortho_cap, tilted_cap, cap_3d):
            res = constrained_spectrum(S, "VOLUME", 128, 10)
            assert res.eigenvalues[0] >= -1e-6
            assert res.morse_index == 0
            assert np.all(np.diff(res.eigenvalues) >= -1e-12)

    def test_wetting_constrained_geodesic_stable(self, geodesic_hemisphere):
        res = constrained_spectrum(geodesic_hemisphere, "WETTING", 128, 10)
        assert res.eigenvalues[0] >= -1e-6

    def test_unconstrained_never_above_constrained(self, tilted_cap):
        base = constrained_spectrum(tilted_cap, "NONE", 64, 5).eigenvalues[0]
        for c in ("VOLUME", "WETTING"):
            low = constrained_spectrum(tilted_cap, c, 64, 5).eigenvalues[0]
            assert low >= base - 1e-10

    def test_unknown_constraint_rejected(self, tilted_cap):
        with pytest.raises(ValueError):
            constrained_spectrum(tilted_cap, "AREA")

    def test_mode_multiplicities(self):
        # circle: 1, 2, 2, ...; 2-sphere: 1, 3, 5, ...
        assert [sphere_mode_multiplicity(2, l) for l in range(3)] == [1, 2, 2]
        assert [sphere_mode_multiplicity(3, l) for l in range(3)] == [1, 3, 5]

    def test_zero_modes_counted_separately(self, ortho_cap):
        res = constrained_spectrum(ortho_cap, "VOLUME", 96, 8)
        assert res.morse_index + res.zero_modes <= len(res.eigenvalues)

    def test_cached_elements_unchanged_by_solves(self, tilted_cap):
        # dsbgvx overwrites its inputs; the cached bands must survive
        el = stability._grid(tilted_cap, 32).elements
        before = {k: v.copy() for k, v in vars(el).items()}
        for c in ("VOLUME", "WETTING", "NONE"):
            constrained_spectrum(tilted_cap, c, 32, 6)
            constrained_spectrum(tilted_cap, c, 32, 6, upto=ZERO_MODE_TOL)
        assert stability._grid(tilted_cap, 32).elements is el
        for k, v in vars(el).items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)

    def test_every_mode_is_one_banded_solve(self, tilted_cap, monkeypatch):
        sbgvx, call = stability._sbgvx, stability._call
        calls, cholesky = [], []

        def counting_sbgvx(ab, bb, *args):
            calls.append((ab.shape, bb.shape))
            return sbgvx(ab, bb, *args)

        def recording_call(name, *args):
            info = call(name, *args)
            if name == "dpbtrf":
                cholesky.append(info)
            return info

        monkeypatch.setattr(stability, "_sbgvx", counting_sbgvx)
        monkeypatch.setattr(stability, "_call", recording_call)
        res = constrained_spectrum(tilted_cap, "VOLUME", 32, 6)
        assert 0 < res.modes_used < 41  # the scan stopped early
        # the last mode is one definite Cholesky instead of a solve
        assert len(calls) == res.modes_used - 1
        assert cholesky.count(0) == 1 and cholesky[-1] == 0
        # the volume-constrained axisymmetric mode is pentadiagonal, every
        # higher mode tridiagonal without the pole node
        assert calls[0] == ((32, 3), (32, 3))
        assert set(calls[1:]) == {((32, 2), (32, 2))}

    @pytest.mark.parametrize("constraint", ["VOLUME", "WETTING", "NONE"])
    def test_stop_equals_solving_every_mode(self, ortho_cap, tilted_cap,
                                            cap_3d, constraint):
        k = 8
        for S in (ortho_cap, tilted_cap, cap_3d):
            res = constrained_spectrum(S, constraint, 48, k)
            assert res.modes_used < 41  # the scan stopped early
            # every mode of the default max_mode 40, and so every mode up
            # to modes_used: a scan that stops too early drops values
            el, collected = stability._grid(S, 48).elements, []
            for l in range(41):
                vals = stability._sbgvx(*mode_bands(
                    el, S.n, l, constraint))
                collected.extend(float(v) for v in vals[:k]
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
                    spec = solve_for_angle(kind, theta, n=n, r=r)
                except InfeasibleError:
                    continue
                surfaces.append(build(spec))
        assert len(surfaces) >= 2
        for S in surfaces:
            for constraint in ("VOLUME", "WETTING", "NONE"):
                for grid in (64, 128):
                    full = constrained_spectrum(S, constraint, grid)
                    got = constrained_spectrum(S, constraint, grid,
                                               upto=ZERO_MODE_TOL)
                    assert (got.morse_index, got.zero_modes) == (
                        full.morse_index, full.zero_modes)
                    # the values <= the bound, and the lowest one above it
                    low = np.sum(full.eigenvalues <= ZERO_MODE_TOL)
                    m = min(max(low, 1), len(got.eigenvalues))
                    np.testing.assert_allclose(
                        got.eigenvalues[:m], full.eigenvalues[:m], rtol=0.0,
                        atol=1e-10 * max(1.0, abs(full.eigenvalues[0])))
                    assert got.modes_used <= full.modes_used
                    assert len(got.eigenvalues) <= len(full.eigenvalues)

    def test_bounded_spectrum_keeps_at_most_k_values(self):
        # n = 3, no constraint: a negative value and three near-zero
        # translation values lie below the bound, more than k = 2
        S = build(solve_for_angle(CapKind.SPHERE_CAP, 1.2, n=3, r=0.5))
        full = constrained_spectrum(S, "NONE", 64, 10)
        assert np.sum(full.eigenvalues <= ZERO_MODE_TOL) > 2
        got = constrained_spectrum(S, "NONE", 64, 2, upto=ZERO_MODE_TOL)
        assert len(got.eigenvalues) == 2
        np.testing.assert_allclose(got.eigenvalues, full.eigenvalues[:2],
                                   rtol=0.0, atol=1e-10)
        assert (got.morse_index, got.zero_modes) == (1, 1)

    def test_stable_bounded_spectrum_solves_modes_0_and_1_only(
            self, tilted_cap, monkeypatch):
        sbgvx, ranges = stability._sbgvx, []

        def recording_sbgvx(ab, bb, which=b"A", *args):
            ranges.append(which)
            return sbgvx(ab, bb, which, *args)

        monkeypatch.setattr(stability, "_sbgvx", recording_sbgvx)
        res = constrained_spectrum(tilted_cap, "VOLUME", 64,
                                   upto=ZERO_MODE_TOL)
        assert res.eigenvalues[0] > ZERO_MODE_TOL
        # one lowest value each of modes 0 and 1; mode 2's Cholesky stops
        assert ranges == [b"I", b"I"] and res.modes_used == 3
        assert len(res.eigenvalues) == 1 + tilted_cap.n


def mode_bands(el, n, l, constraint):
    """The (K, M) bands of angular mode l, as the spectrum builds them."""
    K, M = el.K0 + l * (l + n - 2) * el.P, el.M
    if l > 0:
        return K[1:], M[1:]
    if constraint == "WETTING":
        return K[:-1], M[:-1]
    if constraint == "VOLUME":
        return (stability._congruence(K, el.c),
                stability._congruence(M, el.c))
    return K, M


def dense(band):
    """The symmetric matrix of a LAPACK upper band (row j ends in A[j, j])."""
    m, width = band.shape
    A = np.zeros((m, m))
    for k in range(width):  # the k-th superdiagonal
        i = np.arange(k, m)
        A[i - k, i] = A[i, i - k] = band[k:, width - 1 - k]
    return A


def mp_lower_solve(L, B):
    """L^-1 B for the lower-bidiagonal Cholesky factor of a tridiagonal."""
    X = B.copy()
    for i in range(X.rows):
        for j in range(X.cols):
            r = X[i, j] - (L[i, i - 1] * X[i - 1, j] if i else 0)
            X[i, j] = r / L[i, i]
    return X


def mp_lowest(K, M, c=None, count=3):
    """The lowest eigenvalues of the pencil (K, M) at 40 digits.

    M = L L^T by mpmath's Cholesky, then mpmath's eigsy on L^-1 K L^-T.
    With c, the pencil is restricted to c^T x = 0, that is y = L^T x
    orthogonal to w = L^-1 c: a Householder reflector maps w onto the
    first axis, and its first row and column are dropped.
    """
    with mpmath.workdps(40):
        L = mpmath.cholesky(mpmath.matrix(M))
        C = mp_lower_solve(L, mp_lower_solve(L, mpmath.matrix(K)).T)
        if c is not None:
            v = mp_lower_solve(L, mpmath.matrix(c))
            v[0] += mpmath.sign(v[0]) * mpmath.norm(v)
            beta = 2 / (v.T * v)[0]
            p = beta * (C * v)
            q = p - (beta / 2 * (v.T * p)[0]) * v
            C = (C - v * q.T - q * v.T)[1:, 1:]
        eigs = mpmath.eigsy(C, eigvals_only=True)
        return np.sort([float(e) for e in eigs])[:count]


class TestBandedSolver:
    @pytest.mark.parametrize("N", [32, 48])
    def test_modes_match_a_40_digit_oracle(self, tilted_cap, N):
        el = stability._grid(tilted_cap, N).elements
        oracle = {}
        for constraint in ("VOLUME", "WETTING", "NONE"):
            for l in range(3):
                bands = mode_bands(el, tilted_cap.n, l, constraint)
                got = stability._sbgvx(*bands)
                K = dense(el.K0 + l * (l + tilted_cap.n - 2) * el.P)
                M, c = dense(el.M), None
                if l > 0:
                    K, M = K[1:, 1:], M[1:, 1:]
                elif constraint == "WETTING":
                    K, M = K[:-1, :-1], M[:-1, :-1]
                elif constraint == "VOLUME":
                    c = M.sum(axis=1)  # c^T phi = int_M phi
                key = (l, constraint if l == 0 else None)
                if key not in oracle:
                    oracle[key] = mp_lowest(K, M, c)
                want = oracle[key]
                # the lowest value, and the values <= a bound between the
                # second and the third
                lowest = stability._sbgvx(*bands, b"I")
                below = stability._sbgvx(*bands, b"V",
                                         0.5 * (want[1] + want[2]))
                for vals, ref in ((got[:3], want), (lowest, want[:1]),
                                  (below, want[:2])):
                    assert len(vals) == len(ref)
                    np.testing.assert_array_less(
                        np.abs(vals - ref),
                        1e-9 * np.maximum(1.0, np.abs(ref)))

    def test_indefinite_mass_raises(self):
        ab = np.array([[0.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        bb = ab.copy()
        bb[1, 1] = -1.0
        with pytest.raises(np.linalg.LinAlgError) as exc:
            stability._sbgvx(ab, bb)
        # info > m is LAPACK's "B is not positive definite", read back
        # through the int64 info argument
        info = int(re.search(r"info = (-?\d+)", str(exc.value)).group(1))
        assert info > len(ab)
        # the inputs are copied before LAPACK overwrites them
        assert bb[1, 1] == -1.0 and ab[2, 1] == 2.0

    def test_long_pentadiagonal_pencil_matches_dense(self):
        rng = np.random.default_rng(12)
        m = 300
        ab, bb = rng.uniform(-1.0, 1.0, (2, m, 3))
        ab[:, 2] += 6.0  # diagonally dominant: both matrices definite
        bb[:, 2] = np.abs(bb[:, 2]) + 4.0
        L = np.linalg.cholesky(dense(bb))
        C = np.linalg.solve(L, np.linalg.solve(L, dense(ab)).T)
        want = np.linalg.eigvalsh(C)
        got = stability._sbgvx(ab, bb)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_cholesky_reads_the_sign_of_the_lowest_eigenvalue(self):
        rng = np.random.default_rng(7)
        ab = rng.uniform(-1.0, 1.0, (50, 2))
        lowest = np.linalg.eigvalsh(dense(ab))[0]
        assert lowest < 0
        for shift, definite in ((0.0, False), (lowest - 1e-6, True),
                                (lowest + 1e-6, False)):
            info = stability._call("dpbtrf", b"U", 50, 1, ab - [0.0, shift],
                                   2)
            assert (info == 0) == definite and info >= 0, (shift, info)

    def test_every_bound_routine_is_listed(self):
        # the CI step resolves LAPACK_ROUTINES before the tests run
        called = re.findall(r'_call\(\s*"(\w+)"', inspect.getsource(stability))
        assert set(called) == set(stability.LAPACK_ROUTINES)

    def test_missing_lapack_stops_the_spline(self, tmp_path, monkeypatch,
                                             tilted_cap):
        monkeypatch.setattr(stability, "_OPENBLAS_DIR", tmp_path)
        stability._lapack.cache_clear()
        with pytest.raises(ImportError, match="scipy_dgtsv_64_"):
            ScalarField(tilted_cap, np.ones(33)).spline

    def test_missing_lapack_is_an_import_error(self, tmp_path, monkeypatch,
                                               quad):
        S = build(CapSpec(kind=CapKind.SPHERE_CAP, a=0.6, r=0.7))
        monkeypatch.setattr(stability, "_OPENBLAS_DIR", tmp_path)
        stability._lapack.cache_clear()
        with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
            constrained_spectrum(S, "VOLUME", 32, 4)
        # the lookup is lazy: commands without eigensolves still run
        assert abs(umbilicity_deficit(S, quad)) < 1e-8


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
