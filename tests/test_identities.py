"""Integral identities on constant-angle surfaces and their controls."""

import math

import numpy as np
import pytest

from horocap.families import CapKind, CapSpec, build, solve_for_angle
from horocap.identities import IDENTITY_IDS, cmc_stats, suite
from horocap.quadrature import QuadratureSpec
from horocap.surfaces import evaluate


def row(S, identity_id, Q):
    """The suite's row of one identity."""
    return next(r for r in suite(S, Q) if r.identity_id == identity_id)


class TestSingleIdentity:
    def test_all_pass_on_umbilical_caps(self, ortho_cap, tilted_cap, cap_3d,
                                        equidistant_cap, quad):
        for S in (ortho_cap, tilted_cap, cap_3d, equidistant_cap):
            for rep in suite(S, quad):
                assert rep.status == "PASS", (rep.identity_id, rep.rel_residual)
                assert rep.rel_residual < 1e-8

    def test_relative_residual_normalization(self, tilted_cap, quad):
        rep = row(tilted_cap, "I_HX_NU", quad)
        scale = max(abs(rep.lhs), abs(rep.rhs), 1.0)
        assert rep.rel_residual == pytest.approx(rep.abs_residual / scale)

    def test_vertical_plane_two_sided_identity_vanishes(self, vertical_plane,
                                                        quad_fast):
        """g(x,nu) = 0 on the vertical plane and the boundary side cancels
        by reflection symmetry."""
        rep = row(vertical_plane, "I_X_NU", quad_fast)
        assert abs(rep.lhs) < 1e-10
        assert abs(rep.rhs) < 1e-10

    def test_plane_charts_flag_open_cut(self, tilted_plane, quad_fast):
        # divergence-theorem identities cannot close on an open chart
        rep = row(tilted_plane, "I_MINK1", quad_fast)
        assert tilted_plane.artificial_cut
        assert rep.status in ("PASS", "EXPECTED_FAIL")


class TestNegativeControl:
    def test_cmc_identity_fails_and_is_flagged(self, bumped_cap, quad):
        rep = row(bumped_cap, "I_COR", quad)
        assert rep.requires_cmc and not rep.cmc_ok
        assert rep.rel_residual > 1e-5
        assert rep.status == "EXPECTED_FAIL"

    def test_angle_only_identities_still_hold(self, bumped_cap, quad):
        for iid in ("I_BOUNDARY_MINK", "I_HX_NU", "I_X_NU", "I_MINK1"):
            rep = row(bumped_cap, iid, quad)
            assert rep.rel_residual < 1e-6, (iid, rep.rel_residual)
            assert rep.status == "PASS"

    def test_mean_curvature_stats_reflect_bump(self, ortho_cap, bumped_cap,
                                               quad):
        _, spread0 = cmc_stats(ortho_cap, quad)
        _, spread1 = cmc_stats(bumped_cap, quad)
        assert spread0 < 1e-10
        assert spread1 > 1e-2

    def test_angle_stats_unchanged_by_bump(self, ortho_cap, bumped_cap,
                                           quad):
        th0 = ortho_cap.boundary_frame_at().theta
        assert bumped_cap.boundary_frame_at().theta == th0
        for rep in suite(bumped_cap, quad):
            assert rep.theta == th0


class TestSuite:
    def test_deterministic_alphabetical_order(self, ortho_cap, quad_fast):
        reports = suite(ortho_cap, quad_fast)
        ids = [r.identity_id for r in reports]
        assert ids == sorted(ids)
        assert tuple(ids) == IDENTITY_IDS

    def test_exactly_one_cmc_dependent_entry(self, bumped_cap, quad_fast):
        reports = suite(bumped_cap, quad_fast)
        flagged = [r for r in reports if r.requires_cmc]
        assert len(flagged) == 1
        assert flagged[0].identity_id == "I_COR"

    def test_quadrature_refinement_keeps_residuals_small(self, tilted_cap):
        r1 = max(r.rel_residual for r in suite(tilted_cap, QuadratureSpec(32)))
        r2 = max(r.rel_residual for r in suite(tilted_cap, QuadratureSpec(64)))
        # analytic integrands: either convergent or already at round-off
        assert r2 < max(r1 * 2.0, 1e-12)

    def test_one_frame_evaluation_per_quadrature_order(self):
        """On a fresh surface the suite evaluates t1 once, for the one
        frame, and each order's nodes once; on a surface whose node sets
        one stacked evaluation made it calls no profile jet."""
        Q = QuadratureSpec(16)
        # every boundary is one orbit of rotations or of translations,
        # with one frame, whatever the order
        for spec in (CapSpec(CapKind.TILTED_PLANE_CAP, n=2, beta=math.pi / 3,
                             extent=1.0),
                     CapSpec(CapKind.SPHERE_CAP, n=2, a=1.0, r=0.5)):
            for ready in (False, True):
                S, calls = build(spec), []
                if ready:
                    evaluate([S], (Q, Q.refined()))
                jet = S.profile_jet
                S.profile_jet = lambda t, **p: (calls.append(t),
                                                jet(t, **p))[1]
                suite(S, Q)
                if ready:
                    assert calls == [], spec.kind
                    continue
                assert [np.size(t) for t in calls] == [2, 16, 32], spec.kind
                assert sum(np.count_nonzero(t == S.t1) for t in calls) == 1

    def test_angle_grid_of_caps_all_pass(self, quad):
        thetas = [math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3]
        for th in thetas:
            for rep in suite(solve_for_angle(CapKind.SPHERE_CAP, th, r=0.6),
                             quad):
                assert rep.status == "PASS"


class TestBoundaryPointwiseReduction:
    def test_test_function_boundary_factorization(self, tilted_cap, cap_3d):
        """On the boundary the admissible test function factors as
        sin(theta) * [n sin(theta) - g(x,nubar) H - n cos(theta) g(x,nubar)].
        """
        for S in (tilted_cap, cap_3d):
            n = S.n
            bf = S.boundary_frame_at()
            th = bf.theta
            # (radial, vertical) pairs
            x, w = np.array([bf.rho, bf.w]), bf.w
            nu = np.array(bf.normal)
            e_d = np.array([0.0, 1.0])
            V = 1.0 / w
            gXnu = float(np.dot(x - e_d, nu) / (w * w))
            gxnu = float(np.dot(x, nu) / (w * w))
            gxnubar = float(np.dot(x, bf.nubar) / (w * w))
            H = S.shape_at(S.t1).H
            phi = n * V - gXnu * H - n * math.cos(th) * gxnu
            reduced = math.sin(th) * (n * math.sin(th) - gxnubar * H
                                      - n * math.cos(th) * gxnubar)
            assert phi == pytest.approx(reduced, abs=1e-10)
