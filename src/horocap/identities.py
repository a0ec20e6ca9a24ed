"""Integral identities of constant-contact-angle hypersurfaces on the support.

Five identities are verified by direct quadrature, with the integrands
assembled exactly as stated:

* I_BOUNDARY_MINK:  int_dM [ g(x,nubar) Hhat - (n-1) ] ds = 0
* I_HX_NU:          int_M g(x,nu) H dA = int_dM [ -cos(theta) g(x,nubar) + sin(theta) ] ds
* I_X_NU:           int_M n g(x,nu) dA = int_dM g(x,nubar) ds
* I_COR:            int_dM [ n sin(theta) - g(x,nubar) H - n cos(theta) g(x,nubar) ] ds = 0
* I_MINK1:          int_M [ n V - g(X,nu) H - n cos(theta) g(x,nu) ] dA = 0

All of them need only a constant contact angle except I_COR, which needs
constant mean curvature; on declared non-CMC controls a failing I_COR is
reported as EXPECTED_FAIL.  H enters pointwise everywhere except I_COR,
where the area-weighted mean is used and the node spread recorded.

A suite evaluates each identity once per quadrature order: one table of
(lhs, rhs) at the configured order and one at the doubled order.  Pass
tolerances are scheme-derived: max(1e-8, 100x the quadrature error
estimated by that doubling).  The contact angle is read off the surface's
one boundary frame: every boundary is one orbit of rotations or of
translations, so the angle is constant by symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureSpec
from .reports import grade
from .surfaces import ProfileSurface, integrate_M, integrate_dM, node_set

__all__ = [
    "IDENTITY_IDS",
    "IdentityReport",
    "suite",
    "cmc_stats",
]

IDENTITY_IDS = ("I_BOUNDARY_MINK", "I_COR", "I_HX_NU", "I_MINK1", "I_X_NU")

REQUIRES_CMC = {"I_COR"}

BASE_TOL = 1e-8
CMC_SPREAD_TOL = 1e-8


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    requires_cmc: bool
    cmc_ok: bool
    tolerance: float
    status: str  # PASS | FAIL | EXPECTED_FAIL
    quad_order: int
    H_mean: float
    H_spread: float
    theta: float


def cmc_stats(S: ProfileSurface, Q: QuadratureSpec) -> tuple[float, float]:
    """Area-weighted mean of H and the max-node spread |H - mean|."""
    H = node_set(S, Q).meridian.H
    H_mean = integrate_M(S, H, Q) / integrate_M(S, 1.0, Q)
    return float(H_mean), float(np.max(np.abs(H - H_mean)))


def _sides(S: ProfileSurface, rules: tuple, theta: float,
           H_mean: float) -> list[dict[str, tuple[float, float]]]:
    """{identity id: (lhs, rhs)} of all five identities at each rule; the
    boundary sides read no rule and are integrated once."""
    n, ct, st = S.n, math.cos(theta), math.sin(theta)
    gxnubar = S.boundary_frame_at().gxnubar
    mink = integrate_dM(S, gxnubar * S.Hhat() - (n - 1))
    cor = integrate_dM(S, n * st - gxnubar * H_mean - n * ct * gxnubar)
    hx, x = integrate_dM(S, -ct * gxnubar + st), integrate_dM(S, gxnubar)
    tables = []
    for Q in rules:
        m = node_set(S, Q).meridian
        H, gxnu = m.H, m.gxnu
        gXnu = gxnu - m.gEnu  # m.gXnu, without a second gxnu
        tables.append({"I_BOUNDARY_MINK": (mink, 0.0), "I_COR": (cor, 0.0),
                       "I_HX_NU": (integrate_M(S, gxnu * H, Q), hx),
                       "I_MINK1": (integrate_M(S, n * m.V - gXnu * H
                                               - n * ct * gxnu, Q), 0.0),
                       "I_X_NU": (integrate_M(S, n * gxnu, Q), x)})
    return tables


def suite(S: ProfileSurface, Q: QuadratureSpec) -> list[IdentityReport]:
    """All five identities in deterministic (alphabetical) order.

    Each residual is graded against the scheme tolerance, from one
    evaluation at Q and one at the doubled order.
    """
    theta = float(S.boundary_frame_at().theta)
    H_mean, H_spread = cmc_stats(S, Q)
    cmc_ok = H_spread <= max(CMC_SPREAD_TOL, CMC_SPREAD_TOL * abs(H_mean))
    coarse, fine = _sides(S, (Q, Q.refined()), theta, H_mean)

    reports = []
    for identity_id in IDENTITY_IDS:
        (lhs, rhs), (lhs2, rhs2) = coarse[identity_id], fine[identity_id]
        requires_cmc = identity_id in REQUIRES_CMC
        abs_res = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs), 1.0)
        rel_res = abs_res / scale
        quad_err = (abs(lhs - lhs2) + abs(rhs - rhs2)) / scale
        tol = max(BASE_TOL, 100.0 * quad_err)
        # a failure is expected for I_COR off a CMC surface, or on an open
        # chart, where divergence-theorem identities cannot close
        status = grade(rel_res < tol,
                       (requires_cmc and not cmc_ok) or S.artificial_cut)
        reports.append(IdentityReport(
            identity_id=identity_id, lhs=lhs, rhs=rhs, abs_residual=abs_res,
            rel_residual=rel_res, requires_cmc=requires_cmc, cmc_ok=cmc_ok,
            tolerance=tol, status=status, quad_order=Q.order, H_mean=H_mean,
            H_spread=H_spread, theta=theta))
    return reports

