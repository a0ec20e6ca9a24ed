"""Constructors for the shipped surface families.

Umbilical caps are realized as Euclidean spheres and planes of the
conformal model (totally umbilical there), cut by the support horosphere
{x_d = 1}:

* sphere of center height a and Euclidean radius r -- principal
  curvatures a/r everywhere, contact angle arccos((1-a)/r); the a = 0
  members are totally geodesic, |a| < r equidistant, a = r
  horosphere-type, a > r geodesic spheres;
* tilted Euclidean plane at angle beta to the support -- equidistant
  with curvature cos(beta), contact angle beta; beta = pi/2 gives the
  totally geodesic vertical plane.

Plane pieces are unbounded.  They ship as lines swept by the n-1
horizontal translations over a cube (``GridSurface``), with the end of
the line and the cube's faces as artificial cuts; only the end on the
support is treated as boundary.

``perturb`` produces the constant-angle non-CMC negative controls: a
compactly supported radial bump on a sphere cap, identically zero in a
boundary collar so every boundary quantity is bit-identical to the base.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .quadrature import QuadratureSpec
from .surfaces import (GridSurface, ImmersionError, ProfileSurface,
                       check_immersion)

__all__ = [
    "CapKind",
    "CapSpec",
    "PerturbationSpec",
    "ConstructionError",
    "AmplitudeError",
    "InfeasibleError",
    "SPHERE_KINDS",
    "build",
    "perturb",
    "solve_for_angle",
]

class ConstructionError(ValueError):
    """Family or bump parameters out of range (see CapSpec, PerturbationSpec)."""


class AmplitudeError(ValueError):
    """Perturbation amplitude breaks the immersion; max feasible value attached."""

    def __init__(self, requested: float, max_feasible: float):
        super().__init__(
            f"amplitude {requested} breaks the immersion; "
            f"maximal feasible amplitude ~ {max_feasible:.6g}"
        )
        self.requested = requested
        self.max_feasible = max_feasible


class InfeasibleError(ValueError):
    """No family member meets the support at the requested angle."""


class CapKind(enum.Enum):
    SPHERE_CAP = "sphere_cap"
    EQUIDISTANT_SPHERE_CAP = "equidistant_sphere_cap"
    VERTICAL_PLANE_DISK = "vertical_plane_disk"
    TILTED_PLANE_CAP = "tilted_plane_cap"


SPHERE_KINDS = (CapKind.SPHERE_CAP, CapKind.EQUIDISTANT_SPHERE_CAP)


@dataclass(frozen=True)
class CapSpec:
    """Euclidean construction parameters of one family member.

    The contact angle is always derived from the built surface, never
    prescribed here.  Every instance is checked (ConstructionError).
    """

    kind: CapKind
    n: int = 2
    a: float = 1.0      # sphere center height
    r: float = 0.5      # sphere Euclidean radius
    beta: float = math.pi / 2  # plane tilt angle
    extent: float = 1.0        # plane chart size

    def __post_init__(self):
        if self.n < 2:
            raise ConstructionError("dimension n must be >= 2")
        if self.kind in SPHERE_KINDS:
            if self.r <= 0:
                raise ConstructionError("sphere radius must be positive")
            if abs(1.0 - self.a) >= self.r:
                raise ConstructionError(
                    "sphere does not cut the horosphere transversally "
                    f"(need |1 - a| < r, got a={self.a}, r={self.r})"
                )
            if self.kind is CapKind.EQUIDISTANT_SPHERE_CAP and abs(self.a) >= self.r:
                raise ConstructionError(
                    "equidistant sphere caps need |a| < r "
                    f"(got a={self.a}, r={self.r})"
                )
        else:
            if self.extent <= 0:
                raise ConstructionError("plane chart extent must be positive")
            if self.kind is CapKind.TILTED_PLANE_CAP and not 0.0 < self.beta < math.pi:
                raise ConstructionError("tilt angle must lie in (0, pi)")


@dataclass(frozen=True)
class PerturbationSpec:
    """Compactly supported normal bump; zero outside the interior window.

    The support is [lo, hi] in fractions of the chart parameter range; it
    must keep >= 10% clearance to both chart ends and be at least as wide
    as that clearance, so that the Gauss rules resolve the bump; every
    instance is checked (ConstructionError).
    """

    amplitude: float
    support: tuple[float, float] = (0.1, 0.9)

    def __post_init__(self):
        if len(self.support) != 2:
            raise ConstructionError("bump support must be two numbers")
        lo, hi = self.support
        if not (0.1 - 1e-12 <= lo < hi <= 0.9 + 1e-12
                and hi - lo >= 0.1 - 1e-12):
            raise ConstructionError("bump support must keep 10% clearance to "
                                    "the chart ends and be at least 0.1 wide")


# ----------------------------------------------------------------------
# smooth bump profile
# ----------------------------------------------------------------------

def bump_jet(t, lo: float, hi: float) -> tuple:
    """(b, b', b'') of the C-infinity bump exp(4 - 1/(u(1-u))), u=(t-lo)/(hi-lo).

    Componentwise on arrays of t.  Hard zero (with all derivatives)
    outside (lo, hi), up to a 1e-9 margin in u; peak value 1.
    """
    width = hi - lo
    margin = 1e-9
    u = (np.asarray(t, dtype=float) - lo) / width
    inside = (u > margin) & (u < 1.0 - margin)
    u = np.where(inside, u, 0.5)  # keeps the formulas finite outside
    p = u * (1.0 - u)
    dp = 1.0 - 2.0 * u
    g = 1.0 / p
    dg = -dp / (p * p)
    d2g = (2.0 * dp * dp + 2.0 * p) / (p ** 3)
    b = np.where(inside, np.exp(4.0 - g), 0.0)
    db = -dg * b
    d2b = (dg * dg - d2g) * b
    s = 1.0 / width
    return b, db * s, d2b * s * s


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def sphere_jet(t, a, r) -> tuple:
    """The meridian jet of the sphere of center height a and radius r."""
    st, ct = np.sin(t), np.cos(t)
    return (r * st, a + r * ct, r * ct, -r * st, -r * st, -r * ct)


def bumped_jet(t, a, r, amplitude, lo, hi) -> tuple:
    """The sphere's jet with the radius r + amplitude * b(t), b the bump
    on [lo, hi]."""
    b, db, d2b = bump_jet(t, lo, hi)
    R = r + amplitude * b
    dR = amplitude * db
    d2R = amplitude * d2b
    st, ct = np.sin(t), np.cos(t)
    rho = R * st
    z = a + R * ct
    drho = dR * st + R * ct
    dz = dR * ct - R * st
    d2rho = d2R * st + 2.0 * dR * ct - R * st
    d2z = d2R * ct - 2.0 * dR * st - R * ct
    return rho, z, drho, dz, d2rho, d2z


def plane_jet(t, beta, extent) -> tuple:
    """The line x(u) = (-u cos(beta), 1 + u sin(beta)), u = extent - t."""
    u = extent - np.asarray(t, dtype=float)
    c, s, zero = np.cos(beta), np.sin(beta), np.zeros_like(u)
    return -u * c, 1.0 + u * s, zero + c, zero - s, zero, zero


class SphereCapSurface(ProfileSurface):
    """Spherical cap of center height a and Euclidean radius r."""

    def __init__(self, n: int, a: float, r: float):
        self.a, self.r = a, r = float(a), float(r)
        super().__init__(n, math.acos((1.0 - a) / r), sphere_jet, a=a, r=r)


class BumpedCapSurface(ProfileSurface):
    """Sphere cap with the radius modulated by a compact bump, r + eps*b(t)."""

    def __init__(self, base: SphereCapSurface, pspec: PerturbationSpec):
        self.base = base
        self.pspec = pspec
        lo, hi = (f * base.t1 for f in pspec.support)
        super().__init__(base.n, base.t1, bumped_jet, a=base.a, r=base.r,
                         amplitude=pspec.amplitude, lo=lo, hi=hi)


class PlaneCapSurface(GridSurface):
    """Euclidean plane piece tilted by beta (``plane_jet``) on [0, extent],
    swept over a cube of side extent; the cut is at t = 0 and the support
    at t1 = extent."""

    def __init__(self, n: int, beta: float, extent: float):
        self.beta, self.extent = beta, extent = float(beta), float(extent)
        super().__init__(n, extent, plane_jet, extent, beta=beta,
                         extent=extent)


def build(spec: CapSpec) -> ProfileSurface:
    """Construct the surface of a family member (analytic derivatives)."""
    if spec.kind in SPHERE_KINDS:
        return SphereCapSurface(spec.n, spec.a, spec.r)
    if spec.kind is CapKind.VERTICAL_PLANE_DISK:
        return PlaneCapSurface(spec.n, math.pi / 2.0, spec.extent)
    return PlaneCapSurface(spec.n, spec.beta, spec.extent)


def perturb(base: ProfileSurface, p: PerturbationSpec,
            Q: Optional[QuadratureSpec] = None) -> ProfileSurface:
    """Constant-angle, non-CMC control: base with a collar-avoiding bump.

    Returns the bumped surface once it has checked that its map is still
    an immersion; on failure the raised error reports the maximal feasible
    amplitude (bisection).
    """
    if p.amplitude == 0.0:
        return base
    if not isinstance(base, SphereCapSurface):
        raise TypeError("perturb currently supports sphere-cap bases")
    Q = Q or QuadratureSpec()

    def immersed(S: BumpedCapSurface) -> bool:
        try:
            check_immersion(S, Q)
            return True
        except (ImmersionError, ValueError):
            return False

    S = BumpedCapSurface(base, p)
    if not immersed(S):
        lo, hi = 0.0, p.amplitude
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if immersed(BumpedCapSurface(base, replace(p, amplitude=mid))):
                lo = mid
            else:
                hi = mid
        raise AmplitudeError(p.amplitude, lo)
    return S


# ----------------------------------------------------------------------
# inverse convenience: angle-targeted construction
# ----------------------------------------------------------------------

def solve_for_angle(kind: CapKind, theta_target: float, n: int = 2, *,
                    r: float) -> ProfileSurface:
    """The sphere-family member of radius r that meets the support at
    theta_target: the surface built from the closed form
    a = 1 - r cos(theta), whose derived angle was checked against
    theta_target (its boundary frame is built).
    """
    if kind not in SPHERE_KINDS:
        raise InfeasibleError(f"{kind.value} is not a sphere family")
    if not 0.0 < theta_target < math.pi:
        raise InfeasibleError("contact angle must lie in (0, pi)")

    # cos(theta) = (1 - a)/r; keep to the a > 0 branch: the positive-H
    # orientation flips the normal at a = 0, making the derived angle
    # non-monotone across it; for r > 1 this leaves angles below
    # arccos(1/r) unreachable
    a = 1.0 - r * math.cos(theta_target)
    lo = max(1.0 - r * (1.0 - 1e-12), 1e-12)
    if a < lo:
        edge = build(CapSpec(kind=kind, n=n, a=lo, r=r))
        raise InfeasibleError(
            f"{kind.value} members of radius {r} only reach contact angles "
            f">= {edge.boundary_frame_at().theta:.6g} under the "
            "positive-mean-curvature orientation")
    try:
        S = build(CapSpec(kind=kind, n=n, a=a, r=r))
    except ConstructionError as exc:
        raise InfeasibleError(str(exc)) from exc
    if abs(S.boundary_frame_at().theta - theta_target) > 1e-10:
        raise InfeasibleError(
            f"no {kind.value} member with theta = {theta_target} at r = {r}"
        )
    return S
