"""Hypersurfaces with boundary on the support horosphere, swept from a meridian.

Every surface is one-dimensional: a meridian profile t -> (rho(t), z(t))
on [0, t1] with the boundary (on the horosphere {x_d = 1}) at t = t1,
swept by isometries that fix the vertical direction.  All geometric
quantities reduce to functions of t.  Two sweeps are supported:

* ``ProfileSurface`` -- the rotations about the vertical axis.  The
  cross-section is the (n-1)-sphere of radius rho, the axis point is
  t = 0 (rho(0) = 0), and the boundary is one rotation orbit.

* ``GridSurface`` -- the n-1 horizontal translations along E_1, ...,
  E_(n-1).  The cross-section is the flat (n-1)-cube of side ``side``;
  the end t = 0 is an artificial cut, and only the end on the support is
  treated as boundary (``artificial_cut``).

The cross-section changes four things, each a method or property of the
class: the metric factor B (rho/w against 1/w) and the curvature kappa_a
of the cross-section directions (``_section``), the measure of the
cross-section and of the boundary orbit (``orbit_measure``,
``boundary_measure``) and the mean curvature Hhat of the boundary in the
flat support (``Hhat``).

The shape of a surface at an array of t (at one t: scalars) is one
``Meridian`` record, read off one ``profile_jet`` call: the meridian
jet, the metric A^2 dt^2 + B^2 dsigma^2 and the principal curvatures
(kappa_m along the meridian, kappa_a across it), with g and h diagonal
in the (meridian, cross-section) frame, and the ambient fields V,
g(x, nu), g(E_d, nu) and |E_d^T|^2 that the identities integrate
against H and |h|^2; it is the one per-node record of a node set.  The
boundary is one orbit, so its frame is one ``Meridian``, the one at t1,
whose conormal, contact angle, nubar, g(x, nubar) and h(mu, mu) are
properties, and the contact angle is constant by symmetry; a boundary
integral is a value times the orbit's measure (``integrate_dM``).  A
family's jet is one function of t and the member's parameters, and
``evaluate`` gives the surfaces of one family their signs, frames and
node sets from one call on the stacked (surfaces x points) array of
t1/2, t1 and the nodes; a lone surface is a family of one.  Every
derivative is read off the jets.

Curvature conventions: the second fundamental form is h(X, Y) =
g(nabla_X nu, Y), computed from the profile jet through the conformal
connection, and the unit normal nu is oriented so that the mean
curvature is positive; on a minimal surface, where that does not fix
it, nu points upward (nu_d >= 0) at t1/2.  A profile that leaves the
upper half-space raises ``GeometryError``.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import namedtuple
from typing import Callable, Optional

import numpy as np

from .quadrature import QuadratureSpec, unit_sphere_area

__all__ = [
    "GeometryError",
    "ImmersionError",
    "SupportError",
    "EvaluationError",
    "Meridian",
    "ProfileSurface",
    "evaluate",
    "GridSurface",
    "integrate_M",
    "integrate_dM",
    "check_immersion",
]


class GeometryError(ValueError):
    """Contract violation of the half-space model, such as x_d <= 0."""


class ImmersionError(ValueError):
    """Induced metric degenerate: the chart map fails to immerse."""


class SupportError(ValueError):
    """Boundary point does not lie on the support horosphere."""


class EvaluationError(ValueError):
    """Non-finite value encountered during integration."""


class Meridian(namedtuple(
        "Meridian", "n sign rho w dr dz d2r d2z s B m0 m1 kappa_m kappa_a")):
    """The shape of a surface at an array of t (at one t: scalars), as
    meridian arrays: rho, the height w, their first and second derivatives
    dr, dz, d2r, d2z, the speed s, the cross-section factor B, the
    meridian-plane unit normal (m0, m1) and the principal curvatures.  In
    the (meridian, cross-section) frame g = diag(g00, B^2, ...) and
    h = diag(h00, kappa_a B^2, ...).  A vector is its (radial, vertical)
    pair: its Euclidean first and last components, since every other
    component vanishes in the meridian plane.  Every derived quantity is a
    property, recomputed on each access: a reader that uses one more than
    once binds it to a local.  The surface's boundary frame is its
    Meridian at t1."""

    __slots__ = ()
    A = property(lambda m: m.s / m.w)  # metric A^2 dt^2 + B^2 dsigma^2
    g00 = property(lambda m: m.s * m.s / (m.w * m.w))  # meridian entries
    h00 = property(lambda m: m.kappa_m * m.s * m.s / (m.w * m.w))
    H = property(lambda m: m.kappa_m + (m.n - 1) * m.kappa_a)
    h2 = property(lambda m: m.kappa_m ** 2 + (m.n - 1) * m.kappa_a ** 2)
    normal = property(lambda m: (m.sign * m.w * m.m0, m.sign * m.w * m.m1))
    # the ambient fields, from the Euclidean x . nu and nu_d
    V = property(lambda m: 1.0 / m.w)  # 1 / x_d

    @property
    def gxnu(self):
        """g(x, nu)."""
        nu0, nu1 = self.normal
        return (self.rho * nu0 + self.w * nu1) / (self.w * self.w)

    gEnu = property(lambda m: m.normal[1] / (m.w * m.w))  # g(E_d, nu)
    gXnu = property(lambda m: m.gxnu - m.gEnu)  # g(x - E_d, nu)
    E_tan_sq = property(  # g(E_d^T, E_d^T), E_d's tangential part
        lambda m: (1.0 - (m.normal[1] / m.w) ** 2) / (m.w * m.w))

    # the boundary frame, read at t1: the outward conormal mu, the contact
    # angle from cos(theta) = -g(nu, Nbar) = g(E_d, nu) with Nbar = -E_d,
    # the normal nubar of the boundary in the flat support and h(mu, mu)
    conormal = property(lambda m: (m.w * m.dr / m.s, m.w * m.dz / m.s))
    _cos_theta = property(
        lambda m: np.minimum(np.maximum(m.gEnu, -1.0), 1.0))
    theta = property(lambda m: np.arccos(m._cos_theta))
    hmumu = property(lambda m: m.h00 / m.g00)

    @property
    def nubar(self) -> tuple:
        ct = self._cos_theta
        st = np.sqrt(np.maximum(0.0, 1.0 - ct ** 2))
        (mu0, mu1), (nu0, nu1) = self.conormal, self.normal
        return ct * mu0 + st * nu0, ct * mu1 + st * nu1

    @property
    def gxnubar(self):
        """g(x, nubar) of the position field."""
        nb0, nb1 = self.nubar
        return (self.rho * nb0 + self.w * nb1) / self.w ** 2


class ProfileSurface:
    """Axisymmetric surface from a meridian profile on [0, t1].

    ``profile_jet(t, **params)`` returns (rho, z, rho', z', rho'', z'')
    and must accept an array of t (componentwise), its parameters
    broadcast against it; ``self.profile_jet`` binds this surface's.
    The axis point is t = 0 (rho(0) = 0) and the boundary t = t1 must
    satisfy z(t1) = 1 to support tolerance.
    """

    artificial_cut = False

    def __init__(self, n: int, t1: float,
                 profile_jet: Callable[..., tuple], **params):
        if n < 2:
            raise ValueError("surface dimension n must be >= 2")
        self.n, self.t1, self.params = n, float(t1), params
        self.profile_jet = functools.partial(profile_jet, **params)
        # surfaces of one class, jet and n stack (evaluate)
        self.family = (type(self), profile_jet, n) if params else id(self)

    # -- the cross-section ---------------------------------------------
    @staticmethod
    def _section(rho, w, m0, m1, kappa_m, sign) -> tuple:
        """(B, kappa_a) of the rotation orbit; smoothness forces the
        meridian value of kappa_a at the axis."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return rho / w, np.where(rho > 1e-13, sign * (w * m0 / rho - m1),
                                     kappa_m)

    @property
    def orbit_measure(self) -> float:
        """Measure of the cross-section at B = 1: |S^(n-1)|."""
        return unit_sphere_area(self.n - 1)

    @functools.cached_property
    def boundary_measure(self) -> float:
        """Flat measure of the boundary orbit: |S^(n-1)| rho(t1)^(n-1)."""
        rho1 = float(self.boundary_frame_at().rho)
        return self.orbit_measure * rho1 ** (self.n - 1)

    def Hhat(self) -> float:
        """Mean curvature of the boundary sphere of Euclidean radius rho in
        the flat horosphere, w.r.t. nubar: from its radial component."""
        m = self.boundary_frame_at()
        return (self.n - 1) * m.nubar[0] / m.rho

    # -- orientation and shape -----------------------------------------
    def orientation_sign(self) -> int:
        """Global normal sign: H > 0, or nu_d >= 0 at t1/2 if H = 0; set
        with the frame."""
        if "_frame" not in self.__dict__:
            _evaluate([self], ())
        return self._sign

    def meridian(self, t, sign: Optional[int] = None, **params) -> Meridian:
        """One profile_jet call at t, under sign (default: the surface's),
        with params (columns: of a family's stacked call) if given."""
        sign = self.orientation_sign() if sign is None else sign
        # [()]: at one t, float64 scalars, whose arithmetic is cheaper
        jet = [np.asarray(c, dtype=float)[()]
               for c in self.profile_jet(t, **params)]
        rho, w, dr, dz, d2r, d2z = (np.broadcast_arrays(*jet) if len(
            {c.shape for c in jet}) > 1 else jet)
        if (w <= 0).any():
            raise GeometryError("profile leaves the upper half-space")
        s2 = dr * dr + dz * dz
        s = np.sqrt(s2)
        if (s <= 0).any():
            raise ImmersionError("profile tangent vanishes")
        m0, m1 = dz / s, -dr / s  # meridian-plane unit normal
        # meridian curvature via the conformal connection
        w2, dz2w = w * w, 2.0 * (dz / w)
        g_tt = s2 / w2
        T_rad = d2r - dz2w * dr
        T_ver = d2z - dz2w * dz + s2 / w
        kappa_m = -sign * w * (m0 * T_rad + m1 * T_ver) / w2 / g_tt
        B, kappa_a = self._section(rho, w, m0, m1, kappa_m, sign)
        return Meridian(self.n, sign, rho, w, dr, dz, d2r, d2z, s, B, m0, m1,
                        kappa_m, kappa_a)

    def shape_at(self, t: float) -> Meridian:
        """The shape at one t: its Meridian.  No command calls it; the
        benchmark tracer (perfbench/tracer.py) wraps it."""
        return self.meridian(float(t))

    # -- boundary ------------------------------------------------------
    def boundary_frame_at(self) -> Meridian:
        """The frame of the boundary orbit: the Meridian at t1, kept on the
        surface and checked on the support at every read."""
        if "_frame" not in self.__dict__:
            _evaluate([self], ())
        if abs(self._frame.w - 1.0) > 1e-9:
            raise SupportError(f"boundary point height {self._frame.w} "
                               "is off the horosphere")
        return self._frame


class GridSurface(ProfileSurface):
    """Surface swept from a meridian profile on [0, t1] by the n-1
    horizontal translations, over the flat (n-1)-cube of side ``side``.

    The boundary t = t1 lies on the horosphere; the end t = 0 and the
    cube's faces are artificial cuts.
    """

    artificial_cut = True

    def __init__(self, n: int, t1: float, profile_jet: Callable[..., tuple],
                 side: float, **params):
        super().__init__(n, t1, profile_jet, **params)
        self.side = float(side)

    @staticmethod
    def _section(rho, w, m0, m1, kappa_m, sign) -> tuple:
        """(B, kappa_a) of the flat directions: 1/w, and the rho -> infinity
        limit of the rotation orbit's curvature."""
        return 1.0 / w, -sign * m1

    @property
    def orbit_measure(self) -> float:
        """Measure of the cross-section at B = 1: side^(n-1)."""
        return self.side ** (self.n - 1)

    @functools.cached_property
    def boundary_measure(self) -> float:
        """side^(n-1), the cube at w = 1, once the frame is on the support."""
        self.boundary_frame_at()
        return self.orbit_measure

    def Hhat(self) -> float:
        """0: the boundary is a flat hyperplane of the flat support."""
        return 0.0

    # the benchmark tracer (perfbench/tracer.py) patches these two through
    # vars(GridSurface); they are the profile methods
    shape_at = ProfileSurface.shape_at
    boundary_frame_at = ProfileSurface.boundary_frame_at


# ----------------------------------------------------------------------
# quadrature node sets and integration
# ----------------------------------------------------------------------

# Gauss-Legendre nodes on [0, t1], the bare Gauss weights, the weights
# times the area element and the cross-section measure, and the nodes'
# Meridian, which holds every per-node quantity; kept on the surface
NodeSet = namedtuple("NodeSet", "nodes gauss_weights weights meridian")


def node_set(S: ProfileSurface, Q: QuadratureSpec) -> NodeSet:
    """The node set of Q's order on S."""
    if Q.order not in S.__dict__.get("_node_sets", {}):
        _evaluate([S], (Q,))
    return S._node_sets[Q.order]


def evaluate(surfaces, rules) -> None:
    """Sign, frame and node sets of the rules for every surface, one
    profile_jet call per family; if it raises, each surface alone, and
    one that raises again raises where it is read."""
    families = {}
    for S in surfaces:
        families.setdefault(S.family, []).append(S)
    for group in families.values():
        try:
            _evaluate(group, rules)
        except Exception:
            for S in group:
                with contextlib.suppress(Exception):
                    _evaluate([S], rules)


def _evaluate(group: list, rules) -> None:
    """One meridian call under sign +1 on the (surfaces x points) array of
    t1/2 and t1 (if a surface lacks its frame) and the nodes of the rules
    a surface lacks; what a surface has is kept.  The sign is that of H
    at t1/2, or of nu_d there where |H| <= 1e-9; where it is -1, kappa_m
    and kappa_a are negated, which is exact."""
    rules = [Q for Q in dict.fromkeys(rules) if any(
        Q.order not in S.__dict__.get("_node_sets", {}) for S in group)]
    head = 2 * any("_frame" not in S.__dict__ for S in group)
    if not rules and not head:
        return
    nodes = [[Q.rule(0.0, S.t1) for Q in rules] for S in group]
    t = np.array([np.concatenate([(0.5 * S.t1, S.t1)[:head],
                                  *(x for x, _ in xw)])
                  for S, xw in zip(group, nodes)])
    columns = {k: np.array([S.params[k] for S in group])[:, None]
               for k in group[0].params}
    m = group[0].meridian(t, 1, **columns)
    for i, (S, xw) in enumerate(zip(group, nodes)):
        row, fresh = [f[i] for f in m[2:]], "_frame" not in S.__dict__
        if fresh:
            p = Meridian(S.n, 1, *(f[0] for f in row))  # the probe
            key = p.H if abs(p.H) > 1e-9 else p.w * p.m1
            S._sign = 1 if key >= 0 else -1
        row[-2:] = row[-2] * S._sign, row[-1] * S._sign
        if fresh:
            S._frame = Meridian(S.n, S._sign, *(f[1] for f in row))
        sets, start = S.__dict__.setdefault("_node_sets", {}), head
        for Q, (x, w) in zip(rules, xw):
            if Q.order not in sets:
                q = Meridian(S.n, S._sign,
                             *(f[start:start + Q.order] for f in row))
                sets[Q.order] = NodeSet(x, w, w * q.A * q.B ** (S.n - 1)
                                        * S.orbit_measure, q)
            start += Q.order


def integrate_M(S: ProfileSurface, f, Q: QuadratureSpec) -> float:
    """Integral of the scalar field f over the surface.

    f is its m values on the node set of Q, of shape (m,), or one
    constant.  A value that is not finite raises EvaluationError naming
    the first such node.
    """
    ns = node_set(S, Q)
    val = np.asarray(f, dtype=float)
    # a constant, as a stride-0 view: a filled copy sums in another order
    if val.shape != ns.weights.shape:
        val = np.broadcast_to(val, ns.weights.shape)
    total = float(ns.weights @ val)  # not finite if any value is not
    if not math.isfinite(total) and not (finite := np.isfinite(val)).all():
        raise EvaluationError(
            f"non-finite integrand at t={ns.nodes[finite.argmin()]}")
    return total


def integrate_dM(S: ProfileSurface, value) -> float:
    """Integral over the on-support boundary of a boundary value.

    The boundary is one orbit, so every boundary field is one value on
    it, and its integral is the value times ``S.boundary_measure``.
    """
    total = float(S.boundary_measure * value)
    if not math.isfinite(total):
        raise EvaluationError(f"non-finite boundary integrand {value}")
    return total


def check_immersion(S: ProfileSurface, Q: QuadratureSpec) -> None:
    """Raise ImmersionError if the induced metric degenerates at any node
    (GeometryError, also a ValueError, if a profile leaves the half-space)."""
    ns = node_set(S, Q)  # the node set the commands then integrate on
    A, B = ns.meridian.A, ns.meridian.B
    bad = np.flatnonzero(~((A > 0) & (B > 0) & np.isfinite(A)
                           & np.isfinite(B)))
    if bad.size:
        raise ImmersionError(
            f"degenerate induced metric at t={ns.nodes[bad[0]]}")
