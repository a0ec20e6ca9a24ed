"""Parametric hypersurfaces with boundary on the support horosphere.

Two chart kinds are supported:

* ``ProfileSurface`` -- axisymmetric about the vertical axis, described by
  a meridian profile t -> (rho(t), z(t)) on [0, t1] with the axis point at
  t = 0 and the boundary (on the horosphere {x_d = 1}) at t = t1.  All
  geometric quantities reduce to functions of t; angular integration uses
  the exact unit-sphere factor.

* ``GridSurface`` -- a box chart with an affine-or-smooth embedding whose
  face u_0 = 0 lies on the horosphere.  The remaining faces may be
  artificial cuts (flagged), in which case divergence-theorem identities
  are not expected to close.

Both chart kinds answer the same array calls: ``shapes`` takes an array
of chart points and ``boundary_frames`` an array of support-face points,
each evaluated in one pass; ``shape_at``, ``boundary_frame_at`` and
``fields_at`` are that pass at one point.  The jets are array-native too:
``profile_jet(t)`` and ``embed_jet(u)`` take arrays of chart points.  A
profile chart reads everything off one ``Meridian`` (one jet call) per
node array, and builds ``ShapeData`` only for ``shapes``.  Its boundary
is one rotation orbit: whatever the order, its one support-face node set
is the node s = 0 weighted by the orbit's measure, with one frame.  Every
derivative is read off the jets.  On a box chart the normal is the
cofactor vector c of the tangents: det(J^T J) = |c|^2 (Cauchy-Binet), so
the chart immerses iff |c| > 0, and sqrt(det g) = |c|/w^n.  H and |h|^2
are the traces of g^-1 h and its square (one solve per node array); the
principal curvatures come from the pencil (h, g) on request.  The
conormal solves the Gram system, and Hhat is from the Hessian.

Curvature conventions: the second fundamental form is h(X, Y) =
g(nabla_X nu, Y), computed from embedding jets through the conformal
connection, and the unit normal nu is oriented so that the mean
curvature is positive; on a minimal surface, where that does not fix
it, nu points upward (nu_d >= 0) at the chart centre.  A chart that
leaves the upper half-space raises ``GeometryError``.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import QuadratureSpec, unit_sphere_area

__all__ = [
    "GeometryError",
    "ImmersionError",
    "SupportError",
    "EvaluationError",
    "ShapeData",
    "Meridian",
    "BoundaryFrame",
    "ParamSurface",
    "ProfileSurface",
    "GridSurface",
    "SurfaceFields",
    "integrate_M",
    "integrate_dM",
    "check_immersion",
]

_JET_CONTRACT = ("embed_jet(u) must take chart points u of shape (..., n) "
                 "and return x (..., n+1), J (..., n+1, n) and "
                 "Hess (..., n+1, n, n)")


class GeometryError(ValueError):
    """Contract violation of the half-space model, such as x_d <= 0."""


class ImmersionError(ValueError):
    """Induced metric degenerate: the chart map fails to immerse."""


class SupportError(ValueError):
    """Boundary point does not lie on the support horosphere."""


class EvaluationError(ValueError):
    """Non-finite value encountered during integration."""


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


@dataclass(frozen=True)
class ShapeData:
    """First/second fundamental data at chart points, as a struct of arrays.

    The leading axes of every field index the points (none at one point).
    coords and normal are the Euclidean components of the position and
    of the unit normal nu; dw is the chart gradient of the height x_d;
    area is sqrt(det g); kappa, if given, holds the principal curvatures
    in closed form (a profile chart's: its g degenerates at the axis).
    """

    coords: np.ndarray
    normal: np.ndarray
    g: np.ndarray
    h: np.ndarray
    H: np.ndarray
    h2: np.ndarray
    dw: np.ndarray
    area: np.ndarray
    kappa: Optional[np.ndarray] = None

    @property
    def principal_curvatures(self) -> np.ndarray:  # ascending
        if self.kappa is None:  # the eigenvalues of the pencil (h, g)
            Linv = np.linalg.inv(np.linalg.cholesky(self.g))
            return np.linalg.eigvalsh(Linv @ self.h @ _swap(Linv))
        return self.kappa


@dataclass(frozen=True)
class BoundaryFrame:
    """Frame and contact data at boundary points, as a struct of arrays.

    The Euclidean components of the position, of the unit normal nu, of
    the outward conormal mu in the surface (``conormal``) and of the
    normal nubar of the boundary inside the (flat) horosphere
    (``boundary_normal``); theta is the contact angle fixed by
    cos(theta) = -g(nu, Nbar), with Nbar = -E_d the outward support
    normal.
    """

    coords: np.ndarray
    normal: np.ndarray
    conormal: np.ndarray
    boundary_normal: np.ndarray
    theta: np.ndarray
    hmumu: np.ndarray
    Hhat: np.ndarray

    @property
    def gxnubar(self) -> np.ndarray:
        """g(x, nubar) of the position field."""
        x = self.coords
        return np.sum(x * self.boundary_normal, axis=-1) / x[..., -1] ** 2


def _contact(nu: np.ndarray, w, mu: np.ndarray):
    """(theta, nubar) from cos(theta) = -g(nu, Nbar) with Nbar = -E_d."""
    cos_t = np.minimum(np.maximum(nu[..., -1] / (w * w), -1.0), 1.0)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t ** 2))
    return np.arccos(cos_t), cos_t[..., None] * mu + sin_t[..., None] * nu


class ParamSurface:
    """Base class; see ProfileSurface and GridSurface."""

    n: int
    chart_kind: str
    artificial_cut: bool = False

    _sign_cache: Optional[int] = None

    def _shapes(self, u, sign: int) -> ShapeData:
        raise NotImplementedError

    def _probe(self) -> tuple:  # (H, nu_d) at the centre under sign +1
        probe = self._shapes(self._center(), +1)
        return probe.H, probe.normal[-1]

    # -- orientation ---------------------------------------------------
    def orientation_sign(self) -> int:
        """Global normal sign: H > 0, or nu_d >= 0 at the centre if H = 0."""
        if self._sign_cache is None:
            H, nu_d = self._probe()
            key = H if abs(H) > 1e-9 else nu_d
            self._sign_cache = 1 if key >= 0 else -1
        return self._sign_cache

    def shapes(self, u) -> ShapeData:
        """Shape data at an array of chart points, in one batched pass."""
        return self._shapes(u, self.orientation_sign())


def _jet_shapes(x: np.ndarray, J: np.ndarray, Hess: np.ndarray,
                sign: int) -> ShapeData:
    """Shape data from embedding jets.

    x has shape (..., d), the tangent columns J (..., d, n) and Hess
    (..., d, n, n).
    """
    w = x[..., -1]
    if np.any(w <= 0):
        raise GeometryError("chart leaves the upper half-space")
    w2 = (w * w)[..., None, None]
    G = _swap(J) @ J
    g = G / w2
    # Euclidean unit normal: the cofactor vector of the tangents,
    # c_k = (-1)^(k+n) det(J without row k), so det([J, c]) = |c|^2, and
    # det(J^T J) = |c|^2 (Cauchy-Binet): g is positive definite iff |c| > 0
    k = np.arange(J.shape[-2])
    c = (-1.0) ** (k + k[-1]) * np.linalg.det(
        J[..., [np.delete(k, i) for i in k], :])
    cn = np.linalg.norm(c, axis=-1)
    if not np.all(cn > 0):  # NaN included
        raise ImmersionError("induced metric is not positive definite")
    nu = (sign * w)[..., None] * c / cn[..., None]
    # conformal-connection correction of the flat second derivatives
    dlnw = J[..., -1, :] / w[..., None]
    nuJ = np.einsum("...k,...ki->...i", nu, J)
    h = -(np.einsum("...k,...kij->...ij", nu, Hess)
          - dlnw[..., :, None] * nuJ[..., None, :]
          - nuJ[..., :, None] * dlnw[..., None, :]
          + G * (nu[..., -1] / w)[..., None, None]) / w2
    S = np.linalg.solve(g, h)  # shape operator: H = tr S, |h|^2 = tr S^2
    return ShapeData(x, nu, g, h, np.einsum("...ii", S),
                     np.einsum("...ij,...ji", S, S), J[..., -1, :],
                     cn / w ** k[-1])


class Meridian(namedtuple(
        "Meridian", "n sign rho w dr dz d2r d2z s m0 m1 kappa_m kappa_a")):
    """A profile jet at an array of t (at one t: scalars) as meridian arrays:
    rho, the height w, their first and second derivatives dr, dz, d2r, d2z,
    the speed s, the meridian-plane unit normal (m0, m1) and the principal
    curvatures; g and h are diagonal.  A vector's (radial, vertical) parts
    are its Euclidean first and last components."""

    __slots__ = ()
    A = property(lambda m: m.s / m.w)  # metric A^2 dt^2 + B^2 dsigma^2
    B = property(lambda m: m.rho / m.w)
    g00 = property(lambda m: m.s * m.s / (m.w * m.w))  # meridian entries
    h00 = property(lambda m: m.kappa_m * m.s * m.s / (m.w * m.w))
    H = property(lambda m: m.kappa_m + (m.n - 1) * m.kappa_a)
    h2 = property(lambda m: m.kappa_m ** 2 + (m.n - 1) * m.kappa_a ** 2)
    normal = property(lambda m: (m.sign * m.w * m.m0, m.sign * m.w * m.m1))

    def embed(self, radial, vertical) -> np.ndarray:
        v = np.zeros(np.shape(self.w) + (self.n + 1,))
        v[..., 0], v[..., -1] = radial, vertical
        return v

    def fields(self) -> "SurfaceFields":
        nu_r, nu_d = self.normal
        return SurfaceFields.of(self.w, self.rho * nu_r + self.w * nu_d, nu_d,
                                self.H, self.h2)

    def shape_data(self) -> ShapeData:
        n, rho, w = self.n, self.rho, self.w
        lead, w2 = np.shape(w), w * w
        # diagonal in the (meridian, azimuthal...) frame: fill the diagonals
        g, h = np.zeros(lead + (n, n)), np.zeros(lead + (n, n))
        gd, hd = (a.reshape(lead + (n * n,))[..., ::n + 1] for a in (g, h))
        gd[..., 0], hd[..., 0] = self.g00, self.h00
        gd[..., 1:] = (rho * rho / w2)[..., None]
        hd[..., 1:] = (self.kappa_a * rho * rho / w2)[..., None]
        kappa = np.empty(lead + (n,))
        kappa[..., 0], kappa[..., 1:] = self.kappa_m, self.kappa_a[..., None]
        kappa.sort(axis=-1)
        dw = np.zeros(lead + (n,))
        dw[..., 0] = self.dz
        return ShapeData(self.embed(rho, w), self.embed(*self.normal), g, h,
                         self.H, self.h2, dw, self.A * self.B ** (n - 1), kappa)


class ProfileSurface(ParamSurface):
    """Axisymmetric surface from a meridian profile on [0, t1].

    ``profile_jet(t)`` returns (rho, z, rho', z', rho'', z'') and must
    accept an array of t (componentwise).  The axis point is t = 0
    (rho(0) = 0) and the boundary t = t1 must satisfy z(t1) = 1 to
    support tolerance.
    """

    chart_kind = "profile"

    def __init__(self, n: int, t1: float,
                 profile_jet: Callable[[float], tuple]):
        if n < 2:
            raise ValueError("surface dimension n must be >= 2")
        self.n = n
        self.t1 = float(t1)
        self.profile_jet = profile_jet

    def _probe(self) -> tuple:  # one scalar evaluation, at t1/2
        m = self.meridian(0.5 * self.t1, +1)
        return m.H, m.w * m.m1

    def meridian(self, t, sign: Optional[int] = None) -> Meridian:
        """One profile_jet call at t, under sign (default: the surface's)."""
        sign = self.orientation_sign() if sign is None else sign
        # [()]: at one t, float64 scalars, whose arithmetic is cheaper
        jet = [np.asarray(c, dtype=float)[()] for c in self.profile_jet(t)]
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
        # azimuthal curvature; smoothness forces the meridian value at the axis
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa_a = np.where(rho > 1e-13, sign * (w * m0 / rho - m1),
                               kappa_m)
        return Meridian(self.n, sign, rho, w, dr, dz, d2r, d2z, s, m0, m1,
                        kappa_m, kappa_a)

    def _shapes(self, t, sign: int) -> ShapeData:
        return self.meridian(t, sign).shape_data()

    def shape_at(self, t: float) -> ShapeData:
        return self.shapes(float(t))

    # -- boundary ------------------------------------------------------
    def boundary_frames(self, s) -> BoundaryFrame:
        """Frames at support-face points s of shape (..., n-1), batched.

        The boundary is the rotation orbit of t = t1, so every point
        carries the frame on the representative meridian.
        """
        m = self.meridian(np.full(np.shape(s)[:-1], self.t1))
        off = np.abs(m.w - 1.0) > 1e-9
        if np.any(off):
            raise SupportError(f"boundary point height {m.w[off][0]} "
                               "is off the horosphere")
        w, nu = m.w, m.embed(*m.normal)
        mu = m.embed(w * m.dr / m.s, w * m.dz / m.s)
        theta, nubar = _contact(nu, w, mu)
        # boundary sphere of Euclidean radius rho in the flat horosphere;
        # its curvature w.r.t. nubar follows from the radial component
        return BoundaryFrame(m.embed(m.rho, w), nu, mu, nubar, theta,
                             hmumu=m.h00 / m.g00,
                             Hhat=(self.n - 1) * nubar[..., 0] / m.rho)

    def boundary_frame_at(self, s=None) -> BoundaryFrame:
        """The frame at one boundary point, built once: every s gives it."""
        if "_frame" not in self.__dict__:
            self._frame = self.boundary_frames(np.zeros(self.n - 1))
        return self._frame

    @property
    def boundary_radius(self) -> float:
        return float(self.boundary_frame_at().coords[0])


class GridSurface(ParamSurface):
    """Box chart u in [0, L_0] x ... with the face u_0 = 0 on the horosphere.

    ``embed_jet(u)`` takes chart points u of shape (..., n) and returns
    (x, J, Hess) of shapes (..., d), (..., d, n) and (..., d, n, n), with
    d = n + 1; a batch is one call.  Faces other than u_0 = 0 are
    artificial cuts unless the embedding closes them on the support.
    """

    chart_kind = "grid"
    artificial_cut = True

    def __init__(self, n: int, box: Sequence[tuple[float, float]],
                 embed_jet: Callable[[np.ndarray], tuple]):
        if n < 2:
            raise ValueError("surface dimension n must be >= 2")
        if len(box) != n:
            raise ValueError("box must give one interval per chart axis")
        self.n = n
        self.box = [(float(lo), float(hi)) for lo, hi in box]
        self.embed_jet = embed_jet

    def _center(self):
        return np.array([0.5 * (lo + hi) for lo, hi in self.box])

    def jets(self, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, J, Hess) at chart points u of shape (..., n), in one call.

        A ValueError names the array contract when embed_jet fails on the
        points or returns arrays without the leading axes of u (a per-point
        jet fed a batch).
        """
        u = np.asarray(u, dtype=float)
        lead, n = u.shape[:-1], self.n
        want = [lead + (n + 1,) + (n,) * k for k in range(3)]
        try:
            jet = [np.asarray(a, dtype=float) for a in self.embed_jet(u)]
        except (ValueError, IndexError, TypeError) as exc:
            raise ValueError(f"{_JET_CONTRACT}; it failed on u of shape "
                             f"{u.shape}") from exc
        got = [a.shape for a in jet]
        if got != want:
            raise ValueError(f"{_JET_CONTRACT}; for u of shape {u.shape} "
                             f"it returned shapes {got}, not {want}")
        return tuple(jet)

    def _shapes(self, u, sign: int) -> ShapeData:
        return _jet_shapes(*self.jets(u), sign)

    def shape_at(self, u) -> ShapeData:
        return self.shapes(u)

    def _boundary_chart_point(self, s: np.ndarray) -> np.ndarray:
        lo = np.full(s.shape[:-1] + (1,), self.box[0][0])
        return np.concatenate([lo, s], axis=-1)

    def boundary_frames(self, s) -> BoundaryFrame:
        """Frames at support-face points s of shape (..., n-1), batched.

        The face tangents T = J[..., 1:] have the flat Gram matrix gamma
        (the boundary sits at height 1).  The outward conormal is -J_0
        with its projection onto span(T) removed, and Hhat, the trace of
        the flat boundary shape operator, is the Weingarten closed form
        -gamma^ab <nubar, d_a d_b x> from the chart Hessian.
        """
        x, J, Hess = self.jets(self._boundary_chart_point(
            np.asarray(s, dtype=float)))
        shape = _jet_shapes(x, J, Hess, self.orientation_sign())
        w = x[..., -1]
        off = np.abs(w - 1.0) > 1e-9
        if np.any(off):
            raise SupportError(f"boundary point height {w[off][0]} "
                               "is off the horosphere")
        T = J[..., 1:]
        gamma = _swap(T) @ T
        # outward conormal: tangent to the surface, orthogonal to the
        # boundary tangents, pointing against the u_0 axis
        v = -J[..., 0]
        v -= (T @ np.linalg.solve(gamma, _swap(T) @ v[..., None]))[..., 0]
        mu = v / (np.linalg.norm(v, axis=-1) / w)[..., None]
        theta, nubar = _contact(shape.normal, w, mu)
        second = np.einsum("...k,...kab->...ab", nubar[..., :-1],
                           Hess[..., :-1, 1:, 1:])
        Hhat = -np.trace(np.linalg.solve(gamma, second), axis1=-2, axis2=-1)
        Jt = _swap(J)  # mu is tangent, so the Gram solve is exact
        mu_chart = np.linalg.solve(Jt @ J, Jt @ mu[..., None])[..., 0]
        hmumu = np.einsum("...i,...ij,...j->...", mu_chart, shape.h,
                          mu_chart)
        return BoundaryFrame(x, shape.normal, mu, nubar, theta, hmumu, Hhat)

    def boundary_frame_at(self, s=None) -> BoundaryFrame:
        """The frame at one support-face point (default: the face centre)."""
        if s is None:
            s = self._center()[1:]
        return self.boundary_frames(np.atleast_1d(np.asarray(s, dtype=float)))


# ----------------------------------------------------------------------
# pointwise geometric scalars used by the identities and the stability layer
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceFields:
    """Scalar fields of the distinguished ambient quantities at chart points.

    A struct of arrays with the point axes of the ShapeData it comes from.
    """

    w: np.ndarray
    V: np.ndarray         # 1 / x_d
    gxnu: np.ndarray      # g(x, nu)
    gEnu: np.ndarray      # g(E_d, nu)
    gXnu: np.ndarray      # g(x - E_d, nu)
    H: np.ndarray
    h2: np.ndarray
    E_tan_sq: np.ndarray  # g(E_d^T, E_d^T), tangential part of the vertical field

    @staticmethod
    def from_shape(sd: ShapeData) -> "SurfaceFields":
        x, nu = sd.coords, sd.normal
        return SurfaceFields.of(x[..., -1], np.sum(x * nu, axis=-1),
                                nu[..., -1], sd.H, sd.h2)

    @staticmethod
    def of(w, x_nu, nu_d, H, h2) -> "SurfaceFields":
        """From the height w, the Euclidean x . nu and nu_d, H and |h|^2."""
        w2 = w * w
        gxnu, gEnu = x_nu / w2, nu_d / w2
        return SurfaceFields(w, 1.0 / w, gxnu, gEnu, gxnu - gEnu, H, h2,
                             (1.0 - (nu_d / w) ** 2) / w2)


def fields_at(S: ParamSurface, u) -> SurfaceFields:
    if S.chart_kind == "profile":
        return S.meridian(u).fields()
    return SurfaceFields.from_shape(S.shapes(u))


# ----------------------------------------------------------------------
# quadrature node sets and integration
# ----------------------------------------------------------------------

class NodeSet:
    """Gauss-Legendre nodes on a chart or on its support face, the weights
    times the area element, and shapes, fields and frames computed on first
    use (from the nodes' Meridian on a profile chart).  A profile chart's
    face is its boundary orbit: one node, s = 0, weighted by the orbit's
    measure, with the surface's one boundary frame.  The surface caches its
    node sets and is held weakly.
    """

    def __init__(self, S: ParamSurface, Q: QuadratureSpec, face: bool):
        self.S, self.meridian = weakref.proxy(S), None
        n = S.n
        if S.chart_kind == "profile" and face:
            self.nodes = np.zeros((1, n - 1))
            self.weights = np.array([unit_sphere_area(n - 1)
                                     * S.boundary_radius ** (n - 1)])
        elif S.chart_kind == "profile":
            self.nodes, wt = Q.rule(0.0, S.t1)
            self.meridian = m = S.meridian(self.nodes)
            self.weights = wt * m.A * m.B ** (n - 1) * unit_sphere_area(n - 1)
        else:
            axes = [Q.rule(lo, hi) for lo, hi in S.box[1 if face else 0:]]
            grid = np.meshgrid(*(a[0] for a in axes), indexing="ij")
            self.nodes = np.stack(grid, -1).reshape(-1, len(axes))
            wt = functools.reduce(np.multiply.outer,
                                  [a[1] for a in axes]).ravel()
            if face:  # flat measure: the boundary sits at height 1
                T = S.jets(S._boundary_chart_point(self.nodes))[1][..., 1:]
                self.weights = wt * np.sqrt(np.linalg.det(_swap(T) @ T))
            else:
                self.weights = wt * self.shapes.area

    @functools.cached_property
    def shapes(self) -> ShapeData:
        return self.S.shapes(self.nodes)

    @functools.cached_property
    def fields(self) -> SurfaceFields:
        if self.meridian is None:
            return SurfaceFields.from_shape(self.shapes)
        return self.meridian.fields()

    @functools.cached_property
    def frames(self) -> BoundaryFrame:
        if self.S.chart_kind == "profile":  # the orbit's one frame
            return self.S.boundary_frame_at()
        return self.S.boundary_frames(self.nodes)


def node_set(S: ParamSurface, Q: QuadratureSpec, face: bool = False) -> NodeSet:
    """The node set of Q's order on S (face: on its support face); a
    profile chart has one face node set, whatever the order."""
    cache = S.__dict__.setdefault("_node_sets", {})
    key = (None if face and S.chart_kind == "profile" else Q.order, face)
    if key not in cache:
        cache[key] = NodeSet(S, Q, face)
    return cache[key]


def _integrate(ns: NodeSet, f, label: str) -> float:
    """The weighted sum of f (m values, or one constant) on the node set;
    label names the first node whose value is not finite."""
    val = np.asarray(f(ns.nodes) if callable(f) else f, dtype=float)
    # a constant, as a stride-0 view: a filled copy sums in another order
    if val.shape != ns.weights.shape:
        val = np.broadcast_to(val, ns.weights.shape)
    total = float(ns.weights @ val)  # not finite if any value is not
    if not math.isfinite(total) and not (finite := np.isfinite(val)).all():
        raise EvaluationError(f"non-finite {label}{ns.nodes[finite.argmin()]}")
    return total


def integrate_M(S: ParamSurface, f, Q: QuadratureSpec) -> float:
    """Integral of the chart scalar field f over the surface.

    f is called once with the whole node array: t of shape (m,) on
    profile charts, u of shape (m, n) on box charts (tensor-product
    Gauss-Legendre); it returns m values or one constant.
    """
    name = "t" if S.chart_kind == "profile" else "u"
    return _integrate(node_set(S, Q), f, f"integrand at {name}=")


def integrate_dM(S: ParamSurface, f, Q: QuadratureSpec) -> float:
    """Integral of the boundary scalar field f over the on-support boundary.

    f (or a constant) is called once with the support-face nodes s, shape
    (m, n-1); on a profile chart that is the one node s = 0 of its
    boundary orbit.
    """
    return _integrate(node_set(S, Q, face=True), f, "boundary integrand at s=")


def check_immersion(S: ParamSurface, Q: QuadratureSpec) -> None:
    """Raise ImmersionError if the induced metric degenerates at any node
    (GeometryError, also a ValueError, if a profile leaves the half-space)."""
    if S.chart_kind == "profile":
        nodes, _ = Q.rule(0.0, S.t1)
        m = S.meridian(nodes, +1)  # A and B do not depend on the sign
        A, B = m.A, m.B
        bad = np.flatnonzero(~((A > 0) & (B > 0) & np.isfinite(A)
                               & np.isfinite(B)))
        if bad.size:
            raise ImmersionError(
                f"degenerate induced metric at t={nodes[bad[0]]}")
    else:
        node_set(S, Q).shapes  # raises on a degenerate metric
