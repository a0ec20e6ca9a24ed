"""Jacobi operator, stability quadratic form, spectra and variation checks.

The induced metric of an axisymmetric surface is A^2 dt^2 + B^2 dsigma^2
on [0, t1], so on axisymmetric fields the Jacobi operator Delta + |h|^2 - n
has Delta f = f''/A^2 + f' [(n-1)B'/(A^2 B) - A'/A^3], and the second
variation reads, in symmetric Dirichlet form,

    Q(phi) = int_M |grad phi|^2 - (|h|^2 - n) phi^2 dA - int_dM q phi^2 ds.

The constrained spectra decompose over angular modes: mode l adds the
potential l(l+n-2)/B^2 and is a dense Legendre-Galerkin pencil, on
P_0 ... P_DEGREE in x = 2t/t1 - 1 (times t for l >= 1, which vanish on
the axis), orthonormal under the area weight of the command's Gauss rule
(at least 2 DEGREE + 16 points), so M = I and each mode is one symmetric
eigensolve.  The space is conforming, so every value bounds its
continuous one from above (Rayleigh-Ritz), and it converges exponentially
on analytic profiles.  The volume (int_M phi = 0) and wetting
(int_dM phi = 0) constraints restrict the axisymmetric mode only.

A variation field on the uniform grid t_j = j*t1/N is the not-a-knot
spline through its nodes, whose slopes one Thomas elimination solves in
numpy, in O(N); phi and phi' are read once per Gauss node set of the
surface (FIELD_RULE by default).  The variation checks deform the
surface along the straight line x + s*Y, so area, wetting area and
volume are explicit in s, and their s-derivatives at 0 are exact, from
Taylor coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .identities import cmc_stats
from .quadrature import QuadratureSpec, gauss_legendre
from .surfaces import (GridSurface, ProfileSurface, integrate_dM, integrate_M,
                       node_set)

__all__ = [
    "ScalarField",
    "SpectrumResult",
    "VariationCheck",
    "GridError",
    "MIN_RESOLUTION",
    "ZERO_MODE_TOL",
    "DEGREE",
    "MAX_MODE",
    "robin_q",
    "quadratic_form",
    "constrained_spectrum",
    "fd_variation_check",
    "energy_second_difference",
    "umbilicity_deficit",
    "boundary_cancellation",
    "sphere_mode_multiplicity",
]

MIN_RESOLUTION = 16
ZERO_MODE_TOL = 1e-6
# the Legendre degree of the spectra: P_0 ... P_DEGREE on the meridian
DEGREE = 24
# the highest angular mode a spectrum scans
MAX_MODE = 40
GALERKIN_ORDER = 2 * DEGREE + 16  # the least order of the spectra's rule
# the rule of field integrals; the boundary-collar ramp of the variations
# has large high derivatives and needs it this fine
FIELD_RULE = QuadratureSpec(256)


def __getattr__(name: str):
    """``scipy``, imported on its first read (PEP 562): no command uses
    it; the benchmark tracer reads ``stability.scipy.linalg``."""
    if name == "scipy":
        import scipy
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class GridError(ValueError):
    """Grid too coarse or incompatible with the surface chart."""


# ----------------------------------------------------------------------
# grid geometry cache
# ----------------------------------------------------------------------

class _ProfileGrid:
    """The uniform nodes of the variation fields on one grid."""

    def __init__(self, S: ProfileSurface, resolution: int):
        self.nodes = np.linspace(0.0, S.t1, resolution + 1)


def _rotation_orbit(S: ProfileSurface) -> None:
    """GridError on a translation-swept chart: its modes are not
    spherical harmonics."""
    if isinstance(S, GridSurface):
        raise GridError("the modes are spherical harmonics of a rotation "
                        "orbit and a translation orbit has none")


def _cached(owner, name: str, key, build: Callable):
    """build(), cached on owner (a surface or a field) under name and key."""
    cache = owner.__dict__.setdefault(name, {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _grid(S: ProfileSurface, resolution: int) -> _ProfileGrid:
    """The cached grid of S."""
    _rotation_orbit(S)
    return _cached(S, "_stability_grids", resolution,
                   lambda: _ProfileGrid(S, resolution))


# ----------------------------------------------------------------------
# scalar fields
# ----------------------------------------------------------------------

def _slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The node slopes of the not-a-knot cubic spline through (x, y) on a
    uniform grid, by Thomas elimination in O(len(x)); they are scipy's
    CubicSpline's up to the rounding of the nodes.

    Divided by the spacing, the system's rows are (1, 2), (1, 4, 1) and
    (2, 1); its right-hand side takes only differences of y, so y - c
    has the slopes of y.  Every pivot is at least 0.4: no row needs
    pivoting.
    """
    m = np.diff(y) / ((x[-1] - x[0]) / (len(x) - 1))
    r = np.r_[2.5 * m[0] + 0.5 * m[1], 3.0 * (m[:-1] + m[1:]),
              0.5 * m[-2] + 2.5 * m[-1]].tolist()
    # row 1 less row 0 has the pivot 2; each next pivot is 4 - 1/p
    p, r[1] = [1.0, 2.0], r[1] - r[0]
    for i in range(2, len(r) - 1):
        r[i] -= r[i - 1] / p[-1]
        p.append(4.0 - 1.0 / p[-1])
    r[-1] = (r[-1] - 2.0 * r[-2] / p[-1]) / (1.0 - 2.0 / p[-1])
    for i in range(len(r) - 2, 0, -1):
        r[i] = (r[i] - r[i + 1]) / p[i]
    r[0] -= 2.0 * r[1]
    return np.array(r, dtype=float)


@dataclass(frozen=True)
class ScalarField:
    """Axisymmetric nodal field on the uniform profile grid.

    Its continuous form is the not-a-knot spline through the nodes, whose
    slopes are solved once; read gives phi and phi' once per node set.
    """

    surface: ProfileSurface
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.shape[0] < MIN_RESOLUTION + 1:
            raise GridError(
                f"field needs >= {MIN_RESOLUTION + 1} nodes, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("field values must be finite")

    @property
    def nodes(self) -> np.ndarray:
        return _grid(self.surface, len(self.values) - 1).nodes

    @functools.cached_property
    def slopes(self) -> np.ndarray:
        return _slopes(self.nodes, self.values)

    def spline(self, t, nu: int = 0):
        """The nu-th derivative of the spline at t: on each piece, Horner's
        rule in t - x_i; the end pieces extrapolate."""
        x, y, s = self.nodes, self.values, self.slopes
        dx, m = np.diff(x), np.diff(y) / np.diff(x)
        c = (s[:-1] + s[1:] - 2.0 * m) / dx
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(dx) - 1)
        u, out = t - x[i], 0.0
        # the coefficient of u^(3-k); its nu-th derivative (3-k)!/(3-k-nu)!
        for k, a in enumerate(
                (c / dx, (m - s[:-1]) / dx - c, s[:-1], y[:-1])[:4 - nu]):
            out = out * u + math.perm(3 - k, nu) * a[i]
        return out

    def read(self, Q: QuadratureSpec = FIELD_RULE) -> tuple:
        """(phi, phi') on the node set of Q, read once per order."""
        t = node_set(self.surface, Q).nodes
        return _cached(self, "_reads", Q.order,
                       lambda: (self.spline(t), self.spline(t, 1)))

    def minus(self, c: float) -> ScalarField:
        """The field phi - c, with phi's slopes and its reads shifted by c."""
        out = ScalarField(self.surface, self.values - c)
        out.__dict__.update(slopes=self.slopes, _reads={
            order: (f - c, df)
            for order, (f, df) in self.__dict__.get("_reads", {}).items()})
        return out

    def integral_M(self, Q: QuadratureSpec = FIELD_RULE) -> float:
        return integrate_M(self.surface, self.read(Q)[0], Q)


def robin_q(S: ProfileSurface) -> float:
    """q = csc(theta) + cot(theta) h(mu,mu) at the (constant-angle) boundary."""
    bf = S.boundary_frame_at()
    return 1.0 / math.sin(bf.theta) + bf.hmumu / math.tan(bf.theta)


# ----------------------------------------------------------------------
# quadratic form and constrained spectra
# ----------------------------------------------------------------------

def quadratic_form(S: ProfileSurface, phi: ScalarField,
                   Q: QuadratureSpec = FIELD_RULE) -> float:
    """Second variation of energy in symmetric Dirichlet form.

    phi and phi' are its spline's, read on the node set of Q; |grad phi|^2
    is phi'^2 / A^2, A^2 the metric's t-t entry (g00 of the node set's
    Meridian).
    """
    if phi.surface is not S:
        raise GridError("field was built on a different surface")
    m, (f, df) = node_set(S, Q).meridian, phi.read(Q)
    bulk = integrate_M(S, df ** 2 / m.g00 - (m.h2 - S.n) * f ** 2, Q)
    return bulk - robin_q(S) * integrate_dM(S, phi.values[-1] ** 2)


def sphere_mode_multiplicity(n: int, l: int) -> int:
    """Dimension of the degree-l spherical harmonics on S^(n-1)."""
    if l == 0:
        return 1
    d = n - 1
    if d == 1:
        return 2
    def comb(a, b):
        return math.comb(a, b) if a >= b >= 0 else 0
    return comb(l + d, d) - comb(l + d - 2, d)


@dataclass(frozen=True)
class SpectrumResult:
    """The k lowest eigenvalues, ascending, with their counts.

    A bounded call (constrained_spectrum's upto) may return fewer than k:
    the values <= upto among the k lowest, or the lowest value alone;
    morse_index and zero_modes are those of the full call whenever
    upto >= ZERO_MODE_TOL.
    """

    constraint: str  # VOLUME | WETTING | NONE
    eigenvalues: np.ndarray
    morse_index: int
    zero_modes: int
    modes_used: int


@functools.cache
def _legendre(order: int) -> tuple:
    """V and d/dx V at the order Gauss nodes on [-1, 1] of the two basis
    families, stacked: P_j(x) for mode 0 and (1 + x)/2 P_j(x), which is
    t P_j / t1, for modes l >= 1.  Every basis function is 1 at x = 1."""
    x, leg = gauss_legendre(order, -1.0, 1.0)[0], np.polynomial.legendre
    V = leg.legvander(x, DEGREE)
    dV = leg.legval(x, leg.legder(np.eye(DEGREE + 1))).T
    half = 0.5 * (1.0 + x)[:, None]
    return np.stack([V, half * V]), np.stack([dV, 0.5 * V + half * dV])


def _galerkin(S: ProfileSurface, Q: QuadratureSpec) -> tuple:
    """({constraint: K of mode 0}, K1, P) on the Legendre space, built once
    per surface and rule; mode l >= 1 is K1 + l(l+n-2) P.

    The integrals run on the node set of Q, of at least 2 DEGREE + 16 points.
    Each family is orthonormalized under its area weights W by one QR of
    sqrt(W) V, so M = I; with Qr = sqrt(W) V R^-1, a weighted integral is
    Qr^T f Qr.  K carries the Robin term -q |dM| e e^T, e the basis values
    at t1.  VOLUME and WETTING restrict mode 0 to the null space of c^T,
    c = int_M of the basis, or of e^T: the last columns of the Householder
    reflector of c or e.  The two families and the two constraints each
    go through numpy as one stack.
    """
    _rotation_orbit(S)
    order = max(Q.order, GALERKIN_ORDER)

    def build():
        ns, (V, dV) = node_set(S, QuadratureSpec(order)), _legendre(order)
        n, m, sq = S.n, ns.meridian, np.sqrt(ns.weights)
        Qr, R = np.linalg.qr(sq[:, None] * V)
        Rinv = np.linalg.inv(R)
        G = (2.0 / S.t1 * sq / m.A)[:, None] * (dV @ Rinv)
        e = Rinv.sum(axis=1)
        K0, K1 = (G.mT @ G + Qr.mT @ ((n - m.h2)[:, None] * Qr)
                  - robin_q(S) * S.boundary_measure * e[:, :, None]
                  * e[:, None, :])
        u = np.stack([Qr[0].T @ sq, e[0]])  # c and e of mode 0
        u[:, 0] += np.copysign(np.linalg.norm(u, axis=1), u[:, 0])
        H = np.eye(DEGREE + 1) - 2.0 * (u[:, :, None] * u[:, None, :]) / (
            u * u).sum(axis=1)[:, None, None]
        volume, wetting = (H @ K0 @ H)[:, 1:, 1:]
        return ({"NONE": K0, "VOLUME": volume, "WETTING": wetting},
                K1, Qr[1].T @ (Qr[1] / (m.B * m.B)[:, None]))
    return _cached(S, "_galerkin", order, build)


def constrained_spectrum(
        S: ProfileSurface, constraint: str = "VOLUME", k: int = 10,
        upto: float = math.inf,
        Q: QuadratureSpec = QuadratureSpec()) -> SpectrumResult:
    """Lowest eigenvalues of the second-variation form under one constraint.

    The linear constraint (volume or wetting mean) only restricts the
    axisymmetric mode; every higher angular mode satisfies it identically
    and contributes with its spherical-harmonic multiplicity.  Mode
    l >= 1 is mode 1 plus a positive definite potential, so its values lie
    above mode 1's: the scan ends at the first mode l >= 2 whose lowest
    value exceeds sigma = min(upto, the k-th value so far), or after
    MAX_MODE.  With a finite upto the values above it may miss a mode the
    scan skipped, so only the values <= upto (at least the lowest) are
    returned.  Q sets the rule of the matrices (_galerkin).
    """
    if constraint not in ("VOLUME", "WETTING", "NONE"):
        raise ValueError(f"unknown constraint {constraint!r}")
    mode0, K1, P = _galerkin(S, Q)
    collected: list[float] = []
    for l in range(MAX_MODE + 1):
        vals = np.linalg.eigvalsh(
            mode0[constraint] if l == 0 else K1 + l * (l + S.n - 2) * P)
        modes_used = l + 1
        sigma = min(upto, collected[k - 1]) if len(collected) >= k else upto
        if l >= 2 and vals[0] > sigma:
            break
        mult = sphere_mode_multiplicity(S.n, l)
        collected.extend([float(v) for v in vals[:k] for _ in range(mult)])
        collected.sort()
    eigs = np.array(collected[:k])
    if math.isfinite(upto):
        eigs = eigs[:max(1, int(np.sum(eigs <= upto)))]
    return SpectrumResult(constraint, eigs, int(np.sum(eigs < -ZERO_MODE_TOL)),
                          int(np.sum(np.abs(eigs) <= ZERO_MODE_TOL)),
                          modes_used)


# ----------------------------------------------------------------------
# exact variation cross-checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VariationCheck:
    functional: str  # AREA | WETTING_AREA | VOLUME | ENERGY | ENERGY_SECOND
    fd_value: float  # the s-derivative along the deformation, at s = 0
    formula_value: float
    # the signed summands of formula_value, where it has more than one
    terms: tuple = ()


def _collar(S: ProfileSurface, Q: QuadratureSpec) -> SimpleNamespace:
    """The field-independent parts of every variation of S on the node set
    of Q, built once per surface and order: the meridian jet, the normal
    nu and the conormal mu with their t-derivatives, the boundary-collar
    ramp with its derivative, and nu and mu at t1.

    With T = (dr, dz)/s, N = (m0, m1) and the curvature
    k = (dr d2z - dz d2r)/s^2, T' = -k N and N' = k T.
    """
    def build():
        ns, bf = node_set(S, Q), S.boundary_frame_at()
        m, t = ns.meridian, ns.nodes
        mu1 = np.array(bf.conormal)
        if abs(mu1[1]) < 1e-12:
            raise ValueError(
                "conormal is horizontal; boundary slide undefined")
        # the collar ramp a/(a + b) of u in [0, 1] over [0.8 t1, t1]
        t_ramp = 0.8 * S.t1
        u = np.clip((t - t_ramp) / (S.t1 - t_ramp), 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            a, b = np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))
            ramp = a / (a + b)  # exactly 0 at u = 0, 1 at u = 1
            dramp = np.where((u > 0.0) & (u < 1.0), a * b * (
                1.0 / u ** 2 + 1.0 / (1.0 - u) ** 2) / (a + b) ** 2,
                0.0) / (S.t1 - t_ramp)
        T, N = np.array([m.dr, m.dz]) / m.s, np.array([m.m0, m.m1])
        k = (m.dr * m.d2z - m.dz * m.d2r) / (m.s * m.s)
        return SimpleNamespace(
            w=ns.gauss_weights, sign=m.sign,
            jet=np.array([m.rho, m.w, m.dr, m.dz]),
            nu=m.sign * m.w * N, dnu=m.sign * (m.dz * N + m.w * k * T),
            mu=m.w * T, dmu=m.dz * T - m.w * k * N, ramp=ramp, dramp=dramp,
            nu1=np.array(bf.normal), mu1=mu1)
    return _cached(S, "_collars", Q.order, build)


def _taylor_mul(a: tuple, b: tuple) -> tuple:
    """The product of two Taylor coefficient triples (c0, c1, c2) in s."""
    return (a[0] * b[0], a[0] * b[1] + a[1] * b[0],
            a[0] * b[2] + a[1] * b[1] + a[2] * b[0])


def _taylor_pow(x0, x1, p: int) -> tuple:
    """Taylor coefficients to s^2 of (x0 + s x1)^p."""
    y = x0 ** (p - 2)
    return (y * x0 * x0, p * y * x0 * x1, 0.5 * p * (p - 1) * y * x1 * x1)


class _Variation:
    """Straight-line admissible variation x + s*Y from a nodal scalar.

    Y = phi*nu + eta*mu with eta a boundary-collar ramp chosen so the
    vertical component of Y vanishes at the boundary: the displaced
    boundary slides inside the flat support exactly.  Y is independent
    of s, so the constructor reads Y and Y' once on the node set of Q, off
    the surface's collar and the field's reads, and each node's meridian
    jet (rho, z, dr, dz) moves by s (Y, Y').
    """

    def __init__(self, S: ProfileSurface, phi: ScalarField,
                 Q: QuadratureSpec):
        c, bf = _collar(S, Q), S.boundary_frame_at()
        self.S, self.frame, self.spline, self.sign = S, bf, phi.spline, c.sign
        self.w, self.jet = c.w, c.jet  # bare weights: the area element moves
        self.nubar_sign = 1.0 if bf.nubar[0] > 0 else -1.0
        self.rho1 = float(bf.rho)  # the boundary radius
        self.eta1 = -phi.values[-1] * c.nu1[1] / c.mu1[1]
        self.Y1 = phi.values[-1] * c.nu1 + self.eta1 * c.mu1
        f, df = phi.read(Q)
        self.Y = f * c.nu + self.eta1 * c.ramp * c.mu
        self.Yp = (df * c.nu + f * c.dnu
                   + self.eta1 * (c.dramp * c.mu + c.ramp * c.dmu))

    def derivatives(self) -> dict[str, tuple]:
        """(first, second) s-derivative at s = 0 of AREA, WETTING_AREA and
        VOLUME, exact up to the quadrature.

        area(s) = |S^(n-1)| sum w |(dr, dz)| rho^(n-1) / z^n, and the
        volume swept from s = 0 has volume'(s) = sign |S^(n-1)| sum w f(s),
        f = (Y_r dz - Y_z dr) rho^(n-1) / z^(n+1); both read the Taylor
        coefficients to s^2 of each node's integrand.  The signed wetting
        area |S^(n-1)| ((rho1 + s Y1_r)^n - rho1^n) / n is a polynomial.
        """
        n, om = self.S.n, self.S.orbit_measure
        rho, z, dr, dz = self.jet
        (Yr, Yz), (Ydr, Ydz) = self.Y, self.Yp
        q0, q1 = dr * dr + dz * dz, 2.0 * (dr * Ydr + dz * Ydz)
        s0 = np.sqrt(q0)
        s1 = 0.5 * q1 / s0
        speed = (s0, s1, 0.5 * (Ydr * Ydr + Ydz * Ydz - s1 * s1) / s0)
        radial = _taylor_pow(rho, Yr, n - 1)
        area = _taylor_mul(_taylor_mul(speed, radial), _taylor_pow(z, Yz, -n))
        flux = _taylor_mul(_taylor_mul(
            (Yr * dz - Yz * dr, Yr * Ydz - Yz * Ydr, 0.0), radial),
            _taylor_pow(z, Yz, -n - 1))
        wet = _taylor_pow(self.rho1, float(self.Y1[0]), n)
        ws, vs = self.nubar_sign * om / n, self.sign * om
        return {"AREA": (om * float(self.w @ area[1]),
                         2.0 * om * float(self.w @ area[2])),
                "WETTING_AREA": (ws * wet[1], 2.0 * ws * wet[2]),
                "VOLUME": (vs * float(self.w @ flux[0]),
                           vs * float(self.w @ flux[1]))}


def fd_variation_check(S: ProfileSurface, phi: ScalarField,
                       Q: Optional[QuadratureSpec] = None
                       ) -> dict[str, VariationCheck]:
    """The s-derivative at 0 of each functional vs its printed formula.

    One pass: the first derivatives of area, wetting area and volume, and
    the energy's, A' - cos(theta) W'.  The four formulas share one set of
    bulk and boundary terms.  Returns AREA, WETTING_AREA, VOLUME and
    ENERGY, in that order.
    """
    Q = Q or FIELD_RULE
    var = _Variation(S, phi, Q)
    bf, ct = var.frame, math.cos(var.frame.theta)
    d = {name: first for name, (first, _) in var.derivatives().items()}
    d["ENERGY"] = d["AREA"] - ct * d["WETTING_AREA"]
    # g(Y, nu) = phi everywhere: the collar term of Y is along mu, tangent
    bulk_phi = phi.integral_M(Q)
    bulk_Hphi = integrate_M(S, node_set(S, Q).meridian.H * phi.read(Q)[0], Q)
    # boundary terms: g(Y, mu) = eta1 and g(Y, nubar) at t1
    gYmu = float(np.dot(var.Y1, bf.conormal))
    gYnubar = float(np.dot(var.Y1, bf.nubar))
    bm = S.boundary_measure
    formulas = {
        "AREA": (bulk_Hphi + bm * gYmu, (bulk_Hphi, bm * gYmu)),
        "WETTING_AREA": (bm * gYnubar, ()),
        "VOLUME": (bulk_phi, ()),
        "ENERGY": (bulk_Hphi + bm * (gYmu - ct * gYnubar),
                   (bulk_Hphi, bm * gYmu, -bm * (ct * gYnubar))),
    }
    return {name: VariationCheck(name, d[name], f, terms)
            for name, (f, terms) in formulas.items()}


def energy_second_difference(S: ProfileSurface, phi: ScalarField,
                             Q: Optional[QuadratureSpec] = None
                             ) -> VariationCheck:
    """The second s-derivative at 0 of E - H_mean*V against quadratic_form.

    At a capillary critical point the second derivative of the volume
    Lagrangian along the straight-line variation depends only on the
    normal scalar, so it must reproduce the quadratic form.
    """
    Q = Q or FIELD_RULE
    d = _Variation(S, phi, Q).derivatives()
    H, _ = cmc_stats(S, Q)
    ct = math.cos(S.boundary_frame_at().theta)
    second = (d["AREA"][1] - ct * d["WETTING_AREA"][1]
              - H * d["VOLUME"][1])
    return VariationCheck("ENERGY_SECOND", second, quadratic_form(S, phi, Q))


# ----------------------------------------------------------------------
# umbilicity deficit
# ----------------------------------------------------------------------

def umbilicity_deficit(S: ProfileSurface,
                       Q: Optional[QuadratureSpec] = None) -> float:
    """D(S) = int_M n g(E^T,E^T)(n|h|^2 - H^2) + |grad Phi|^2 dA.

    The Cauchy-Schwarz term uses the pointwise mean curvature (keeping
    the integrand nonnegative on non-CMC controls); Phi = -H V - n g(E,nu)
    uses the area-weighted mean.  On an umbilical cap the integrand is 0
    node by node, so there D = 0 checks the pointwise consistency of the
    curvature formulas, not the theorem; the checks that can fail are a
    control's D and boundary_cancellation.  grad Phi is closed form:
    grad V = -E^T and, by Weingarten, d g(E,nu) = h(E^T, .), so with
    e = dw / w^2 (the chart components of g(E, .)), dPhi = H e - n h g^-1 e.
    E^T is meridian and g, h are diagonal in the (meridian, cross-section)
    frame of either sweep, so only g00 and h00 enter, read off the node
    set's Meridian.
    """
    Q = Q or QuadratureSpec()
    n, m = S.n, node_set(S, Q).meridian
    H_mean, _ = cmc_stats(S, Q)
    cs = n * m.E_tan_sq * (n * m.h2 - m.H ** 2)  # Cauchy-Schwarz term
    e, g00 = m.dz / (m.w * m.w), m.g00
    dphi = H_mean * e - n * m.h00 * (e / g00)
    return integrate_M(S, cs + dphi * (dphi / g00), Q)


def boundary_cancellation(S: ProfileSurface) -> float:
    """int_dM [ -sin(theta) + cos(theta) g(x,nubar) + h(mu,mu) g(x,nubar) ] ds.

    Vanishes on constant-angle CMC caps (the key boundary cancellation of
    the stability argument).
    """
    bf = S.boundary_frame_at()
    gxnubar, th = bf.gxnubar, bf.theta
    return integrate_dM(
        S, -np.sin(th) + np.cos(th) * gxnubar + bf.hmumu * gxnubar)
