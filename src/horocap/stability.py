"""Jacobi operator, stability quadratic form, spectra and variation checks.

Discrete machinery lives on the 1-D profile grid of axisymmetric
surfaces: uniform nodes t_j = j*t1/N on [0, t1] including both ends.  The
induced metric is A(t)^2 dt^2 + B(t)^2 dsigma^2, so the Jacobi operator
J f = Delta f + (|h|^2 - n) f of the second variation has, on
axisymmetric fields, the profile form

    Laplace-Beltrami:  Delta f = f''/A^2 + f' * [(n-1)B'/(A^2 B) - A'/A^3].

A field's one continuous form is the not-a-knot spline through its
nodes, and every integral of it reads that spline on the surface's
Gauss node set (FIELD_RULE by default).

The quadratic form is read there in the symmetric Dirichlet shape

    Q(phi) = int_M |grad phi|^2 - (|h|^2 - n) phi^2 dA - int_dM q phi^2 ds,

and the constrained spectra decompose over angular modes: mode l adds
the potential l(l+n-2)/B^2 and is discretized with conforming P1
elements, so every discrete eigenvalue bounds its continuous one from
above (Rayleigh-Ritz).  The volume (int_M phi = 0) and wetting
(int_dM phi = 0) constraints act on the axisymmetric mode only, on a
banded local basis of their null space; every mode pencil is banded and
solved by LAPACK's dsbgvx, up to a mode that lies above the k values found.
A bounded spectrum (a sweep row's) solves only for the lowest value and
the values <= its bound, by dsbgvx's index and value ranges.
"""

from __future__ import annotations

import ctypes
import functools
import math
import weakref
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np
# no command uses scipy; only the benchmark tracer reads stability.scipy
# (lazily, for scipy.linalg), so this bare import loads no submodule
import scipy

from .identities import cmc_stats
from .quadrature import QuadratureSpec, gauss_legendre, unit_sphere_area
from .surfaces import (ParamSurface, ProfileSurface, integrate_dM, integrate_M,
                       node_set)

__all__ = [
    "ScalarField",
    "SpectrumResult",
    "VariationCheck",
    "GridError",
    "MIN_RESOLUTION",
    "ZERO_MODE_TOL",
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
# the rule of field integrals; the boundary-collar ramp of the variations
# has large high derivatives and needs it this fine
FIELD_RULE = QuadratureSpec(256)


class GridError(ValueError):
    """Grid too coarse or incompatible with the surface chart."""


# ----------------------------------------------------------------------
# grid geometry cache
# ----------------------------------------------------------------------

class _ProfileGrid:
    """Nodes, boundary measure and P1 elements for one grid."""

    def __init__(self, S: ProfileSurface, resolution: int):
        if resolution < MIN_RESOLUTION:
            raise GridError(
                f"grid resolution {resolution} < minimum {MIN_RESOLUTION}"
            )
        # weak: S caches its grids, and a cycle would keep their element
        # bands alive until the cyclic garbage collector runs
        self.S = weakref.proxy(S)
        self.N = resolution
        self.nodes = np.linspace(0.0, S.t1, resolution + 1)
        n = S.n
        self.boundary_measure = (unit_sphere_area(n - 1)
                                 * S.boundary_radius ** (n - 1))

    @functools.cached_property
    def elements(self) -> SimpleNamespace:
        """Mode-independent parts of the P1 matrices, built on first use.

        Four Gauss points per element.  Mode l has stiffness
        K0 + l(l+n-2) P, where P is the mass matrix of the weight 1/B^2;
        K0 carries the Robin term robin_q(S).  K0, P, M: upper bands (_band).
        """
        S, n = self.S, self.S.n
        xi, wq = gauss_legendre(4, 0.0, 1.0)
        he = np.diff(self.nodes)[:, None]
        t = (self.nodes[:-1, None] + he * xi).ravel()
        m = S.meridian(t)
        A, B, h2 = (c.reshape(self.N, 4) for c in (m.A, m.B, m.h2))
        W = unit_sphere_area(n - 1) * A * B ** (n - 1) * he * wq
        shp = np.stack([1.0 - xi, xi])

        def mass(f):  # sum over Gauss points of W f phi_a phi_b
            return _band(np.einsum("eq,aq,bq->eab", W * f, shp, shp))

        stiff = np.sum(W / (A * A), axis=1) / he[:, 0] ** 2
        K0 = (_band(stiff[:, None, None] * np.array([[1.0, -1.0],
                                                      [-1.0, 1.0]]))
              + mass(n - h2))
        K0[-1, 1] -= robin_q(S) * self.boundary_measure
        M = mass(1.0)
        # the hat functions sum to one, so the row sums of M are int phi_a
        return SimpleNamespace(K0=K0, P=mass(1.0 / (B * B)), M=M,
                               c=M.sum(axis=1) + np.append(M[1:, 0], 0.0))


def _grid(S: ParamSurface, resolution: int) -> _ProfileGrid:
    """The cached grid of S; only a profile chart has one."""
    if not isinstance(S, ProfileSurface):
        raise GridError(
            "discrete operators require an axisymmetric (profile) chart"
        )
    cache = S.__dict__.setdefault("_stability_grids", {})
    if resolution not in cache:
        cache[resolution] = _ProfileGrid(S, resolution)
    return cache[resolution]


# ----------------------------------------------------------------------
# scalar fields
# ----------------------------------------------------------------------

def _cubic_spline(x: np.ndarray, y: np.ndarray) -> Callable:
    """Not-a-knot cubic spline through (x, y), as scipy's CubicSpline.

    The node slopes s solve one tridiagonal system (LAPACK's dgtsv); the
    end pieces extrapolate.  spline(t, nu) is the nu-th derivative, each
    piece Horner's rule in t - x_i.
    """
    dx, m = np.diff(x), np.diff(y) / np.diff(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    s = np.r_[
        ((dx[0] + 2.0 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0,
        3.0 * (dx[1:] * m[:-1] + dx[:-1] * m[1:]),
        (dx[-1] ** 2 * m[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1]
    # s becomes the slopes; T goes as its sub-, main and superdiagonal
    if info := _call("dgtsv", len(s), 1, np.r_[dx[1:], d1],
                     np.r_[dx[1], 2.0 * (dx[:-1] + dx[1:]), dx[-2]],
                     np.r_[d0, dx[:-1]], s, len(s)):
        raise np.linalg.LinAlgError(f"dgtsv failed with info = {info}")
    c = (s[:-1] + s[1:] - 2.0 * m) / dx
    coeffs = (c / dx, (m - s[:-1]) / dx - c, s[:-1], y[:-1])

    def spline(t, nu=0):
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(dx) - 1)
        u, out = t - x[i], 0.0
        # coeffs[k] multiplies u^(3-k); its nu-th derivative (3-k)!/(3-k-nu)!
        for k, a in enumerate(coeffs[:4 - nu]):
            out = out * u + math.perm(3 - k, nu) * a[i]
        return out
    return spline


@dataclass(frozen=True)
class ScalarField:
    """Axisymmetric nodal field on the uniform profile grid.

    Its continuous form is the not-a-knot spline through the nodes, built
    once; integrals over M read the spline on the node set of a rule Q.
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
    def resolution(self) -> int:
        return self.values.shape[0] - 1

    @property
    def nodes(self) -> np.ndarray:
        return _grid(self.surface, self.resolution).nodes

    @functools.cached_property
    def spline(self) -> Callable:
        return _cubic_spline(self.nodes, self.values)

    def integral_M(self, Q: QuadratureSpec = FIELD_RULE) -> float:
        return integrate_M(self.surface, self.spline, Q)


def robin_q(S: ParamSurface) -> float:
    """q = csc(theta) + cot(theta) h(mu,mu) at the (constant-angle) boundary."""
    bf = S.boundary_frame_at()
    return 1.0 / math.sin(bf.theta) + bf.hmumu / math.tan(bf.theta)


# ----------------------------------------------------------------------
# quadratic form and constrained spectra
# ----------------------------------------------------------------------

def quadratic_form(S: ParamSurface, phi: ScalarField,
                   Q: QuadratureSpec = FIELD_RULE) -> float:
    """Second variation of energy in symmetric Dirichlet form.

    phi and phi' are its spline's, on the node set of Q; |grad phi|^2 is
    phi'^2 / A^2, A^2 the metric's t-t entry (g00 of the node set's Meridian).
    """
    if phi.surface is not S:
        raise GridError("field was built on a different surface")
    ns = node_set(S, Q)
    t = ns.nodes
    bulk = integrate_M(S, phi.spline(t, 1) ** 2 / ns.meridian.g00
                       - (ns.fields.h2 - S.n) * phi.spline(t) ** 2, Q)
    return bulk - robin_q(S) * integrate_dM(S, phi.values[-1] ** 2, Q)


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
    the values <= upto among the k lowest, the lowest value, and what
    else its modes 0 and 1 gave; morse_index and zero_modes are those of
    the full call whenever upto >= ZERO_MODE_TOL.
    """

    constraint: str  # VOLUME | WETTING | NONE
    eigenvalues: np.ndarray
    morse_index: int
    zero_modes: int
    resolution: int
    num_requested: int
    modes_used: int


def _band(blocks: np.ndarray) -> np.ndarray:
    """LAPACK upper band, rows (A[j-1, j], A[j, j]), of the global matrix
    of symmetric 2x2 blocks; block e couples nodes e and e+1."""
    out = np.zeros((blocks.shape[0] + 1, 2))
    out[:-1, 1] += blocks[:, 0, 0]
    out[1:, 1] += blocks[:, 1, 1]
    out[1:, 0] = blocks[:, 0, 1]
    return out


def _congruence(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Z^T X Z as a kd = 2 band, for a kd = 1 band X and the basis
    z_j = e_j / c_j - e_(j+1) / c_(j+1) of c-perp (no c_j is 0)."""
    # second differences of the band of diag(1/c) X diag(1/c)
    d, u = X[:, 1] / c ** 2, X[1:, 0] / (c[:-1] * c[1:])
    out = np.zeros((len(u), 3))
    out[:, 2] = d[:-1] - 2.0 * u + d[1:]
    out[1:, 1] = u[:-1] - d[1:-1] + u[1:]
    out[2:, 0] = -u[1:-1]
    return out


# the ILP64 OpenBLAS that numpy's wheel bundles, and the routines horocap
# binds: name -> (pointer arguments with info, hidden character lengths)
_OPENBLAS_DIR = Path(np.__file__).parents[1] / "numpy.libs"
LAPACK_ROUTINES = {"dsbgvx": (25, 3), "dpbtrf": (6, 1), "dgtsv": (8, 0)}


@functools.cache
def _lapack(name: str):
    """The LAPACK routine name, as scipy_<name>_64_ of numpy's OpenBLAS."""
    symbol = f"scipy_{name}_64_"
    found = sorted(_OPENBLAS_DIR.glob("libscipy_openblas64_*.so*"))
    if len(found) != 1 or not hasattr(lib := ctypes.CDLL(str(found[0])),
                                      symbol):
        raise ImportError(f"no single libscipy_openblas64_*.so* exporting "
                          f"{symbol} in {_OPENBLAS_DIR}")
    fn = getattr(lib, symbol)
    fn.restype = None
    pointers, lengths = LAPACK_ROUTINES[name]
    fn.argtypes = pointers * [ctypes.c_void_p] + lengths * [ctypes.c_size_t]
    return fn


def _call(name: str, *args) -> int:
    """info of the routine on args: ints by reference as int64, floats by
    reference as double, contiguous float64 or int64 arrays by their data,
    bytes with a hidden size_t length each."""
    if any(isinstance(a, np.ndarray) and not (
            a.dtype in (np.float64, np.int64) and a.flags.c_contiguous)
           for a in args):
        raise TypeError(f"{name} takes contiguous float64 or int64 arrays")
    refs = [ctypes.byref(ctypes.c_int64(a)) if isinstance(a, (int, np.integer))
            else ctypes.byref(ctypes.c_double(a)) if isinstance(a, float)
            else a.ctypes.data if isinstance(a, np.ndarray) else a
            for a in args]
    info = ctypes.c_int64()
    _lapack(name)(*refs, ctypes.byref(info),
                  *(len(a) for a in args if isinstance(a, bytes)))
    return info.value


# dsbgvx's bisection tolerance for its index and value ranges:
# 2 * dlamch("S"), the most accurate it allows
_ABSTOL = 2.0 * np.finfo(np.float64).tiny


def _sbgvx(ab: np.ndarray, bb: np.ndarray, which: bytes = b"A",
           vu: float = math.inf) -> np.ndarray:
    """Ascending eigenvalues of the symmetric-definite banded pencil (A, B):
    all of them (which b"A"), the lowest (b"I") or every one <= vu (b"V").

    ab, bb: LAPACK upper bands (m, ka+1) and (m, kb+1), kb <= ka, row j
    holding A[j-ka, j], ..., A[j, j].  dsbgvx (Crawford's split Cholesky)
    overwrites them, so it gets copies.  All values come from dsterf, a
    range from bisection (dstebz).  LinAlgError if B is not definite.
    """
    ab, bb = (np.array(x, dtype=np.float64, order="C") for x in (ab, bb))
    (m, lda), (mb, ldb) = ab.shape, bb.shape
    if m != mb or m == 0 or not 1 <= ldb <= lda:
        raise ValueError(f"incompatible bands {ab.shape} and {bb.shape}")
    found, w = np.zeros(1, dtype=np.int64), np.empty(m)
    iwork, ifail = (np.empty(c * m, dtype=np.int64) for c in (5, 1))
    # jobz = "N": q and z are never referenced; abstol 0 makes range "A"
    # take dsterf
    info = _call("dsbgvx", b"N", which, b"U", m, lda - 1, ldb - 1, ab, lda,
                 bb, ldb, None, 1, -math.inf, float(vu), 1, 1,
                 0.0 if which == b"A" else _ABSTOL, found, w, None, 1,
                 np.empty(7 * m), iwork, ifail)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsbgvx failed with info = {info}")
    return w[:found[0]]


def constrained_spectrum(S: ParamSurface, constraint: str = "VOLUME",
                         resolution: int = 128, k: int = 10,
                         max_mode: int = 40,
                         upto: float = math.inf) -> SpectrumResult:
    """Lowest eigenvalues of the second-variation form under one constraint.

    The linear constraint (volume or wetting mean) only restricts the
    axisymmetric mode; every higher angular mode satisfies it identically
    and contributes with its spherical-harmonic multiplicity.

    With a finite upto, only the lowest value and the values <= upto are
    solved for: modes 0 and 1 give their lowest value, and each mode its
    values <= sigma = min(upto, the k-th value so far).  Mode l >= 1 is
    mode 1 plus a positive definite potential, so its values lie above
    mode 1's: the lowest value is the lowest of modes 0 and 1, and a mode
    l >= 2 with no value <= sigma ends the scan.
    """
    if constraint not in ("VOLUME", "WETTING", "NONE"):
        raise ValueError(f"unknown constraint {constraint!r}")
    el = _grid(S, resolution).elements
    bounded = math.isfinite(upto)
    collected: list[float] = []
    modes_used = 0
    for l in range(max_mode + 1):
        K, M = el.K0 + l * (l + S.n - 2) * el.P, el.M
        if l > 0:
            # pole regularity: modes with angular dependence vanish on the axis
            K, M = K[1:], M[1:]
        elif constraint == "WETTING":  # int_dM phi is the boundary value
            K, M = K[:-1], M[:-1]
        elif constraint == "VOLUME":  # every c_j > 0: a row sum of M
            K, M = _congruence(K, el.c), _congruence(M, el.c)
        modes_used = l + 1
        sigma = min(upto, collected[k - 1]) if len(collected) >= k else upto
        # K - sigma M definite (a banded Cholesky): every value of mode l
        # exceeds sigma and cannot enter the k values
        above = (math.isfinite(sigma) and (bounded or l >= 2) and _call(
            "dpbtrf", b"U", len(K), K.shape[1] - 1, K - sigma * M,
            K.shape[1]) == 0)
        if above and l >= 2:
            break
        try:
            if not bounded:
                vals = _sbgvx(K, M)
            else:
                vals = () if above else _sbgvx(K, M, b"V", sigma)
                if l < 2 and not len(vals):  # modes 0 and 1: the lowest
                    vals = _sbgvx(K, M, b"I")
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(
                f"eigenvalue solve failed for angular mode {l}: {exc}"
            ) from exc
        mult = sphere_mode_multiplicity(S.n, l)
        collected.extend([float(v) for v in vals[:k] for _ in range(mult)])
        collected.sort()
    eigs = np.array(collected[:k])
    zero_modes = int(np.sum(np.abs(eigs) <= ZERO_MODE_TOL))
    morse = int(np.sum(eigs < -ZERO_MODE_TOL))
    return SpectrumResult(
        constraint=constraint,
        eigenvalues=eigs,
        morse_index=morse,
        zero_modes=zero_modes,
        resolution=resolution,
        num_requested=k,
        modes_used=modes_used,
    )


# ----------------------------------------------------------------------
# finite-difference variation cross-checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VariationCheck:
    functional: str  # AREA | WETTING_AREA | VOLUME | ENERGY | ENERGY_SECOND
    fd_value: float
    formula_value: float
    step: float
    richardson_order: int
    # the signed summands of formula_value, where it has more than one
    terms: tuple = ()


class _Variation:
    """Straight-line admissible variation x + s*Y from a nodal scalar.

    Y = phi*nu + eta*mu with eta a boundary-collar ramp chosen so the
    vertical component of Y vanishes at the boundary: the displaced
    boundary slides inside the flat support exactly.  Y is independent
    of s, so the constructor evaluates Y and Y' once on the node set of
    Q, in closed form off its Meridian and the boundary frame, and every
    functional of s reads them.  With T = (dr, dz)/s, N = (m0, m1) and
    the curvature k = (dr d2z - dz d2r)/s^2, T' = -k N and N' = k T.
    """

    def __init__(self, S: ProfileSurface, phi: ScalarField,
                 Q: QuadratureSpec):
        ns, bf = node_set(S, Q), S.boundary_frame_at()
        m, t = ns.meridian, ns.nodes
        nu1, mu1 = bf.normal[[0, -1]], bf.conormal[[0, -1]]
        if abs(mu1[1]) < 1e-12:
            raise ValueError(
                "conormal is horizontal; boundary slide undefined")
        self.S, self.frame, self.spline, self.sign = S, bf, phi.spline, m.sign
        self.w = Q.rule(0.0, S.t1)[1]  # bare: area(s) forms its own element
        self.nubar_sign = 1.0 if bf.boundary_normal[0] > 0 else -1.0
        self.rho1 = float(bf.coords[0])  # the boundary radius
        self.eta1 = -phi.values[-1] * nu1[1] / mu1[1]
        self.Y1 = phi.values[-1] * nu1 + self.eta1 * mu1
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
        nu, mu = m.sign * m.w * N, m.w * T
        dnu = m.sign * (m.dz * N + m.w * k * T)
        dmu = m.dz * T - m.w * k * N
        f, df = phi.spline(t), phi.spline(t, 1)
        self.jet = np.array([m.rho, m.w, m.dr, m.dz])
        self.Y = f * nu + self.eta1 * ramp * mu
        self.Yp = (df * nu + f * dnu
                   + self.eta1 * (dramp * mu + ramp * dmu))

    # -- functionals of the deformed surface ---------------------------
    def area(self, s: float) -> float:
        n = self.S.n
        rho, z, dr, dz = self.jet + s * np.concatenate([self.Y, self.Yp])
        return unit_sphere_area(n - 1) * float(np.sum(
            self.w * np.hypot(dr, dz) * rho ** (n - 1) / z ** n))

    def wetting_area(self, s: float) -> float:
        """Signed flat area swept on the support relative to s = 0."""
        n, rho1 = self.S.n, self.rho1
        rho_s = rho1 + s * self.Y1[0]
        return (self.nubar_sign * unit_sphere_area(n - 1)
                * (rho_s ** n - rho1 ** n) / n)

    def volume(self, s: float) -> float:
        """Signed enclosed-volume change relative to s = 0 (swept region)."""
        if s == 0.0:
            return 0.0
        n = self.S.n
        snodes, swts = gauss_legendre(8, min(s, 0.0), max(s, 0.0))
        # axis 1 runs over the inner s-nodes
        rho, z, dr, dz = (self.jet + snodes[:, None, None] * np.concatenate(
            [self.Y, self.Yp])).transpose(1, 2, 0)
        f = ((self.Y[0][:, None] * dz - self.Y[1][:, None] * dr)
             * rho ** (n - 1) / z ** (n + 1))
        return (self.sign * math.copysign(1.0, s) * unit_sphere_area(n - 1)
                * float(self.w @ f @ swts))

    def energy(self, s: float) -> float:
        return self.area(s) - math.cos(self.frame.theta) * self.wetting_area(s)


def fd_variation_check(S: ParamSurface, phi: ScalarField, step: float = 1e-3,
                       Q: Optional[QuadratureSpec] = None
                       ) -> dict[str, VariationCheck]:
    """Richardson-extrapolated d/ds of each functional vs its printed formula.

    One pass: area, wetting area and volume are evaluated once at each of
    +-step and +-step/2, and the energy is A - cos(theta) W of those
    values.  The four formulas share one set of bulk and boundary terms.
    Returns AREA, WETTING_AREA, VOLUME and ENERGY, in that order.
    """
    Q = Q or FIELD_RULE
    var = _Variation(S, phi, Q)
    bf, ct = var.frame, math.cos(var.frame.theta)

    def values(s):
        a, w = var.area(s), var.wetting_area(s)
        return np.array([a, w, var.volume(s), a - ct * w])

    def central(d):
        return (values(d) - values(-d)) / (2.0 * d)

    fd = (4.0 * central(step / 2.0) - central(step)) / 3.0
    # g(Y, nu) = phi everywhere: the collar term of Y is along mu, tangent
    H = node_set(S, Q).fields.H
    bulk_phi = phi.integral_M(Q)
    bulk_Hphi = integrate_M(S, lambda t: H * phi.spline(t), Q)
    # boundary terms: g(Y, mu) = eta1 and g(Y, nubar) at t1
    gYmu = float(np.dot(var.Y1, bf.conormal[[0, -1]]))
    gYnubar = float(np.dot(var.Y1, bf.boundary_normal[[0, -1]]))
    bm = integrate_dM(S, 1.0, Q)
    formulas = {
        "AREA": (bulk_Hphi + bm * gYmu, (bulk_Hphi, bm * gYmu)),
        "WETTING_AREA": (bm * gYnubar, ()),
        "VOLUME": (bulk_phi, ()),
        "ENERGY": (bulk_Hphi + bm * (gYmu - ct * gYnubar),
                   (bulk_Hphi, bm * gYmu, -bm * (ct * gYnubar))),
    }
    return {name: VariationCheck(name, float(d), f, step, 4, terms)
            for d, (name, (f, terms)) in zip(fd, formulas.items())}


def energy_second_difference(S: ParamSurface, phi: ScalarField,
                             step: float = 1e-2,
                             Q: Optional[QuadratureSpec] = None
                             ) -> VariationCheck:
    """FD second derivative of E - H_mean*V against quadratic_form.

    At a capillary critical point the second derivative of the volume
    Lagrangian along the straight-line variation depends only on the
    normal scalar, so it must reproduce the quadratic form.
    """
    Q = Q or FIELD_RULE
    var = _Variation(S, phi, Q)
    H, _ = cmc_stats(S, Q)

    def L(s):
        return var.energy(s) - H * var.volume(s)

    L0 = L(0.0)

    def second(d):
        return (L(d) - 2.0 * L0 + L(-d)) / (d * d)

    fd2 = (16.0 * second(step / 2.0) - second(step)) / 15.0
    return VariationCheck("ENERGY_SECOND", fd2, quadratic_form(S, phi, Q),
                          step, 4)


# ----------------------------------------------------------------------
# umbilicity deficit
# ----------------------------------------------------------------------

def umbilicity_deficit(S: ParamSurface,
                       Q: Optional[QuadratureSpec] = None) -> float:
    """D(S) = int_M n g(E^T,E^T)(n|h|^2 - H^2) + |grad Phi|^2 dA.

    The Cauchy-Schwarz term uses the pointwise mean curvature (keeping
    the integrand nonnegative on non-CMC controls); Phi = -H V - n g(E,nu)
    uses the area-weighted mean.  On an umbilical cap the integrand is 0
    node by node, so there D = 0 checks the pointwise consistency of the
    curvature formulas, not the theorem; the checks that can fail are a
    control's D and boundary_cancellation.  grad Phi is closed form on
    both chart kinds: grad V = -E^T and, by Weingarten, d g(E,nu) =
    h(E^T, .), so with e = dw / w^2 (the chart components of g(E, .)),
    dPhi = H e - n h g^-1 e (on a profile chart E^T is meridian and g, h
    diagonal: only g00, h00 enter), read off the cached node-set geometry.
    """
    Q = Q or QuadratureSpec()
    n = S.n
    ns = node_set(S, Q)
    fl = ns.fields
    H_mean, _ = cmc_stats(S, Q)
    cs = n * fl.E_tan_sq * (n * fl.h2 - fl.H ** 2)  # Cauchy-Schwarz term
    if (m := ns.meridian) is not None:
        e, g00 = m.dz / (fl.w * fl.w), m.g00
        dphi = H_mean * e - n * m.h00 * (e / g00)
        return integrate_M(S, cs + dphi * (dphi / g00), Q)
    sd = ns.shapes
    e = (sd.dw / (fl.w * fl.w)[..., None])[..., None]  # column vectors
    dphi = H_mean * e - n * sd.h @ np.linalg.solve(sd.g, e)
    grad_sq = np.sum(dphi * np.linalg.solve(sd.g, dphi), axis=(-2, -1))
    return integrate_M(S, cs + grad_sq, Q)


def boundary_cancellation(S: ParamSurface,
                          Q: Optional[QuadratureSpec] = None) -> float:
    """int_dM [ -sin(theta) + cos(theta) g(x,nubar) + h(mu,mu) g(x,nubar) ] ds.

    Vanishes on constant-angle CMC caps (the key boundary cancellation of
    the stability argument).
    """
    Q = Q or QuadratureSpec()
    bf = node_set(S, Q, face=True).frames
    gxnubar, th = bf.gxnubar, bf.theta
    return integrate_dM(
        S, lambda s: -np.sin(th) + np.cos(th) * gxnubar + bf.hmumu * gxnubar, Q)
