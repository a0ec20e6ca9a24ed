"""Array paths of the geometry and stability layers against per-node
scalar references.

The references below are the straightforward loops: one shape evaluation
per chart point (from the Euclidean embedding jet of a chart (t, y):
SVD normal, Cholesky check and generalized eigenproblem; on a plane
piece y runs over the translations, on a cap over hyperspherical angles
of the rotation orbit; or from the meridian formulas), one boundary
frame per support point (Hhat by central differences of nubar along the
orbit), one profile-jet, spline and ramp evaluation per node and per
variation parameter s (whose differences in s check the exact
s-derivatives), and one metric/shape evaluation per Gauss point and per
angular mode of the raw Legendre pencil.  The Meridian of a node array,
its fields and the surface's one boundary frame must reproduce them up
to rounding.  The closed-form grad Phi of the umbilicity deficit is checked
against a 5-point finite-difference stencil.  The references read the
metric and the stencil weights in closed form, A = |gamma'|/z and
B = rho/z off profile_jet, and (1, -8, 0, 8, -1)/12.
"""

import copy
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import sympy as sp

from horocap.families import CapKind, CapSpec, PerturbationSpec, build, perturb
from horocap.quadrature import QuadratureSpec, gauss_legendre, unit_sphere_area
from horocap import stability
from horocap.identities import cmc_stats
from horocap.stability import _Variation, robin_q, umbilicity_deficit
from horocap.surfaces import (EvaluationError, GeometryError, GridSurface,
                              ImmersionError, Meridian, ProfileSurface,
                              integrate_dM, integrate_M, node_set)

from conftest import spline_field

REL = 1e-12
CAPS = ("ortho_cap", "tilted_cap", "cap_3d", "bumped_cap")
PLANES = ("vertical_plane", "tilted_plane")
# the Meridian's boundary-frame properties
FRAME_PROPERTIES = ("conormal", "theta", "nubar", "gxnubar", "hmumu")


# -- per-point shape and frame references ------------------------------

def ref_shape_from_jet(x, J, Hess, sign):
    """Shape data of one chart point from its Euclidean embedding jet."""
    d, n = J.shape
    w = x[-1]
    g = (J.T @ J) / (w * w)
    try:
        scipy.linalg.cholesky(g)
    except scipy.linalg.LinAlgError as exc:
        raise ImmersionError("induced metric is not positive definite") from exc
    U, _, _ = np.linalg.svd(J, full_matrices=True)
    m = U[:, -1]
    if np.linalg.det(np.column_stack([J, m])) < 0:
        m = -m
    nu = sign * w * m
    dlnw = J[-1, :] / w
    e_d = np.zeros(d)
    e_d[-1] = 1.0
    h = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            T = (Hess[:, i, j] - dlnw[i] * J[:, j] - dlnw[j] * J[:, i]
                 + np.dot(J[:, i], J[:, j]) * e_d / w)
            h[i, j] = -np.dot(nu, T) / (w * w)
    kappa = scipy.linalg.eigh(h, g, eigvals_only=True)
    return SimpleNamespace(x=np.asarray(x, dtype=float), nu=nu, g=g, h=h,
                           H=float(np.sum(kappa)),
                           h2=float(np.sum(kappa * kappa)), kappa=kappa)


def ref_meridian_shape(S, t, sign):
    """Shape data of one profile-chart point from the meridian formulas."""
    rho, z, dr, dz, d2r, d2z = S.profile_jet(t)
    w = z
    s2 = dr * dr + dz * dz
    s = np.sqrt(s2)
    m = np.array([dz, -dr]) / s
    g_tt = s2 / (w * w)
    T_rad = d2r - 2.0 * (dz / w) * dr
    T_ver = d2z - 2.0 * (dz / w) * dz + s2 / w
    h_tt = -sign * w * (m[0] * T_rad + m[1] * T_ver) / (w * w)
    kappa_m = h_tt / g_tt
    kappa_a = sign * (w * m[0] / rho - m[1]) if rho > 1e-13 else kappa_m
    n = S.n
    x = np.zeros(n + 1)
    x[0], x[-1] = rho, z
    nu = np.zeros(n + 1)
    nu[0], nu[-1] = sign * w * m[0], sign * w * m[1]
    return SimpleNamespace(
        x=x, nu=nu,
        g=np.diag([s * s / (w * w)] + [rho * rho / (w * w)] * (n - 1)),
        h=np.diag([kappa_m * s * s / (w * w)]
                  + [kappa_a * rho * rho / (w * w)] * (n - 1)),
        H=kappa_m + (n - 1) * kappa_a,
        h2=kappa_m ** 2 + (n - 1) * kappa_a ** 2,
        kappa=np.sort([kappa_m] + [kappa_a] * (n - 1)))


def ref_fields(sd):
    w = sd.x[-1]
    gxnu = np.dot(sd.x, sd.nu) / (w * w)
    gEnu = sd.nu[-1] / (w * w)
    return {"w": w, "V": 1.0 / w, "gxnu": gxnu, "gEnu": gEnu,
            "gXnu": gxnu - gEnu, "H": sd.H, "h2": sd.h2,
            "E_tan_sq": (1.0 - (sd.nu[-1] / w) ** 2) / (w * w)}


def plane_jet(S, t, y):
    """Euclidean embedding jet of a plane piece at the chart point (t, y)
    of its translations: x = (rho(t), y_1, ..., y_(n-1), z(t)), off
    profile_jet."""
    n = S.n
    rho, z, dr, dz, d2r, d2z = S.profile_jet(t)
    x = np.zeros(n + 1)
    x[0], x[1:n], x[-1] = rho, y, z
    J = np.zeros((n + 1, n))
    J[0, 0], J[-1, 0] = dr, dz
    J[1:n, 1:] = np.eye(n - 1)
    Hess = np.zeros((n + 1, n, n))
    Hess[0, 0, 0], Hess[-1, 0, 0] = d2r, d2z
    return x, J, Hess


@functools.cache
def sphere_chart(k):
    """y -> (sigma, dsigma, d2sigma): hyperspherical coordinates on S^k,
    sigma = (cos y_1, sin y_1 cos y_2, ..., sin y_1 ... sin y_k), and its
    first and second derivatives, differentiated by sympy."""
    y = sp.symbols(f"y0:{k}")
    sigma, prod = [], sp.Integer(1)
    for yi in y:
        sigma.append(prod * sp.cos(yi))
        prod *= sp.sin(yi)
    sigma.append(prod)
    f = sp.lambdify(y, sigma + [sp.diff(c, a) for c in sigma for a in y]
                    + [sp.diff(c, a, b) for c in sigma for a in y for b in y],
                    "math")

    def chart(yv):
        v, m = np.array(f(*yv), dtype=float), k + 1
        return (v[:m], v[m:m + m * k].reshape(m, k),
                v[m + m * k:].reshape(m, k, k))
    return chart


def orbit_jet(S, t, y):
    """Euclidean embedding jet of a cap at the chart point (t, y) of its
    rotations: x = (rho(t) sigma(y), z(t)); at sigma = E_1 it is the
    meridian plane of the code."""
    n = S.n
    rho, z, dr, dz, d2r, d2z = S.profile_jet(t)
    sig, dsig, d2sig = sphere_chart(n - 1)(np.atleast_1d(y))
    x = np.append(rho * sig, z)
    J = np.zeros((n + 1, n))
    J[:n, 0], J[-1, 0], J[:n, 1:] = dr * sig, dz, rho * dsig
    Hess = np.zeros((n + 1, n, n))
    Hess[:n, 0, 0], Hess[-1, 0, 0] = d2r * sig, d2z
    Hess[:n, 0, 1:] = Hess[:n, 1:, 0] = dr * dsig
    Hess[:n, 1:, 1:] = rho * d2sig
    return x, J, Hess


def ref_chart_shape(S, t, y=0.0, jet=plane_jet):
    """The reference at (t, y), oriented by its own positive-H rule at
    (t1/2, y) (nu_d >= 0 there if H = 0)."""
    probe = ref_shape_from_jet(*jet(S, 0.5 * S.t1, y), 1)
    key = probe.H if abs(probe.H) > 1e-9 else probe.nu[-1]
    return ref_shape_from_jet(*jet(S, t, y), 1 if key >= 0 else -1)


def ref_nubar(S, s, jet):
    """(nubar, mu, theta, shape) at the support point (t1, s)."""
    sd = ref_chart_shape(S, S.t1, s, jet)
    _, J, _ = jet(S, S.t1, s)
    w = sd.x[-1]
    v = J[:, 0].copy()  # outward: towards larger t
    for k in range(1, S.n):
        tk = J[:, k]
        v -= np.dot(v, tk) / np.dot(tk, tk) * tk
    mu = v / (np.linalg.norm(v) / w)
    cos_t = min(1.0, max(-1.0, sd.nu[-1] / (w * w)))
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t ** 2))
    return cos_t * mu + sin_t * sd.nu, mu, math.acos(cos_t), sd


def ref_boundary_frame(S, s, jet=plane_jet, step=1e-4):
    """theta, Hhat (central differences of nubar along the orbit's
    orthogonal chart directions), h(mu, mu) and nubar at (t1, s)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    nubar, mu, theta, sd = ref_nubar(S, s, jet)
    _, J0, _ = jet(S, S.t1, s)
    Hhat = 0.0
    for k in range(S.n - 1):
        e = np.zeros(S.n - 1)
        e[k] = step
        dnb = (ref_nubar(S, s + e, jet)[0]
               - ref_nubar(S, s - e, jet)[0]) / (2 * step)
        tangent = J0[:-1, 1 + k]
        Hhat += np.dot(dnb[:-1], tangent) / np.dot(tangent, tangent)
    mu_chart = np.linalg.lstsq(J0, mu, rcond=None)[0]
    return SimpleNamespace(theta=theta, Hhat=Hhat, hmumu=mu_chart @ sd.h @ mu_chart,
                           nubar=nubar)


def profile_nodes(S):
    """Axis node, interior nodes and the bump's support edges (bumped cap)."""
    t1 = S.t1
    edges = [f * t1 + o for f in (0.1, 0.9)
             for o in (-1e-9 * t1, 0.0, 0.8e-9 * t1, 1e-7 * t1)]
    return np.concatenate([[0.0], np.linspace(0.0, t1, 17)[1:], edges])


def meridian_matrices(m):
    """(g, h) of a Meridian, diagonal in the (meridian, cross-section)
    frame, with the point axes of m."""
    k, eye = m.n - 1, np.eye(m.n)
    g = np.stack([m.g00] + [m.B ** 2] * k, axis=-1)
    h = np.stack([m.h00] + [m.kappa_a * m.B ** 2] * k, axis=-1)
    return g[..., None] * eye, h[..., None] * eye


def assert_pair_matches(pair, ref, err_msg=""):
    """A (radial, vertical) pair against the first and last components of
    a Euclidean reference vector, whose other components must be 0."""
    np.testing.assert_allclose(pair, ref[[0, -1]], rtol=REL, atol=REL,
                               err_msg=err_msg)
    np.testing.assert_allclose(ref[1:-1], 0.0, rtol=REL, atol=REL,
                               err_msg=err_msg)


def assert_meridian_matches(m, i, want):
    """Point i of the Meridian m against a per-point reference: x, nu, g,
    h, H, |h|^2 and the sorted principal curvatures."""
    g, h = meridian_matrices(m)
    kappa = np.sort([m.kappa_m[i]] + [m.kappa_a[i]] * (m.n - 1))
    assert_pair_matches((m.rho[i], m.w[i]), want.x, "coords")
    assert_pair_matches((m.normal[0][i], m.normal[1][i]), want.nu, "normal")
    for field, got, ref in (
            ("g", g[i], want.g), ("h", h[i], want.h), ("H", m.H[i], want.H),
            ("h2", m.h2[i], want.h2), ("kappa", kappa, want.kappa)):
        np.testing.assert_allclose(got, ref, rtol=REL, atol=REL,
                                   err_msg=field)


def assert_fields_match(got, i, want):
    for field, ref in ref_fields(want).items():
        np.testing.assert_allclose(getattr(got, field)[i], ref, rtol=REL,
                                   atol=REL, err_msg=field)


# -- the Meridian of a node array ----------------------------------------

@pytest.mark.parametrize("name", CAPS)
def test_profile_batch_matches_meridian_formulas(name, request):
    S = request.getfixturevalue(name)
    t = profile_nodes(S)
    m = S.meridian(t)
    sign = S.orientation_sign()
    for i, ti in enumerate(t):
        want = ref_meridian_shape(S, ti, sign)
        assert_meridian_matches(m, i, want)
        assert_fields_match(m, i, want)


@pytest.mark.parametrize("name", PLANES + ("tilted_plane_3d",))
def test_plane_meridian_matches_per_point_shape(name, request):
    """A plane piece's chart (t, y) sweeps the meridian by translations,
    so the Meridian over t matches the embedding-jet reference at every y."""
    S = request.getfixturevalue(name)
    t = np.linspace(0.0, S.t1, 9)
    m = S.meridian(t)
    y = np.linspace(-0.5, 0.5, S.n - 1) * S.side
    for i, ti in enumerate(t):
        want = ref_chart_shape(S, ti)
        assert_meridian_matches(m, i, want)
        assert_fields_match(m, i, want)
        moved = ref_chart_shape(S, ti, y)
        single = S.shape_at(ti)
        g, h = meridian_matrices(single)
        assert_pair_matches(single.normal, moved.nu)
        for got, ref in ((g, moved.g), (h, moved.h)):
            np.testing.assert_allclose(got, ref, rtol=REL, atol=REL)
    # the node set: Gauss nodes on [0, t1], and weights equal to the Gauss
    # weights times the cube's measure times sqrt(det g)
    Q = QuadratureSpec(8)
    ns = node_set(S, Q)
    nodes, wt = Q.rule(0.0, S.t1)
    assert ns.nodes.tobytes() == nodes.tobytes()
    det = [np.linalg.det(ref_chart_shape(S, ti).g) for ti in nodes]
    np.testing.assert_allclose(ns.weights,
                               wt * S.side ** (S.n - 1) * np.sqrt(det),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", PLANES)
def test_plane_boundary_frame_matches_per_point_frames(name, request):
    """Every point of the translation orbit carries the one frame."""
    S = request.getfixturevalue(name)
    one = S.boundary_frame_at()
    for si in np.linspace(-0.5, 0.5, 9) * S.side:
        want = ref_boundary_frame(S, si)
        assert one.theta == pytest.approx(want.theta, rel=REL, abs=REL)
        assert one.hmumu == pytest.approx(want.hmumu, rel=REL, abs=REL)
        # Hhat divides nubar differences by 2e-4: rounding grows by 1e4
        assert S.Hhat() == pytest.approx(want.Hhat, abs=1e-11)
        assert_pair_matches(one.nubar, want.nubar)


@pytest.mark.parametrize("name", PLANES + ("tilted_plane_3d",))
def test_plane_path_runs_no_factorization(name, request, monkeypatch):
    """The Meridian, the frame, node weights and the deficit of a plane
    piece take no SVD, pseudo-inverse, inverse, solve, Cholesky factor or
    eigensolve."""
    S = copy.copy(request.getfixturevalue(name))
    for cached in ("_node_sets", "_sign", "_frame", "boundary_measure"):
        S.__dict__.pop(cached, None)  # a copy without the cached geometry
    Q = QuadratureSpec(16)
    Q.rule(0.0, 1.0)  # numpy builds the rule by an eigensolve, cached
    calls = []
    for attr in ("svd", "pinv", "eigvalsh", "eigh", "inv", "solve",
                 "cholesky"):
        def counting(*args, _f=getattr(np.linalg, attr), _a=attr, **kw):
            calls.append(_a)
            return _f(*args, **kw)
        monkeypatch.setattr(np.linalg, attr, counting)
    S.meridian(np.linspace(0.0, S.t1, 5))
    S.boundary_frame_at()
    node_set(S, Q).weights
    umbilicity_deficit(S, Q)
    assert calls == []


def test_degenerate_node_in_a_batch_raises():
    def profile_jet(t, height):  # a straight meridian, stopped at t = 0.3
        zero = np.zeros_like(t)
        return t, height - t, np.where(t == 0.3, 0.0, 1.0), \
            np.where(t == 0.3, 0.0, -1.0), zero, zero

    t = np.array([0.1, 0.3, 0.4])
    P = ProfileSurface(2, 0.5, lambda t: profile_jet(t, 1.5))
    P.meridian(t[[0, 2]])
    with pytest.raises(ImmersionError):
        P.meridian(t)
    with pytest.raises(GeometryError):  # z = 0.4 - t leaves the half-space
        ProfileSurface(2, 0.5, lambda t: profile_jet(t, 0.4)).meridian(t)


@pytest.mark.parametrize("name", CAPS)
def test_profile_boundary_frames_repeat_the_orbit_frame(name, request):
    """Every point of the rotation orbit carries the one frame, rotated:
    the per-point reference at hyperspherical angles y off the meridian
    plane has its theta, h(mu, mu) and Hhat, and its nubar rotated."""
    S = request.getfixturevalue(name)
    one = S.boundary_frame_at()
    rng = np.random.default_rng(7)
    for y in rng.uniform(0.3, 2.5, (4, S.n - 1)):
        want = ref_boundary_frame(S, y, jet=orbit_jet)
        sigma = sphere_chart(S.n - 1)(y)[0]
        assert one.theta == pytest.approx(want.theta, rel=REL, abs=REL)
        assert one.hmumu == pytest.approx(want.hmumu, rel=REL, abs=REL)
        # central differences of step 1e-4 on a sphere: error ~ step^2 / 6
        assert S.Hhat() == pytest.approx(want.Hhat, rel=1e-8)
        nubar = one.nubar  # (radial, vertical)
        np.testing.assert_allclose(np.append(nubar[0] * sigma, nubar[1]),
                                   want.nubar, rtol=REL, atol=REL)


@pytest.mark.parametrize("name", CAPS)
def test_profile_boundary_frame_is_built_once(name, request):
    """One profile_jet call, on (t1/2, t1), builds the frame with the
    sign, kept on the surface; a fresh surface builds the same frame."""
    S = request.getfixturevalue(name)
    calls = []
    fresh = ProfileSurface(S.n, S.t1, lambda t: (calls.append(t),
                                                  S.profile_jet(t))[1])
    one = fresh.boundary_frame_at()
    assert fresh.boundary_frame_at() is one
    assert fresh.boundary_measure > 0.0
    assert fresh.orientation_sign() == S.orientation_sign()
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], [[0.5 * S.t1, S.t1]])
    want = S.boundary_frame_at()
    for field in want._fields + FRAME_PROPERTIES:
        np.testing.assert_array_equal(getattr(one, field),
                                      getattr(want, field), err_msg=field)
    assert fresh.Hhat() == S.Hhat()


@pytest.mark.parametrize("name", ["bumped_cap", "tilted_cap",
                                  "equidistant_cap", "minimal_cap"])
def test_orientation_needs_no_shape_pass(name, request, monkeypatch):
    """The orientation reads H (or nu_d) of the Meridian at t1/2, in the
    one profile_jet call that builds the frame, and no ambient fields,
    normal or frame vectors."""
    S = (build(CapSpec(CapKind.EQUIDISTANT_SPHERE_CAP, a=0.0, r=1.5))
         if name == "minimal_cap" else request.getfixturevalue(name))
    probe = S.shape_at(0.5 * S.t1)  # under the surface's sign
    minimal = abs(probe.H) <= 1e-9
    assert minimal == (name == "minimal_cap")  # H = 0: the nu_d rule
    key = probe.normal[-1] if minimal else probe.H
    assert key >= 0  # the surface's sign is the rule's
    calls = []
    fresh = ProfileSurface(S.n, S.t1, lambda t: (calls.append(t),
                                                  S.profile_jet(t))[1])

    def no_shapes(*args):
        raise AssertionError("orientation_sign ran a shape pass")
    for name in ("V", "gxnu", "gEnu", "gXnu", "E_tan_sq",
                 "normal") + FRAME_PROPERTIES:
        monkeypatch.setattr(Meridian, name, property(no_shapes))
    assert fresh.orientation_sign() == S.orientation_sign()
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], [[0.5 * S.t1, S.t1]])


# -- the meridian record of a profile chart -----------------------------

def meridian_case(kind, n):
    """A sphere cap, an equidistant cap, the minimal cap (a = 0), a
    bumped control or a tilted plane piece, of dimension n."""
    if kind == "plane":
        return build(CapSpec(CapKind.TILTED_PLANE_CAP, n=n, beta=1.0,
                             extent=1.2))
    if kind == "bumped":
        return perturb(meridian_case("sphere", n),
                       PerturbationSpec(amplitude=1e-2))
    a, r = {"sphere": (0.8, 0.6), "equidistant": (-0.5, 2.0),
            "minimal": (0.0, 1.5)}[kind]
    return build(CapSpec(CapKind.SPHERE_CAP if kind == "sphere"
                         else CapKind.EQUIDISTANT_SPHERE_CAP, n=n, a=a, r=r))


MERIDIAN_CASES = [(kind, n) for kind in ("sphere", "equidistant", "minimal",
                                         "bumped", "plane")
                  for n in (2, 3, 4)]


def assert_close_to_scale(got, want, err_msg=""):
    """Equal up to 1e-14 relative to the largest value of want."""
    np.testing.assert_allclose(got, want, rtol=1e-14,
                               atol=1e-14 * np.max(np.abs(want)),
                               err_msg=err_msg)


def ref_shapes(S, t):
    """The per-point references of S at the nodes t: from the embedding
    jet on a plane piece, from the meridian formulas on a cap."""
    if isinstance(S, GridSurface):
        return [ref_chart_shape(S, ti) for ti in t]
    return [ref_meridian_shape(S, ti, S.orientation_sign()) for ti in t]


@pytest.mark.parametrize("kind,n", MERIDIAN_CASES)
def test_node_set_fields_match_the_shape_data(kind, n):
    S = meridian_case(kind, n)
    for Q in (QuadratureSpec(16), QuadratureSpec(128)):
        ns = node_set(S, Q)
        refs = [ref_fields(sd) for sd in ref_shapes(S, ns.nodes)]
        for field in refs[0]:
            got = getattr(ns.meridian, field)
            want = [r[field] for r in refs]
            if kind == "plane":  # the SVD reference rounds to about REL
                np.testing.assert_allclose(got, want, rtol=REL, atol=REL,
                                           err_msg=field)
            else:
                assert_close_to_scale(got, want, field)


@pytest.mark.parametrize("kind,n", MERIDIAN_CASES)
def test_profile_deficit_integrand_is_the_matrix_formula(kind, n,
                                                         monkeypatch):
    S, Q = meridian_case(kind, n), QuadratureSpec(64)
    integrands, integrate = [], stability.integrate_M
    monkeypatch.setattr(stability, "integrate_M", lambda S, f, Q: (
        integrands.append(f), integrate(S, f, Q))[1])
    umbilicity_deficit(S, Q)
    # dPhi = H e - n h g^-1 e with the reference's full matrices;
    # dw = (z', 0, ..., 0)
    ns = node_set(S, Q)
    m, refs = ns.meridian, ref_shapes(S, ns.nodes)
    g, h = np.array([r.g for r in refs]), np.array([r.h for r in refs])
    cs = n * m.E_tan_sq * (n * m.h2 - m.H ** 2)
    dw = np.zeros(g.shape[:-1])
    dw[:, 0] = S.profile_jet(ns.nodes)[3]
    e = (dw / (m.w * m.w)[..., None])[..., None]
    dphi = cmc_stats(S, Q)[0] * e - n * h @ np.linalg.solve(g, e)
    want = cs + np.sum(dphi * np.linalg.solve(g, dphi), axis=(-2, -1))
    assert len(integrands) == 1
    assert_close_to_scale(integrands[0], want)


@pytest.mark.parametrize("name", CAPS)
def test_profile_boundary_integral_is_the_orbit_measure(name, request):
    S = request.getfixturevalue(name)
    rho1 = S.boundary_frame_at().rho
    measure = rho1 ** (S.n - 1) * unit_sphere_area(S.n - 1)
    assert integrate_dM(S, 2.5) == pytest.approx(2.5 * measure, rel=1e-15)
    gxnubar = S.boundary_frame_at().gxnubar
    assert integrate_dM(S, gxnubar) == pytest.approx(gxnubar * measure,
                                                     rel=1e-15)


def test_non_finite_integrand_names_first_bad_node(ortho_cap):
    Q = QuadratureSpec(16)
    t, _ = Q.rule(0.0, ortho_cap.t1)
    with pytest.raises(EvaluationError, match=f"t={t[5]}"):
        integrate_M(ortho_cap, np.where(t >= t[5], np.nan, 1.0), Q)


# -- scalar references -------------------------------------------------

def ref_displacement(var, phi, t):
    rho, z, dr, dz, *_ = var.S.profile_jet(t)
    s = math.hypot(dr, dz)
    nu = var.sign * z * np.array([dz, -dr]) / s
    mu = z * np.array([dr, dz]) / s
    t_ramp = 0.8 * var.S.t1
    u = (t - t_ramp) / (var.S.t1 - t_ramp)
    if u <= 0.0:
        ramp = 0.0
    elif u >= 1.0:
        ramp = 1.0
    else:
        a, b = math.exp(-1.0 / u), math.exp(-1.0 / (1.0 - u))
        ramp = a / (a + b)
    return phi.f(t) * nu + var.eta1 * ramp * mu


def ref_meridian(var, phi, t, s, dt=1e-6):
    rho, z, dr, dz, *_ = var.S.profile_jet(t)
    Y = ref_displacement(var, phi, t)
    Yp = (ref_displacement(var, phi, t + dt)
          - ref_displacement(var, phi, t - dt)) / (2 * dt)
    return rho + s * Y[0], z + s * Y[1], dr + s * Yp[0], dz + s * Yp[1]


def ref_area(var, phi, s, Q):
    n = var.S.n
    nodes, wts = Q.rule(0.0, var.S.t1)
    total = 0.0
    for t, wq in zip(nodes, wts):
        rho, z, dr, dz = ref_meridian(var, phi, t, s)
        total += wq * math.hypot(dr, dz) * rho ** (n - 1) / z ** n
    return unit_sphere_area(n - 1) * total


def ref_volume(var, phi, s, Q):
    n = var.S.n
    nodes, wts = Q.rule(0.0, var.S.t1)
    snodes, swts = gauss_legendre(8, min(0.0, s), max(0.0, s))
    total = 0.0
    for t, wq in zip(nodes, wts):
        Y = ref_displacement(var, phi, t)
        for sv, sw in zip(snodes, swts):
            rho, z, dr, dz = ref_meridian(var, phi, t, sv)
            total += (wq * sw * (Y[0] * dz - Y[1] * dr)
                      * rho ** (n - 1) / z ** (n + 1))
    return var.sign * math.copysign(1.0, s) * unit_sphere_area(n - 1) * total


def ref_metric(S, t):
    """(A, B) of the induced metric A^2 dt^2 + B^2 dsigma^2 at t."""
    rho, z, dr, dz = S.profile_jet(t)[:4]
    return np.hypot(dr, dz) / z, rho / z


def ref_legendre(x, degree):
    """P_0 ... P_degree and their derivatives at one x, by the three-term
    recurrence and P'_(j+1) = P'_(j-1) + (2j + 1) P_j."""
    P, dP = [1.0, x], [0.0, 1.0]
    for j in range(1, degree):
        P.append(((2 * j + 1) * x * P[j] - j * P[j - 1]) / (j + 1))
        dP.append(dP[j - 1] + (2 * j + 1) * P[j])
    return np.array(P[:degree + 1]), np.array(dP[:degree + 1])


def ref_mode_values(S, l, order, constraint):
    """Eigenvalues of mode l on the raw basis P_j(2t/t1 - 1), j <= DEGREE
    (times t for l >= 1), assembled one point of the Gauss rule of order
    at a time and solved as a generalized pencil; mode 0 restricted to the
    null space of int_M phi (VOLUME) or of phi(t1) (WETTING)."""
    n, t1, degree = S.n, S.t1, stability.DEGREE
    size = degree + 1
    K, M, c = np.zeros((size, size)), np.zeros((size, size)), np.zeros(size)
    for t, wq in zip(*QuadratureSpec(order).rule(0.0, t1)):
        A, B = ref_metric(S, t)
        W = unit_sphere_area(n - 1) * A * B ** (n - 1) * wq
        P, dP = ref_legendre(2.0 * t / t1 - 1.0, degree)
        phi, dphi = (t * P, P + t * dP * 2.0 / t1) if l else (P, dP * 2.0 / t1)
        pot = n - S.meridian(t).h2 + (l * (l + n - 2) / B ** 2 if l else 0.0)
        K += W * (np.outer(dphi, dphi) / A ** 2 + pot * np.outer(phi, phi))
        M += W * np.outer(phi, phi)
        c += W * phi
    e = np.full(size, t1 if l else 1.0)  # phi at t1
    K -= robin_q(S) * S.boundary_measure * np.outer(e, e)
    if l == 0 and constraint != "NONE":
        Z = scipy.linalg.null_space((c if constraint == "VOLUME" else e)[None])
        K, M = Z.T @ K @ Z, Z.T @ M @ Z
    return scipy.linalg.eigh(K, M, eigvals_only=True)


# -- equivalence -------------------------------------------------------

def variation(S, Q, resolution=64):
    """(the variation, its field): the spline of a cosine series through
    resolution + 1 uniform nodes."""
    t = np.linspace(0.0, S.t1, resolution + 1)
    phi = spline_field(S, 0.15 - 0.1 * np.cos(math.pi * t / S.t1)
                       + 0.08 * np.cos(2 * math.pi * t / S.t1))
    return _Variation(S, phi, Q), phi


def richardson(f, h):
    """f'(0) and f''(0) by central differences at h and h/2, extrapolated."""
    f0 = f(0.0)
    d1, d2 = ([(f(d) - f(-d)) / (2.0 * d), (f(d) - 2.0 * f0 + f(-d)) / d ** 2]
              for d in (h, 0.5 * h))
    return [(4.0 * b - a) / 3.0 for a, b in zip(d1, d2)]


@pytest.mark.parametrize("name", CAPS)
def test_taylor_derivatives_match_per_node_loops(name, request):
    """The exact s-derivatives of area and volume against differences of
    the per-node loops of area(s) and volume(s)."""
    S = request.getfixturevalue(name)
    Q = QuadratureSpec(64)
    var, phi = variation(S, Q)
    got = var.derivatives()
    for key, ref in (("AREA", ref_area), ("VOLUME", ref_volume)):
        first, second = richardson(lambda s: ref(var, phi, s, Q), 1e-3)
        assert got[key][0] == pytest.approx(first, rel=1e-9), key
        assert got[key][1] == pytest.approx(second, rel=1e-6), key


YP_CAPS = {
    "sphere_cap": CapSpec(CapKind.SPHERE_CAP, 2, a=0.6, r=0.7),
    "equidistant_3d": CapSpec(CapKind.EQUIDISTANT_SPHERE_CAP, 3, a=-0.5,
                              r=2.0),
    "geodesic_4d": CapSpec(CapKind.EQUIDISTANT_SPHERE_CAP, 4, a=0.0, r=1.5),
}


@pytest.mark.parametrize("name", [*YP_CAPS, "bumped"])
def test_closed_form_Yp_matches_a_stencil_of_the_jet(name):
    """Y' against 5-point central differences of Y built per point from
    profile_jet (ref_displacement).  phi is a cubic, which its spline
    reproduces, so Y is smooth across the knots.  The rule has nodes on
    both sides of the ramp's start 0.8 t1, and the stencils of its last
    nodes reach past the ramp's end t1.  The bumped control has an oblique
    base, so its boundary slide eta1 is not 0."""
    S = (build(YP_CAPS[name]) if name in YP_CAPS else perturb(
        build(YP_CAPS["sphere_cap"]), PerturbationSpec(amplitude=1e-2)))
    Q, h = QuadratureSpec(256), 3e-5
    x = np.linspace(0.0, 1.0, 65)
    phi = spline_field(S, 0.5 + x * (0.1 + x * (0.3 * x - 0.6)))
    var = _Variation(S, phi, Q)
    t = node_set(S, Q).nodes
    u = (t - 0.8 * S.t1) / (0.2 * S.t1)
    assert np.any((u > -0.05) & (u < 0.0)) and np.any((u > 0.0) & (u < 0.05))
    assert t[-1] + 2.0 * h > S.t1
    w5 = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    want = np.array([sum(c * ref_displacement(var, phi, tj + k * h)
                         for c, k in zip(w5, (-2, -1, 1, 2))) for tj in t]).T
    assert abs(var.eta1) > 0.1
    assert np.max(np.abs(var.Yp - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("name", CAPS)
def test_mode_pencils_match_per_point_assembly(name, request):
    """The orthonormalized mode matrices have the eigenvalues of the raw
    Legendre pencil, assembled per Gauss point."""
    S = request.getfixturevalue(name)
    mode0, K1, P = stability._galerkin(S, QuadratureSpec(64))
    for l, constraint in ((0, "NONE"), (0, "VOLUME"), (0, "WETTING"),
                          (1, None), (2, None), (7, None)):
        K = mode0[constraint] if l == 0 else K1 + l * (l + S.n - 2) * P
        got = np.linalg.eigvalsh(K)[:5]
        want = ref_mode_values(S, l, 64, constraint)[:5]
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-9 * max(1.0, abs(want[-1])))


def test_narrow_bump_spectrum_follows_the_rule():
    """A bump 0.1 t1 wide: the lowest values of modes 0 and 1 on the rule
    of 512 points match the per-point assembly on 1024, and the fewest
    points of the spectra, 2 DEGREE + 16, miss them: the matrices are
    integrated on the rule the caller sets."""
    S = perturb(build(YP_CAPS["sphere_cap"]),
                PerturbationSpec(amplitude=1e-2, support=(0.4, 0.5)))
    want = [ref_mode_values(S, l, 1024, "VOLUME")[:3] for l in (0, 1)]
    for order, resolved in ((512, True), (2 * stability.DEGREE + 16, False)):
        mode0, K1, P = stability._galerkin(S, QuadratureSpec(order))
        for K, ref in zip((mode0["VOLUME"], K1 + (S.n - 1) * P), want):
            got = np.linalg.eigvalsh(K)[:3]
            assert np.allclose(got, ref, rtol=1e-5, atol=0.0) == resolved, (
                order, got, ref)


# -- umbilicity deficit: closed-form grad Phi vs a stencil --------------

def ref_deficit(S, Q, step=1e-4):
    """D(S) with grad Phi from 5-point central differences in t."""
    n, ns = S.n, node_set(S, Q)
    m = ns.meridian
    area = integrate_M(S, 1.0, Q)
    H_mean = integrate_M(S, m.H, Q) / area
    cs = n * m.E_tan_sq * (n * m.h2 - m.H ** 2)
    w5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * step)

    def dphi(points):
        """Derivative of Phi from the 5 stencil points on the last point axis."""
        f = S.meridian(points)
        phi = -H_mean * f.V - n * f.gEnu
        return sum(c * phi[..., k] for k, c in enumerate(w5))

    t = ns.nodes  # Phi depends on t alone: grad Phi is along t
    A = ref_metric(S, t)[0]
    return integrate_M(
        S, cs + (dphi(t[:, None] + np.arange(-2, 3) * step) / A) ** 2, Q)


@pytest.fixture(scope="module")
def bumped_cap_3d():
    return perturb(build(CapSpec(kind=CapKind.SPHERE_CAP, n=3, a=0.8, r=0.6)),
                   PerturbationSpec(amplitude=1e-2))


@pytest.fixture(scope="module")
def tilted_plane_3d():
    return build(CapSpec(kind=CapKind.TILTED_PLANE_CAP, n=3, beta=1.0,
                         extent=1.0))


@pytest.mark.parametrize("name", ("bumped_cap", "bumped_cap_3d"))
def test_deficit_matches_stencil_on_non_umbilical_surfaces(name, request):
    S = request.getfixturevalue(name)
    Q = QuadratureSpec(64)
    want = ref_deficit(S, Q)
    assert want > 1e-6
    assert umbilicity_deficit(S, Q) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("name,order", [
    ("ortho_cap", 64), ("tilted_cap", 64), ("cap_3d", 64),
    ("geodesic_hemisphere", 64), ("vertical_plane", 64),
    ("tilted_plane", 64), ("tilted_plane_3d", 12)])
def test_deficit_matches_stencil_on_umbilical_surfaces(name, order, request):
    S = request.getfixturevalue(name)
    Q = QuadratureSpec(order)
    got, want = umbilicity_deficit(S, Q), ref_deficit(S, Q)
    assert abs(got - want) < 1e-12
    assert abs(got) < 1e-12
