"""Array paths of the geometry and stability layers against per-node
scalar references.

The references below are the straightforward loops: one shape-data
evaluation per chart point (SVD normal, Cholesky check and generalized
eigenproblem on box charts, the meridian formulas on profile charts),
one boundary frame per support point, one profile-jet, spline and ramp
evaluation per node and per variation parameter s, and one metric/shape
evaluation per element Gauss point and per angular mode.  The array code
must reproduce them up to rounding.  The closed-form grad Phi of the
umbilicity deficit is checked against a 5-point finite-difference stencil.
The references read the metric and the stencil weights in closed form,
A = |gamma'|/z and B = rho/z off profile_jet, and (1, -8, 0, 8, -1)/12.
"""

import copy
import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from horocap.families import CapKind, CapSpec, PerturbationSpec, build, perturb
from horocap.quadrature import QuadratureSpec, gauss_legendre, unit_sphere_area
from horocap import stability
from horocap.identities import cmc_stats
from horocap.stability import (ScalarField, _grid, _Variation, robin_q,
                               umbilicity_deficit)
from horocap.surfaces import (EvaluationError, GeometryError, GridSurface,
                              ImmersionError, ProfileSurface, SurfaceFields,
                              _jet_shapes, fields_at, integrate_dM,
                              integrate_M, node_set)

REL = 1e-12
CAPS = ("ortho_cap", "tilted_cap", "cap_3d", "bumped_cap")
CHARTS = ("vertical_plane", "tilted_plane", "saddle_chart")


# -- per-point shape and frame references ------------------------------

def ref_shape_from_jet(x, J, Hess, sign):
    """Shape data of one box-chart point from its embedding jet."""
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


def ref_chart_shape(S, u):
    return ref_shape_from_jet(*S.embed_jet(np.asarray(u, dtype=float)),
                              S.orientation_sign())


def ref_boundary_point(S, s):
    u = np.empty(S.n)
    u[0] = S.box[0][0]
    u[1:] = s
    return u


def ref_nubar(S, s):
    """(nubar, mu, theta, shape) at one support point."""
    u = ref_boundary_point(S, s)
    sd = ref_chart_shape(S, u)
    _, J, _ = S.embed_jet(u)
    w = sd.x[-1]
    v = -J[:, 0].astype(float)
    for k in range(1, S.n):
        tk = J[:, k]
        v -= np.dot(v, tk) / np.dot(tk, tk) * tk
    mu = v / (np.linalg.norm(v) / w)
    cos_t = min(1.0, max(-1.0, sd.nu[-1] / (w * w)))
    sin_t = math.sqrt(max(0.0, 1.0 - cos_t ** 2))
    return cos_t * mu + sin_t * sd.nu, mu, math.acos(cos_t), sd


def ref_boundary_frame(S, s, step=1e-4):
    """theta, Hhat (central differences of nubar), h(mu, mu) and nubar."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    nubar, mu, theta, sd = ref_nubar(S, s)
    _, J0, _ = S.embed_jet(ref_boundary_point(S, s))
    Hhat = 0.0
    for k in range(S.n - 1):
        e = np.zeros(S.n - 1)
        e[k] = step
        dnb = (ref_nubar(S, s + e)[0] - ref_nubar(S, s - e)[0]) / (2 * step)
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


def chart_nodes(S):
    axes = [np.linspace(lo, hi, 5) for lo, hi in S.box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, S.n)


def assert_shape_matches(got, i, want):
    for field, ref in (("coords", want.x), ("normal", want.nu), ("g", want.g),
                       ("h", want.h), ("H", want.H), ("h2", want.h2),
                       ("principal_curvatures", want.kappa)):
        np.testing.assert_allclose(getattr(got, field)[i], ref, rtol=REL,
                                   atol=REL, err_msg=field)


def assert_fields_match(got, i, want):
    for field, ref in ref_fields(want).items():
        np.testing.assert_allclose(getattr(got, field)[i], ref, rtol=REL,
                                   atol=REL, err_msg=field)


# -- batched geometry --------------------------------------------------

@pytest.mark.parametrize("name", CAPS)
def test_profile_batch_matches_meridian_formulas(name, request):
    S = request.getfixturevalue(name)
    t = profile_nodes(S)
    shapes, fields = S.shapes(t), fields_at(S, t)
    sign = S.orientation_sign()
    for i, ti in enumerate(t):
        want = ref_meridian_shape(S, ti, sign)
        assert_shape_matches(shapes, i, want)
        assert_fields_match(fields, i, want)


@pytest.mark.parametrize("name", CHARTS + ("tilted_plane_3d",))
def test_box_batch_matches_per_point_shape(name, request):
    S = request.getfixturevalue(name)
    u = chart_nodes(S)
    shapes, fields = S.shapes(u), fields_at(S, u)
    for i, ui in enumerate(u):
        want = ref_chart_shape(S, ui)
        assert_shape_matches(shapes, i, want)
        assert_fields_match(fields, i, want)
        single = S.shape_at(ui)
        np.testing.assert_allclose(single.normal, want.nu, atol=REL)
    # the node set: tensor nodes in itertools.product order, and weights
    # (Gauss weights times |c|/w^n) equal to Gauss weights times sqrt(det g)
    Q = QuadratureSpec(8)
    ns = node_set(S, Q)
    axes = [Q.rule(lo, hi) for lo, hi in S.box]
    nodes = np.array(list(itertools.product(*(a[0] for a in axes))))
    assert ns.nodes.tobytes() == nodes.tobytes()
    wt = np.array([math.prod(c) for c in itertools.product(
        *(a[1] for a in axes))])
    np.testing.assert_allclose(
        ns.weights, wt * np.sqrt(np.linalg.det(S.shapes(nodes).g)),
        rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", CHARTS)
def test_box_boundary_frames_match_per_point_frame(name, request):
    S = request.getfixturevalue(name)
    lo, hi = S.box[1]
    s = np.linspace(lo, hi, 9)
    frames = S.boundary_frames(s[:, None])
    for i, si in enumerate(s):
        want = ref_boundary_frame(S, si)
        assert frames.theta[i] == pytest.approx(want.theta, rel=REL, abs=REL)
        assert frames.hmumu[i] == pytest.approx(want.hmumu, rel=REL, abs=REL)
        # Hhat divides nubar differences by 2e-4: rounding grows by 1e4
        assert frames.Hhat[i] == pytest.approx(want.Hhat, abs=1e-11)
        np.testing.assert_allclose(frames.boundary_normal[i], want.nubar,
                                   rtol=REL, atol=REL)
        assert S.boundary_frame_at(si).Hhat == frames.Hhat[i]


def random_jets(rng, n, count=32):
    """Jets with tangent singular values in [0.5, 2] and heights in [0.5, 2]."""
    d = n + 1
    U = np.linalg.qr(rng.standard_normal((count, d, d)))[0][..., :n]
    V = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    J = U * rng.uniform(0.5, 2.0, (count, 1, n)) @ np.swapaxes(V, -1, -2)
    x = rng.standard_normal((count, d))
    x[:, -1] = rng.uniform(0.5, 2.0, count)
    Hess = rng.standard_normal((count, d, n, n))
    return x, J, Hess + np.swapaxes(Hess, -1, -2)


def assert_normal_matches(x, J, Hess, sign, normal):
    """normal matches the SVD reference and sign * normal / w is positive."""
    w = x[..., -1]
    for i in range(len(x)):
        want = ref_shape_from_jet(x[i], J[i], Hess[i], sign)
        np.testing.assert_allclose(normal[i], want.nu, rtol=REL, atol=REL)
    frame = np.concatenate([J, (sign * normal / w[:, None])[..., None]], -1)
    assert np.all(np.linalg.det(frame) > 0)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("sign", (1, -1))
def test_cofactor_normal_matches_svd_reference(n, sign, rng):
    x, J, Hess = random_jets(rng, n)
    assert_normal_matches(x, J, Hess, sign, _jet_shapes(x, J, Hess,
                                                        sign).normal)


def test_cofactor_normal_on_a_tilted_plane_3d(tilted_plane_3d):
    S = tilted_plane_3d
    u = chart_nodes(S)
    x, J, Hess = S.jets(u)
    assert_normal_matches(x, J, Hess, S.orientation_sign(),
                          S.shapes(u).normal)


@pytest.mark.parametrize("name", CHARTS + ("tilted_plane_3d",))
def test_box_chart_path_runs_no_factorization(name, request, monkeypatch):
    """Shapes, frames, node weights and the deficit of a box chart take no
    SVD, pseudo-inverse, inverse, Cholesky factor or eigensolve."""
    S = copy.copy(request.getfixturevalue(name))
    S.__dict__.pop("_node_sets", None)  # a copy without the cached node sets
    S._sign_cache = None
    Q = QuadratureSpec(16)
    Q.rule(0.0, 1.0)  # numpy builds the rule by an eigensolve, cached
    calls = []
    for attr in ("svd", "pinv", "eigvalsh", "eigh", "inv", "cholesky"):
        def counting(*args, _f=getattr(np.linalg, attr), _a=attr, **kw):
            calls.append(_a)
            return _f(*args, **kw)
        monkeypatch.setattr(np.linalg, attr, counting)
    S.shapes(chart_nodes(S))
    S.boundary_frames(np.array([[0.5 * (lo + hi) for lo, hi in S.box[1:]]]
                               * 3))
    node_set(S, Q).weights
    umbilicity_deficit(S, Q)
    assert calls == []


def test_degenerate_node_in_a_batch_raises():
    # the second tangent column vanishes on the line u_1 = 0.25 only
    def embed_jet(u):
        u0, u1 = u[..., 0], u[..., 1]
        J = np.zeros(u.shape[:-1] + (3, 2))
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = u1 - 0.25
        x = np.stack([u0, np.zeros_like(u0), 1.0 + u1], axis=-1)
        return x, J, np.zeros(u.shape[:-1] + (3, 2, 2))

    S = GridSurface(2, [(0.0, 1.0), (0.0, 1.0)], embed_jet)
    u = np.array([[0.2, 0.5], [0.4, 0.25], [0.6, 0.9]])
    S.shapes(u[[0, 2]])
    with pytest.raises(ImmersionError):
        S.shapes(u)

    def profile_jet(t, height):  # a straight meridian, stopped at t = 0.3
        zero = np.zeros_like(t)
        return t, height - t, np.where(t == 0.3, 0.0, 1.0), \
            np.where(t == 0.3, 0.0, -1.0), zero, zero

    t = np.array([0.1, 0.3, 0.4])
    P = ProfileSurface(2, 0.5, lambda t: profile_jet(t, 1.5))
    P.shapes(t[[0, 2]])
    with pytest.raises(ImmersionError):
        P.shapes(t)
    with pytest.raises(GeometryError):  # z = 0.4 - t leaves the half-space
        ProfileSurface(2, 0.5, lambda t: profile_jet(t, 0.4)).shapes(t)


def old_saddle_jet(u):
    """The saddle chart's jet written for one chart point at a time."""
    x = np.array([u[0], u[1], 1.0 + u[0] * (1.0 + 0.5 * u[1])])
    J = np.array([[1.0, 0.0],
                  [0.0, 1.0],
                  [1.0 + 0.5 * u[1], 0.5 * u[0]]])
    Hess = np.zeros((3, 2, 2))
    Hess[2, 0, 1] = Hess[2, 1, 0] = 0.5
    return x, J, Hess


def test_per_point_jets_break_the_array_contract(saddle_chart):
    u = chart_nodes(saddle_chart)
    contract = r"embed_jet\(u\) must take chart points u of shape"
    # one point at a time it is the saddle chart's jet; a batch breaks it
    S = GridSurface(2, saddle_chart.box, old_saddle_jet)
    for ui in u:
        assert_shape_matches(S.shape_at(ui), (),
                             ref_chart_shape(saddle_chart, ui))
    with pytest.raises(ValueError, match=contract + ".*failed on u of shape"):
        S.shapes(u)
    # a plane jet whose J and Hess lack the point axes
    J = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    origin = np.array([0.0, 0.0, 1.0])
    P = GridSurface(2, [(0.0, 1.0), (0.0, 1.0)],
                    lambda u: (origin + u @ J.T, J, np.zeros((3, 2, 2))))
    P.shape_at(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=contract + ".*returned shapes"):
        P.shapes(u[:2])


@pytest.mark.parametrize("name", CAPS)
def test_profile_boundary_frames_repeat_the_orbit_frame(name, request):
    S = request.getfixturevalue(name)
    s = np.linspace(-1.0, 1.0, 6 * (S.n - 1)).reshape(6, S.n - 1)
    frames, one = S.boundary_frames(s), S.boundary_frame_at()
    pairs = [(getattr(frames, f), getattr(one, f)) for f in
             ("coords", "normal", "conormal", "boundary_normal", "theta",
              "hmumu", "Hhat")]
    for got, want in pairs:
        assert got.shape == (6,) + np.shape(want)
        np.testing.assert_allclose(got, np.broadcast_to(want, got.shape),
                                   rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("name", CAPS)
def test_profile_boundary_frame_is_built_once(name, request):
    S = request.getfixturevalue(name)
    one = S.boundary_frame_at()
    assert S.boundary_frame_at() is one
    assert S.boundary_frame_at(np.full(S.n - 1, 0.3)) is one
    batch = S.boundary_frames(np.zeros((1, S.n - 1)))
    for got, want in ((one.coords, batch.coords[0]),
                      (one.normal, batch.normal[0]),
                      (one.conormal, batch.conormal[0]),
                      (one.boundary_normal, batch.boundary_normal[0]),
                      (one.theta, batch.theta[0]), (one.hmumu, batch.hmumu[0]),
                      (one.Hhat, batch.Hhat[0])):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", CAPS)
def test_profile_face_node_set_is_one_per_surface(name, request):
    S = request.getfixturevalue(name)
    Q = QuadratureSpec(16)
    face = node_set(S, Q, face=True)
    assert node_set(S, Q.refined(), face=True) is face
    assert face.frames is S.boundary_frame_at()


@pytest.mark.parametrize("name", ["bumped_cap", "tilted_cap",
                                  "equidistant_cap", "minimal_cap"])
def test_orientation_needs_no_shape_pass(name, request, monkeypatch):
    S = (build(CapSpec(CapKind.EQUIDISTANT_SPHERE_CAP, a=0.0, r=1.5))
         if name == "minimal_cap" else request.getfixturevalue(name))
    probe = S._shapes(0.5 * S.t1, +1)
    minimal = abs(probe.H) <= 1e-9
    assert minimal == (name == "minimal_cap")  # H = 0: the nu_d rule
    key = probe.normal[-1] if minimal else probe.H
    fresh = ProfileSurface(S.n, S.t1, S.profile_jet)

    def no_shapes(*args):
        raise AssertionError("orientation_sign ran a shape pass")
    monkeypatch.setattr(ProfileSurface, "_shapes", no_shapes)
    assert fresh.orientation_sign() == (1 if key >= 0 else -1)


# -- the meridian record of a profile chart -----------------------------

def meridian_case(kind, n):
    """A sphere cap, an equidistant cap, the minimal cap (a = 0) or a
    bumped control, of dimension n."""
    if kind == "bumped":
        return perturb(meridian_case("sphere", n),
                       PerturbationSpec(amplitude=1e-2))
    a, r = {"sphere": (0.8, 0.6), "equidistant": (-0.5, 2.0),
            "minimal": (0.0, 1.5)}[kind]
    return build(CapSpec(CapKind.SPHERE_CAP if kind == "sphere"
                         else CapKind.EQUIDISTANT_SPHERE_CAP, n=n, a=a, r=r))


MERIDIAN_CASES = [(kind, n) for kind in ("sphere", "equidistant", "minimal",
                                         "bumped") for n in (2, 3, 4)]


def assert_close_to_scale(got, want, err_msg=""):
    """Equal up to 1e-14 relative to the largest value of want."""
    np.testing.assert_allclose(got, want, rtol=1e-14,
                               atol=1e-14 * np.max(np.abs(want)),
                               err_msg=err_msg)


@pytest.mark.parametrize("kind,n", MERIDIAN_CASES)
def test_node_set_fields_match_the_shape_data(kind, n):
    S = meridian_case(kind, n)
    for Q in (QuadratureSpec(16), QuadratureSpec(128)):
        ns = node_set(S, Q)
        want = SurfaceFields.from_shape(S.shapes(ns.nodes))
        for field in dataclasses.fields(SurfaceFields):
            assert_close_to_scale(getattr(ns.fields, field.name),
                                  getattr(want, field.name), field.name)


@pytest.mark.parametrize("kind,n", MERIDIAN_CASES)
def test_profile_deficit_integrand_is_the_matrix_formula(kind, n,
                                                         monkeypatch):
    S, Q = meridian_case(kind, n), QuadratureSpec(64)
    integrands, integrate = [], stability.integrate_M
    monkeypatch.setattr(stability, "integrate_M", lambda S, f, Q: (
        integrands.append(f), integrate(S, f, Q))[1])
    umbilicity_deficit(S, Q)
    # the deficit on a box chart: dPhi = H e - n h g^-1 e with full matrices
    ns = node_set(S, Q)
    fl, sd = ns.fields, S.shapes(ns.nodes)
    cs = n * fl.E_tan_sq * (n * fl.h2 - fl.H ** 2)
    e = (sd.dw / (fl.w * fl.w)[..., None])[..., None]
    dphi = cmc_stats(S, Q)[0] * e - n * sd.h @ np.linalg.solve(sd.g, e)
    want = cs + np.sum(dphi * np.linalg.solve(sd.g, dphi), axis=(-2, -1))
    assert len(integrands) == 1
    assert_close_to_scale(integrands[0], want)


@pytest.mark.parametrize("name", CAPS)
def test_profile_boundary_integral_is_the_orbit_measure(name, request):
    S = request.getfixturevalue(name)
    Q = QuadratureSpec(16)
    measure = S.boundary_radius ** (S.n - 1) * unit_sphere_area(S.n - 1)
    assert integrate_dM(S, 2.5, Q) == pytest.approx(2.5 * measure, rel=1e-15)
    gxnubar = S.boundary_frame_at().gxnubar
    got = integrate_dM(S, lambda s: S.boundary_frames(s).gxnubar, Q)
    assert got == pytest.approx(gxnubar * measure, rel=1e-15)


def test_non_finite_integrand_names_first_bad_node(ortho_cap):
    Q = QuadratureSpec(16)
    t, _ = Q.rule(0.0, ortho_cap.t1)
    with pytest.raises(EvaluationError, match=f"t={t[5]}"):
        integrate_M(ortho_cap, lambda u: np.where(u >= t[5], np.nan, 1.0), Q)


# -- scalar references -------------------------------------------------

def ref_displacement(var, t):
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
    return var.spline(t) * nu + var.eta1 * ramp * mu


def ref_meridian(var, t, s, dt=1e-6):
    rho, z, dr, dz, *_ = var.S.profile_jet(t)
    Y = ref_displacement(var, t)
    Yp = (ref_displacement(var, t + dt) - ref_displacement(var, t - dt)) / (2 * dt)
    return rho + s * Y[0], z + s * Y[1], dr + s * Yp[0], dz + s * Yp[1]


def ref_area(var, s, Q):
    n = var.S.n
    nodes, wts = Q.rule(0.0, var.S.t1)
    total = 0.0
    for t, wq in zip(nodes, wts):
        rho, z, dr, dz = ref_meridian(var, t, s)
        total += wq * math.hypot(dr, dz) * rho ** (n - 1) / z ** n
    return unit_sphere_area(n - 1) * total


def ref_volume(var, s, Q):
    n = var.S.n
    nodes, wts = Q.rule(0.0, var.S.t1)
    snodes, swts = gauss_legendre(8, min(0.0, s), max(0.0, s))
    total = 0.0
    for t, wq in zip(nodes, wts):
        Y = ref_displacement(var, t)
        for sv, sw in zip(snodes, swts):
            rho, z, dr, dz = ref_meridian(var, t, sv)
            total += (wq * sw * (Y[0] * dz - Y[1] * dr)
                      * rho ** (n - 1) / z ** (n + 1))
    return var.sign * math.copysign(1.0, s) * unit_sphere_area(n - 1) * total


def ref_metric(S, t):
    """(A, B) of the induced metric A^2 dt^2 + B^2 dsigma^2 at t."""
    rho, z, dr, dz = S.profile_jet(t)[:4]
    return np.hypot(dr, dz) / z, rho / z


def ref_mode_matrices(g, l):
    S, n, N = g.S, g.S.n, g.N
    lam = l * (l + n - 2)
    omega = unit_sphere_area(n - 1)
    K, M, c = np.zeros((N + 1, N + 1)), np.zeros((N + 1, N + 1)), np.zeros(N + 1)
    glx, glw = gauss_legendre(4, 0.0, 1.0)
    for e in range(N):
        he = g.nodes[e + 1] - g.nodes[e]
        for xi, wq in zip(glx, glw):
            t = g.nodes[e] + he * xi
            A, B = ref_metric(S, t)
            Wt = omega * A * B ** (n - 1) * he * wq
            shp = np.array([1.0 - xi, xi])
            dsh = np.array([-1.0, 1.0]) / he
            pot = (n - fields_at(S, t).h2) + (lam / (B * B) if l > 0 else 0.0)
            for a in range(2):
                c[e + a] += Wt * shp[a]
                for b in range(2):
                    K[e + a, e + b] += Wt * (dsh[a] * dsh[b] / (A * A)
                                             + pot * shp[a] * shp[b])
                    M[e + a, e + b] += Wt * shp[a] * shp[b]
    K[N, N] -= robin_q(S) * g.boundary_measure
    return K, M, c


# -- equivalence -------------------------------------------------------

def variation(S, Q, resolution=64):
    g = _grid(S, resolution)
    vals = 0.15 - 0.1 * np.cos(math.pi * g.nodes / S.t1) \
        + 0.08 * np.cos(2 * math.pi * g.nodes / S.t1)
    return _Variation(S, ScalarField(S, vals), Q)


@pytest.mark.parametrize("name", CAPS)
def test_area_and_volume_match_per_node_loops(name, request):
    S = request.getfixturevalue(name)
    Q = QuadratureSpec(64)
    var = variation(S, Q)
    for s in (-1e-2, -5e-4, 0.0, 5e-4, 1e-2):
        assert var.area(s) == pytest.approx(ref_area(var, s, Q), rel=REL)
        if s != 0.0:
            assert var.volume(s) == pytest.approx(ref_volume(var, s, Q),
                                                  rel=REL)


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
    x = _grid(S, 64).nodes / S.t1
    var = _Variation(S, ScalarField(S, 0.5 + x * (0.1 + x * (0.3 * x - 0.6))),
                     Q)
    t = node_set(S, Q).nodes
    u = (t - 0.8 * S.t1) / (0.2 * S.t1)
    assert np.any((u > -0.05) & (u < 0.0)) and np.any((u > 0.0) & (u < 0.05))
    assert t[-1] + 2.0 * h > S.t1
    w5 = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    want = np.array([sum(c * ref_displacement(var, tj + k * h)
                         for c, k in zip(w5, (-2, -1, 1, 2))) for tj in t]).T
    assert abs(var.eta1) > 0.1
    assert np.max(np.abs(var.Yp - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("name", CAPS)
def test_mode_matrices_match_per_point_assembly(name, request):
    S = request.getfixturevalue(name)
    g = _grid(S, 32)
    el = g.elements
    off_band = np.abs(np.subtract.outer(*2 * [np.arange(g.N + 1)])) > 1
    for l in (0, 1, 2, 7):
        # the mode-l bands constrained_spectrum reads off the elements
        K_ref, M_ref, c_ref = ref_mode_matrices(g, l)
        for got, want in ((el.K0 + l * (l + S.n - 2) * el.P, K_ref),
                          (el.M, M_ref)):
            assert np.all(want[off_band] == 0.0)  # tridiagonal
            band = np.column_stack([np.r_[0.0, np.diag(want, 1)],
                                    np.diag(want)])
            assert np.max(np.abs(got - band)) <= REL * np.max(np.abs(want))
        assert np.max(np.abs(el.c - c_ref)) <= REL * np.max(np.abs(c_ref))


# -- umbilicity deficit: closed-form grad Phi vs a stencil --------------

def ref_deficit(S, Q, step=1e-4):
    """D(S) with grad Phi from 5-point central differences along each axis."""
    n = S.n
    fl = fields_at(S, node_set(S, Q).nodes)
    area = integrate_M(S, 1.0, Q)
    H_mean = integrate_M(S, fl.H, Q) / area
    cs = n * fl.E_tan_sq * (n * fl.h2 - fl.H ** 2)
    w5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * step)

    def dphi(points):
        """Derivative of Phi from the 5 stencil points on the last point axis."""
        f = fields_at(S, points)
        phi = -H_mean * f.V - n * f.gEnu
        return sum(c * phi[..., k] for k, c in enumerate(w5))

    if S.chart_kind == "profile":
        def integrand(t):
            A = ref_metric(S, t)[0]
            return cs + (dphi(t[:, None] + np.arange(-2, 3) * step) / A) ** 2
    else:
        def integrand(u):
            offs = (np.arange(-2, 3)[None, :, None]
                    * (step * np.eye(n))[:, None, :])
            grad = dphi(u[:, None, None, :] + offs)
            ginv = np.linalg.inv(S.shapes(u).g)
            return cs + np.einsum("mi,mij,mj->m", grad, ginv, grad)
    return integrate_M(S, integrand, Q)


@pytest.fixture(scope="module")
def bumped_cap_3d():
    return perturb(build(CapSpec(kind=CapKind.SPHERE_CAP, n=3, a=0.8, r=0.6)),
                   PerturbationSpec(amplitude=1e-2))


@pytest.fixture(scope="module")
def tilted_plane_3d():
    return build(CapSpec(kind=CapKind.TILTED_PLANE_CAP, n=3, beta=1.0,
                         extent=1.0))


@pytest.mark.parametrize("name", ("bumped_cap", "bumped_cap_3d",
                                  "saddle_chart"))
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
