"""End-to-end acceptance gate.

One test per criterion; each prints a single pass/fail line directly to
the terminal (bypassing capture) so a full run reads as a checklist.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest
import sympy as sp

from horocap.cli import run as cli_run
from horocap.config import parse_config
from horocap.families import (CapKind, CapSpec, PerturbationSpec, build,
                              perturb, solve_for_angle)
from horocap.identities import cmc_stats
from horocap.identities import suite as identity_suite
from horocap.quadrature import QuadratureSpec
from horocap.stability import (FIELD_RULE, boundary_cancellation,
                               constrained_spectrum, energy_second_difference,
                               fd_variation_check, quadratic_form,
                               umbilicity_deficit, ScalarField, _grid)
from horocap.surfaces import integrate_M

THETAS = [math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3,
          5 * math.pi / 6]
RADII = [0.3, 0.5, 0.75, 1.0]


@pytest.fixture
def announce(capsys):
    @contextlib.contextmanager
    def _announce(num, name):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"[criterion {num}] {name}: "
                      f"{'PASS' if ok else 'FAIL'}")
    return _announce


@pytest.fixture(scope="module")
def cap_grid():
    """5 x 4 grid of umbilical sphere caps spanning the angle range."""
    caps = []
    for th in THETAS:
        for r in RADII:
            caps.append(solve_for_angle(CapKind.SPHERE_CAP, th, r=r))
    return caps


@pytest.fixture(scope="module")
def reference_caps():
    return [build(CapSpec(kind=CapKind.SPHERE_CAP, n=2, a=1.0, r=0.5)),
            build(CapSpec(kind=CapKind.SPHERE_CAP, n=2, a=0.6, r=0.7)),
            build(CapSpec(kind=CapKind.SPHERE_CAP, n=3, a=0.8, r=0.6)),
            build(CapSpec(kind=CapKind.EQUIDISTANT_SPHERE_CAP, n=2,
                          a=-0.5, r=2.0))]


@pytest.fixture(scope="module")
def control():
    base = build(CapSpec(kind=CapKind.SPHERE_CAP, n=2, a=1.0, r=0.5))
    return perturb(base, PerturbationSpec(amplitude=1e-2))


def _lie_derivative(g, F, xs):
    """(L_F g)_ij = F^k d_k g_ij + g_kj d_i F^k + g_ik d_j F^k."""
    d = len(xs)
    return sp.Matrix(d, d, lambda i, j: sum(
        F[k] * sp.diff(g[i, j], xs[k]) + g[k, j] * sp.diff(F[k], xs[i])
        + g[i, k] * sp.diff(F[k], xs[j]) for k in range(d)))


def _hessian(f, g, xs):
    """Hess_ij f = d_i d_j f - Gamma^k_ij d_k f from the Christoffel symbols."""
    d = len(xs)
    ginv = g.inv()

    def gamma(k, i, j):
        return sum(ginv[k, l] * (sp.diff(g[i, l], xs[j])
                                 + sp.diff(g[j, l], xs[i])
                                 - sp.diff(g[i, j], xs[l])) / 2
                   for l in range(d))
    return sp.Matrix(d, d, lambda i, j: sp.diff(f, xs[i], xs[j]) - sum(
        gamma(k, i, j) * sp.diff(f, xs[k]) for k in range(d)))


def _is_zero(M) -> bool:
    """Exact test: every entry of M cancels to 0 as a rational function."""
    return all(sp.cancel(e) == 0 for e in M)


def _vanishes_on_circle(e, t) -> bool:
    """Exact test for a rational function e of cos t and sin t.

    With C = cos t and S = sin t its numerator is a polynomial in C and S;
    e vanishes for every t iff the numerator's remainder modulo
    S^2 + C^2 - 1, as a polynomial in S, is 0.
    """
    C, S = sp.symbols("C S", real=True)
    num = sp.numer(sp.together(e.subs({sp.cos(t): C, sp.sin(t): S})))
    return sp.expand(sp.rem(sp.expand(num), S**2 + C**2 - 1, S)) == 0


def test_criterion_1_ambient_identities(announce):
    """Exact in sympy, on g = delta / x_d^2 with V = 1 / x_d."""
    with announce(1, "ambient field and potential identities"):
        t0 = time.perf_counter()
        for d in (3, 4):
            xs = sp.symbols(f"x1:{d + 1}", positive=True)
            w = xs[-1]
            g = sp.eye(d) / w**2
            V = 1 / w
            x = sp.Matrix(xs)
            E = [sp.eye(d)[:, i] for i in range(d)]
            # (field, conformal factor lambda) with L_F g = 2 lambda g
            fields = ([(x, 0)] + [(E[a], 0) for a in range(d - 1)]
                      + [(E[-1], -V), (x - E[-1], V)])
            for F, lam in fields:
                assert _is_zero(_lie_derivative(g, F, xs) - 2 * lam * g), (
                    d, list(F), lam)
            assert _is_zero(_hessian(V, g, xs) - V * g), d
            # on the support {x_d = 1}, with outward unit normal N = -E_d
            N = -E[-1]
            grad_V = g.inv() * sp.Matrix([sp.diff(V, xi) for xi in xs])
            on_support = {w: 1}
            assert _is_zero(((x - E[-1]).T * g * N).subs(on_support)), d
            assert _is_zero((grad_V.T * g * N - sp.Matrix([V]))
                            .subs(on_support)), d
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_integral_identity_grid(announce, cap_grid):
    with announce(2, "integral identity suite on the cap grid"):
        t0 = time.perf_counter()
        Q = QuadratureSpec(128)
        for S in cap_grid:
            for rep in identity_suite(S, Q):
                assert rep.rel_residual < 1e-8, (rep.identity_id,
                                                 rep.rel_residual)
                assert rep.status == "PASS"
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_negative_control(announce, control):
    with announce(3, "non-CMC control fails only the CMC-bound identity"):
        rows = {r.identity_id: r for r in identity_suite(
            control, QuadratureSpec(128))}
        for iid in ("I_BOUNDARY_MINK", "I_HX_NU", "I_MINK1", "I_X_NU"):
            rep = rows[iid]
            assert rep.rel_residual < 1e-6, (iid, rep.rel_residual)
        rep = rows["I_COR"]
        assert rep.rel_residual > 1e-5
        assert rep.status == "EXPECTED_FAIL"


def test_criterion_4_jacobi_and_robin_relations(announce):
    """Exact in sympy on the umbilical cap rho = r sin t, z = a + r cos t.

    Every CMC surface horocap builds is such a cap; n, a and r stay
    symbolic.  Convention of the code: the unit normal is z (sin t, cos t),
    so g(Y,nu) = <Y, (sin t, cos t)> / z, with H = n a/r and every
    principal curvature a/r, h(mu,mu) among them; Delta is the profile form
    of the stability docstring, A = |gamma'|/z = r/z and B = rho/z.  At
    the boundary t = t1 the contact angle is theta = t1, a = 1 - r cos t1,
    q = csc(theta) + (a/r) cot(theta) and d/dmu f = f'(t1)/A(t1).
    """
    with announce(4, "Jacobi and Robin relations, exactly"):
        t0 = time.perf_counter()
        n, r = sp.symbols("n r", positive=True)
        a, t = sp.symbols("a t", real=True)
        rho, z = r * sp.sin(t), a + r * sp.cos(t)
        A, B, k = r / z, rho / z, a / r
        H, h2 = n * k, n * k**2

        def d(f):
            return sp.diff(f, t)

        def lap(f):
            return (d(d(f)) / A**2
                    + d(f) * ((n - 1) * d(B) / (A**2 * B) - d(A) / A**3))

        def jac(f):
            return lap(f) + (h2 - n) * f

        def g(Y, frame):
            return (Y[0] * frame[0] + Y[1] * frame[1]) / z

        nu, mu = (sp.sin(t), sp.cos(t)), (sp.cos(t), -sp.sin(t))
        x, X = (rho, z), (rho, z - 1)  # x and x - E
        V, gxnu, gEnu, gXnu = 1 / z, g(x, nu), sp.cos(t) / z, g(X, nu)
        Phi = -H * V - n * gEnu
        bulk = {
            "J g(x,nu) = 0": jac(gxnu),
            "J g(E,nu) = -HV - n g(E,nu)": jac(gEnu) + H * V + n * gEnu,
            "J g(X,nu) = HV + n g(E,nu)": jac(gXnu) - H * V - n * gEnu,
            "Delta Phi = (n|h|^2 - H^2) g(E,nu)":
                lap(Phi) - (n * h2 - H**2) * gEnu,
        }
        for name, e in bulk.items():
            assert _vanishes_on_circle(e, t), name
        # theta enters as a constant: d/dmu differentiates only in t
        th = sp.Symbol("theta", real=True)
        st, ct = sp.sin(th), sp.cos(th)
        q = 1 / st + k * ct / st
        phi = n * V - H * gXnu - n * ct * gxnu
        pot = V - ct * gEnu

        def dmu(f):
            return d(f) / A

        boundary = {
            "Robin V - cos(theta) g(E,nu)": dmu(pot) - q * pot,
            "Robin g(X,nu)": dmu(gXnu) - q * gXnu,
            "d/dmu g(x,nu) = rho + h(mu,mu) g(x,mu)":
                dmu(gxnu) - rho - k * g(x, mu),
            "g(X,mu) = cot(theta) g(X,nu)": g(X, mu) - ct / st * gXnu,
            "Robin phi_test": dmu(phi) - q * phi,
            "Phi(t1) = -H - n cos(theta)": Phi + H + n * ct,
            "d/dmu Phi = -sin(theta) (H - n h(mu,mu))":
                dmu(Phi) + st * (H - n * k),
        }
        at_t1 = {th: t, a: 1 - r * sp.cos(t)}
        for name, e in boundary.items():
            assert _vanishes_on_circle(e.subs(at_t1), t), name
        assert time.perf_counter() - t0 < 5.0


def test_criterion_5_kernel_and_constancy(announce, reference_caps,
                                          distinguished_fields, norm_sq):
    """Q(phi_test) ~ 0 and Phi constant on the reference caps.  On a cap
    z phi_test reduces to 0 for every t, so the Q(phi_test) half is Q(0)
    up to rounding; the form is checked where it can fail by
    tests/test_stability.py::TestQuadraticForm::
    test_dilation_field_reduces_to_its_boundary."""
    with announce(5, "quadratic form annihilates the distinguished field"):
        for S in reference_caps:
            phi, Phi = distinguished_fields(S, 128)
            Q = quadratic_form(S, phi)
            assert abs(Q) < 1e-6 * norm_sq(phi) + 1e-18
            H, _ = cmc_stats(S, FIELD_RULE)
            const = -H - S.n * math.cos(S.boundary_frame_at().theta)
            assert np.max(np.abs(Phi.values - const)) < 1e-6


def test_criterion_6_stability_sweep(announce, cap_grid):
    with announce(6, "constrained spectra nonnegative across the family"):
        t0 = time.perf_counter()
        for S in cap_grid:
            res = constrained_spectrum(S, "VOLUME", 10)
            assert res.eigenvalues[0] >= -1e-6, res.eigenvalues[0]
        for n, r in ((2, 1.5), (2, 2.5), (3, 2.0)):
            G = build(CapSpec(kind=CapKind.EQUIDISTANT_SPHERE_CAP, n=n,
                              a=0.0, r=r))
            res = constrained_spectrum(G, "WETTING", 10)
            assert res.eigenvalues[0] >= -1e-6, res.eigenvalues[0]
        assert time.perf_counter() - t0 < 120.0


def test_criterion_7_deficit_functional(announce, reference_caps, control):
    with announce(7, "umbilicity deficit separates caps from controls"):
        Q = QuadratureSpec(128)
        for S in reference_caps:
            assert abs(umbilicity_deficit(S, Q)) < 1e-8
            assert abs(boundary_cancellation(S)) < 1e-8
        assert umbilicity_deficit(control, Q) > 1e-6


def test_criterion_8_variation_cross_checks(announce, reference_caps):
    with announce(8, "exact variation derivatives match formulas"):
        for S in reference_caps[:2]:
            g = _grid(S, 64)
            vals = (0.15 - 0.1 * np.cos(math.pi * g.nodes / S.t1)
                    + 0.08 * np.cos(2 * math.pi * g.nodes / S.t1))
            phi = ScalarField(S, vals)
            checks = fd_variation_check(S, phi)
            for functional in ("AREA", "WETTING_AREA", "VOLUME", "ENERGY"):
                chk = checks[functional]
                rel = abs(chk.fd_value - chk.formula_value) / max(
                    abs(chk.formula_value), 1e-12)
                assert rel < 1e-6, (functional, rel)
            vals0 = vals - phi.integral_M() / integrate_M(
                S, 1.0, QuadratureSpec(256))
            chk = energy_second_difference(S, ScalarField(S, vals0))
            fd2, qf = chk.fd_value, chk.formula_value
            assert abs(fd2 - qf) / max(abs(qf), 1e-12) < 1e-3


def test_criterion_9_deterministic_reports(announce, tmp_path):
    with announce(9, "identical configs give byte-identical reports"):
        raw = {
            "schema_version": 1,
            "surfaces": [
                {"label": "cap-ortho", "kind": "sphere_cap", "a": 1.0,
                 "r": 0.5},
                {"label": "control", "kind": "sphere_cap", "a": 1.0,
                 "r": 0.5, "perturbation": {"amplitude": 0.01}},
            ],
            "numerics": {"quad_order": 64, "grid": 64},
            "output": {"dir": "", "formats": ["csv", "json"]},
        }
        bodies = []
        for name in ("r1", "r2"):
            raw["output"]["dir"] = str(tmp_path / name)
            cfg = parse_config(json.loads(json.dumps(raw)))
            cli_run(cfg, "verify")
            bodies.append((tmp_path / name / "verify.csv").read_bytes())
        assert bodies[0] == bodies[1]
