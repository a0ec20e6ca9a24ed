"""Array paths of the stability layer against per-node scalar references.

The references below are the straightforward loops: one profile-jet,
spline and ramp evaluation per node and per variation parameter s, and
one metric/shape evaluation per element Gauss point and per angular
mode.  The array code must reproduce them up to rounding.
"""

import math

import numpy as np
import pytest

from horocap.quadrature import QuadratureSpec, gauss_legendre, unit_sphere_area
from horocap.stability import (ScalarField, _grid, _mode_matrices,
                               _Variation, robin_q)
from horocap.surfaces import fields_at

REL = 1e-12
CAPS = ("ortho_cap", "tilted_cap", "cap_3d", "bumped_cap")


# -- scalar references -------------------------------------------------

def ref_displacement(var, t):
    rho, z, dr, dz, *_ = var.S.profile_jet(t)
    s = math.hypot(dr, dz)
    nu = var.sign * z * np.array([dz, -dr]) / s
    mu = z * np.array([dr, dz]) / s
    u = (t - var.t_ramp) / (var.S.t1 - var.t_ramp)
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
            A, B, _, _ = S.metric_coeffs(t)
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
    K[N, N] -= robin_q(S).q * g.boundary_measure
    return K, M, c


# -- equivalence -------------------------------------------------------

def variation(S, resolution=64):
    g = _grid(S, resolution)
    vals = 0.15 - 0.1 * np.cos(math.pi * g.nodes / S.t1) \
        + 0.08 * np.cos(2 * math.pi * g.nodes / S.t1)
    return _Variation(S, ScalarField(S, vals))


@pytest.mark.parametrize("name", CAPS)
def test_area_and_volume_match_per_node_loops(name, request):
    S = request.getfixturevalue(name)
    var = variation(S)
    Q = QuadratureSpec(64)
    for s in (-1e-2, -5e-4, 0.0, 5e-4, 1e-2):
        assert var.area(s, Q) == pytest.approx(ref_area(var, s, Q), rel=REL)
        if s != 0.0:
            assert var.volume(s, Q) == pytest.approx(ref_volume(var, s, Q),
                                                     rel=REL)


@pytest.mark.parametrize("name", CAPS)
def test_mode_matrices_match_per_point_assembly(name, request):
    S = request.getfixturevalue(name)
    g = _grid(S, 32)
    for l in (0, 1, 2, 7):
        for got, want in zip(_mode_matrices(g, l), ref_mode_matrices(g, l)):
            assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))
