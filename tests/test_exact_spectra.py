"""Exact spectra of the umbilical caps as the oracle of the discrete ones.

A cap of principal curvature k = a/r is, by the Gauss equation, a
geodesic ball of radius psi0 = int_0^t1 r/(a + r cos t) dt in the space
form of curvature kappa = k^2 - 1, and its Jacobi operator is
Delta + n kappa.  The solution of mode l regular at the pole, for the
eigenvalue lam (nu = lam + n kappa), is

* kappa > 0, s = sqrt(kappa) psi: sin^l(s) 2F1(alpha, beta; l + n/2; sin^2(s/2));
* kappa < 0, s = sqrt(-kappa) psi: sinh^l(s) 2F1(alpha, beta; l + n/2; -sinh^2(s/2));
* kappa = 0: psi^l 0F1(; l + n/2; -nu psi^2 / 4), a Bessel function;

with alpha + beta = 2l + n - 1 and alpha beta = l(l+n-1) - nu/kappa.  The
eigenvalues are the roots of the boundary condition: f'(psi0) = q f(psi0)
with q = csc(theta) + k cot(theta) (NONE, and every l >= 1), and for the
volume-constrained mode 0, f' - q f - q (|dM|/|M|) f'/nu = 0.  Everything
here is mpmath at 30 digits and shares no code with the stability layer.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from horocap import stability
from horocap.families import CapKind, CapSpec, ConstructionError, build
from horocap.quadrature import QuadratureSpec
from horocap.stability import ZERO_MODE_TOL, constrained_spectrum

DPS = 30


def radial(n, a, r, l, lam):
    """(f, psi0) of mode l at the eigenvalue lam on the cap (n, a, r)."""
    kappa = (mp.mpf(a) / r) ** 2 - 1
    psi0 = mp.quad(lambda t: r / (a + r * mp.cos(t)),
                   [0, mp.acos((1 - mp.mpf(a)) / r)])
    nu = lam + n * kappa
    if kappa == 0:
        return (lambda psi: psi ** l * mp.hyp0f1(l + mp.mpf(n) / 2,
                                                 -nu * psi ** 2 / 4)), psi0
    c, total = mp.sqrt(abs(kappa)), 2 * l + n - 1
    prod = l * (l + n - 1) - nu / kappa
    root = mp.sqrt(mp.mpc(total ** 2 - 4 * prod))
    alpha, beta = (total + root) / 2, (total - root) / 2
    if kappa > 0:
        def f(psi):
            return mp.re(mp.sin(c * psi) ** l * mp.hyp2f1(
                alpha, beta, l + mp.mpf(n) / 2, mp.sin(c * psi / 2) ** 2))
    else:
        def f(psi):
            return mp.re(mp.sinh(c * psi) ** l * mp.hyp2f1(
                alpha, beta, l + mp.mpf(n) / 2, -mp.sinh(c * psi / 2) ** 2))
    return f, psi0


def condition(n, a, r, l, constraint):
    """The boundary condition of mode l, a function of lam."""
    k = mp.mpf(a) / r
    theta = mp.acos((1 - mp.mpf(a)) / r)
    q = 1 / mp.sin(theta) + k / mp.tan(theta)
    kappa = k ** 2 - 1

    def sn(psi):  # the radius of the geodesic sphere at distance psi
        if kappa == 0:
            return psi
        c = mp.sqrt(abs(kappa))
        return (mp.sin if kappa > 0 else mp.sinh)(c * psi) / c

    def F(lam):
        f, psi0 = radial(n, a, r, l, lam)
        u, du = f(psi0), mp.diff(f, psi0)
        if l == 0 and constraint == "VOLUME":
            ratio = sn(psi0) ** (n - 1) / mp.quad(lambda p: sn(p) ** (n - 1),
                                                  [0, psi0])
            return du - q * u - q * ratio * du / (lam + n * kappa)
        return du - q * u
    return F


def exact_root(F, guess):
    """The root of F bracketed by guess -+ 1e-6 max(1, |guess|)."""
    delta = 1e-6 * max(1.0, abs(guess))
    lo, hi = mp.mpf(guess) - delta, mp.mpf(guess) + delta
    assert mp.sign(F(lo)) != mp.sign(F(hi)), guess
    return float(mp.findroot(F, (lo, hi), solver="anderson"))


def mode_values(S, l, constraint):
    """The discrete values of mode l alone (the spectrum merges modes)."""
    mode0, K1, P = stability._galerkin(S, QuadratureSpec())
    K = mode0[constraint] if l == 0 else K1 + l * (l + S.n - 2) * P
    return np.linalg.eigvalsh(K)


# (n, a, r, mode, constraint, the first value of the mode to 10 digits)
ROWS = [
    (2, 1.0, 0.5, 0, "NONE", -9.5018139770),      # kappa = 3
    (2, 0.6, 0.7, 2, "NONE", 16.1452863576),      # kappa = -0.27
    (3, 0.8, 0.6, 0, "VOLUME", 49.1467357919),    # kappa = 0.78
    (2, 0.3, 0.8, 0, "NONE", -17.3721591821),     # kappa = -0.86
]


@pytest.mark.parametrize("n,a,r,l,constraint,table", ROWS)
def test_first_values_match_the_hypergeometric_roots(n, a, r, l, constraint,
                                                     table):
    S = build(CapSpec(CapKind.SPHERE_CAP, n, a=a, r=r))
    got = mode_values(S, l, constraint)[0]
    with mp.workdps(DPS):
        exact = exact_root(condition(n, a, r, l, constraint), got)
        if constraint == "NONE":
            # the first eigenfunction of a Robin problem has no zero inside
            f, psi0 = radial(n, a, r, l, mp.mpf(exact))
            signs = {mp.sign(f(psi0 * j / 64)) for j in range(1, 65)}
            assert len(signs) == 1
    assert exact == pytest.approx(table, abs=1e-9)
    assert abs(got - exact) <= 1e-8
    # the value is in the spectrum, with its multiplicity
    res = constrained_spectrum(S, constraint, 30)
    mult = stability.sphere_mode_multiplicity(n, l)
    assert np.sum(np.abs(res.eigenvalues - exact) <= 1e-8) == mult


def test_flat_ball_matches_the_bessel_root():
    """kappa = 0 (a = r): the radial solution is a Bessel function."""
    S = build(CapSpec(CapKind.SPHERE_CAP, 2, a=0.8, r=0.8))
    got = mode_values(S, 0, "NONE")[0]
    with mp.workdps(DPS):
        exact = exact_root(condition(2, 0.8, 0.8, 0, "NONE"), got)
        f, psi0 = radial(2, 0.8, 0.8, 0, mp.mpf(exact))
        assert len({mp.sign(f(psi0 * j / 64)) for j in range(1, 65)}) == 1
    assert abs(got - exact) <= 1e-8


def test_translations_are_n_zero_modes():
    """Mode 1 of the cap (2, 1, 0.5) has the root 0: the translations along
    the support, n of them, under every constraint."""
    with mp.workdps(DPS):
        assert abs(condition(2, 1.0, 0.5, 1, "NONE")(mp.mpf(0))) < 1e-20
    S = build(CapSpec(CapKind.SPHERE_CAP, 2, a=1.0, r=0.5))
    assert abs(mode_values(S, 1, None)[0]) <= 1e-10
    for constraint in ("VOLUME", "WETTING", "NONE"):
        eigs = constrained_spectrum(S, constraint).eigenvalues
        assert np.sum(np.abs(eigs) <= 1e-10) == S.n


ATLAS_THETAS = (0.1, 0.3, 0.6, 1.0, 1.57, 2.2, 2.8, 3.0)
ATLAS_RADII = (0.05, 0.3, 1.0, 3.0, 10.0)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_every_atlas_cap_has_n_zero_modes(n):
    """zero_modes counts the n translations on every feasible cap
    a = 1 - r cos(theta) of the atlas, whatever its size: they sit at
    round-off (up to 5e-9 on the n = 6, theta = 0.1, r = 0.05 cap, whose
    next value is 3.7e5), far below ZERO_MODE_TOL, and nothing else does."""
    feasible, worst = 0, 0.0
    for kind in (CapKind.SPHERE_CAP, CapKind.EQUIDISTANT_SPHERE_CAP):
        for theta in ATLAS_THETAS:
            for r in ATLAS_RADII:
                try:
                    S = build(CapSpec(kind, n, a=1.0 - r * math.cos(theta),
                                      r=r))
                except ConstructionError:
                    continue
                res = constrained_spectrum(S, "VOLUME")
                assert (res.zero_modes, res.morse_index) == (n, 0), (
                    kind, theta, r, res.eigenvalues)
                feasible += 1
                worst = max(worst, np.max(np.abs(res.eigenvalues[:n])))
    assert feasible >= 50
    assert worst < 1e-2 * ZERO_MODE_TOL
