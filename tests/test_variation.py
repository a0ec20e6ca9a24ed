"""Exact s-derivatives of the variations against their formulas."""

import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from horocap.cli import _variation_field, run
from horocap.config import parse_config
from horocap.families import CapKind, CapSpec, build
from horocap.identities import cmc_stats, suite
from horocap.quadrature import QuadratureSpec
from horocap import stability
from horocap.stability import (ScalarField, energy_second_difference,
                               fd_variation_check, quadratic_form,
                               umbilicity_deficit, _Variation)
from horocap.surfaces import integrate_M

from conftest import cosine_field, mean_zero

FUNCTIONALS = ("AREA", "WETTING_AREA", "VOLUME", "ENERGY")


def smooth_field(S, coeffs=(0.15, -0.1, 0.08)):
    return cosine_field(S, coeffs)


def constant_field(S, value=1.0):
    return ScalarField(S, lambda t: np.full(np.shape(t), value),
                       np.zeros_like)


def rel_err(chk):
    return abs(chk.fd_value - chk.formula_value) / max(
        abs(chk.formula_value), 1e-12)


class TestField:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    def test_variation_field_derivative_is_closed_form(self, tilted_cap,
                                                       seed):
        """The CLI's field: df against a central difference of f (the
        difference's own error, h^2/6 times the third derivative plus
        rounding, is below 1e-9 at h = 1e-6), and df(0) = 0: a cosine
        series is flat at the pole."""
        phi, h = _variation_field(tilted_cap, seed), 1e-6
        t = np.linspace(h, tilted_cap.t1 - h, 101)
        fd = (phi.f(t + h) - phi.f(t - h)) / (2.0 * h)
        assert np.max(np.abs(phi.df(t) - fd)) < 1e-8
        assert phi.df(np.zeros(1))[0] == 0.0
        assert phi.boundary_value == phi.f(np.array([tilted_cap.t1]))[0]

    def test_variation_field_is_seeded(self, tilted_cap):
        t = np.linspace(0.0, tilted_cap.t1, 9)
        a, b = (_variation_field(tilted_cap, seed).f(t) for seed in (3, 3))
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, _variation_field(tilted_cap, 4).f(t))

    def test_reads_once_per_node_set(self, tilted_cap):
        calls = Counter()

        def f(t):
            calls["f"] += 1
            return np.cos(t)

        def df(t):
            calls["df"] += 1
            return -np.sin(t)
        phi = ScalarField(tilted_cap, f, df)
        for Q in (QuadratureSpec(64), QuadratureSpec(64), QuadratureSpec(32)):
            assert phi.read(Q) is phi.read(Q)
        assert calls == {"f": 2, "df": 2}

    def test_constant_field_integrates_to_the_area(self, tilted_cap, cap_3d):
        for S in (tilted_cap, cap_3d):
            for Q in (QuadratureSpec(64), QuadratureSpec(256)):
                one = constant_field(S)
                assert one.integral_M(Q) == pytest.approx(
                    integrate_M(S, 1.0, Q), rel=1e-14)


class TestFirstVariation:
    def test_volume_rate_of_unit_normal_speed_is_area(self, tilted_cap):
        """phi = 1 moves every point at unit normal speed: V'(0) = area."""
        phi = constant_field(tilted_cap)
        chk = fd_variation_check(tilted_cap, phi)["VOLUME"]
        area = integrate_M(tilted_cap, 1.0, QuadratureSpec(256))
        assert chk.formula_value == pytest.approx(area, rel=1e-6)
        assert rel_err(chk) < 1e-6

    @pytest.mark.parametrize("functional", FUNCTIONALS)
    def test_all_functionals_match_formula(self, tilted_cap, functional):
        phi = smooth_field(tilted_cap)
        chk = fd_variation_check(tilted_cap, phi)[functional]
        assert rel_err(chk) < 1e-6, (functional, chk)

    def test_three_dimensional_cap(self, cap_3d):
        phi = smooth_field(cap_3d)
        checks = fd_variation_check(cap_3d, phi)
        for functional in FUNCTIONALS:
            chk = checks[functional]
            assert rel_err(chk) < 1e-6, (functional, chk)

    def test_energy_is_area_minus_cos_theta_wetting(self, tilted_cap):
        phi = smooth_field(tilted_cap)
        ct = math.cos(tilted_cap.boundary_frame_at().theta)
        checks = fd_variation_check(tilted_cap, phi)
        e = checks["ENERGY"].formula_value
        a = checks["AREA"].formula_value
        w = checks["WETTING_AREA"].formula_value
        assert e == pytest.approx(a - ct * w, rel=1e-12)

    def test_critical_point_energy_rate_vanishes_for_volume_preserving(
            self, tilted_cap):
        """dE = H * dVol for the constructed variations; at fixed volume
        rate the energy rate reduces to H times the volume rate."""
        phi = smooth_field(tilted_cap)
        H_mean, _ = cmc_stats(tilted_cap, QuadratureSpec(256))
        checks = fd_variation_check(tilted_cap, phi)
        dE = checks["ENERGY"].formula_value
        dV = checks["VOLUME"].formula_value
        assert dE == pytest.approx(H_mean * dV, rel=1e-8)


class TestSecondVariation:
    def test_matches_quadratic_form_on_caps(self, ortho_cap, tilted_cap):
        for S in (ortho_cap, tilted_cap):
            chk = energy_second_difference(S, mean_zero(smooth_field(S)))
            fd2, qf = chk.fd_value, chk.formula_value
            assert abs(fd2 - qf) / max(abs(qf), 1e-12) < 1e-3

    # (n, theta, r, seed of the CLI field): thin, flat, small and wide caps
    # of a = 1 - r cos(theta), on which a finite difference in s was off by
    # up to 33 relative
    @pytest.mark.parametrize("n,theta,r,seed", [
        (2, 0.1, 0.05, 0), (2, 0.1, 0.3, 0), (2, 0.3, 0.8, 1),
        (2, 0.75, 0.8, 1), (2, 2.8, 0.8, 1), (2, 3.0, 0.05, 0),
        (3, 0.1, 0.3, 1), (6, 1.0, 10.0, 0)])
    def test_matches_the_quadratic_form_to_quadrature_accuracy(
            self, n, theta, r, seed):
        """Q and the exact second derivative read one field on one rule,
        so they agree to the quadrature error."""
        S = build(CapSpec(CapKind.SPHERE_CAP, n, a=1.0 - r * math.cos(theta),
                          r=r))
        Q = QuadratureSpec(512)
        phi0 = mean_zero(_variation_field(S, seed), Q)
        chk = energy_second_difference(S, phi0, Q=Q)
        assert chk.formula_value == quadratic_form(S, phi0, Q)
        assert rel_err(chk) < 1e-8

    def test_kernel_direction_gives_tiny_second_difference(
            self, tilted_cap, distinguished_fields, norm_sq):
        phi, _ = distinguished_fields(tilted_cap, 64)
        chk = energy_second_difference(tilted_cap, phi)
        fd2, qf = chk.fd_value, chk.formula_value
        # both sides sit at the round-off floor of the energy evaluation
        assert abs(qf) < 1e-6 * norm_sq(phi) + 1e-18
        assert abs(fd2) < 1e-7

    def test_coarse_quadrature_controls_accuracy(self, tilted_cap):
        """The collar ramp needs a fine rule; a crude one degrades accuracy."""
        phi = smooth_field(tilted_cap)
        fine = fd_variation_check(tilted_cap, phi,
                                  Q=QuadratureSpec(256))["AREA"]
        crude = fd_variation_check(tilted_cap, phi,
                                   Q=QuadratureSpec(16))["AREA"]
        assert rel_err(fine) < 1e-6
        assert rel_err(fine) <= rel_err(crude)


def count_builds(monkeypatch) -> Counter:
    """Count the derivative passes of every variation and the distinct
    collars (the field-independent parts of a surface's variations) that
    they read."""
    calls = Counter()
    derivatives, collar = _Variation.derivatives, stability._collar

    def counted(self):
        calls["derivatives"] += 1
        return derivatives(self)

    def recorded(S, Q):
        c = collar(S, Q)
        calls[id(c)] += 1
        return c

    monkeypatch.setattr(_Variation, "derivatives", counted)
    monkeypatch.setattr(stability, "_collar", recorded)
    return calls


class TestOnePass:
    def test_one_derivative_pass_per_check(self, tilted_cap, monkeypatch):
        calls = count_builds(monkeypatch)
        checks = fd_variation_check(tilted_cap, smooth_field(tilted_cap),
                                    Q=QuadratureSpec(64))
        assert list(checks) == list(FUNCTIONALS)
        assert [c.functional for c in checks.values()] == list(FUNCTIONALS)
        assert calls["derivatives"] == 1

    def test_one_cli_surface(self, tmp_path, monkeypatch):
        calls = count_builds(monkeypatch)
        cfg = parse_config({
            "schema_version": 1,
            "surfaces": [{"label": "cap", "kind": "sphere_cap", "a": 0.6,
                          "r": 0.7}],
            "numerics": {"quad_order": 64},
            "output": {"dir": str(tmp_path), "formats": ["csv"]},
        })
        assert run(cfg, "variation-check").ok
        # one pass for the first variations and one for the second; the
        # collar of the surface is built once and read by both
        assert calls.pop("derivatives") == 2
        assert list(calls.values()) == [2]

    def test_collar_is_shared_and_moves_no_value(self, tilted_cap):
        """Variations of one surface read one collar; a fresh surface
        gives the same derivatives."""
        Q, phi = QuadratureSpec(64), smooth_field(tilted_cap)
        a, b = _Variation(tilted_cap, phi, Q), _Variation(
            tilted_cap, smooth_field(tilted_cap, coeffs=(1.0,)), Q)
        assert a.jet is b.jet
        fresh = build(CapSpec(kind=CapKind.SPHERE_CAP, a=0.6, r=0.7))
        assert _Variation(fresh, ScalarField(fresh, phi.f, phi.df),
                          Q).derivatives() == a.derivatives()

    def test_second_variation_row_reads_the_quadratic_form(self, tilted_cap):
        phi = smooth_field(tilted_cap)
        chk = energy_second_difference(tilted_cap, phi)
        assert chk.functional == "ENERGY_SECOND"
        assert chk.formula_value == quadratic_form(tilted_cap, phi)
        assert chk.terms == ()

    def test_summands_of_one_sign_never_exceed_the_formula(self, tilted_cap,
                                                           cap_3d):
        """The grading scale is |formula| exactly when nothing cancels."""
        same_sign = 0
        for S in (tilted_cap, cap_3d):
            for coeffs in ((0.15, -0.1, 0.08), (1.0,), (0.2, 0.1)):
                for chk in fd_variation_check(
                        S, smooth_field(S, coeffs=coeffs)).values():
                    if not chk.terms:
                        continue
                    assert math.fsum(chk.terms) == pytest.approx(
                        chk.formula_value, rel=1e-12)
                    if len({math.copysign(1.0, t) for t in chk.terms}) == 1:
                        same_sign += 1
                        assert (max(map(abs, chk.terms))
                                <= abs(chk.formula_value))
        assert same_sign > 0


class TestCaching:
    def test_surfaces_freed_without_the_cyclic_collector(self):
        """Node sets and field reads cached on a surface or a field hold
        the surface weakly."""
        Q = QuadratureSpec(32)
        cap = build(CapSpec(kind=CapKind.SPHERE_CAP, a=0.6, r=0.7))
        phi = smooth_field(cap)
        fd_variation_check(cap, phi, Q=Q)
        suite(cap, Q)
        plane = build(CapSpec(kind=CapKind.TILTED_PLANE_CAP, beta=1.0))
        suite(plane, Q)
        umbilicity_deficit(plane, Q)
        refs = [weakref.ref(cap), weakref.ref(plane)]
        gc.disable()
        try:
            del cap, plane, phi
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
