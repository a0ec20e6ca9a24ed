"""Shared fixtures: representative surfaces and quadrature settings."""

import math

import numpy as np
import pytest

from horocap.families import CapKind, CapSpec, PerturbationSpec, build, perturb
from horocap.identities import cmc_stats
from horocap.quadrature import QuadratureSpec
from horocap.stability import FIELD_RULE, ScalarField, _grid
from horocap.surfaces import integrate_M


def cap(kind=CapKind.SPHERE_CAP, n=2, a=1.0, r=0.5, **kw):
    return build(CapSpec(kind=kind, n=n, a=a, r=r, **kw))


@pytest.fixture(scope="session")
def ortho_cap():
    """Sphere cap centered on the support: contact angle pi/2, H = n*a/r."""
    return cap()


@pytest.fixture(scope="session")
def tilted_cap():
    """Off-center sphere cap with oblique contact angle."""
    return cap(a=0.6, r=0.7)


@pytest.fixture(scope="session")
def cap_3d():
    return cap(n=3, a=0.8, r=0.6)


@pytest.fixture(scope="session")
def geodesic_hemisphere():
    """Totally geodesic piece: sphere centered on the ideal boundary."""
    return cap(kind=CapKind.EQUIDISTANT_SPHERE_CAP, a=0.0, r=2.0)


@pytest.fixture(scope="session")
def equidistant_cap():
    return cap(kind=CapKind.EQUIDISTANT_SPHERE_CAP, a=-0.5, r=2.0)


@pytest.fixture(scope="session")
def vertical_plane():
    return build(CapSpec(kind=CapKind.VERTICAL_PLANE_DISK, n=2, extent=1.0))


@pytest.fixture(scope="session")
def tilted_plane():
    return build(CapSpec(kind=CapKind.TILTED_PLANE_CAP, n=2,
                         beta=math.pi / 3, extent=1.0))


@pytest.fixture(scope="session")
def bumped_cap():
    """Constant-angle, non-CMC negative control."""
    return perturb(cap(), PerturbationSpec(amplitude=1e-2))


@pytest.fixture(scope="session")
def quad():
    return QuadratureSpec(128)


@pytest.fixture(scope="session")
def quad_fast():
    return QuadratureSpec(64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


@pytest.fixture(scope="session")
def distinguished_fields():
    """fields(S, resolution) -> (phi_test, Phi) of S on its grid.

    phi_test = n V - H g(X,nu) - n cos(theta) g(x,nu) is the test function
    of the stability argument and Phi = -H V - n g(E,nu) its auxiliary
    function, read off the Meridian at the grid nodes; H is the
    area-weighted mean of cmc_stats on FIELD_RULE.
    """
    def fields(S, resolution=128):
        m = S.meridian(_grid(S, resolution).nodes)
        n, (H, _) = S.n, cmc_stats(S, FIELD_RULE)
        ct = math.cos(S.boundary_frame_at().theta)
        return (ScalarField(S, n * m.V - H * m.gXnu - n * ct * m.gxnu),
                ScalarField(S, -H * m.V - n * m.gEnu))
    return fields


@pytest.fixture(scope="session")
def norm_sq():
    """norm_sq(phi): the L2 norm squared of a field's spline over its
    surface, on FIELD_RULE; the scale of the kernel bounds."""
    def norm_sq(phi):
        return integrate_M(phi.surface, phi.read(FIELD_RULE)[0] ** 2,
                           FIELD_RULE)
    return norm_sq
