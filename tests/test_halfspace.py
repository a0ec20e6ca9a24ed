"""Point and vector records of the half-space model g = delta / x_d^2.

The ambient identities themselves are checked exactly by acceptance
criterion 1.
"""

import numpy as np
import pytest

from horocap.halfspace import HPoint, HVector
from horocap.surfaces import GeometryError


def hpoint(*coords):
    return HPoint(np.array(coords, dtype=float))


class TestMetric:
    def test_point_outside_half_space_rejected(self):
        with pytest.raises(GeometryError):
            hpoint(0.0, 0.0, -1.0)
        with pytest.raises(GeometryError):
            hpoint(0.0, 0.0, 0.0)

    def test_vector_must_match_base_dimension(self):
        p = hpoint(0.0, 0.0, 2.0)
        with pytest.raises(GeometryError):
            HVector(p, np.array([1.0, 0.0]))
        assert HVector(p, np.array([0.0, 0.0, 2.0])).norm() == 1.0
