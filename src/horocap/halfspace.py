"""Point and tangent-vector records of the half-space model g = delta / x_d^2.

No command builds them: they stay for the ``halfspace.objects`` counter
of the benchmark tracer (``perfbench/tracer.py``), which patches their
``__post_init__``, and go with that counter (ROADMAP item 7).
"""

from dataclasses import dataclass

import numpy as np

from .surfaces import GeometryError

__all__ = ["HPoint", "HVector"]


@dataclass(frozen=True)
class HPoint:
    """Point of the open upper half-space, in Euclidean coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        if c.ndim != 1 or c.shape[0] < 3:
            raise GeometryError("point needs at least 3 coordinates (n >= 2)")
        if not c[-1] > 0.0:
            raise GeometryError(f"point has x_d = {c[-1]}, not inside the half-space")

    @property
    def height(self) -> float:
        return float(self.coords[-1])

    @property
    def ambient_dim(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class HVector:
    """Tangent vector at a point, in Euclidean coordinate components."""

    base: HPoint
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", c)
        if c.shape != self.base.coords.shape:
            raise GeometryError("vector components must match base point dimension")

    def norm(self) -> float:
        """Hyperbolic norm: Euclidean norm divided by the base height."""
        return float(np.linalg.norm(self.components) / self.base.height)
