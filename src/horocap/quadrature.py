"""Quadrature plumbing: Gauss-Legendre rules and sphere factors.

Every surface integrates with a 1-D Gauss-Legendre rule along the
profile parameter times the exact measure of its cross-section (the unit
(n-1)-sphere of a rotation sweep, the cube of a translation sweep).
The variation fields integrate on the same rules: each is read once per
node set of a rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "gauss_legendre",
    "unit_sphere_area",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre order along the profile parameter."""

    order: int = 128

    def __post_init__(self):
        if self.order < 8:
            raise ValueError("quadrature needs at least 8 nodes per axis")

    def rule(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        return gauss_legendre(self.order, lo, hi)

    def refined(self) -> "QuadratureSpec":
        return QuadratureSpec(order=2 * self.order)


@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only reference rule on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(order: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi], as fresh arrays."""
    x, w = _leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def unit_sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere S^k in R^{k+1}."""
    if k < 0:
        raise ValueError("sphere dimension must be nonnegative")
    if k == 0:
        return 2.0
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)

