"""Elementary geometry of the unit disk: the Cayley transform onto the
right half-plane and the horocycle distance to the boundary point 1.
"""

from __future__ import annotations

from .errors import NotInDiskError, PoleAtOneError


def cayley(z: complex) -> complex:
    """Map the disk onto the right half-plane: z -> (1+z)/(1-z)."""
    if z == 1:
        raise PoleAtOneError("cayley transform has a pole at z = 1")
    return (1 + z) / (1 - z)


def inverse_cayley(w: complex) -> complex:
    """Inverse of :func:`cayley`: w -> (w-1)/(w+1)."""
    if w == -1:
        raise PoleAtOneError("inverse cayley transform has a pole at w = -1")
    return (w - 1) / (w + 1)


def horocycle_distance(z: complex) -> float:
    """d(z) = |1-z|^2 / (1-|z|^2), the horocycle level of z at the point 1.

    Level sets are circles internally tangent to the unit circle at 1.
    """
    denom = 1.0 - abs(z) ** 2
    if denom <= 0.0:
        raise NotInDiskError(f"horocycle distance needs |z| < 1, got |z| = {abs(z)}")
    return abs(1 - z) ** 2 / denom
