"""3D positions and the link distances consumed by the channel models.

The distance functions take either :class:`Point3` values or numpy arrays of
coordinates with a trailing axis of length 3; arrays broadcast against each
other and against points, and give arrays of distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from irssim.errors import DegenerateGeometryError, InvalidInputError


@dataclass(frozen=True)
class Point3:
    """A position in meters. All coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidInputError(f"coordinate {name} must be finite, got {value!r}")

    def translated(self, dx: float, dy: float, dz: float) -> "Point3":
        return Point3(self.x + dx, self.y + dy, self.z + dz)


Points = Union[Point3, np.ndarray]


@dataclass(frozen=True)
class CascadeGeometry:
    """Two-hop tx -> reflector -> rx geometry with both leg lengths.

    Construct via :func:`cascade_distances`; both legs must be strictly
    positive because the cascaded power model divides by (r1 * r2)^2. Built
    from coordinate arrays, r1 and r2 are the broadcast arrays of leg lengths.
    """

    tx: Points
    irs: Points
    rx: Points
    r1: Union[float, np.ndarray]
    r2: Union[float, np.ndarray]


def _coordinates(p: Points) -> np.ndarray:
    return np.array((p.x, p.y, p.z)) if isinstance(p, Point3) else np.asarray(p, dtype=float)


def distance(a: Points, b: Points) -> Union[float, np.ndarray]:
    """Euclidean distance in meters: a float for two points, else an array."""
    d = _coordinates(a) - _coordinates(b)
    r = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2)
    return float(r) if r.ndim == 0 else r


def cascade_distances(tx: Points, irs: Points, rx: Points) -> CascadeGeometry:
    """Build the two-hop geometry, rejecting zero-length legs."""
    r1 = distance(tx, irs)
    r2 = distance(irs, rx)
    if np.any(np.equal(r1, 0.0)):
        raise DegenerateGeometryError("transmitter and reflector coincide (r1 = 0)")
    if np.any(np.equal(r2, 0.0)):
        raise DegenerateGeometryError("reflector and receiver coincide (r2 = 0)")
    return CascadeGeometry(tx=tx, irs=irs, rx=rx, r1=r1, r2=r2)
