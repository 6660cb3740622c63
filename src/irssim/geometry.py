"""3D positions and the link distances consumed by the channel models.

:func:`distance` takes either :class:`Point3` values or numpy arrays of
coordinates with a trailing axis of length 3; arrays broadcast against each
other and against points, and give arrays of distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from irssim.channel import Length, _real
from irssim.errors import InvalidInputError


@dataclass(frozen=True)
class Point3:
    """A position in meters. All coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            value = _real(f"coordinate {name}", getattr(self, name))
            if not math.isfinite(value):
                raise InvalidInputError(f"coordinate {name} must be finite, got {value!r}")


Points = Union[Point3, np.ndarray]


def _coordinates(p: Points) -> np.ndarray:
    return np.array((p.x, p.y, p.z)) if isinstance(p, Point3) else np.asarray(p, dtype=float)


def distance(a: Points, b: Points) -> Length:
    """Euclidean distance in meters: a float for two points, else an array."""
    a, b = _coordinates(a), _coordinates(b)
    # one difference per axis, each contiguous: the same sums as squaring
    # strided views of a - b, in the same order
    dx, dy, dz = (a[..., i] - b[..., i] for i in range(3))
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    return float(r) if r.ndim == 0 else r
