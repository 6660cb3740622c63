"""3D positions, and the link distances the sweep kernel measures between them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from irssim.channel import _real
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


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances in meters between coordinate arrays whose trailing
    axis holds x, y and z; the other axes broadcast."""
    # one difference per axis, each contiguous: the same sums as squaring
    # strided views of a - b, in the same order
    dx, dy, dz = (a[..., i] - b[..., i] for i in range(3))
    return np.sqrt(dx * dx + dy * dy + dz * dz)
