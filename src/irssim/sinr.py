"""Interference and noise powers: the denominator of the downlink SINR."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from irssim.channel import (
    ChannelParams,
    ConventionalModel,
    FadingModel,
    _real,
    conventional_rx_power,
    sample_fading_block,
)
from irssim.errors import DegenerateGeometryError, InvalidInputError
from irssim.geometry import Point3, distance

BOLTZMANN = 1.380649e-23  # J/K
REFERENCE_TEMPERATURE_K = 290.0

# interference fading draws live in their own half of the stream space so
# they can never collide with signal draws
_INTERFERENCE_STREAM_BASE = 1 << 62


@dataclass(frozen=True)
class InterfererSet:
    """A constant interference floor plus explicit interfering transmitters, summed."""

    constant_power: float = 0.0
    interferers: Tuple[Tuple[ChannelParams, Point3], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not (0 <= _real("constant interference", self.constant_power) < math.inf):
            raise InvalidInputError(
                f"constant interference must be finite and >= 0 W, got {self.constant_power!r}")

    @classmethod
    def constant(cls, watts: float) -> "InterfererSet":
        return cls(constant_power=watts)

    @classmethod
    def modeled(cls, entries: Sequence[Tuple[ChannelParams, Point3]]) -> "InterfererSet":
        return cls(interferers=tuple(entries))


def aggregate_interference(
    interferer_set: InterfererSet,
    rx: np.ndarray,
    fading: FadingModel,
    model: ConventionalModel = ConventionalModel.PAPER,
) -> np.ndarray:
    """Total interference power at each receiver, in watts, shape (P,).

    The constant floor plus the direct-link received power from each
    modeled interferer at the receivers ``rx``, coordinates of shape (P, 3).
    Receiver p draws one fading gain per interferer j at stream index
    ``_INTERFERENCE_STREAM_BASE + p * n + j`` (n interferers). With no
    interferers nothing is drawn.
    """
    if not (isinstance(rx, np.ndarray) and rx.ndim == 2 and rx.shape[1] == 3):
        got = f"shape {rx.shape}" if isinstance(rx, np.ndarray) else type(rx).__name__
        raise InvalidInputError(f"rx must be a numpy array of shape (P, 3), got {got}")
    total = np.full(len(rx), interferer_set.constant_power)
    if not interferer_set.interferers:
        return total
    count = len(interferer_set.interferers)
    gains = sample_fading_block(
        fading, _INTERFERENCE_STREAM_BASE, len(rx) * count).reshape(len(rx), count)
    for offset, (params, position) in enumerate(interferer_set.interferers):
        r = distance(position, rx)
        if np.any(np.equal(r, 0.0)):
            raise DegenerateGeometryError(
                f"interferer {offset} at {position} coincides with the receiver")
        total += conventional_rx_power(params, r, gains[:, offset], model)
    return total


def thermal_noise_watts(bandwidth_hz: float) -> float:
    """k*T*B thermal noise floor for a given bandwidth at the 290 K reference temperature."""
    if not (bandwidth_hz > 0):
        raise InvalidInputError(f"bandwidth must be > 0 Hz, got {bandwidth_hz!r}")
    return BOLTZMANN * REFERENCE_TEMPERATURE_K * bandwidth_hz
