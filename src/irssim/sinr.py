"""Interference and noise powers: the denominator of the downlink SINR."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple, Union

import numpy as np

from irssim.channel import (
    ChannelParams,
    ConventionalModel,
    FadingModel,
    conventional_rx_power,
    sample_fading_block,
)
from irssim.errors import DegenerateGeometryError, InvalidInputError
from irssim.geometry import Point3, Points, distance

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
        if not (self.constant_power >= 0):
            raise InvalidInputError(
                f"constant interference must be >= 0 W, got {self.constant_power!r}")

    @classmethod
    def constant(cls, watts: float) -> "InterfererSet":
        return cls(constant_power=watts)

    @classmethod
    def modeled(cls, entries: Sequence[Tuple[ChannelParams, Point3]]) -> "InterfererSet":
        return cls(interferers=tuple(entries))


def aggregate_interference(
    interferer_set: InterfererSet,
    rx: Points,
    fading: FadingModel,
    model: ConventionalModel = ConventionalModel.PAPER,
) -> Union[float, np.ndarray]:
    """Total interference power at rx, in watts.

    The constant floor plus the direct-link received power from each
    modeled interferer. Receiver p of an array of shape (P, 3) gives element
    p of the result and draws one fading gain per interferer j at stream
    index ``_INTERFERENCE_STREAM_BASE + p * n + j`` (n interferers); a
    single receiver is p = 0. With no interferers the floor is returned as
    is and nothing is drawn.
    """
    total = interferer_set.constant_power
    if not interferer_set.interferers:
        return total
    single = isinstance(rx, Point3)
    receivers = 1 if single else len(rx)
    count = len(interferer_set.interferers)
    gains = sample_fading_block(
        fading, _INTERFERENCE_STREAM_BASE, receivers * count).reshape(receivers, count)
    for offset, (params, position) in enumerate(interferer_set.interferers):
        r = distance(position, rx)
        if np.any(np.equal(r, 0.0)):
            raise DegenerateGeometryError(
                f"interferer {offset} at {position} coincides with the receiver")
        gain = float(gains[0, offset]) if single else gains[:, offset]
        total += conventional_rx_power(params, r, gain, model)
    return total


def thermal_noise_watts(bandwidth_hz: float, temperature_k: float = REFERENCE_TEMPERATURE_K) -> float:
    """k*T*B thermal noise floor for a given bandwidth."""
    if not (bandwidth_hz > 0):
        raise InvalidInputError(f"bandwidth must be > 0 Hz, got {bandwidth_hz!r}")
    if not (temperature_k > 0):
        raise InvalidInputError(f"temperature must be > 0 K, got {temperature_k!r}")
    return BOLTZMANN * temperature_k * bandwidth_hz
