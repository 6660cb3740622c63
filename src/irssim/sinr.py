"""Downlink SINR from received power, interference and noise."""

from __future__ import annotations

import enum
import math
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


@dataclass(frozen=True)
class LinkBudget:
    """Received power, interference, noise and the resulting SINR."""

    rx_power: float
    interference: float
    noise: float
    sinr_linear: float
    sinr_db: float


class InterferenceMode(enum.Enum):
    CONSTANT_POWER = "constant"
    MODELED_INTERFERERS = "modeled"


@dataclass(frozen=True)
class InterfererSet:
    """Either a fixed interference power or explicit interfering transmitters."""

    mode: InterferenceMode = InterferenceMode.CONSTANT_POWER
    constant_power: float = 0.0
    interferers: Tuple[Tuple[ChannelParams, Point3], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.mode is InterferenceMode.CONSTANT_POWER:
            if not (self.constant_power >= 0):
                raise InvalidInputError(
                    f"constant interference must be >= 0 W, got {self.constant_power!r}")

    @classmethod
    def constant(cls, watts: float) -> "InterfererSet":
        return cls(mode=InterferenceMode.CONSTANT_POWER, constant_power=watts)

    @classmethod
    def modeled(cls, entries: Sequence[Tuple[ChannelParams, Point3]]) -> "InterfererSet":
        return cls(mode=InterferenceMode.MODELED_INTERFERERS, interferers=tuple(entries))


def sinr(rx_power: float, interference: float, noise: float) -> LinkBudget:
    """SINR = rx_power / (interference + noise), as a populated link budget."""
    if not (rx_power > 0):
        raise InvalidInputError(f"rx_power must be > 0 W, got {rx_power!r}")
    if not (interference >= 0):
        raise InvalidInputError(f"interference must be >= 0 W, got {interference!r}")
    if not (noise > 0):
        raise InvalidInputError(f"noise must be > 0 W, got {noise!r}")
    linear = rx_power / (interference + noise)
    return LinkBudget(
        rx_power=rx_power,
        interference=interference,
        noise=noise,
        sinr_linear=linear,
        sinr_db=10.0 * math.log10(linear),
    )


def aggregate_interference(
    interferer_set: InterfererSet,
    rx: Points,
    fading: FadingModel,
    stream_base: int = 0,
    model: ConventionalModel = ConventionalModel.PAPER,
) -> Union[float, np.ndarray]:
    """Total interference power at rx, in watts.

    Constant mode passes the configured scalar through; modeled mode sums the
    direct-link received power from each interferer. Receiver p of an array
    of shape (P, 3) gives element p of the result and draws one fading gain
    per interferer j at stream index ``stream_base + p * n + j`` (n
    interferers); a single receiver is p = 0.
    """
    if interferer_set.mode is InterferenceMode.CONSTANT_POWER:
        return interferer_set.constant_power
    single = isinstance(rx, Point3)
    receivers = 1 if single else len(rx)
    count = len(interferer_set.interferers)
    gains = sample_fading_block(fading, stream_base, receivers * count).reshape(receivers, count)
    total = 0.0
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
