"""The inputs of the SINR denominator: the interferers and the thermal noise floor.

The sweep kernel (:mod:`irssim.sweep`) sums the interference power at each
receiver, with the fading draws of the modeled interferers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Tuple

from irssim.channel import ChannelParams, _check_type, _positive, _read, _real
from irssim.errors import InvalidInputError
from irssim.geometry import Point3

BOLTZMANN = 1.380649e-23  # J/K
REFERENCE_TEMPERATURE_K = 290.0


@dataclass(frozen=True)
class InterfererSet:
    """A constant interference floor plus explicit interfering transmitters, summed.

    ``interferers`` may be any iterable of (ChannelParams, Point3) pairs, each any iterable of
    two values; all are read once into tuples, so the set hashes. Else an InvalidInputError.
    """

    constant_power: float = 0.0
    interferers: Tuple[Tuple[ChannelParams, Point3], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not (0 <= _real("constant interference", self.constant_power) < math.inf):
            raise InvalidInputError(
                f"constant interference must be finite and >= 0 W, got {self.constant_power!r}")
        pairs = tuple(_read(entry, f"interferer {j}", 2)
                      for j, entry in enumerate(_read(self.interferers, "interferers")))
        for j, (params, position) in enumerate(pairs):
            _check_type(f"interferer {j} parameters", params, ChannelParams)
            _check_type(f"interferer {j} position", position, Point3)
        object.__setattr__(self, "interferers", pairs)

    @classmethod
    def modeled(cls, entries: Iterable[Tuple[ChannelParams, Point3]]) -> "InterfererSet":
        return cls(interferers=entries)


def thermal_noise_watts(bandwidth_hz: float) -> float:
    """k*T*B noise floor at the 290 K reference temperature; bandwidth in Hz, finite and > 0."""
    return BOLTZMANN * REFERENCE_TEMPERATURE_K * _positive("bandwidth", bandwidth_hz)
