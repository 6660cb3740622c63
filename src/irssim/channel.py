"""Received-power models, fading draws, and power-unit conversions.

Two downlink models are provided: the direct small-cell link and the
cascaded link through a passive reflecting panel. Everything here computes
in SI units (watts, meters, hertz, linear gains); dB and dBm appear only in
the explicit conversion helpers.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from irssim.errors import DegenerateGeometryError, InvalidInputError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

Length = Union[float, np.ndarray]


class FadingMode(enum.Enum):
    DETERMINISTIC = "deterministic"
    RAYLEIGH_EXPONENTIAL = "rayleigh"


class ConventionalModel(enum.Enum):
    """Which direct-link formula to use.

    PAPER keeps the wavelength to the first power; FRIIS uses the textbook
    lambda^2 numerator for sanity comparison. Both divide by r^alpha * 16*pi^2.
    """

    PAPER = "paper"
    FRIIS = "friis"


def _check_type(name: str, value: object, kind: type) -> None:
    """Reject anything but a ``kind``: an enum names its members and shows the
    value (such as its value string), a class names itself and the type it got."""
    if not isinstance(value, kind):
        if issubclass(kind, enum.Enum):
            accepted = " or ".join(f"{kind.__name__}.{member.name}" for member in kind)
            raise InvalidInputError(f"{name} must be {accepted}, got {value!r}")
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InvalidInputError(
            f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")


def _read(values: Iterable, name: str, size: Optional[int] = None) -> tuple:
    """``values``, any iterable, read once into a tuple, of ``size`` items if a
    size is given; any other value is an InvalidInputError naming ``name``."""
    if not isinstance(values, Iterable):
        raise InvalidInputError(f"{name} must be iterable, got {type(values).__name__}")
    items = tuple(values)
    if size is not None and len(items) != size:
        raise InvalidInputError(f"{name} must hold {size} values, got {values!r}")
    return items


def _integer(name: str, value: int) -> int:
    """A Python or numpy integer as a Python int; a float or bool would run
    truncated but be reported as given, so it is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value: float) -> float:
    """``value`` if it is a Python or numpy real number a float can hold; a bool
    would run as 0 or 1, and a string would fail a range test with a TypeError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(value, int) and abs(value) > sys.float_info.max):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    return value


def _seed(value: int) -> int:
    """A seed of the splitmix64 streams: an integer in [0, 2**64), as a Python int."""
    seed = _integer("seed", value)
    if not (0 <= seed < 2 ** 64):
        raise InvalidInputError(f"seed must lie in [0, 2**64), got {seed!r}")
    return seed


@dataclass(frozen=True)
class ChannelParams:
    """Carrier, transmit power, path-loss exponent and noise.

    All powers in watts, frequency in hertz, path_loss_exponent dimensionless.
    """

    carrier_frequency: float
    tx_power: float
    path_loss_exponent: float
    noise_power: float

    def __post_init__(self) -> None:
        for name in ("carrier_frequency", "tx_power", "path_loss_exponent", "noise_power"):
            value = _real(name, getattr(self, name))
            if name == "path_loss_exponent" and not (0 <= value < math.inf):
                raise InvalidInputError(f"{name} must be finite and >= 0, got {value!r}")
            if name != "path_loss_exponent" and not (0 < value < math.inf):
                raise InvalidInputError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def wavelength(self) -> float:
        """Wavelength c/f in meters."""
        return SPEED_OF_LIGHT / self.carrier_frequency


@dataclass(frozen=True)
class IrsPanel:
    """Reflecting-panel parameters: element geometry, counts, gains, angles.

    Gains are linear (not dB); angles are in degrees and must satisfy
    0 <= theta < 90 so both cosine factors stay strictly positive.
    """

    element_length: float
    element_width: float
    tx_side_elements: int
    rx_side_elements: int
    reflection_coefficient: float
    tx_gain: float
    rx_gain: float
    theta_t: float
    theta_r: float

    def __post_init__(self) -> None:
        for name in ("element_length", "element_width", "tx_gain", "rx_gain"):
            value = _real(name, getattr(self, name))
            if not (0 < value < math.inf):
                raise InvalidInputError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("tx_side_elements", "rx_side_elements"):
            count = _integer(name, getattr(self, name))
            if count < 1:
                raise InvalidInputError(f"{name} must be an integer >= 1, got {count!r}")
            object.__setattr__(self, name, count)
        if not (0 < _real("reflection_coefficient", self.reflection_coefficient) <= 1):
            raise InvalidInputError(
                f"reflection_coefficient must lie in (0, 1], got {self.reflection_coefficient!r}")
        for name in ("theta_t", "theta_r"):
            angle = _real(name, getattr(self, name))
            if not (0 <= angle < 90):
                raise InvalidInputError(f"{name} must lie in [0, 90), got {angle!r}")


@dataclass(frozen=True)
class FadingModel:
    """Small-scale fading: a fixed unit gain or unit-mean exponential draws."""

    mode: FadingMode = FadingMode.DETERMINISTIC
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _check_type("fading mode", self.mode, FadingMode)
        if self.seed is not None:
            object.__setattr__(self, "seed", _seed(self.seed))
        elif self.mode is FadingMode.RAYLEIGH_EXPONENTIAL:
            raise InvalidInputError("rayleigh fading requires a seed")


def watts_to_dbm(watts: float) -> float:
    if not (watts > 0):
        raise InvalidInputError(f"power must be > 0 W for dBm conversion, got {watts!r}")
    return _watts_to_dbm_array(np.array([watts], dtype=float)).item()


def _watts_to_dbm_array(watts: np.ndarray) -> np.ndarray:
    """10*log10(watts / 1 mW) of each power (every one > 0 W), in a new array.

    The logarithm is the scalar ``math.log10`` of each value: ``np.log10``
    can differ from it in the last bit.
    """
    with np.errstate(over="ignore"):
        milliwatts = watts / 1e-3
    dbm = np.fromiter(map(math.log10, milliwatts.ravel().tolist()), float, milliwatts.size)
    dbm = dbm.reshape(watts.shape)
    # a finite power above about 1.8e305 W overflows in milliwatts
    over = milliwatts == math.inf
    if over.any():
        dbm[over] = np.fromiter(map(math.log10, watts[over].tolist()), float) + 3.0
    dbm *= 10.0
    return dbm


def dbm_to_watts(dbm: float) -> float:
    return ratio_from_db(dbm) * 1e-3


def ratio_from_db(db: float) -> float:
    """10**(db/10), or inf where that overflows a float, so a range check rejects it."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


# splitmix64 finalizer; counter-based so (seed, stream_index) fully
# determines each draw, independent of evaluation order or platform.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)
# built once: the Python between the array calls of a block holds the
# interpreter lock, which the other fading workers wait on
_GAMMA = int(_SM64_GAMMA)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (np.uint64(s) for s in (11, 27, 30, 31))


# the splitmix64 state is hashed in blocks of this many stream indices (256
# KiB, with as much scratch), so every step of the hash runs on cache-resident data
_HASH_BLOCK = 1 << 15
# j * gamma for j < _HASH_BLOCK: the counter state of a block starting at index
# i is (i + 1) * gamma + seed plus this row, modulo 2**64 as in splitmix64
_COUNTER_STEPS = np.arange(_HASH_BLOCK, dtype=np.uint64)
_COUNTER_STEPS *= _SM64_GAMMA
# the step from the counter state of index i to that of i + _HASH_BLOCK
_BLOCK_STEP = np.uint64(_HASH_BLOCK * _GAMMA % 2 ** 64)


def _hash_block(seed: int, start_index: int, out: np.ndarray, scratch: np.ndarray) -> None:
    """The top 53 bits of the splitmix64 output of stream indices start_index,
    ... as floats in out, which holds at most 2 * _HASH_BLOCK of them.

    Hashes the state in place in ``out``, viewed as integers, with ``scratch``
    (at least len(out) integers) holding the shifted state. Past the first
    _HASH_BLOCK indices, each counter state is the one _HASH_BLOCK indices
    earlier plus _BLOCK_STEP, so one counter table serves spans of twice its
    length without holding twice the memory.
    """
    count = len(out)
    z = out.view(np.uint64)
    scratch = scratch[:count]
    np.add(_COUNTER_STEPS[:count], np.uint64(((start_index + 1) * _GAMMA + seed) % 2 ** 64),
           z[:_HASH_BLOCK])
    if count > _HASH_BLOCK:
        np.add(z[:count - _HASH_BLOCK], _BLOCK_STEP, z[_HASH_BLOCK:])
    np.right_shift(z, _SHIFT_30, scratch)
    z ^= scratch
    z *= _SM64_M1
    np.right_shift(z, _SHIFT_27, scratch)
    z ^= scratch
    z *= _SM64_M2
    np.right_shift(z, _SHIFT_31, scratch)
    z ^= scratch
    # the top 53 bits lie below 2**53, so their signed view casts exactly
    np.right_shift(z, _SHIFT_11, scratch)
    np.copyto(out, scratch.view(np.int64), casting="unsafe")


def sample_fading_block(model: FadingModel, start_index: int, count: int) -> np.ndarray:
    """Fading gains for stream indices start_index .. start_index+count-1,
    which must lie in [0, 2**64).

    Up to _HASH_BLOCK draws are hashed in one span, with scratch of their own
    length. More are hashed in few, long spans: the first half, up to
    2 * _HASH_BLOCK indices, in place with the not yet hashed second half as
    its scratch, then the rest in _HASH_BLOCK pieces with one _HASH_BLOCK of
    scratch (100 000 draws take 3 spans). So a call holds its draws and at
    most one _HASH_BLOCK of scratch, and each draw is the same whatever span
    hashes it.
    """
    start_index = _integer("start_index", start_index)
    count = _integer("count", count)
    if count < 0:
        raise InvalidInputError(f"count must be >= 0, got {count!r}")
    if not (0 <= start_index and start_index + count <= 2 ** 64):
        raise InvalidInputError(
            "stream indices must lie in [0, 2**64),"
            f" got start_index={start_index!r} and count={count!r}")
    if model.mode is FadingMode.DETERMINISTIC:
        return np.ones(count)
    gains = np.empty(count)
    seed = model.seed
    # each span is a dozen array calls, and each call releases and retakes the
    # interpreter lock that the other fading workers wait on: fewer, longer
    # spans let them overlap better
    head = min(count // 2, 2 * _HASH_BLOCK) if count > _HASH_BLOCK else 0
    # made with the draws, before any span is hashed: made after the first
    # span, it raised the peak resident memory of long passes by about 0.3 MB
    scratch = np.empty(min(count - head, _HASH_BLOCK), dtype=np.uint64)
    if head:
        _hash_block(seed, start_index, gains[:head], gains[head:].view(np.uint64))
    for first in range(head, count, _HASH_BLOCK):
        _hash_block(seed, start_index + first, gains[first:first + _HASH_BLOCK], scratch)
    # the elementwise rest runs once over the whole row, not per block: the
    # fading workers overlap long array calls, while short ones mostly wait
    # on each other for the interpreter lock. Offset by half an ulp to avoid
    # both endpoints of (0, 1), then -log of that uniform
    gains += 0.5
    gains *= 2.0 ** -53
    np.log(gains, gains)
    np.negative(gains, gains)
    return gains


def _all_positive(value: Union[float, np.ndarray]) -> bool:
    return bool(np.all(np.greater(value, 0)))


def conventional_rx_power(
    params: ChannelParams,
    r: Length,
    fading_gain: Union[float, np.ndarray] = 1.0,
    model: ConventionalModel = ConventionalModel.PAPER,
) -> Union[float, np.ndarray]:
    """Direct-link received power in watts at distance r.

    PAPER form: lambda * L * P_t / (r^alpha * 16 * pi^2).
    FRIIS form: identical with lambda squared in the numerator.
    Distances and gains may be arrays; they broadcast elementwise.
    """
    _check_type("model", model, ConventionalModel)
    if not _all_positive(r):
        raise DegenerateGeometryError(f"link distance must be > 0, got {float(np.min(r))!r}")
    if not _all_positive(fading_gain):
        raise InvalidInputError(f"fading gain must be > 0, got {fading_gain!r}")
    lam = params.wavelength
    numerator = lam if model is ConventionalModel.PAPER else lam * lam
    return (numerator * fading_gain * params.tx_power
            / (r ** params.path_loss_exponent * 16.0 * math.pi ** 2))


def irs_rx_power(
    params: ChannelParams,
    panel: IrsPanel,
    r1: Length,
    r2: Length,
) -> Union[float, np.ndarray]:
    """Cascaded received power in watts through the reflecting panel.

    l_x*w_y*m^2*n^2*lambda^2*G_T*G_R*G*cos(theta_t)*cos(theta_r)*A^2
    / (64*pi^3*(r1*r2)^2) * P_t, with G = 4*pi*l_x*w_y/lambda^2 the element
    aperture gain; the wavelength cancels once G is substituted. Leg lengths
    r1 (tx to panel) and r2 (panel to rx) may be arrays; they broadcast
    elementwise and give an array of powers.
    """
    if not (_all_positive(r1) and _all_positive(r2)):
        raise DegenerateGeometryError(
            f"cascade legs must be > 0, got r1={r1!r}, r2={r2!r}")
    lam = params.wavelength
    g = 4.0 * math.pi * panel.element_length * panel.element_width / (lam * lam)
    m = panel.tx_side_elements
    n = panel.rx_side_elements
    numerator = (panel.element_length * panel.element_width
                 * m * m * n * n * lam * lam
                 * panel.tx_gain * panel.rx_gain * g
                 * math.cos(math.radians(panel.theta_t))
                 * math.cos(math.radians(panel.theta_r))
                 * panel.reflection_coefficient ** 2)
    denominator = 64.0 * math.pi ** 3 * (r1 * r2) ** 2
    return numerator / denominator * params.tx_power
