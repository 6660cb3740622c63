"""Scenario configuration documents: parsing, and the built-in presets.

Configs are flat INI-style documents with sections ``channel``, ``geometry``,
``panel``, ``fading`` and ``sweep``. Powers are given in dBm and gains in dBi
at this boundary; everything is converted to watts and linear gain here, once.
An unknown section or key is rejected, so a typo cannot silently fall back
to a default; an optional key that is absent is not passed on, so the
``Scenario`` and ``SweepSpec`` defaults apply. Values are literal: ``%`` is
not an interpolation marker.

Each built-in preset is such a document. The source figures publish no
parameter table, so every preset uses one documented default parameter set;
its assumptions are carried verbatim in the result metadata. Absolute SINR
levels are therefore illustrative; the curve shapes and relative gaps are the
reproducible part.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from typing import Callable, Dict, NamedTuple, Tuple

from irssim.channel import (
    ChannelParams,
    ConventionalModel,
    FadingMode,
    FadingModel,
    IrsPanel,
    dbm_to_watts,
    ratio_from_db,
)
from irssim.errors import ConfigError, InvalidInputError
from irssim.geometry import Point3
from irssim.sinr import InterfererSet, thermal_noise_watts
from irssim.sweep import Scenario, SweepSpec


class _Kind(NamedTuple):
    parse: Callable[[str], object]  # raises ValueError on a malformed value
    expected: str


def _integer(raw: str) -> int:
    """An integer literal, exactly; any other numeral only if whole and below 2**53."""
    try:
        return int(raw)
    except ValueError:
        value = float(raw)
    if value.is_integer() and abs(value) < 2 ** 53:
        return int(value)
    raise ValueError(raw)


def _point(raw: str) -> Point3:
    parts = raw.replace(",", " ").split()
    if len(parts) != 3:
        raise ValueError(raw)
    return Point3(*map(float, parts))


def _choice(enum) -> _Kind:
    return _Kind(enum, " or ".join(repr(member.value) for member in enum))


_FLOAT = _Kind(float, "a float")
_INT = _Kind(_integer, "an integer")
_POINT = _Kind(_point, "three finite numbers 'x y z'")
_TEXT = _Kind(str, "text")

_KEYS: Dict[str, Dict[str, _Kind]] = {
    "channel": {"frequency_hz": _FLOAT, "tx_power_dbm": _FLOAT, "path_loss_exponent": _FLOAT,
                "noise_dbm": _FLOAT, "noise_bandwidth_hz": _FLOAT, "interference_dbm": _FLOAT,
                "model": _choice(ConventionalModel)},
    "geometry": {"mode": _TEXT, "label": _TEXT, "tx": _POINT, "irs": _POINT},
    "panel": {"element_length_m": _FLOAT, "element_width_m": _FLOAT, "tx_side_elements": _INT,
              "rx_side_elements": _INT, "reflection_coefficient": _FLOAT,
              "tx_gain_dbi": _FLOAT, "rx_gain_dbi": _FLOAT, "theta_t": _FLOAT,
              "theta_r": _FLOAT},
    "fading": {"mode": _choice(FadingMode), "seed": _INT},
    "sweep": {"start": _FLOAT, "stop": _FLOAT, "steps": _INT, "trials": _INT, "seed": _INT},
}


class _Section(dict):
    """Parsed values of one section; reading an absent key names it."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def __missing__(self, key: str):
        raise ConfigError(f"missing required key {self.name}.{key}")

    def optional(self, **keywords: str) -> Dict[str, object]:
        """keyword -> value for each keyword whose config key is present."""
        return {keyword: self[key] for keyword, key in keywords.items() if key in self}


class _Document(dict):
    def __missing__(self, name: str):
        raise ConfigError(f"missing required section [{name}]")


def _read(text: str, source: str) -> _Document:
    """Every value of the document, parsed to its kind; unknown names are rejected."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        # configparser spreads its message over lines; keep it on one
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"malformed configuration: {message}") from None
    if parser.defaults():
        raise ConfigError("section [DEFAULT] is not supported; set each key in its own section")
    document = _Document()
    for name in parser.sections():
        kinds = _KEYS.get(name)
        if kinds is None:
            raise ConfigError(f"unknown section [{name}]; expected one of {', '.join(_KEYS)}")
        section = document[name] = _Section(name)
        for key, raw in parser[name].items():
            kind = kinds.get(key)
            if kind is None:
                raise ConfigError(f"unknown key {name}.{key}; [{name}] accepts {', '.join(kinds)}")
            try:
                section[key] = kind.parse(raw)
            except ValueError:
                raise ConfigError(
                    f"{name}.{key} must be {kind.expected}, got {raw!r}") from None
    return document


def _channel(channel: _Section) -> Tuple[ChannelParams, InterfererSet]:
    if ("noise_dbm" in channel) == ("noise_bandwidth_hz" in channel):
        raise ConfigError(
            "channel noise requires exactly one of channel.noise_dbm, channel.noise_bandwidth_hz")
    try:
        params = ChannelParams(
            carrier_frequency=channel["frequency_hz"],
            tx_power=dbm_to_watts(channel["tx_power_dbm"]),
            path_loss_exponent=channel["path_loss_exponent"],
            noise_power=(dbm_to_watts(channel["noise_dbm"]) if "noise_dbm" in channel
                         else thermal_noise_watts(channel["noise_bandwidth_hz"])),
        )
        interference_dbm = channel["interference_dbm"]
        if not math.isfinite(interference_dbm):  # -inf dBm would run as 0 W
            raise InvalidInputError(f"interference_dbm must be finite, got {interference_dbm!r}")
        interference = InterfererSet(constant_power=dbm_to_watts(interference_dbm))
    except InvalidInputError as exc:
        raise ConfigError(f"channel: {exc}") from None
    return params, interference


def _panel(panel: _Section) -> IrsPanel:
    try:
        return IrsPanel(
            element_length=panel["element_length_m"],
            element_width=panel["element_width_m"],
            tx_side_elements=panel["tx_side_elements"],
            rx_side_elements=panel["rx_side_elements"],
            reflection_coefficient=panel["reflection_coefficient"],
            tx_gain=ratio_from_db(panel["tx_gain_dbi"]),
            rx_gain=ratio_from_db(panel["rx_gain_dbi"]),
            theta_t=panel["theta_t"],
            theta_r=panel["theta_r"],
        )
    except InvalidInputError as exc:
        raise ConfigError(f"panel: {exc}") from None


def _check_link_mode(document: _Document) -> None:
    """The link is IRS-assisted with geometry.irs and [panel], conventional with neither;
    geometry.mode, if given, must say which."""
    geometry = document["geometry"]
    has_irs = "irs" in geometry
    if has_irs != ("panel" in document):
        raise ConfigError(
            "geometry.irs and [panel] go together: set both for an IRS-assisted link, "
            "neither for a conventional one")
    mode = "irs" if has_irs else "conventional"
    if geometry.get("mode", mode) != mode:
        raise ConfigError(
            f"geometry.mode is {geometry['mode']!r}, but geometry.irs and [panel] make the "
            f"link {mode!r}; geometry.mode is optional, so drop it or make it agree")


def parse_scenario(text: str, *, source: str = "<string>") -> Tuple[Scenario, SweepSpec]:
    """Parse and validate a configuration document into a runnable scenario.

    ``source`` names the document, such as its file path, in syntax diagnostics.
    """
    document = _read(text, source)
    channel, geometry, sweep = document["channel"], document["geometry"], document["sweep"]
    params, interference = _channel(channel)
    _check_link_mode(document)
    try:
        spec = SweepSpec(start=sweep["start"], stop=sweep["stop"], steps=sweep["steps"],
                         **sweep.optional(trials="trials", seed="seed"))
    except InvalidInputError as exc:
        raise ConfigError(f"sweep: {exc}") from None

    fading = document.get("fading", _Section("fading"))
    if fading.get("seed", spec.seed) != spec.seed:
        raise ConfigError(
            f"fading.seed = {fading['seed']} differs from sweep.seed = {spec.seed}; "
            "the sweep seed drives every draw, so drop fading.seed or make them equal")
    scenario = Scenario(
        channel=params,
        fading=FadingModel(seed=spec.seed, **fading.optional(mode="mode")),
        interference=interference,
        tx=geometry["tx"],
        panel=_panel(document["panel"]) if "panel" in document else None,
        irs=geometry.get("irs"),
        **channel.optional(conventional_model="model"),
        **geometry.optional(label="label"),
    )
    return scenario, spec


_DEFAULT_ASSUMPTIONS = (
    "cell radius assumed 100 m",
    "carrier 28 GHz, tx power 30 dBm, path-loss exponent 2",
    "noise floor k*T*B at 290 K over 100 MHz",
    "constant interference -100 dBm",
    "IRS sweeps vary the reflector-to-receiver leg along a fixed ray; "
    "the transmitter-to-reflector leg and both angles stay fixed",
)

# the transmitter 10 m up at the centre of the cell; receivers out to its edge
_DOCUMENT = """\
[channel]
frequency_hz = 28e9
tx_power_dbm = 30
path_loss_exponent = 2
noise_bandwidth_hz = 100e6
interference_dbm = -100

[sweep]
start = 5
stop = 100
steps = 96

[geometry]
label = {name}
tx = 0 0 10
"""

# ends [geometry] with the reflector, on the deployment axis at the transmitter's height
_PANEL = """\
irs = {} 0 10

[panel]
element_length_m = 0.005
element_width_m = 0.005
tx_side_elements = 100
rx_side_elements = 100
reflection_coefficient = 0.9
tx_gain_dbi = 10
rx_gain_dbi = 10
theta_t = {}
theta_r = {}
"""

# name -> (description, (IRS x, theta_t, theta_r) or None for the direct link,
#          assumptions beyond the defaults)
_PRESETS = {
    "fig1": ("conventional downlink, SINR vs tx-rx distance", None, ()),
    "fig2a": ("IRS-assisted, theta_t=45 theta_r=45, SINR vs distance", (50, 45, 45), ()),
    "fig2b": ("IRS-assisted, theta_t=60 theta_r=60, SINR vs distance", (50, 60, 60), ()),
    "fig2c": ("IRS-assisted, theta_t=45 theta_r=60, SINR vs distance", (50, 45, 60), ()),
    # "50 m away from the cell edge", read as 50 m beyond the edge along the
    # deployment axis (the mid-cell placement already sits 50 m inside it)
    "fig2d": ("IRS-assisted, theta_t=60 theta_r=60, IRS 50 m past the cell edge", (150, 60, 60),
              ("IRS placed 50 m beyond the cell edge on the deployment axis",)),
}

PRESET_NAMES = tuple(_PRESETS)
PRESET_DESCRIPTIONS = {name: preset[0] for name, preset in _PRESETS.items()}


def _preset_text(name: str) -> str:
    """The config document of a named preset."""
    if name not in _PRESETS:
        raise InvalidInputError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    panel = _PRESETS[name][1]
    return _DOCUMENT.format(name=name) + ("" if panel is None else _PANEL.format(*panel))


def build_preset(name: str) -> Tuple[Scenario, SweepSpec]:
    """Scenario and sweep grid for a named built-in experiment."""
    scenario, spec = parse_scenario(_preset_text(name), source=f"preset {name}")
    assumptions = _DEFAULT_ASSUMPTIONS + _PRESETS[name][2]
    return dataclasses.replace(scenario, assumptions=assumptions), spec
