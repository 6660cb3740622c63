"""Scenario configuration parsing.

Configs are flat INI-style documents with sections ``channel``, ``geometry``,
``panel``, ``fading`` and ``sweep``. Powers are given in dBm and gains in dBi
at this boundary; everything is converted to watts and linear gain here, once.
An unknown section or key is rejected, so a typo cannot silently fall back
to a default. Values are literal: ``%`` is not an interpolation marker.
"""

from __future__ import annotations

import configparser
from typing import Optional, Tuple

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

_ALLOWED_KEYS = {
    "channel": ("frequency_hz", "tx_power_dbm", "path_loss_exponent", "noise_dbm",
                "noise_bandwidth_hz", "interference_dbm", "model"),
    "geometry": ("mode", "label", "tx", "irs", "rx_direction"),
    "panel": ("element_length_m", "element_width_m", "tx_side_elements", "rx_side_elements",
              "reflection_coefficient", "tx_gain_dbi", "rx_gain_dbi", "theta_t", "theta_r"),
    "fading": ("mode", "seed"),
    "sweep": ("start", "stop", "steps", "trials", "seed"),
}


def _get(section: configparser.SectionProxy, key: str, kind=float, default=None):
    name = f"{section.name}.{key}"
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"missing required key {name}")
    raw = section[key]
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            value = float(raw)
            if not value.is_integer():  # also rejects nan and +-inf
                raise ValueError
            return int(value)
        return raw.strip()
    except ValueError:
        raise ConfigError(f"{name} must be a {kind.__name__}, got {raw!r}") from None


def _get_point(section: configparser.SectionProxy, key: str) -> Point3:
    name = f"{section.name}.{key}"
    if key not in section:
        raise ConfigError(f"missing required key {name}")
    parts = section[key].replace(",", " ").split()
    if len(parts) != 3:
        raise ConfigError(f"{name} must be three coordinates 'x y z', got {section[key]!r}")
    try:
        return Point3(*(float(p) for p in parts))
    except (ValueError, InvalidInputError):
        raise ConfigError(f"{name} must be three finite numbers, got {section[key]!r}") from None


def _section(parser: configparser.ConfigParser, name: str) -> configparser.SectionProxy:
    if not parser.has_section(name):
        raise ConfigError(f"missing required section [{name}]")
    return parser[name]


def _parse_channel(
    section: configparser.SectionProxy,
) -> Tuple[ChannelParams, ConventionalModel, InterfererSet]:
    has_noise_dbm = "noise_dbm" in section
    has_bandwidth = "noise_bandwidth_hz" in section
    if has_noise_dbm == has_bandwidth:
        raise ConfigError(
            "channel noise requires exactly one of channel.noise_dbm, channel.noise_bandwidth_hz")
    noise = (dbm_to_watts(_get(section, "noise_dbm"))
             if has_noise_dbm
             else thermal_noise_watts(_get(section, "noise_bandwidth_hz")))
    model_name = _get(section, "model", str, default="paper")
    try:
        model = ConventionalModel(model_name)
    except ValueError:
        raise ConfigError(f"channel.model must be 'paper' or 'friis', got {model_name!r}") from None
    try:
        params = ChannelParams(
            carrier_frequency=_get(section, "frequency_hz"),
            tx_power=dbm_to_watts(_get(section, "tx_power_dbm")),
            path_loss_exponent=_get(section, "path_loss_exponent"),
            noise_power=noise,
        )
        interference = InterfererSet.constant(dbm_to_watts(_get(section, "interference_dbm")))
    except InvalidInputError as exc:
        raise ConfigError(f"channel: {exc}") from None
    return params, model, interference


def _parse_panel(section: configparser.SectionProxy) -> IrsPanel:
    try:
        return IrsPanel(
            element_length=_get(section, "element_length_m"),
            element_width=_get(section, "element_width_m"),
            tx_side_elements=_get(section, "tx_side_elements", int),
            rx_side_elements=_get(section, "rx_side_elements", int),
            reflection_coefficient=_get(section, "reflection_coefficient"),
            tx_gain=ratio_from_db(_get(section, "tx_gain_dbi")),
            rx_gain=ratio_from_db(_get(section, "rx_gain_dbi")),
            theta_t=_get(section, "theta_t"),
            theta_r=_get(section, "theta_r"),
        )
    except InvalidInputError as exc:
        raise ConfigError(f"panel.{exc}") from None


def _parse_fading(parser: configparser.ConfigParser, seed: int) -> FadingModel:
    """Fading model; the sweep seed drives every draw, so fading.seed may only repeat it."""
    if not parser.has_section("fading"):
        return FadingModel(mode=FadingMode.DETERMINISTIC)
    section = parser["fading"]
    if "seed" in section:
        fading_seed = _get(section, "seed", int)
        if fading_seed != seed:
            raise ConfigError(
                f"fading.seed = {fading_seed} differs from sweep.seed = {seed}; "
                "the sweep seed drives every draw, so drop fading.seed or make them equal")
    mode_name = _get(section, "mode", str, default="deterministic")
    if mode_name == "deterministic":
        return FadingModel(mode=FadingMode.DETERMINISTIC)
    if mode_name == "rayleigh":
        return FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=seed)
    raise ConfigError(f"fading.mode must be 'deterministic' or 'rayleigh', got {mode_name!r}")


def _parse_sweep(section: configparser.SectionProxy) -> SweepSpec:
    try:
        return SweepSpec(
            start=_get(section, "start"),
            stop=_get(section, "stop"),
            steps=_get(section, "steps", int),
            trials=_get(section, "trials", int, default=1),
            seed=_get(section, "seed", int, default=0),
        )
    except InvalidInputError as exc:
        raise ConfigError(f"sweep: {exc}") from None


def parse_scenario(text: str) -> Tuple[Scenario, SweepSpec]:
    """Parse and validate a configuration document into a runnable scenario."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from None
    if parser.defaults():
        raise ConfigError("section [DEFAULT] is not supported; set each key in its own section")
    for name in parser.sections():
        allowed = _ALLOWED_KEYS.get(name)
        if allowed is None:
            raise ConfigError(
                f"unknown section [{name}]; expected one of {', '.join(_ALLOWED_KEYS)}")
        for key in parser[name]:
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {name}.{key}; [{name}] accepts {', '.join(allowed)}")

    channel, model, interference = _parse_channel(_section(parser, "channel"))
    geometry = _section(parser, "geometry")
    mode_name = _get(geometry, "mode", str)
    if mode_name not in ("conventional", "irs"):
        raise ConfigError(f"geometry.mode must be 'conventional' or 'irs', got {mode_name!r}")

    tx = _get_point(geometry, "tx")
    irs: Optional[Point3] = None
    panel: Optional[IrsPanel] = None
    if mode_name == "irs":
        irs = _get_point(geometry, "irs")
        panel = _parse_panel(_section(parser, "panel"))
    else:
        if parser.has_section("panel"):
            raise ConfigError("section [panel] is not allowed when geometry.mode = conventional")
        if "irs" in geometry:
            raise ConfigError("geometry.irs is not allowed when geometry.mode = conventional")

    direction = (1.0, 0.0, 0.0)
    if "rx_direction" in geometry:
        point = _get_point(geometry, "rx_direction")
        direction = (point.x, point.y, point.z)

    spec = _parse_sweep(_section(parser, "sweep"))
    fading = _parse_fading(parser, spec.seed)
    label = _get(geometry, "label", str, default="scenario")

    try:
        scenario = Scenario(
            channel=channel,
            fading=fading,
            interference=interference,
            tx=tx,
            panel=panel,
            irs=irs,
            rx_direction=direction,
            conventional_model=model,
            label=label,
        )
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from None
    return scenario, spec
