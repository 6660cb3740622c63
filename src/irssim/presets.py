"""Built-in experiment presets, each a config document that ``parse_scenario`` reads.

The source figures publish no parameter table, so every preset uses one
documented default parameter set; its assumptions are carried verbatim in the
result metadata. Absolute SINR levels are therefore illustrative; the curve
shapes and relative gaps are the reproducible part.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from irssim.config import parse_scenario
from irssim.errors import InvalidInputError
from irssim.sweep import Scenario, SweepSpec

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


def _text(name: str) -> str:
    """The config document of a named preset."""
    if name not in _PRESETS:
        raise InvalidInputError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    panel = _PRESETS[name][1]
    return _DOCUMENT.format(name=name) + ("" if panel is None else _PANEL.format(*panel))


def build_preset(name: str) -> Tuple[Scenario, SweepSpec]:
    """Scenario and sweep grid for a named built-in experiment."""
    scenario, spec = parse_scenario(_text(name), source=f"preset {name}")
    assumptions = _DEFAULT_ASSUMPTIONS + _PRESETS[name][2]
    return dataclasses.replace(scenario, assumptions=assumptions), spec
